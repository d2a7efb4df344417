import admmplan


def test_all_exports_resolve():
    assert len(set(admmplan.__all__)) == len(admmplan.__all__)
    for name in admmplan.__all__:
        assert hasattr(admmplan, name), name
    namespace = {}
    exec("from admmplan import *", namespace)
    assert set(admmplan.__all__) <= set(namespace)
