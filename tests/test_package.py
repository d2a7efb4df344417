from pathlib import Path

import admmplan

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_exports_resolve():
    assert len(set(admmplan.__all__)) == len(admmplan.__all__)
    for name in admmplan.__all__:
        assert hasattr(admmplan, name), name
    namespace = {}
    exec("from admmplan import *", namespace)
    assert set(admmplan.__all__) <= set(namespace)


def test_readme_library_example_runs(capsys):
    # The public example runs as written, so it cannot drift from the API.
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("converged 5 ")
