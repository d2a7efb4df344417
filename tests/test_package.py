import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import admmplan
import admmplan.harness

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "admmplan"
DIGEST = ROOT / "tools" / "digest.py"


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


def test_every_benchmark_hook_point_resolves():
    # The benchmark's tracer replaces these module attributes and classes
    # from outside the package; one that a refactor deleted or renamed
    # would leave its layer silently empty. The per-stamp method names that
    # the tracer still lists for the cost wrappers are out of date and not
    # checked here.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.FUNCTION_HOOKS:
        assert callable(module.__dict__.get(attr)), f"{module.__name__}.{attr}"
    for module, name, _ in tracer.CLASS_HOOKS:
        assert isinstance(module.__dict__.get(name), type), f"{module.__name__}.{name}"
    for name in tracer.PROXY_METHODS:
        assert isinstance(admmplan.harness.__dict__.get(name), type), f"admmplan.harness.{name}"


def test_every_public_name_has_a_caller_outside_tests():
    # A public name that no package module reads and the benchmark does not
    # import serves only the tests. Names are matched by the object's own
    # `__name__`, so `ilqr_solve` counts as `solve` (read as `ilqr.solve`).
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    for path in TRACER.parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [name for name in admmplan.__all__ if getattr(admmplan, name).__name__ not in read]
    assert unread == []


def test_digest_tool_prints_one_stable_digest():
    # Two runs of the same code on one workload print the same SHA-256, so a
    # differing digest between two checkouts means their plans differ.
    command = [sys.executable, str(DIGEST), "--workload", "paper", "--seed", "1"]
    first, second = (subprocess.run(command, capture_output=True, text=True, check=True).stdout
                     for _ in range(2))
    assert first == second
    assert re.fullmatch(r"paper seed 1: [0-9a-f]{64}\n", first)
