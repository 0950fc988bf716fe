"""
The package's declared surface: ``relaydmt`` exports exactly its modules'
``__all__`` names, exported names resolve, each is reached from somewhere
other than the tests, no oracle of ``tests/oracles.py`` is among them, and the
benchmark's traced run can still wrap every attribute it traces.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relaydmt

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "relaybench"
SRC = Path(relaydmt.__path__[0]).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(relaydmt.__path__))


def _names_read_in_src() -> set[str]:
    """Every name the package's code reads, as a bare name or an attribute.

    A definition, an ``__all__`` string and an import (the star imports in
    ``__init__.py``) read nothing, so they do not count; nor do docstrings.
    """
    read = set()
    for path in (ROOT / "src" / "relaydmt").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _text_outside_tests() -> str:
    """The demos, the README and the benchmark (not its own tests)."""
    files = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    files += [p for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    return "\n".join(p.read_text() for p in files)


def test_package_exports_exactly_the_module_exports():
    # A fresh interpreter, so that no submodule another test imported (cli)
    # is counted as a package attribute.
    script = "import json, relaydmt; print(json.dumps(sorted(vars(relaydmt))))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    public = {name for name in json.loads(out.stdout) if not name.startswith("_")}
    modules = ("dmt_core", "reduction", "recursion", "partition", "channel_sim", "stbc")
    exported = set(modules).union(
        *(importlib.import_module(f"relaydmt.{m}").__all__ for m in modules)
    )
    assert public == exported


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"relaydmt.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_reached_outside_tests(name):
    # A public name that only the tests reach belongs beside them (oracles.py).
    module = importlib.import_module(f"relaydmt.{name}")
    read, text = _names_read_in_src(), _text_outside_tests()
    unreached = [
        attr
        for attr in getattr(module, "__all__", ())
        if attr not in read and not re.search(rf"\b{re.escape(attr)}\b", text)
    ]
    assert unreached == []


def test_oracles_stay_out_of_the_package():
    # An oracle is a second derivation beside the tests; one the package
    # exports again would check the package against itself.
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    public = {name for name in vars(relaydmt) if not name.startswith("_")}
    assert defined & public == set()


def test_benchmark_spans_install(monkeypatch):
    # The traced benchmark wraps module attributes by name and stops on
    # a missing one; this fails first when a cleanup drops one of them.
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    run.install_spans(spans.Tracer())


def test_reduction_is_one_analysis():
    # Equivalence and the practical form are read off analyze's report, not exported beside it.
    assert importlib.import_module("relaydmt.reduction").__all__ == ["ReductionReport", "analyze"]
