"""
The package's declared surface: exported names resolve, each is reached
from somewhere other than the tests, and the benchmark's traced run can
still wrap every attribute it traces.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import relaydmt

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "relaybench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(relaydmt.__path__))


def _names_read_in_src() -> set[str]:
    """Every name the package's code reads, as a bare name or an attribute.

    A definition, an ``__all__`` string and an import (the re-exports in
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


def test_benchmark_spans_install(monkeypatch):
    # The traced benchmark wraps module attributes by name and stops on
    # a missing one; this fails first when a cleanup drops one of them.
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    run.install_spans(spans.Tracer())
