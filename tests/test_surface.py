"""
The package's declared surface: exported names resolve, and the
benchmark's traced run can still wrap every attribute it traces.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import relaydmt

BENCH = Path(__file__).resolve().parent.parent / "relaybench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(relaydmt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"relaydmt.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_spans_install(monkeypatch):
    # The traced benchmark wraps module attributes by name and stops on
    # a missing one; this fails first when a cleanup drops one of them.
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    run.install_spans(spans.Tracer())
