"""Line census: which function-body lines of ``src/relaydmt/`` no test runs.

A pytest plugin, run by hand and not part of the suite::

    PYTHONPATH=src:tests python -m pytest -q -p census

It traces the test process with ``sys.settrace`` and, at the end of the
session, prints each line of a function body (functions, methods,
lambdas and comprehensions) in the ``relaydmt`` package that never ran,
as ``path:line: source``.  Module and class bodies run at import and are
skipped, except a module's ``if __name__ == "__main__":`` block, which no
import runs.

The report ends with the package's size as ROADMAP aim 2 tracks it: each
file's non-blank, non-comment lines (``grep -cvE '^\s*(#|$)'``), then a
``size:`` line with their sum and the names in all of its modules'
``__all__`` lists.  Run as a script, it prints only those lines, without
running the suite::

    PYTHONPATH=src python tests/census.py

Only this process is traced.  Lines that run only in a subprocess, such
as the demos that ``test_demos`` starts, or only in a pool worker, are
reported as unreached.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import sys
import threading
from types import CodeType

_SPEC = importlib.util.find_spec("relaydmt")
if _SPEC is None:
    print("census: cannot import relaydmt; run with PYTHONPATH=src", file=sys.stderr)
    sys.exit(2)
PACKAGE_DIR = os.path.realpath(_SPEC.submodule_search_locations[0])


def _function_lines(code: CodeType) -> set[int]:
    """Lines of every function code object nested in ``code``, recursively."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                lines.update(line for _, _, line in const.co_lines() if line is not None)
            lines |= _function_lines(const)
    return lines


def _main_block_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'":
            for inner in stmt.body:
                lines.update(range(inner.lineno, inner.end_lineno + 1))
    return lines


def expected_lines(package_dir: str) -> dict[str, set[int]]:
    """Per source file, the lines the census expects some test to run."""
    out = {}
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            path = os.path.join(package_dir, name)
            with open(path) as fh:
                source = fh.read()
            code = compile(source, path, "exec", dont_inherit=True)
            out[path] = _function_lines(code) | _main_block_lines(ast.parse(source))
    return out


def size_report(package_dir: str) -> list[str]:
    """Each file's non-blank, non-comment source lines, then the package's ``size:`` line."""
    report, lines, names = [], 0, 0
    for path in expected_lines(package_dir):
        with open(path) as fh:
            source = fh.read()
        count = sum(1 for line in source.splitlines() if line.strip()[:1] not in ("", "#"))
        report.append(f"{os.path.basename(path)}: {count} lines")
        lines += count
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                names += len(stmt.value.elts)
    report.append(
        f"size: {lines} non-blank, non-comment lines; {names} names in module __all__ lists"
    )
    return report


class Census:
    def __init__(self, package_dir: str):
        self.package_dir = package_dir
        self.prefix = package_dir + os.sep
        self.seen: dict[str, set[int]] = {}
        self._traced: dict[str, bool] = {}  # filename -> whether it is in the package

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        traced = self._traced.get(filename)
        if traced is None:
            traced = self._traced[filename] = os.path.realpath(filename).startswith(self.prefix)
        if not traced:
            return None
        self.seen.setdefault(filename, set()).add(frame.f_lineno)
        return self._local

    def start(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def unreached(self) -> list[tuple[str, int]]:
        seen = {os.path.realpath(f): lines for f, lines in self.seen.items()}
        return [
            (path, line)
            for path, lines in expected_lines(self.package_dir).items()
            for line in sorted(lines - seen.get(path, set()))
        ]


_census = Census(PACKAGE_DIR)


def pytest_configure(config):
    _census.start()


def pytest_terminal_summary(terminalreporter):
    _census.stop()
    unreached = _census.unreached()
    terminalreporter.section(f"census: {len(unreached)} unreached function-body lines")
    root = os.path.dirname(os.path.dirname(_census.package_dir))
    for path, line in unreached:
        with open(path) as fh:
            text = fh.read().splitlines()[line - 1].strip()
        terminalreporter.write_line(f"{os.path.relpath(path, root)}:{line}: {text}")
    for line in size_report(_census.package_dir):
        terminalreporter.write_line(line)


if __name__ == "__main__":
    print("\n".join(size_report(PACKAGE_DIR)))
