"""Print the statements of `src/mls` that no tier-1 test executes.

    python3 scripts/line_coverage.py

Runs the tests under `tests/` in this process through `pytest.main`,
with a `sys.settrace` line tracer on the `src/mls` files, then prints
for each module the statements that never ran (docstrings skipped), as
first lines of the statements, runs of adjacent ones joined as
"first-last".  A host recursion overflow turns tracing off, so the
tracer is armed again before each test and whenever an `MlsError` is
built while it is off: the error that reports the overflow then counts
the `src/mls` lines running on the stack, its own raise among them.
The tracer is armed before `mls` is imported, so module-level lines
count too.  Tracing makes the run several times slower.  Exits with
pytest's status.  Uses the standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mls"


class LineTracer:
    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.hits = defaultdict(set)  # file name -> executed line numbers

    def arm(self):
        sys.settrace(self.trace)

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        hit = self.hits[filename]

        def line(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return line

        return line

    def pytest_runtest_setup(self, item):
        self.arm()

    def rearm_on_error(self, error_class):
        """Wrap `error_class.__init__`: built while tracing is off, an
        error counts the package lines on the stack and arms the tracer."""
        init = error_class.__init__

        def traced_init(error, *args, **kwargs):
            if sys.gettrace() is None:
                frame = sys._getframe(1)
                while frame is not None:
                    if frame.f_code.co_filename.startswith(self.prefix):
                        self.hits[frame.f_code.co_filename].add(frame.f_lineno)
                    frame = frame.f_back
                self.arm()
            init(error, *args, **kwargs)

        error_class.__init__ = traced_init


def _statements(tree):
    """Each statement but a docstring, with the lines of its header:
    all of a simple statement, the part before the body of a compound one."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, str
        ):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((first, max(first, last), node))
    return sorted(out, key=lambda s: s[0])


def _missed(statements: list, hit: set) -> list:
    """(first, last) line of each of `statements` that never ran."""
    headers = {id(node): (first, last) for first, last, node in statements}

    def ran(node):
        if id(node) in headers:
            first, last = headers[id(node)]
            if any(n in hit for n in range(first, last + 1)):
                return True
        # a compound statement whose header runs no code of its own (`try:`)
        return any(ran(child) for child in getattr(node, "body", []))

    return [(first, node.end_lineno) for first, _, node in statements if not ran(node)]


def _runs(missed: list) -> str:
    """Statements given by (first, last) lines, adjacent ones joined."""
    parts = []
    for first, last in missed:
        if parts and parts[-1][1] + 1 >= first:
            parts[-1][1] = max(parts[-1][1], last)
        else:
            parts.append([first, last])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in parts)


def main() -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the tests that start `mls` in a subprocess find it the same way
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tracer = LineTracer()
    tracer.arm()
    from mls import values  # imported under the tracer

    tracer.rearm_on_error(values.MlsError)
    status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[tracer])
    sys.settrace(None)
    total = not_run = 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements = _statements(ast.parse(path.read_text()))
        missed = _missed(statements, tracer.hits[str(path)])
        total, not_run = total + len(statements), not_run + len(missed)
        line = f"{path.relative_to(ROOT)}: {len(missed)} of {len(statements)} statements not run"
        print(line + (f": {_runs(missed)}" if missed else ""))
    print(f"total: {not_run} of {total} statements not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
