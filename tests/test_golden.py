"""Golden outputs: stdout, stderr and exit code of `mls run` on each
corpus script and of `mls analyze` on the analyzer corpus, compared
byte for byte with the files under tests/golden/.

After a deliberate change of output, rewrite the files with
`PYTHONPATH=src python3 tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from mls import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    f"run_{path.stem}": ["run", f"corpus/{path.name}", "--seed", "42"]
    for path in sorted((REPO / "corpus").glob("*.mls"))
}
CASES["analyze_text"] = ["analyze", "corpus/analyzer"]
CASES["analyze_json"] = ["analyze", "corpus/analyzer", "--format", "json"]


def run_case(argv):
    """(stdout, stderr, exit code) of `mls <argv>` run from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return out.getvalue(), err.getvalue(), code


def expected(case):
    return (
        (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8"),
        (GOLDEN / f"{case}.stderr").read_text(encoding="utf-8"),
        int((GOLDEN / f"{case}.code").read_text(encoding="utf-8")),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert run_case(CASES[case]) == expected(case)


def record():
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        out, err, code = run_case(argv)
        (GOLDEN / f"{case}.stdout").write_text(out, encoding="utf-8")
        (GOLDEN / f"{case}.stderr").write_text(err, encoding="utf-8")
        (GOLDEN / f"{case}.code").write_text(f"{code}\n", encoding="utf-8")
        print(f"{case}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    record()
