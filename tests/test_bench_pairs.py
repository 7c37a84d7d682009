"""`scripts/bench_pairs.py` decides a metric's verdict from paired runs:
a gain needs ten pairs, nine tenths of them won and a median gap wider
than the parent's interquartile range; a loss counts only past the
metric's bound.  Each run reads and writes no bytecode cache."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "units_per_s", "better": "higher", "bound": 0.15}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
COUNT = {"name": "interpreter.closure_calls", "better": "lower"}


def _runs(name, xs, failed=0):
    return [{"metrics": {name: {"value": x}}, "failed": failed, "attempted": 100} for x in xs]


def _verdicts(metric, parent, change):
    lines = bench_pairs.summarize([metric], _runs(metric["name"], parent),
                                  _runs(metric["name"], change))
    return lines[1].rsplit("/", 1)[1].split(None, 1)[1]  # after "wins/pairs"


PARENT = [165.0, 165.2, 164.9, 165.4, 165.1, 165.3, 164.8, 165.0, 165.2, 165.1]


@pytest.mark.parametrize("metric, parent, change, expected", [
    # +8% in every pair: a gain
    (RATE, PARENT, [x * 1.08 for x in PARENT], "better"),
    # +8% in 9 of 10 pairs: still a gain
    (RATE, PARENT, [x * 1.08 for x in PARENT[:9]] + [PARENT[9] - 1], "better"),
    # +8% in 8 of 10 pairs: no gain, and no loss
    (RATE, PARENT, [x * 1.08 for x in PARENT[:8]] + [x - 1 for x in PARENT[8:]], "within bound"),
    # a tie counts for neither side
    (RATE, PARENT, [x * 1.08 for x in PARENT[:8]] + PARENT[8:], "within bound"),
    # every pair won, by less than the parent's spread
    (RATE, [100.0, 110.0] * 5, [101.0, 111.0] * 5, "within bound"),
    # four pairs, all won: too few to show a gain
    (RATE, PARENT[:4], [x * 1.08 for x in PARENT[:4]], "within bound"),
    # -5% against a 15% bound: not worse
    (RATE, PARENT, [x * 0.95 for x in PARENT], "within bound"),
    # -20% against a 15% bound
    (RATE, PARENT, [x * 0.8 for x in PARENT], "worse"),
    # +0.2% peak memory against a 10% bound, every pair lost
    (RSS, [20.0] * 10, [20.04] * 10, "within bound"),
    # +12% peak memory
    (RSS, [20.0] * 10, [22.4] * 10, "worse"),
    # a spread wider than the bound: neither better nor worse can be read
    (RATE, [50.0, 150.0] * 5, [55.0, 145.0] * 5, "unresolved"),
    # ... unless every run of the change beats every run of the parent
    (RATE, [100.0, 118.0] * 5, [119.0, 120.0] * 5, "within bound"),
    # a count without a bound
    (COUNT, [10.0] * 10, [10.0] * 10, "same"),
    (COUNT, [10.0] * 10, [9.0] * 10, "better"),
    (COUNT, [10.0] * 10, [11.0] * 10, "worse"),
    (COUNT, [10.0, 12.0] * 5, [11.0, 10.5] * 5, "unresolved"),
], ids=["all pairs", "nine pairs", "eight pairs", "ties", "inside spread", "four pairs",
        "small loss", "large loss", "rss noise", "rss loss", "wide spread",
        "disjoint runs", "count same", "count better", "count worse", "count unresolved"])
def test_summarize_reads_paired_runs(metric, parent, change, expected):
    assert _verdicts(metric, parent, change) == expected


def test_summarize_reports_wins_failures_and_too_few_pairs():
    lines = bench_pairs.summarize([RATE], _runs("units_per_s", [10.0, 11.0, 12.0], failed=1),
                                  _runs("units_per_s", [12.0, 10.0, 13.0]))
    assert " 2/3 " in lines[1]
    assert lines[2] == "failed units: parent 3/300, change 0/300"
    assert lines[3] == "3 pairs: fewer than 10, so no metric reads better"


def test_run_once_runs_each_side_without_a_bytecode_cache(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], cache, list(cache.iterdir())))
        result = '{"metrics": {}, "failed": 0, "attempted": 1}'
        return subprocess.CompletedProcess(cmd, 0, stdout=f"# comment\n{result}\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for side in ("parent", "change"):
        assert bench_pairs.run_once(tmp_path / side, "calls", 11, 1.0, False)["attempted"] == 1
    (cwd_p, write_p, cache_p, files_p), (cwd_c, write_c, cache_c, files_c) = seen
    assert (cwd_p, cwd_c) == (tmp_path / "parent", tmp_path / "change")
    assert write_p == write_c == "1"
    # each run's cache prefix is its own empty directory, gone after the run
    assert cache_p != cache_c and files_p == files_c == []
    assert not cache_p.exists() and not cache_c.exists()
