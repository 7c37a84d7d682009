"""Measurement loops and metric derivation.

Load is a closed loop from one process and one thread: units run back
to back, cycling through the generated pool in a fixed order.  A run
unit mirrors `mls run` (parse, `Interpreter()`, `run_top_level` with
stdout captured); an analyze unit mirrors `mls analyze --format json`
(`parse_module` per module, `analyze_modules`, `render_json`).  Only the
unit itself is timed; checking its output against the reference
happens between units.  Every timing is scaled to the speed of a
calibration pass run beside it (see calibration.py).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from . import analyze, calibration, calls, objects, tracing, vectors

MIN_UNITS = 100  # distinct units per pool, so that p90 has ten samples beyond it
SETUP_BATCHES = 24  # setup_s is the median over batches of the mean build time,
SETUP_BATCH = 25  # which spreads garbage-collection pauses evenly over batches
WARMUP_UNITS = 3
UNTRACED_SHARE = 0.25  # of a traced run's seconds, spent measuring without spans
LAYERS = ("reader", "interpreter", "environment", "ops", "values", "builtins", "s3", "s4",
          "refclasses", "printer", "rng", "purity")
MLS_MODULES = LAYERS + ("syntax",)
WORKLOADS = ("calls", "vectors", "objects", "analyze")


def load_mls(root: Path) -> dict:
    """Import the `mls` package from the checkout's sources."""
    src = root / "src"
    if not (src / "mls" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mls sources under {src}")
    sys.path.insert(0, str(src))
    return {name: importlib.import_module(f"mls.{name}") for name in MLS_MODULES}


def generate(workload: str, seed: int, scale: float, root: Path) -> list:
    if workload == "analyze":
        return analyze.generate(seed, scale, root)
    return {"calls": calls, "vectors": vectors, "objects": objects}[workload].generate(seed, scale)


# -- runners --------------------------------------------------------------------


class ProgramRunner:
    """`mls run` in-process: one unit is one generated program."""

    def __init__(self, mls: dict):
        self.reader = mls["reader"]
        self.interpreter = mls["interpreter"]

    def setup(self):
        return self.interpreter.Interpreter(stdout=io.StringIO(), stderr=io.StringIO())

    def execute(self, unit):
        out, err = io.StringIO(), io.StringIO()
        exprs = self.reader.parse_program(unit.source)
        interp = self.interpreter.Interpreter(stdout=out, stderr=err)
        interp.run_top_level(exprs)
        return out.getvalue(), err.getvalue()

    @staticmethod
    def check(unit, result):
        out, err = result
        if err:
            return f"unexpected stderr: {err[:200]!r}"
        if out != unit.expected:
            got, want = out.splitlines(), unit.expected.splitlines()
            for i, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    return f"stdout line {i + 1}: got {g[:120]!r}, expected {w[:120]!r}"
            return f"stdout has {len(got)} lines, expected {len(want)}"
        return None


class AnalyzeRunner:
    """`mls analyze --format json` in-process: one unit is one module set."""

    def __init__(self, mls: dict):
        self.purity = mls["purity"]

    def setup(self):
        return self.purity.default_policy()

    def execute(self, unit):
        purity = self.purity
        modules = [purity.parse_module(name, source) for name, source in unit.modules]
        report = purity.analyze_modules(modules)
        return purity.render_json(report)

    @staticmethod
    def check(unit, text):
        got = {}
        for module in json.loads(text)["modules"]:
            for fn in module["functions"]:
                kinds = tuple(sorted({r["kind"] for r in fn["reasons"]}))
                got[(module["name"], fn["function"])] = (fn["status"], kinds)
        if got == unit.verdicts:
            return None
        wrong = sorted(k for k in set(got) | set(unit.verdicts) if got.get(k) != unit.verdicts.get(k))
        k = wrong[0]
        return f"{len(wrong)} verdicts differ, first {k}: got {got.get(k)}, expected {unit.verdicts.get(k)}"


def runner_for(workload: str, mls: dict):
    return AnalyzeRunner(mls) if workload == "analyze" else ProgramRunner(mls)


class Loop:
    """Runs units in pool order, timing each and checking its output."""

    def __init__(self, runner, units):
        self.runner = runner
        self.units = units
        self.next = 0
        self.clock = calibration.Clock()
        self.latencies = []  # reference seconds
        self.raw_latencies = []  # seconds as measured
        self.by_unit = {}  # pool index -> reference seconds of each run of that unit
        self.failures = []  # (unit name, error)
        self.on_unit = None  # called with (index, unit) before each unit

    def step(self):
        index = self.next % len(self.units)
        unit = self.units[index]
        if self.on_unit is not None:
            self.on_unit(self.next, unit)
        self.next += 1
        gc.collect()  # like a fresh `mls` process, start without the last unit's garbage
        t0 = perf_counter()
        try:
            result = self.runner.execute(unit)
        except Exception as exc:  # a failing unit is counted, not fatal
            dt = perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            dt = perf_counter() - t0
            error = self.runner.check(unit, result)
        self.raw_latencies.append(dt)
        self.latencies.append(self.clock.scale(dt))
        self.by_unit.setdefault(index, []).append(self.latencies[-1])
        if error is not None:
            self.failures.append((unit.name, error))

    def run_for(self, seconds: float, min_units: int = 0, whole_passes: bool = False):
        """Units until `seconds` have passed and `min_units` have run; with
        `whole_passes`, at least one pass and only whole passes."""
        start, first = perf_counter(), self.next
        while perf_counter() - start < seconds or len(self.latencies) < min_units or (
            whole_passes and (self.next == first or self.next % len(self.units))
        ):
            self.step()

    @property
    def units_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def unit_latencies(self) -> list:
        """Each distinct unit's median latency, sorted.  Repeats of one
        unit differ only by machine noise; across units the cost varies."""
        return sorted(statistics.median(runs) for runs in self.by_unit.values())


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 1) - 1))
    return sorted_values[int(k)]


def _freeze_heap():
    """Keep the benchmark's own objects (modules, generated pool) out of
    the collector's scans, so garbage-collection cost inside a unit does
    not depend on how big the pool is."""
    gc.collect()
    gc.freeze()


def measure_setup(runner, batches: int = SETUP_BATCHES, batch: int = SETUP_BATCH) -> float:
    clock = calibration.Clock()
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(batch):
            runner.setup()
        times.append(clock.scale((perf_counter() - t0) / batch))
    return statistics.median(times)


# -- the two kinds of run -----------------------------------------------------------


def run_untraced(workload, seed, seconds, scale=1.0, min_units=MIN_UNITS, root=Path(".")):
    mls = load_mls(root)
    units = generate(workload, seed, scale, root)
    runner = runner_for(workload, mls)
    _freeze_heap()
    setup_s = measure_setup(runner)
    warm = Loop(runner, units)
    for _ in range(min(WARMUP_UNITS, len(units))):
        warm.step()
    if len(units) < min_units:
        raise ValueError(f"{workload} generated {len(units)} units, fewer than {min_units}")
    loop = Loop(runner, units)
    loop.run_for(seconds, len(units))
    lat = loop.unit_latencies()
    metrics = {
        "setup_s": (setup_s, "s"),
        "units_per_s": (loop.units_per_s, "1/s"),
        "unit_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "unit_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return loop, metrics


def run_traced(workload, seed, seconds, scale=1.0, root=Path(".")):
    """Untraced whole passes first (the overhead baseline), then traced
    whole passes, so per-unit counts do not depend on run length."""
    mls = load_mls(root)
    units = generate(workload, seed, scale, root)
    runner = runner_for(workload, mls)
    _freeze_heap()
    loop = Loop(runner, units)
    loop.run_for(seconds * UNTRACED_SHARE, whole_passes=True)
    plain_units, plain_ups = len(loop.latencies), loop.units_per_s
    tracer = tracing.Tracer(mls)

    def on_unit(index, unit):
        tracer.unit = index
        tracer.group = unit.group

    loop.on_unit = on_unit
    tracer.install()
    try:
        loop.run_for(seconds * (1 - UNTRACED_SHARE), whole_passes=True)
    finally:
        tracer.uninstall()
    traced = loop.latencies[plain_units:]
    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_ratio"] = (plain_ups * sum(traced) / len(traced), "ratio")
    metrics["trace.units"] = (float(len(traced)), "count")
    return loop, metrics, tracer


def layer_metrics(t: tracing.Tracer, n: int) -> dict:
    """Per-unit layer metrics from one traced run over whole passes."""
    c, count, total, own = t.counters, t.count, t.total, t.self_time

    def ratio(a, b):
        return a / b if b else 0.0

    created = c["environment.promises_created"]
    out = {
        "reader.parse_s": (total["reader"] / n, "s/unit"),
        "reader.tokens_per_s": (ratio(c["reader.tokens"], total["reader.tokenize"]), "1/s"),
        "reader.nodes": (c["reader.nodes"] / n, "count/unit"),
        "interpreter.closure_calls": (c["interpreter.closure_calls"] / n, "count/unit"),
        "interpreter.builtin_calls": (c["interpreter.builtin_calls"] / n, "count/unit"),
        "interpreter.self_s": (own["interpreter"] / n, "s/unit"),
        "interpreter.match_arguments_s": (total["interpreter.match_arguments"] / n, "s/unit"),
        "environment.promises_created": (created / n, "count/unit"),
        "environment.promises_forced": (c["environment.promises_forced"] / n, "count/unit"),
        "environment.promise_useful_ratio": (ratio(c["environment.promises_forced"], created), "ratio"),
        "environment.constant_promise_frac": (ratio(c["environment.constant_promises"], created), "ratio"),
        "ops.self_s": (own["ops"] / n, "s/unit"),
        "ops.elements_copied": (c["ops.elements_copied"] / n, "count/unit"),
        "ops.concat_scaling": (ratio(c["ops.concat_s@2n"], c["ops.concat_s@n"]), "ratio"),
        "values.set_attribute_calls": (count["values.set_attribute"] / n, "count/unit"),
        "values.deep_copy_calls": (count["values.deep_copy"] / n, "count/unit"),
        "values.copy_s": (own["values"] / n, "s/unit"),
        "builtins.self_s": (own["builtins"] / n, "s/unit"),
        "s3.dispatches": (count["s3.use_method"] / n, "count/unit"),
        "s3.lookups_per_dispatch": (
            ratio(c["s3.lookup_method<-s3.use_method"], count["s3.use_method"]), "ratio"),
        "s3.binary_op_checks": (count["s3.dispatch_binary_op"] / n, "count/unit"),
        "s3.binary_op_hit_ratio": (ratio(c["s3.binary_op_hits"], count["s3.dispatch_binary_op"]), "ratio"),
        "s3.dispatch_s": (own["s3"] / n, "s/unit"),
        "s4.dispatches": (count["s4.call_generic"] / n, "count/unit"),
        "s4.select_s": (total["s4.select_method"] / n, "s/unit"),
        "s4.distance_calls_per_select": (
            ratio(c["s4.distance<-s4.select_method"], count["s4.select_method"]), "ratio"),
        "s4.definitions": (
            sum(count[f"s4.{a}"] for a in ("define_class", "define_generic", "define_method")) / n,
            "count/unit"),
        "refclasses.field_accesses": (count["refclasses.field_or_method"] / n, "count/unit"),
        "refclasses.field_sets": (count["refclasses.field_set"] / n, "count/unit"),
        "refclasses.access_s": (
            (own["refclasses.field_or_method"] + own["refclasses.field_set"]) / n, "s/unit"),
        "refclasses.copies": (count["refclasses.copy_instance"] / n, "count/unit"),
        "refclasses.instances": (count["refclasses.generator_new"] / n, "count/unit"),
        "printer.format_s": (total["printer.format_value"] / n, "s/unit"),
        "printer.bytes": (c["printer.bytes"] / n, "count/unit"),
        "rng.draws": (count["rng.draw"] / n, "count/unit"),
        "purity.scan_s": (total["purity.scan_function"] / n, "s/unit"),
        "purity.resolve_s": (total["purity.resolve_names"] / n, "s/unit"),
        "purity.propagate_s": (total["purity.propagate"] / n, "s/unit"),
        "purity.render_s": (total["purity.render_json"] / n, "s/unit"),
        "purity.functions": (c["purity.functions"] / n, "count/unit"),
        "purity.edges": (c["purity.edges"] / n, "count/unit"),
        "purity.reasons": (c["purity.reasons"] / n, "count/unit"),
        "purity.report_bytes": (c["purity.report_bytes"] / n, "count/unit"),
    }
    busy = sum(own[layer] for layer in LAYERS)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (ratio(own[layer], busy), "ratio")
    return out


# -- provenance ------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def provenance(root: Path) -> dict:
    """Where a result comes from: interpreter, machine, commit, sources."""
    digest = hashlib.sha256()
    for f in sorted((root / "src" / "mls").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
    }
