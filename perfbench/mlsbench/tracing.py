"""Spans around the public functions of every `mls` layer.

`Tracer.install()` replaces each public function at the module or class
attribute its callers look it up through, and `uninstall()` puts the
originals back.  Every call becomes a span with a layer, a function
name, a start, an end, its parent span and the unit it ran in.  All
spans are aggregated (count, inclusive time for the outermost call of a
function or layer, self time); only a bounded prefix is kept as full
records.  Self time is a span's duration minus the time of the spans it
caused; the bookkeeping a span does after its end is charged to no
layer.

Optional hooks turn arguments and results into counters: `pre(tracer,
args)` before the call, `post(tracer, args, result, duration)` after
it.  Both run outside the span's own interval.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

SPAN_RECORDS = 5000  # full records are kept for the first spans only
PENDING = 0  # Promise.state before its first force


class Tracer:
    def __init__(self, mls: dict):
        self.mls = mls
        self.records = []  # (id, layer, function, start, end, parent id, unit)
        self.stack = []  # [child time, span id, function name]
        self.next_id = 0
        self.unit = -1
        self.group = ""
        self.count = defaultdict(int)  # function or layer -> calls
        self.total = defaultdict(float)  # function or layer -> outermost inclusive time
        self.self_time = defaultdict(float)  # function or layer -> self time
        self.active = defaultdict(int)
        self.counters = defaultdict(float)  # named counters filled by hooks
        self._patched = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, pre=None, post=None):
        tracer = self
        count, total, self_time, active = self.count, self.total, self.self_time, self.active
        stack = self.stack

        def traced(*args, **kwargs):
            ta = perf_counter()
            if pre is not None:
                pre(tracer, args)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid, name]
            stack.append(frame)
            active[name] += 1
            active[layer] += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                own = d - frame[0]
                count[name] += 1
                count[layer] += 1
                self_time[name] += own
                self_time[layer] += own
                active[name] -= 1
                active[layer] -= 1
                if not active[name]:
                    total[name] += d
                if not active[layer]:
                    total[layer] += d
                if sid < SPAN_RECORDS:
                    tracer.records.append((sid, layer, name, t0, t1, parent, tracer.unit))
                if post is not None:
                    post(tracer, args, result, d)
                if stack:
                    stack[-1][0] += perf_counter() - ta

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, layer: str, pre=None, post=None):
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        setattr(owner, attr, self.wrap(layer, name, original, pre, post))
        self._patched.append((owner, attr, original))

    def install(self):
        m = self.mls
        interp_cls, promise_cls, registry_cls = (
            m["interpreter"].Interpreter,
            m["environment"].Promise,
            m["s4"].Registry,
        )
        for attr in ("__init__", "run_top_level", "match_arguments", "exec_closure"):
            self.patch(interp_cls, attr, "interpreter")
        self.patch(interp_cls, "call_value", "interpreter", post=self._count_call)
        self.patch(promise_cls, "__init__", "environment", pre=self._count_promise)
        self.patch(promise_cls, "force", "environment", pre=_count_force)
        for attr in ("arith_unary", "arith_binary", "compare_binary", "logical_not", "truthy",
                     "field_get_list", "vector_sum"):
            self.patch(m["ops"], attr, "ops")
        for attr in ("index_get", "index_assign", "field_assign_list"):
            self.patch(m["ops"], attr, "ops", post=_count_copied)
        self.patch(m["ops"], "concat", "ops", post=_count_concat)
        for attr in ("set_attribute", "deep_copy"):
            self.patch(m["values"], attr, "values")
        self.patch(m["builtins"], "install", "builtins", post=self._wrap_builtins)
        self.patch(m["s3"], "use_method", "s3")
        self.patch(m["s3"], "lookup_method", "s3", pre=_note_parent("s3.lookup_method"))
        self.patch(m["s3"], "dispatch_binary_op", "s3", post=_count_binary_op)
        for attr in ("call_generic", "new_instance", "slot_get", "slot_set"):
            self.patch(m["s4"], attr, "s4")
        for attr in ("select_method", "define_class", "define_generic", "define_method"):
            self.patch(registry_cls, attr, "s4")
        self.patch(registry_cls, "distance", "s4", pre=_note_parent("s4.distance"))
        for attr in ("set_ref_class", "generator_new", "field_or_method", "field_set",
                     "copy_instance"):
            self.patch(m["refclasses"], attr, "refclasses")
        self.patch(m["printer"], "format_value", "printer", post=_count_len("printer.bytes"))
        for attr in ("draw", "seed_state"):
            self.patch(m["rng"], attr, "rng")
        self.patch(m["reader"], "tokenize", "reader", post=_count_len("reader.tokens"))
        self.patch(m["reader"], "parse_program", "reader", post=self._count_nodes)
        for attr in ("parse_module", "scan_function", "resolve_names", "propagate",
                     "default_policy"):
            self.patch(m["purity"], attr, "purity")
        self.patch(m["purity"], "analyze_modules", "purity", post=_count_report)
        self.patch(m["purity"], "render_json", "purity", post=_count_len("purity.report_bytes"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- hooks that need the mls modules ------------------------------------

    def _wrap_builtins(self, tracer, args, result, d):
        interp = args[0]
        builtin = self.mls["values"].BUILTIN
        for binding in interp.base_env.frame.values():
            v = binding.value
            if v is not None and v.kind == builtin and v.payload.fn is not None:
                p = v.payload
                p.fn = self.wrap("builtins", f"builtins.{p.name}", p.fn)

    def _count_call(self, tracer, args, result, d):
        kind, values = args[1].kind, self.mls["values"]
        if kind == values.CLOSURE:
            self.counters["interpreter.closure_calls"] += 1
        elif kind == values.BUILTIN:
            self.counters["interpreter.builtin_calls"] += 1

    def _count_promise(self, tracer, args):
        expr = args[1]
        if expr is not None:  # Promise.forced() wraps a value, not an expression
            self.counters["environment.promises_created"] += 1
            if isinstance(expr, self.mls["syntax"].Constant):
                self.counters["environment.constant_promises"] += 1

    def _count_nodes(self, tracer, args, result, d):
        if result is None:
            return
        children = self.mls["syntax"].child_expressions
        stack = list(result)
        nodes = 0
        while stack:
            e = stack.pop()
            nodes += 1
            stack.extend(children(e))
        self.counters["reader.nodes"] += nodes


def _count_force(tracer, args):
    if args[0].state == PENDING:
        tracer.counters["environment.promises_forced"] += 1


def _count_copied(tracer, args, result, d):
    if result is not None and isinstance(result.payload, list):
        tracer.counters["ops.elements_copied"] += len(result.payload)


def _count_concat(tracer, args, result, d):
    _count_copied(tracer, args, result, d)
    tracer.counters[f"ops.concat_s@{tracer.group}"] += d


def _note_parent(name: str):
    """Hook counting calls of `name` under key "name<-caller"."""

    def pre(tracer, args):
        parent = tracer.stack[-1][2] if tracer.stack else ""
        tracer.counters[f"{name}<-{parent}"] += 1

    return pre


def _count_binary_op(tracer, args, result, d):
    if result is not None:
        tracer.counters["s3.binary_op_hits"] += 1


def _count_len(key: str):
    """Hook adding the length of a returned text or token list to `key`."""

    def post(tracer, args, result, d):
        if result is not None:
            tracer.counters[key] += len(result)

    return post


def _count_report(tracer, args, result, d):
    if result is None:
        return
    c = tracer.counters
    c["purity.edges"] += len(result.edges)
    for _, reports in result.modules:
        c["purity.functions"] += len(reports)
        c["purity.reasons"] += sum(len(fr.verdict.reasons) for fr in reports)
