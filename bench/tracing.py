"""Per-layer tracing of idt from outside: wrap module attributes, record spans.

A layer is named after the module whose public functions it wraps.  A call
into a wrapped function is always counted; it opens a span only when it
enters from a different layer, so deep same-layer recursion (`eval_term`
recurses ~10^5 times per op) is counted without being timed call by call.
A span's self time is its duration minus that of its child spans; op time
that no span covers is charged to `harness`.

Spans are kept in memory as (id, parent id, op id, layer, function, start,
end) and written out once the traced pass ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from idt import cli, dataelab, desc, elab, generics, kernel, labels, pp, surface, values

LAYERS = (
    "surface",
    "elab",
    "dataelab",
    "labels",
    "kernel",
    "kernel.conv",
    "values.eval",
    "values.quote",
    "generics",
    "pp",
    "desc",
    "cli",
)

# (owner, attribute, layer): every public entry point a layer is timed at
TARGETS = [
    (surface, "parse_file", "surface"),
    (surface, "parse_expr", "surface"),
    (elab.Elaborator, "synth", "elab"),
    (elab.Elaborator, "check", "elab"),
    (elab.Elaborator, "elab_type", "elab"),
    (dataelab, "elab_data", "dataelab"),
    (labels, "elab_define", "labels"),
    (kernel, "check", "kernel"),
    (kernel, "infer", "kernel"),
    (kernel, "check_entry_type", "kernel"),
    (kernel, "normalize", "kernel"),
    (kernel, "def_eq", "kernel"),
    (kernel, "conv", "kernel.conv"),
    (values, "eval_term", "values.eval"),
    (values, "quote", "values.quote"),
    (generics.DerivingRegistry, "derive_for", "generics"),
    (generics, "derive_eq", "generics"),
    (pp, "print_term", "pp"),
    (desc, "print_code", "desc"),
    (cli, "main", "cli"),
    (cli, "run_check", "cli"),
    (cli, "run_eval", "cli"),
    (cli, "_report", "cli"),
    (cli.Session, "load_text", "cli"),
    (cli.Session, "type_of", "cli"),
    (cli.Session, "eq_command", "cli"),
    (cli.Session, "eval_expr", "cli"),
    (cli.Session, "resugar", "cli"),
    (cli.Session, "render_term", "cli"),
]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.entries = Counter()
        self.self_s = Counter()
        self.counts = Counter()  # waste counters and their bases
        self.spans: list = []
        self.root_s = 0.0  # summed duration of spans opened by the harness
        self.op = None  # id of the op in flight; None outside ops
        self.layer = None
        self._stack: list = []  # open spans as [id, child seconds]
        self._next_id = 0
        self._saved: list = []
        self._op_raised = 0
        self._op_allmap = 0

    # -- ops --

    def begin_op(self, op_id: int):
        self.op, self.layer = op_id, "harness"
        self._op_raised = self._op_allmap = 0

    def end_op(self, accepted: bool, pred_only: bool):
        if accepted:
            self.counts["ops.accepted"] += 1
            self.counts["kernel.check_raised"] += self._op_raised
        if pred_only:
            self.counts["ops.pred_only"] += 1
            self.counts["viallmap.pred_only"] += self._op_allmap
        self.op = self.layer = None

    # -- wrapping --

    def _span(self, layer, name, fn, args, kwargs):
        self.entries[layer] += 1
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        outer, self.layer = self.layer, layer
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.layer = outer
            self._stack.pop()
            dur = t1 - t0
            self.self_s[layer] += dur - frame[1]
            if parent is None:
                self.root_s += dur
            else:
                parent[1] += dur
            self.spans.append((sid, parent[0] if parent else None, self.op, layer, name, t0, t1))

    def wrap(self, layer: str, fn, name: str):
        tr, calls = self, self.calls

        def traced(*args, **kwargs):
            if tr.op is None:
                return fn(*args, **kwargs)
            calls[layer] += 1
            if tr.layer == layer:
                return fn(*args, **kwargs)
            return tr._span(layer, name, fn, args, kwargs)

        return traced

    def _hooked(self, owner, attr: str, layer: str):
        """The wrapper for one target, with the waste counters hung on it."""
        tr = self
        fn = getattr(owner, attr)
        traced = self.wrap(layer, fn, attr)
        if (owner, attr) == (kernel, "check"):

            def check(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                except kernel.KernelError as e:
                    # count each error once, however many nested checks it leaves
                    if tr.op is not None and not getattr(e, "_bench_counted", False):
                        e._bench_counted = True
                        tr._op_raised += 1
                    raise

            return check
        if (owner, attr) == (kernel, "conv"):

            def conv(ctx, a, b):
                if tr.op is not None and a is b:
                    tr.counts["kernel.conv.identity_hits"] += 1
                return traced(ctx, a, b)

            return conv
        if (owner, attr) == (pp, "print_term"):

            def print_term(*args, **kwargs):
                if tr.layer == "elab":
                    tr.counts["elab.goal_texts"] += 1
                return traced(*args, **kwargs)

            return print_term
        if (owner, attr) == (cli, "_report"):

            def report(*args, **kwargs):
                if tr.op is not None:
                    tr.counts["elab.errors_rendered"] += 1
                return traced(*args, **kwargs)

            return report
        if (owner, attr) == (generics, "derive_eq"):
            # the returned comparison closure runs later, from `:eq`
            return lambda *a, **k: tr.wrap(layer, traced(*a, **k), "derive_eq.proc")
        return traced

    def install(self):
        for owner, attr, layer in TARGETS:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._hooked(owner, attr, layer))
        orig_allmap = values.viallmap

        def viallmap(*args):
            if self.op is not None:
                self._op_allmap += 1
            return orig_allmap(*args)

        self._saved.append((values, "viallmap", orig_allmap))
        values.viallmap = viallmap

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results --

    def metrics(self) -> dict:
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = self.calls[layer]
            m[f"{layer}.entries"] = self.entries[layer]
            m[f"{layer}.self_s"] = self.self_s[layer]
        return m

    def dump(self, path, t_origin: float):
        """Write the spans as JSON lines, times in microseconds from t_origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(["id", "parent", "op", "layer", "fn", "start_us", "end_us"]) + "\n")
            for sid, parent, op, layer, name, t0, t1 in sorted(self.spans):
                row = [sid, parent, op, layer, name, round((t0 - t_origin) * 1e6, 1), round((t1 - t_origin) * 1e6, 1)]
                f.write(json.dumps(row) + "\n")
