#!/usr/bin/env python3
"""Benchmark of idt: one closed-loop client, one op in flight, in one process.

    python3 bench/run.py --workload check_decls --seed 1 --seconds 25 --trace 0

Run it from the repository root.  It imports idt from `src/`, feeds it the
seeded inputs of the chosen workload (see workloads.py) through its public
entry points and checks every answer against an oracle that does not use
idt.

With `--trace 0` it measures for `--seconds` seconds, or until 100 ops are
done if that takes longer (at most 3 × `--seconds`), finishes the round of
ops it is in, and reports the end-to-end metrics, with times scaled to a
nominal host speed (see speed.py).  With `--trace 1` it runs a fixed prefix of the op stream
twice, first plain and then with every layer wrapped (see tracing.py), and
reports the per-layer metrics and the tracing overhead: the traced total
minus the plain total over the same ops.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 9  # timed cold starts per run; setup_s is their median
IMPORTTIME_REPEATS = 3
WARMUP_OPS = 3
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
DIGEST_OPS = 200  # ops generated twice to prove the inputs repeat
EXIT_CODES = (0, 1, 2)  # what idt documents; any other exit is a failure, not a verdict
MODULES = ("idt", "terms", "values", "kernel", "pp", "surface", "elab", "labels", "dataelab", "desc", "generics", "cli")

SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import idt.cli; idt.cli.Session().load_text(sys.argv[2])"
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import idt.cli"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("check_decls", "eval_numerals", "repl_session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")
    return ns


# -- measuring -------------------------------------------------------------------


@dataclass
class Record:
    op: object
    seconds: float
    failed: bool  # an uncaught exception, a traceback or an undocumented exit code
    wrong: bool  # the exit code or the output differs from the oracle
    scaled: float = 0.0  # seconds scaled to the nominal host speed (see speed.py)


def run_ops(wl, ops, deadline=None, tracer=None, gauge=None) -> list:
    """Run ops in order, one at a time, until they run out or the deadline has
    passed with at least MIN_OPS done and the last round of the stream whole,
    so that every run holds the same mix of ops (and in any case by the hard
    deadline)."""
    hard_deadline = None if deadline is None else deadline + 2 * (deadline - perf_counter())
    records = []
    state = None
    for i, op in enumerate(ops):
        if op.new_round or i == 0:
            state = wl.begin()
        wl.prepare(op)
        buf = io.StringIO()
        if tracer:
            tracer.begin_op(i)
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                code = wl.execute(op, state)
            except SystemExit as e:  # argparse rejecting the command line
                code = e.code if isinstance(e.code, int) else 2
            except Exception:
                code = None
                print(traceback.format_exc())
            t1 = perf_counter()
        if tracer:
            tracer.end_op(accepted=code == 0, pred_only=op.pred_only)
        out = buf.getvalue()
        failed = code not in EXIT_CODES or "Traceback (most recent call last)" in out
        wrong = not failed and not wl.judge(op, code, out)
        if failed or wrong:
            print(f"bench: {'failed' if failed else 'wrong'} op {i} ({op.kind} {op.text[:60]!r}): "
                  f"exit {code}, output {out[:300]!r}", file=sys.stderr)
        records.append(Record(op, t1 - t0, failed, wrong))
        if gauge:
            gauge.after_op(t1 - t0)
        done = len(records) >= MIN_OPS and len(records) % wl.round_len == 0
        if deadline is not None and (t1 >= deadline and done or t1 >= hard_deadline):
            break
    if gauge:
        for r, s in zip(records, gauge.finish()):
            r.scaled = s
    return records


def time_setup(preamble: str) -> tuple:
    """Cold interpreter start, `import idt.cli` and the workload's preamble load.

    Returns the wall time and that time scaled to the nominal host speed by
    gauge samples taken just before and just after the start."""
    before = speed.reference_ms()
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), preamble]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls and would round the time up
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    code = proc.wait()
    t1 = perf_counter()
    watchdog.cancel()
    watchdog.join()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd[:3])
    after = speed.reference_ms()
    return t1 - t0, (t1 - t0) * speed.REF_MS / ((before + after) / 2)


def import_times() -> dict:
    """Self import time of each idt module in ms, median of a few `-X importtime` runs."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CODE, str(SRC)],
            check=True, timeout=120, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        got = {}
        for line in r.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name == "idt" or name.startswith("idt."):
                    got[name.split(".", 1)[-1]] = int(parts[0].split(":")[1]) / 1000
                    if name == "idt.cli":
                        got["total"] = int(parts[1]) / 1000
        runs.append(got)
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in MODULES + ("total",)}


def loglog_slope(points) -> float:
    """Least-squares slope of log(seconds) against log(size) over sizes > 0."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def inputs_digest(wl, seed: int) -> str:
    h = hashlib.sha256()
    for op in itertools.islice(wl.stream(seed), DIGEST_OPS):
        h.update(op.digest_bytes())
    return h.hexdigest()


# -- the two kinds of run ---------------------------------------------------------


def end_to_end(wl, seed: int, seconds: int):
    setups = [time_setup(wl.preamble) for _ in range(SETUP_REPEATS + 1)][1:]  # first one warms caches
    run_ops(wl, list(itertools.islice(wl.stream(seed), WARMUP_OPS)))
    gauge = speed.Gauge()
    gauge.start()
    start = perf_counter()
    records = run_ops(wl, wl.stream(seed), deadline=start + seconds, gauge=gauge)
    scaled = timings([s for _, s in setups], [r.scaled for r in records])
    wall = timings([w for w, _ in setups], [r.seconds for r in records])
    metrics = {k: (v, UNITS[k]) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {
        "samples": len(records),
        "gauge_samples": len(gauge.samples),
        "reference_ms_quartiles": [round(q, 3) for q in statistics.quantiles(gauge.samples, n=4)],
        "setup_samples_s": [round(s, 4) for _, s in setups],
    }
    notes.update({f"wall.{k}": f"{v:.6g} {UNITS[k]}" for k, v in wall.items()})
    return records, metrics, notes


UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_ops_s": "1/s"}


def timings(setups: list, lat: list) -> dict:
    """The timed end-to-end metrics from set-up times and op latencies given in seconds."""
    deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": deciles[8] * 1000,
        "throughput_ops_s": len(lat) / sum(lat),
    }


def traced(wl, seed: int, name: str):
    from tracing import Tracer

    ops = list(itertools.islice(wl.stream(seed), wl.trace_ops))
    run_ops(wl, ops[:WARMUP_OPS])
    plain = run_ops(wl, ops)
    tracer = Tracer()
    tracer.install()
    t_origin = perf_counter()
    try:
        under = run_ops(wl, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in under)
    harness_s = traced_s - tracer.root_s
    c = tracer.counts
    conv_calls = tracer.calls["kernel.conv"]
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in tracer.metrics().items()}
    metrics.update({
        "harness.self_s": (harness_s, "s"),
        "trace.plain_op_s": (plain_s, "s"),
        "trace.traced_op_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
        "elab.goal_texts": (c["elab.goal_texts"], "count"),
        "elab.errors_rendered": (c["elab.errors_rendered"], "count"),
        "elab.goal_texts_per_error": (c["elab.goal_texts"] / max(1, c["elab.errors_rendered"]), "ratio"),
        "ops.accepted": (c["ops.accepted"], "count"),
        "kernel.check_raised": (c["kernel.check_raised"], "count"),
        "ops.pred_only": (c["ops.pred_only"], "count"),
        "values.allmap_calls_by_case": (c["viallmap.pred_only"] / max(1, c["ops.pred_only"]), "ratio"),
        "kernel.conv.identity_hits": (c["kernel.conv.identity_hits"] / max(1, conv_calls), "ratio"),
        "scale.slope": (loglog_slope((r.op.size, r.seconds) for r in plain), "ratio"),
    })
    for mod, ms in import_times().items():
        metrics[f"setup.{mod}.import_ms"] = (ms, "ms")
    layer_sum = sum(tracer.self_s.values()) + harness_s
    spans_file = BUILD / "spans" / f"{name}-seed{seed}.jsonl"
    tracer.dump(spans_file, t_origin)
    notes = {
        "ops": len(ops),
        "layer_self_plus_harness_s": layer_sum,
        "adds_up": math.isclose(layer_sum, traced_s, rel_tol=1e-9, abs_tol=1e-9),
        f"scale.{name}.slope": metrics["scale.slope"][0],
        "spans_file": spans_file.relative_to(ROOT),
    }
    return plain + under, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "idt" / "cli.py").is_file():
        print(f"bench: idt sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["NO_COLOR"] = "1"
    if hasattr(os, "sched_setaffinity"):
        # one core for the ops, the gauge and the timed starts, which inherit it:
        # the cores of a shared host differ in speed from second to second
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    work = BUILD / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work)
        digest = inputs_digest(wl, args.seed)
        repeatable = digest == inputs_digest(wl, args.seed)
        if args.trace:
            records, metrics, notes = traced(wl, args.seed, args.workload)
        else:
            records, metrics, notes = end_to_end(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.failed for r in records)
    wrong = sum(r.wrong for r in records)
    print(f"workload {args.workload}, seed {args.seed}, closed loop, 1 client, {len(records)} ops")
    print(f"inputs sha256 {digest[:16]}, same on regeneration: {repeatable}")
    print(f"wrong_verdicts = {wrong}")
    print(f"failed_frac = {failed / len(records)}")
    for k, v in notes.items():
        print(f"{k} = {v}")
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v:.6g} {unit}")
    result = {
        "correct": repeatable and failed == 0 and wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
