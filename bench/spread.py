#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: run.py over several seeds, one at a time.

    python3 bench/spread.py --workload eval_numerals --seeds 1-10 --seconds 25
    python3 bench/spread.py --workload all --seeds 1

`--workload all` runs the three workloads in turn.  Each run prints one
line with its op count, `wrong_verdicts`, `failed_frac` and every metric.
Then, for each metric, it prints the median of the runs, their quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the distance
between the quartiles as a share of the median.

With `--trace 1` it runs each seed twice, traced, and reports every count
metric (`*.calls`, `*.entries` and the waste counters) that differs between
the two runs of a seed; the counts must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("check_decls", "eval_numerals", "repl_session")
NOTES = ("wrong_verdicts", "failed_frac")  # printed by run.py above its JSON line


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int):
    """One run of run.py: its JSON result and the NOTES lines it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}\n{r.stderr}")
    notes = [line for line in lines if line.split(" = ")[0] in NOTES]
    wall = {k: float(v.split()[0]) for k, _, v in (line.partition(" = ") for line in lines) if k.startswith("wall.")}
    return res, notes, wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="a range such as 1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    workloads = WORKLOADS if ns.workload == "all" else (ns.workload,)
    if ns.trace:
        return 1 if sum(repeat_counts(w, ns.seeds, ns.seconds) for w in workloads) else 0
    for w in workloads:
        spread(w, ns.seeds, ns.seconds)
    return 0


def repeat_counts(workload: str, seeds: list, seconds: int) -> int:
    """Run each seed traced twice; return how many count metrics differ."""
    differing = 0
    for seed in seeds:
        a, b = (run(workload, seed, seconds, 1)[0]["metrics"] for _ in range(2))
        for name, m in a.items():
            if m["unit"] == "count" and m["value"] != b[name]["value"]:
                differing += 1
                print(f"{workload} seed {seed}: {name} {m['value']} != {b[name]['value']}")
    print(f"{workload}: {len(seeds)} seeds, count metrics differing between repeats: {differing}")
    return differing


def spread(workload: str, seeds: list, seconds: int):
    values: dict = {}
    for seed in seeds:
        res, notes, wall = run(workload, seed, seconds, 0)
        print(f"{workload} seed {seed}: attempted {res['attempted']} " + " ".join(notes).replace(" = ", "=") + " "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        for k, v in wall.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print(f"{workload} {k}: median {med:.5g} quartiles {q1:.5g} .. {q3:.5g} spread {(q3 - q1) / med:.4f}")


if __name__ == "__main__":
    sys.exit(main())
