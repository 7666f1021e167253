"""Host speed gauge: a fixed pure-Python reference loop, timed between ops.

The benchmark runs on a shared host whose cores change speed by up to 2x from
one second to the next, as other tenants load the same cores and caches; the
process's CPU time grows with its wall time, so CPU time does not help.  A run
that falls in a slow phase would read 30% slower although the program did the
same work.  So the gauge times a fixed reference loop that does not use idt
(it tokenizes, parses, evaluates on unary numerals and prints small
expressions: the kind of work idt does, in a few dozen lines) every
GAUGE_EVERY_S seconds of op time.  Each op's wall time is scaled by REF_MS
over the reference time measured around it, which gives the op's time on a
host where the reference loop takes REF_MS ms.  A change to idt leaves the
reference loop alone, so it moves the scaled time as much as the wall time.
The slowdowns of the loop and of idt differ by up to 10-15% in the slowest
phases, which is what is left of the host's drift.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REF_MS = 1.5  # nominal reference time; the loop reads 1.25-2.8 ms on a shared 2-vCPU VM, Python 3.11.7
GAUGE_EVERY_S = 0.1  # op time between two samples of the gauge
REPEATS = 3  # reference loops per sample; the sample is their median


class _Suc:
    __slots__ = ("pred",)

    def __init__(self, pred):
        self.pred = pred


class _App:
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn, self.args = fn, args


def _tokens(text: str) -> list:
    out, word = [], ""
    for ch in text:
        if ch.isalnum() or ch == "_":
            word += ch
            continue
        if word:
            out.append(word)
            word = ""
        if not ch.isspace():
            out.append(ch)
    return out + [word] if word else out


def _parse(toks: list, i: int = 0):
    """expr := atom+ ; atom := name | number | ( expr )"""
    items = []
    while i < len(toks) and toks[i] != ")":
        if toks[i] == "(":
            sub, i = _parse(toks, i + 1)
            i += 1
        else:
            sub, i = toks[i], i + 1
        items.append(sub)
    return (items[0] if len(items) == 1 else _App(items[0], items[1:])), i


def _eval(e, env: dict):
    if isinstance(e, _App):
        args = [_eval(a, env) for a in e.args]
        return env[e.fn](*args)
    if e.isdigit():
        v = None
        for _ in range(int(e)):
            v = _Suc(v)
        return v
    return env[e]


def _plus(m, n):
    return n if m is None else _Suc(_plus(m.pred, n))


def _show(v) -> str:
    k = 0
    while v is not None:
        v, k = v.pred, k + 1
    return f"suc^{k} zero" if k > 3 else " ".join(["suc"] * k + ["zero"])


ENV = {"plus": _plus, "pred": lambda m: m and m.pred, "zero": None}
EXPRS = [f"plus (pred {a}) (plus {b} (pred (plus zero {a})))" for a in range(1, 40, 3) for b in (2, 7, 11, 19)]


def reference_work() -> int:
    """A fixed amount of interpreter-style work; returns a checksum."""
    total = 0
    for text in EXPRS:
        expr, _ = _parse(_tokens(text))
        total += len(_show(_eval(expr, ENV)))
    return total


CHECKSUM = reference_work()


def reference_ms() -> float:
    """One sample of the gauge: the median time of REPEATS reference loops, in ms."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        got = reference_work()
        times.append(perf_counter() - t0)
        if got != CHECKSUM:
            raise AssertionError("reference loop gave a different checksum")
    return statistics.median(times) * 1000


class Gauge:
    """Samples the reference loop between ops and scales the ops' wall times.

    `start()` takes the first sample.  `after_op(seconds)` records an op's
    wall time and samples again once GAUGE_EVERY_S of op time has gathered;
    every op since the previous sample is then scaled by REF_MS over the mean
    of the two samples around it.  `finish()` samples once more and returns
    the scaled times of all ops in order.
    """

    def __init__(self):
        self.scaled = []
        self.samples = []
        self._pending = []

    def start(self):
        self.samples.append(reference_ms())

    def after_op(self, seconds: float):
        self._pending.append(seconds)
        if sum(self._pending) >= GAUGE_EVERY_S:
            self._flush()

    def finish(self) -> list:
        if self._pending:
            self._flush()
        return self.scaled

    def _flush(self):
        self.samples.append(reference_ms())
        factor = REF_MS / ((self.samples[-2] + self.samples[-1]) / 2)
        self.scaled.extend(s * factor for s in self._pending)
        self._pending = []
