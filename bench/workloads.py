"""Seeded workloads for the idt benchmark: input generators, executors, oracles.

Each workload yields an endless stream of operations from a seed.  An
operation carries the exact text idt receives and the answer it must give;
the answers come from the generator's own bookkeeping (Python integers, Python
trees, hand-written types and code dumps), never from idt.

Streams are stratified in rounds: every round holds the same mix of operation
kinds and size strata, and the seed picks the exact values inside each stratum
and the order.  Two seeds therefore exercise the same distribution of work,
which keeps run-to-run spread low while the inputs still differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from idt import cli

# the errors `idt repl` reports and survives
REPL_ERRORS = (cli.S.ParseError, cli.ElabError, cli.KernelError, cli.G.GenericsError)


@dataclass
class Op:
    """One request: what idt receives and what it must answer."""

    kind: str  # e.g. "check", "elab", "eval", ":t", ":eq", "let"
    size: int  # input size used for the scaling fit (0 = not in the fit)
    text: str  # the generated input (file text, expression or REPL line)
    expect_code: int
    expect: tuple  # kind-specific expectation, see each workload's judge()
    new_round: bool = False  # start a fresh session before this op
    pred_only: bool = False  # evaluates `pred <numeral>` and nothing else

    def digest_bytes(self) -> bytes:
        return f"{self.kind}\x00{self.size}\x00{self.text}\x00{self.expect_code}\x00{self.expect!r}\n".encode()


def _log_scale(u: float, hi: int) -> int:
    """The integer in [0, hi] at quantile u of a log-uniform distribution."""
    return min(hi, int(math.exp(u * math.log(hi + 2))) - 1)


class _EvenQuantiles:
    """Pairs of quantiles that cover the unit square evenly from any prefix.

    The R2 low-discrepancy sequence, shifted by a seeded offset: the seed picks
    the exact values, but every run of N draws has nearly the same empirical
    distribution, so sizes do not make run-to-run spread.
    """

    STEP = (0.7548776662466927, 0.5698402909980532)  # 1/p and 1/p^2, p the plastic number

    def __init__(self, rng: random.Random):
        self.offset = (rng.random(), rng.random())
        self.j = 0

    def next(self) -> tuple:
        self.j += 1
        return tuple((o + self.j * a) % 1.0 for o, a in zip(self.offset, self.STEP))


# ---------------------------------------------------------------------------
# shared declarations

NAT = """data Nat : Set where
  Nat => zero
  Nat => suc (n : Nat)"""

BOOL = "let Bool : Set => Enum {'true, 'false}"

PLUS = """let plus (m : Nat) (n : Nat) : Nat where
  plus m n by rec m {
    plus zero n => n
    plus (suc m') n => suc (plus m' n)
  }"""

PRED = """let pred (m : Nat) : Nat where
  pred m by case m {
    pred zero => zero
    pred (suc m') => m'
  }"""

# Nat as it appears inside the code dump of an unindexed datatype
NAT_DESC_TY = (
    "IMu (\\j. 'sigma {'zero, 'suc} (\\c. switch {'zero, 'suc} (\\_. Desc) "
    "('1 ('var '* '1)) c)) ()"
)
BOOL_TY = "Enum {'true, 'false}"


# ---------------------------------------------------------------------------
# check_decls


def _field_code(fields: list, self_name: str) -> str:
    """Expected code of one constructor's fields, as `idt elab` prints it."""
    if not fields:
        return "'1"
    (name, ty), rest = fields[0], fields[1:]
    if ty == self_name:
        return "'var '* " + _field_code(rest, self_name)
    dom = NAT_DESC_TY if ty == "Nat" else BOOL_TY
    return f"'Sigma ({dom}) (\\{name}. {_field_code(rest, self_name)})"


def _vec_dump(name: str, nil: str, cons: str) -> str:
    nat = (
        "IMu (\\j. 'sigma {'zero, 'suc} (\\c. switch {'zero, 'suc} (\\_. IDesc Unit) "
        "('1 ('varI () '* '1)) c)) ()"
    )
    return (
        f"{name} (A) [n] = 'sigma {{{nil},{cons}}} [{nil} -> 'Sigma (n == 0) (\\_. '1), "
        f"{cons} -> 'Sigma ({nat}) (\\m. 'Sigma A (\\a. 'varI (() , m) '* "
        f"'Sigma (n == In (#1 m)) (\\_. '1)))]"
    )


def _vect_dump(name: str, nil: str, cons: str) -> str:
    def nat(j, c):
        return (
            f"IMu (\\{j}. 'sigma {{'zero, 'suc}} (\\{c}. switch {{'zero, 'suc}} (\\_. IDesc Unit) "
            f"('1 ('varI () '* '1)) {c})) ()"
        )

    sw = "switch {'zero, 'suc} (\\_. IDesc Unit) ('1 ('varI () '* '1))"
    head = f"<{name} (A) [n]>"
    return (
        f"{name} (A) [n] = 'sigma {{elim}} [elim -> (call {head} (iinduction "
        f"(\\j. 'sigma {{'zero, 'suc}} (\\c. {sw} c)) (\\p. <{name} (A) [snd p]>) "
        f"(\\i. \\xs. \\h. split (\\q. <{name} (A) [In q]>) (\\c. \\as. (switch {{'zero, 'suc}} "
        f"(\\c2. (a2 : interpI ({sw} c2) (\\j. {nat('j1', 'c1')})) -> <{name} (A) [In (c2 , a2)]>) "
        f"((\\as1. return {{'{nil}}} (\\c1. switch {{'{nil}}} (\\_. IDesc (Unit * {nat('j', 'c2')})) "
        f"('1) c1)) (\\as1. split (\\p. <{name} (A) [In (#1 , p)]>) (\\x. \\r. return {{'{cons}}} "
        f"(\\c1. switch {{'{cons}}} (\\_. IDesc (Unit * {nat('j', 'c2')})) "
        f"('Sigma A (\\a. 'varI (() , x) '* '1)) c1)) as1)) c) as) xs) () n))]"
    )


class CheckDecls:
    """`idt check` / `idt elab` on fresh generated files of 1-4 declaration blocks.

    Why: `dataelab`, `labels`, `kernel`, `kernel.conv` and `values.quote` do
    most of the work; numerals stay small so evaluation of large data does
    little.  One file in six holds a known-bad declaration, which exercises
    the error-rendering path.
    """

    name = "check_decls"
    preamble = NAT + "\n\n" + BOOL + "\n"
    trace_ops = 96
    round_len = 24  # files per round of the stream below
    # `plus`, `vect` and `pred` cost 10-40 times more than the others, so
    # templates are dealt in this fixed cycle and the round below fixes which
    # files get them; the seed shuffles the files, shapes the data and picks
    # the errors.  That keeps the mix of file costs the same for every seed.
    TEMPLATES = ("plus", "data", "vect", "tree", "pred", "vec", "eq")
    BAD = ("nonpositive", "nonstructural", "duplicate", "mismatch", "parse")

    def __init__(self, workdir: Path):
        self.path = workdir / "input.idt"

    def stream(self, seed: int) -> Iterator[Op]:
        rng = random.Random(f"check_decls/{seed}")
        slot = serial = 0
        while True:
            # 24 files: 1-4 blocks each, one in three `elab`, one in six bad
            files = []
            for i in range(24):
                nblocks = 1 + i % 4
                templates = [self.TEMPLATES[(slot + j) % len(self.TEMPLATES)] for j in range(nblocks)]
                slot += nblocks
                files.append((templates, "elab" if i % 3 == 2 else "check", i % 6 == 5))
            rng.shuffle(files)
            for templates, mode, is_bad in files:
                serial += 1
                yield self._file(rng, serial, templates, mode, is_bad)

    def _file(self, rng, serial: int, templates: list, mode: str, is_bad: bool) -> Op:
        lines = (NAT + "\n\n" + BOOL).split("\n")
        dumps = ["Nat = 'sigma {zero,suc} [zero -> '1, suc -> 'var '* '1]"]
        nblocks = len(templates)
        bad_at = nblocks // 2 if is_bad else -1
        expect_code, expect = 0, ()
        for b in range(nblocks + 1):
            k = f"{serial}x{b}"
            if b == bad_at:
                text, code, kind, line = self._bad(rng, k)
                expect_code = code
                expect = (kind, len(lines) + 2 + line)
                lines += [""] + text.split("\n")
            if b == nblocks:
                break
            text, dump = self._block(rng, templates[b], k)
            lines += [""] + text.split("\n")
            if dump and bad_at < 0:
                dumps.append(dump)
        text = "\n".join(lines) + "\n"
        if expect_code == 0:
            entries = 2 + nblocks
            expect = (tuple(dumps) if mode == "elab" else ()) + (
                f"checked 1 file(s), context has {entries} entries",
            )
        return Op(mode, 0 if is_bad else nblocks, text, expect_code, expect)

    def _block(self, rng, template: str, k: str):
        if template in ("data", "eq"):
            name = f"D{k}"
            ctors = []
            for c in range(rng.randint(2, 4)):
                kinds = (name, "Bool") if template == "eq" else (name, "Bool", "Nat")
                fields = [(f"f{i}", rng.choice(kinds)) for i in range(1, rng.randint(0, 3) + 1)]
                ctors.append((f"c{k}_{c}", fields))
            text = f"data {name} : Set where\n" + "\n".join(
                f"  {name} => {cn}" + "".join(f" ({fn} : {ft})" for fn, ft in fields)
                for cn, fields in ctors
            )
            if template == "eq":
                text += "\nderiving Eq"
            tags = ",".join(cn for cn, _ in ctors)
            arms = ", ".join(f"{cn} -> {_field_code(fields, name)}" for cn, fields in ctors)
            return text, f"{name} = 'sigma {{{tags}}} [{arms}]"
        if template == "tree":
            name, leaf, node = f"Tree{k}", f"leaf{k}", f"node{k}"
            text = (
                f"data {name} (A : Set) : Set where\n  {name} A => {leaf}\n"
                f"  {name} A => {node} (l : {name} A) (a : A) (r : {name} A)"
            )
            dump = f"{name} (A) = 'sigma {{{leaf},{node}}} [{leaf} -> '1, {node} -> 'var '* 'Sigma A (\\a. 'var '* '1)]"
            return text, dump
        if template == "vec":
            name, nil, cons = f"Vec{k}", f"vnil{k}", f"vcons{k}"
            text = (
                f"data {name} (A : Set) [n : Nat] : Set where\n"
                f"  {name} A [n = zero] => {nil}\n"
                f"  {name} A [n = suc m] => {cons} (m : Nat) (a : A) (vs : {name} A m)"
            )
            return text, _vec_dump(name, nil, cons)
        if template == "vect":
            name, nil, cons = f"Vect{k}", f"vnil{k}", f"vcons{k}"
            text = (
                f"data {name} (A : Set) [n : Nat] : Set where\n"
                f"  {name} A [n] by case n {{\n"
                f"    {name} A [zero] => {nil}\n"
                f"    {name} A [suc m] => {cons} (a : A) (vs : {name} A m)\n"
                f"  }}"
            )
            return text, _vect_dump(name, nil, cons)
        if template == "plus":
            return PLUS.replace("plus", f"plus{k}"), None
        if template == "pred":
            return PRED.replace("pred", f"pred{k}"), None
        raise ValueError(template)

    def _bad(self, rng, k: str):
        """(text, exit code, error kind, 0-based line of the error within the text)."""
        which = rng.choice(self.BAD)
        if which == "nonpositive":
            text = f"data Bad{k} (A : Set) : Set where\n  Bad{k} A => ex{k} (f : Bad{k} A -> A)"
            return text, 1, "NonPositive", 1
        if which == "nonstructural":
            text = (
                f"let loop{k} (m : Nat) : Nat where\n  loop{k} m by rec m {{\n"
                f"    loop{k} zero => zero\n    loop{k} (suc m') => loop{k} (suc m')\n  }}"
            )
            return text, 1, "NoMatchingHypothesis", 3
        if which == "duplicate":
            text = rng.choice([NAT, BOOL.replace("'true, 'false", "'yes, 'no")])
            return text, 1, "DuplicateName", 0
        if which == "mismatch":
            return f"let wrong{k} : Nat => 'true", 1, "CheckMismatch", 0
        text = (
            f"let broken{k} (m : Nat) : Nat where\n  broken{k} m by loop m {{\n"
            f"    broken{k} zero => zero\n  }}"
        )
        return text, 2, "expected 'case' or 'rec'", 1

    def begin(self):
        return None

    def prepare(self, op: Op):
        self.path.write_text(op.text, encoding="utf-8")

    def execute(self, op: Op, state) -> int:
        return cli.main([op.kind, str(self.path)])

    def judge(self, op: Op, code: int, output: str) -> bool:
        if code != op.expect_code:
            return False
        lines = output.splitlines()
        if code == 0:
            return tuple(lines) == op.expect
        kind, line = op.expect
        first = lines[0] if lines else ""
        if code == 2:
            return first.startswith(f"{self.path}:{line}:") and kind in first
        return first.startswith(f"{self.path}: error: {line}:") and f" {kind}: " in first


# ---------------------------------------------------------------------------
# eval_numerals


class EvalNumerals:
    """`idt eval -e EXPR prelude.idt pred.idt` with numerals of spread sizes.

    Why: numeral elaboration (`elab`, eager goal text through `pp`) and
    `values.eval_term` do most of the work, while `dataelab` and `kernel.conv`
    barely run.  Sizes span two orders of magnitude so that super-linear
    growth shows, and stay far below the sizes at which the evaluator
    exhausts the Python stack.
    """

    name = "eval_numerals"
    prelude = NAT + "\nderiving Eq\n\n" + BOOL + "\n\nlet true : Bool => 'true\n\nlet false : Bool => 'false\n\n" + PLUS + "\n"
    preamble = prelude + "\n" + PRED + "\n"
    trace_ops = 30
    round_len = 15  # ops per round: three kinds at five levels
    # Five log-spaced size levels, one op of each kind at each level per round,
    # and every literal jittered by up to 5%.  Cost grows with the square of
    # a literal, so equal levels keep the tail of the latency distribution,
    # and with it p90, from depending on which sizes a seed happened to draw.
    PLUS_LEVELS = (1, 4, 12, 32, 80)
    PRED_LEVELS = (1, 5, 16, 45, 130)

    def __init__(self, workdir: Path):
        self.files = [workdir / "prelude.idt", workdir / "pred.idt"]
        self.files[0].write_text(self.prelude, encoding="utf-8")
        self.files[1].write_text(PRED + "\n", encoding="utf-8")

    def stream(self, seed: int) -> Iterator[Op]:
        rng = random.Random(f"eval_numerals/{seed}")
        while True:
            ops = [self._op(rng, kind, level) for level in range(5) for kind in ("plus", "pred", "plus_pred")]
            rng.shuffle(ops)
            yield from ops

    def _op(self, rng, kind: str, level: int) -> Op:
        def size(levels):
            return round(levels[level] * rng.uniform(0.95, 1.05))

        if kind == "pred":
            n = size(self.PRED_LEVELS)
            return Op("eval", n, f"pred {n}", 0, (str(n - 1),), pred_only=True)
        a, b = size(self.PLUS_LEVELS), size(self.PLUS_LEVELS)
        if kind == "plus":
            return Op("eval", a + b, f"plus {a} {b}", 0, (str(a + b),))
        return Op("eval", a + b, f"plus (pred {a}) {b}", 0, (str(a - 1 + b),))

    def begin(self):
        return None

    def prepare(self, op: Op):
        pass

    def execute(self, op: Op, state) -> int:
        return cli.main(["eval", "-e", op.text] + [str(p) for p in self.files])

    def judge(self, op: Op, code: int, output: str) -> bool:
        return code == op.expect_code and tuple(output.splitlines()) == op.expect


# ---------------------------------------------------------------------------
# repl_session


@dataclass(frozen=True)
class BTree:
    """Python model of the REPL's `BTree`, the oracle for `:eq` on trees."""

    kids: Optional[tuple]  # None for bleaf, else (left, bool, right)

    def text(self) -> str:
        if self.kids is None:
            return "bleaf"
        l, b, r = self.kids
        return f"(bnode {l.text()} '{'true' if b else 'false'} {r.text()})"


def _rand_tree(rng, depth: int) -> BTree:
    if depth == 0 or rng.random() < 0.3:
        return BTree(None)
    return BTree((_rand_tree(rng, depth - 1), rng.random() < 0.5, _rand_tree(rng, depth - 1)))


def _mutate(rng, t: BTree) -> BTree:
    """A tree that differs from t in one label (a leaf becomes a node)."""
    if t.kids is None:
        return BTree((BTree(None), True, BTree(None)))
    l, b, r = t.kids
    inner = [side for side, sub in ((0, l), (2, r)) if sub.kids is not None]
    pick = rng.choice(inner + [1])
    if pick == 0:
        return BTree((_mutate(rng, l), b, r))
    if pick == 1:
        return BTree((l, not b, r))
    return BTree((l, b, _mutate(rng, r)))


REPL_PRELOAD = (
    "\n\n".join(
        [
            NAT + "\nderiving Eq",
            "data Tree (A : Set) : Set where\n  Tree A => leaf\n  Tree A => node (l : Tree A) (a : A) (r : Tree A)",
            "data Vec (A : Set) [n : Nat] : Set where\n  Vec A [n = zero] => vnil\n"
            "  Vec A [n = suc m] => vcons (m : Nat) (a : A) (vs : Vec A m)",
            "data Vect (A : Set) [n : Nat] : Set where\n  Vect A [n] by case n {\n"
            "    Vect A [zero] => vnil\n    Vect A [suc m] => vcons (a : A) (vs : Vect A m)\n  }",
            BOOL,
            "let true : Bool => 'true",
            "let false : Bool => 'false",
            "data BTree : Set where\n  BTree => bleaf\n  BTree => bnode (l : BTree) (b : Bool) (r : BTree)\nderiving Eq",
            PLUS,
            PRED,
        ]
    )
    + "\n"
)

# hand-written types of the preloaded names, the oracle for `:t`
KNOWN_TYPES = {
    "Nat": "Set",
    "Tree": "Set -> Set",
    "Vec": "Set -> Nat -> Set",
    "Vect": "Set -> Nat -> Set",
    "Bool": "Set",
    "true": "Bool",
    "false": "Bool",
    "BTree": "Set",
    "plus": "Nat -> Nat -> Nat",
    "pred": "Nat -> Nat",
    "plus 2": "Nat -> Nat",
    "Tree Bool": "Set",
    "Vec Nat": "Nat -> Set",
}


class ReplSession:
    """One stateful `Session` running a seeded script of REPL commands.

    Why: many small requests, where per-command fixed costs dominate rather
    than input size: `Session.resugar` scanning a context that `let`s grow to
    ~100 entries, `pp`, the derived-equality closures and `kernel.conv` in
    `:eq`.  It uses elaboration the opposite way to eval_numerals, so a fix
    for big numerals that adds per-call overhead shows here.
    """

    name = "repl_session"
    preamble = REPL_PRELOAD
    PRELOAD_DEPTH = 10  # context entries the preload defines
    LETS, QUERIES = 90, 210  # commands per script: the context grows 10 -> 100
    # Commands of each kind per script.  Their costs differ by up to 10x and
    # p50 falls where few commands lie, so the counts are fixed and the seed
    # picks the order and the values.
    MIX = {"let_nat": 45, "let_enum": 18, "let_enum_val": 9, "let_tree": 18,
           ":t": 63, ":eq_nat": 52, ":eq_tree": 42, "eval": 53}
    trace_ops = LETS + QUERIES
    round_len = LETS + QUERIES  # one script

    def __init__(self, workdir: Path):
        pass

    def stream(self, seed: int) -> Iterator[Op]:
        rng = random.Random(f"repl_session/{seed}")
        while True:
            yield from self._script(rng)

    def _script(self, rng) -> list:
        nats: dict = {}  # let name -> value
        trees: dict = {}  # let name -> BTree
        enums: dict = {}  # alias name -> tags
        enum_vals: dict = {}  # let name -> (alias, tag)
        depth = self.PRELOAD_DEPTH
        slots = [kind for kind, n in self.MIX.items() for _ in range(n)]
        rng.shuffle(slots)
        eq_sizes = _EvenQuantiles(rng)  # numeral comparisons are the costliest queries
        ops = []
        for i, slot in enumerate(slots):
            if slot.startswith("let"):
                k = len(ops)
                if slot == "let_nat":
                    if nats and rng.random() < 0.5:
                        src = rng.choice(sorted(nats))
                        c = rng.randint(0, 5)
                        line, val = f"let v{k} : Nat => plus {src} {c}", nats[src] + c
                    else:
                        val = rng.randint(0, 30)
                        line = f"let v{k} : Nat => {val}"
                    nats[f"v{k}"] = val
                elif slot == "let_enum":
                    tags = tuple(f"{c}{k}" for c in "rgb"[: rng.randint(2, 3)])
                    line = f"let C{k} : Set => Enum {{{', '.join(chr(39) + t for t in tags)}}}"
                    enums[f"C{k}"] = tags
                elif slot == "let_enum_val" and enums:
                    alias = rng.choice(sorted(enums))
                    tag = rng.choice(enums[alias])
                    line = f"let e{k} : {alias} => '{tag}"
                    enum_vals[f"e{k}"] = (alias, tag)
                else:
                    t = _rand_tree(rng, 3)
                    line = f"let t{k} : BTree => {t.text()}"
                    trees[f"t{k}"] = t
                ops.append(Op("let", depth, line, 0, ("ok",)))
                depth += 1
                continue
            if slot == ":t":
                ops.append(self._type_query(rng, nats, trees, enums, enum_vals, depth))
            elif slot == ":eq_nat":
                if nats and rng.random() < 0.3:
                    lhs = rng.choice(sorted(nats))
                    n = nats[lhs]
                    u = rng.random()
                else:
                    u, _ = eq_sizes.next()
                    n = _log_scale(u, 60)
                    lhs = str(n)
                m = n if rng.random() < 0.5 else _log_scale((u + 0.5) % 1.0, 60)
                verdict = "equal" if n == m else "not-equal"
                ops.append(Op(":eq", depth, f"{lhs} {m}", 0, (verdict,)))
            elif slot == ":eq_tree":
                if trees and rng.random() < 0.3:
                    lhs = rng.choice(sorted(trees))
                    a = trees[lhs]
                else:
                    a = _rand_tree(rng, 5)
                    lhs = a.text()
                b = a if rng.random() < 0.5 else _mutate(rng, a)
                verdict = "equal" if a == b else "not-equal"
                ops.append(Op(":eq", depth, f"{lhs} {b.text()}", 0, (verdict,)))
            else:
                ops.append(self._eval_query(rng, nats, enum_vals, depth))
        ops[0].new_round = True
        return ops

    def _type_query(self, rng, nats, trees, enums, enum_vals, depth) -> Op:
        roll = rng.random()
        if roll < 0.05:
            ctor = rng.choice(["vnil", "zero", "bleaf", "leaf"])
            return Op(":t", depth, ctor, 1, ("CannotSynthesize",))
        pools = [(KNOWN_TYPES, None)]
        for names, ty in ((nats, "Nat"), (trees, "BTree"), (enums, "Set")):
            if names:
                pools.append((names, ty))
        if enum_vals:
            pools.append((enum_vals, "alias"))
        names, ty = rng.choice(pools)
        name = rng.choice(sorted(names))
        want = names[name] if ty is None else enum_vals[name][0] if ty == "alias" else ty
        return Op(":t", depth, name, 0, (want,))

    def _eval_query(self, rng, nats, enum_vals, depth) -> Op:
        roll = rng.random()
        if roll < 0.3:
            a, b = rng.randint(0, 10), rng.randint(0, 10)
            return Op("eval", depth, f"plus {a} {b}", 0, (str(a + b),))
        if roll < 0.6:
            n = rng.randint(0, 20)
            return Op("eval", depth, f"pred {n}", 0, (str(max(n - 1, 0)),), pred_only=True)
        if roll < 0.8 and nats:
            name = rng.choice(sorted(nats))
            return Op("eval", depth, name, 0, (str(nats[name]),))
        if enum_vals:
            name = rng.choice(sorted(enum_vals))
            return Op("eval", depth, name, 0, (f"'{enum_vals[name][1]}",))
        return Op("eval", depth, "true", 0, ("'true",))

    def begin(self):
        sess = cli.Session()
        sess.load_text(self.preamble)
        return sess

    def prepare(self, op: Op):
        pass

    def execute(self, op: Op, sess) -> int:
        """Dispatch one REPL line the way `idt repl` does, printing its answer."""
        try:
            if op.kind == ":t":
                print(sess.type_of(op.text))
            elif op.kind == ":eq":
                print(sess.eq_command(*cli._split_two(op.text)))
            elif op.kind == "let":
                sess.load_text(op.text)
                print("ok")
            else:
                print(sess.eval_expr(op.text))
        except REPL_ERRORS as e:
            print(cli._report("<repl>", e))
            return 1
        return 0

    def judge(self, op: Op, code: int, output: str) -> bool:
        if code != op.expect_code:
            return False
        if code == 1:
            return output.startswith("<repl>: error: ") and f" {op.expect[0]}: " in output
        return tuple(output.splitlines()) == op.expect


WORKLOADS = {w.name: w for w in (CheckDecls, EvalNumerals, ReplSession)}
