"""Record classes against their dataclass twins, and the import guard.

Every frozen node class is a `record.Record`. Its twin is the
`@dataclass(frozen=True)` it replaces, rebuilt with
`dataclasses.make_dataclass` from the class's field tuple, compare flags and
defaults. On the corpus and on generated terms, values and declarations, a
record and its twin must agree on `repr`, `==`, `hash` and `__match_args__`.
"""

import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest

from conftest import ROOT, load_session, read_corpus
from generators import ConvPairGen, TermGen, gen_data_decl, gen_let_decl

from idt import pp
from idt import record as R
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.elab import ElabError

CORPUS_FILES = ("prelude.idt", "nat_tree_vec.idt", "vec_computed.idt", "vec_constrained.idt", "bad.idt")


def record_classes() -> list:
    """Every record class that the idt package defines, the base included."""
    out, todo = [], [R.Record]
    while todo:
        c = todo.pop()
        todo.extend(c.__subclasses__())
        if c.__module__.startswith("idt."):
            out.append(c)
    return out


def make_twin(cls):
    n_required = len(cls._fields) - len(cls._defaults)
    specs = []
    for i, name in enumerate(cls._fields):
        kw = {"compare": name in cls._compared}
        if i >= n_required:
            kw["default"] = cls._defaults[i - n_required]
        specs.append((name, object, dataclasses.field(**kw)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


CLASSES = record_classes()
TWINS = {cls: make_twin(cls) for cls in CLASSES}


def to_twin(x, memo: dict):
    """`x` with every record in it replaced by its twin; shared nodes stay
    shared, so that identity shortcuts in comparisons happen on both sides."""
    got = memo.get(id(x))
    if got is not None:
        return got[1]
    if isinstance(x, R.Record):
        y = TWINS[type(x)](*(to_twin(getattr(x, n), memo) for n in x._fields))
    elif type(x) is tuple:
        y = tuple(to_twin(a, memo) for a in x)
    else:
        return x
    memo[id(x)] = (x, y)  # holds `x`, so that its id is not reused
    return y


def nodes_of(roots) -> list:
    """Every record reachable from `roots` through fields and tuples, once."""
    out, seen, todo = [], set(), list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, R.Record):
            out.append(x)
            todo.extend(getattr(x, n) for n in x._fields)
        elif type(x) is tuple:
            todo.extend(x)
    return out


def corpus_roots() -> list:
    roots = []
    for name in CORPUS_FILES:
        text = read_corpus(name)
        roots.append(tuple(S.lex(text)))
        roots.append(tuple(S.parse_file(text)))
        try:
            sess = load_session(name)
        except ElabError:  # bad.idt; keep the session loaded up to the error
            sess = load_session()
            for d in S.parse_file(text):
                try:
                    sess.process_decl(d)
                except ElabError:
                    break
        ctx = sess.ctx
        for e in ctx.entries:
            roots.append(e)
        for lvl, e in enumerate(ctx.entries):
            roots.append(V.quote(e.ty, lvl))
            if e.val is not None:
                roots.append(V.quote(e.val, lvl))
    return roots


def generated_roots() -> list:
    roots = []
    gen = TermGen(load_session("prelude.idt"), seed=11)
    for _ in range(30):
        t, ty = gen.sample()
        roots += [t, ty, gen.ctx.eval(t)]
    pairs = ConvPairGen(seed=12)
    for kind in itertools.islice(itertools.cycle(ConvPairGen.KINDS), 60):
        a, b = pairs.pair(kind)
        roots += [a, b, V.quote(a, pairs.n_free), V.quote(b, pairs.n_free)]
    for _ in range(30):
        roots += list(pairs.twin(3, pairs.n_free))
    rng = random.Random(13)
    for k in range(10):
        roots += [gen_data_decl(rng, f"G{k}"), gen_let_decl(rng, f"g{k}")]
    return roots


def handmade_roots() -> list:
    """The classes that neither the corpus nor the generators reach."""
    dpi = T.DPi(T.Unit(), T.Lam("x", T.DOne()))
    dsigma = T.DSigma(T.Unit(), T.Lam("x", T.DOne()))
    codes = T.Pair(T.IDesc(T.Unit()), T.Pair(T.DVarI(T.Void()), T.Pair(dpi, T.Pair(dsigma, T.EnumU()))))
    return [
        S.parse_expr(r"(\x. (x : Unit)) (() == refl) ((y : Set) * Unit) ['a -> ()]"),
        codes,
        V.eval_term(codes, ()),
        pp.Notation("Desc"),
        V.vapp(V.vsnd(V.vfst(V.fresh(0))), V.VVoid()),
        V.VNeutral(),
        R.Record(),
        T.Term(),
        V.Value(),
        S.ExtTerm(),
    ]


@pytest.fixture(scope="module")
def nodes():
    return nodes_of(corpus_roots() + generated_roots() + handmade_roots())


def _outcome(f):
    try:
        return "ok", f()
    except TypeError as e:  # an unhashable field
        return "raises", str(e)


def test_every_record_class_is_sampled(nodes):
    assert set(CLASSES) - {type(x) for x in nodes} == set()
    assert len(CLASSES) == 104  # the base and the 103 node classes


def test_record_agrees_with_its_twin(nodes):
    memo: dict = {}
    for x in nodes:
        tw = to_twin(x, memo)
        assert repr(x) == repr(tw)
        assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(tw))
        assert x == x and (tw == tw) is True
    for cls in CLASSES:
        assert cls.__match_args__ == TWINS[cls].__match_args__ == cls._fields


def test_record_equality_agrees_with_its_twin(nodes):
    memo: dict = {}
    by_arity: dict = {}
    for x in nodes:
        by_arity.setdefault(len(x._fields), []).append(x)
    compared = 0
    for group in by_arity.values():
        # same class mostly, and across classes of the same arity
        sample = random.Random(len(group)).sample(group, min(len(group), 60))
        for a, b in itertools.combinations(sample, 2):
            assert (a == b) == (to_twin(a, memo) == to_twin(b, memo))
            assert (a != b) == (to_twin(a, memo) != to_twin(b, memo))
            compared += a == b and a is not b
    assert compared > 0  # equal distinct records were met


def test_records_are_frozen_and_check_their_arguments(nodes):
    first = {}
    for x in nodes:
        first.setdefault(type(x), x)
    for cls, x in first.items():
        args = [getattr(x, n) for n in cls._fields]
        assert cls(*args) == x
        assert cls(**dict(zip(cls._fields, args))) == x
        for name in cls._fields or ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(*args, no_such_field=None)
        if len(cls._fields) > len(cls._defaults):
            with pytest.raises(TypeError):
                cls(*args[: len(cls._fields) - len(cls._defaults) - 1])


def test_defaults_and_post_init():
    assert S.EVar("x") == S.EVar("x", (1, 1, 1, 2)) == S.EVar("x", span=(3, 3, 3, 4))
    assert S.EVar("x").span is None
    assert T.Tag("a") != T.Tag("b")
    with pytest.raises(AssertionError):
        T.Tag("not a tag")
    with pytest.raises(AssertionError):
        T.Set_(3)


def test_import_leaves_out_dataclasses():
    code = "import sys; import idt.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_no_record_method_is_generated_source():
    for cls in CLASSES:
        for name, f in vars(cls).items():
            f = getattr(f, "__func__", f)
            code = getattr(f, "__code__", None)
            if code is not None:
                assert code.co_filename != "<string>", f"{cls.__name__}.{name}"
