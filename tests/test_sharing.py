"""A datatype's code and payload types are shared, and only the branch that
is taken is evaluated.

A declared datatype's value closes over its normal form, and a `by` block
over it puts that very family term into its eliminator, so the kernel finds
the two families equal without opening their closures. The payload type of
a constructor at a ground index is computed once per family, and a written
tuple of cases or a method of two written lambdas evaluates only what the
scrutinee selects. The by-gadget reads a datatype's codes through the same
memo, so a `by case` evaluates each constructor's code once.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import datatype, elab_check, load_session, read_corpus
from generators import ConvPairGen
from test_naming import PRED

from idt import kernel as K
from idt import labels as L
from idt import surface as S
from idt import terms as T
from idt import values as V


def counting(monkeypatch, module, name: str) -> list:
    """Count the calls of `module.name` in the returned one-element list."""
    real = getattr(module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def iinduction_families(t: T.Term) -> list:
    found = []

    def visit(u: T.Term, d: int):
        if isinstance(u, T.IInduction):
            found.append(u.fam)
        return None

    T.map_term(t, visit)
    return found


def test_a_by_block_shares_the_family_term_of_its_datatype():
    decls = S.parse_file(read_corpus("prelude.idt"))
    sess = load_session()
    for d in decls[:-1]:
        sess.process_decl(d)
    definiens, _ = L.elab_define(sess.ctx, decls[-1])  # plus, by rec over Nat
    nat = datatype(sess, "Nat").val
    (fam,) = iinduction_families(definiens)
    assert isinstance(fam, T.Lam) and fam.body is nat.fam.body.term
    # the kernel compares the two families without opening either closure
    assert V.own_binder_only(nat.fam.body)
    assert V.convertible(sess.ctx.eval(fam), nat.fam, sess.ctx.depth)


def test_a_parameterised_family_is_read_back():
    sess = load_session("prelude.idt")
    sess.load_text(
        "data Tree (A : Set) : Set where\n"
        "  Tree A => leaf\n"
        "  Tree A => node (l : Tree A) (a : A) (r : Tree A)\n"
    )
    d = S.parse_file(
        "let size (A : Set) (t : Tree A) : Nat where\n"
        "  size A t by rec t {\n"
        "    size A leaf => zero\n"
        "    size A (node l a r) => suc (plus (size A l) (size A r))\n"
        "  }\n"
    )[0]
    definiens, _ = L.elab_define(sess.ctx, d)
    (fam,) = iinduction_families(definiens)
    tree = V.vapp(datatype(sess, "Tree").val, V.fresh(sess.ctx.depth))
    # Tree's family reads its parameter, so it is no shared object
    assert not V.own_binder_only(tree.fam.body) and fam.body is not tree.fam.body.term


def test_checking_a_literal_builds_one_payload_type_per_level(monkeypatch):
    sess = load_session("prelude.idt")
    sess.load_text(PRED)
    nat = datatype(sess, "Nat").val
    for n in (10, 40, 80):
        t = elab_check(sess.ctx, S.parse_expr(f"pred {n}"), nat)
        calls = counting(monkeypatch, V, "vinterp_i")
        K.check(sess.ctx, t, nat)
        monkeypatch.undo()
        # about 4n + 2 when every level rebuilt its payload type
        assert calls[0] <= n + 4, (n, calls[0])


def test_payload_types_are_remembered_on_the_family():
    sess = load_session("nat_tree_vec.idt")
    nat = datatype(sess, "Nat").val
    ty = V.payload_type(nat.ixty, nat.fam, nat.index)
    assert V.payload_type(nat.ixty, nat.fam, V.VVoid()) is ty
    fresh = V.vinterp_i(V.vapp(nat.fam, nat.index), V.imu_family(nat.ixty, nat.fam))
    d = sess.ctx.depth
    assert V.convertible(ty, fresh, d)
    # the codomain remembers the payload type at each closed tag
    suc = V.VIdxE(1)
    assert ty.cod(suc) is ty.cod(V.VIdxE(1)) and ty.cod(suc) is not ty.cod(V.VIdxE(0))
    assert V.convertible(ty.cod(suc), fresh.cod(suc), d)
    # an open index is interpreted afresh
    vec = V.vapps(datatype(sess, "Vec").val, V.fresh(d), V.fresh(d + 1))
    assert V.payload_type(vec.ixty, vec.fam, vec.index) is not V.payload_type(vec.ixty, vec.fam, vec.index)


def test_plus_80_80_evaluates_only_the_branches_taken(monkeypatch):
    sess = load_session("prelude.idt")
    calls = counting(monkeypatch, V, "eval_term")
    assert sess.eval_expr("plus 80 80") == "160"
    # 3,843 when every case of a switch and every split method was evaluated
    assert calls[0] <= 3200, calls[0]


def test_a_wide_by_case_evaluates_each_constructor_code_once(monkeypatch):
    k = 64
    sess = load_session("prelude.idt")
    sess.load_text("data W : Set where\n" + "".join(f"  W => c{i} (b : Bool)\n" for i in range(k)))
    branches = "".join(f"    f (c{i} b) => b\n" for i in range(k))
    calls = counting(monkeypatch, V, "eval_term")
    sess.load_text(f"let f (w : W) : Bool where\n  f w by case w {{\n{branches}  }}\n")
    # 295,595 when the by-gadget applied the family to each tag afresh
    assert calls[0] <= 25000, calls[0]
    monkeypatch.undo()
    assert sess.eval_expr(f"f (c{k - 1} true)") == "'true"


def recheck_evaluations_per_constructor(monkeypatch, k: int) -> float:
    """The `eval_term` calls of the kernel's re-check of a `by case` over a
    datatype of `k` one-field constructors, per constructor."""
    sess = load_session("prelude.idt")
    sess.load_text("data T : Set where\n" + "".join(f"  T => c{i} (b : Unit)\n" for i in range(k)))
    branches = "".join(f"    f (c{i} b) => zero\n" for i in range(k))
    d = S.parse_file(f"let f (t : T) : Nat where\n  f t by case t {{\n{branches}  }}\n")[0]
    definiens, ty_t = L.elab_define(sess.ctx, d)
    want = sess.ctx.eval(ty_t)
    calls = counting(monkeypatch, V, "eval_term")
    K.check(sess.ctx, definiens, want)
    monkeypatch.undo()
    return calls[0] / k


def test_a_by_case_recheck_costs_the_same_per_constructor_at_any_width(monkeypatch):
    narrow = recheck_evaluations_per_constructor(monkeypatch, 32)
    wide = recheck_evaluations_per_constructor(monkeypatch, 128)
    assert wide <= 1.3 * narrow, (narrow, wide)


def test_a_switch_evaluates_the_chosen_case_only():
    enum = T.ConsE(T.Tag("a"), T.ConsE(T.Tag("b"), T.NilE()))
    # the unchosen case cannot be evaluated at all
    bad = T.Fst(T.Unit())
    cases = T.Pair(bad, T.Pair(T.Tag("b"), T.Void()))
    fam = T.Lam("_", T.UId())
    assert V.eval_term(T.Switch(enum, fam, cases, T.IdxE(1)), ()) == V.VTag("b")
    # a tuple that is not written out is evaluated and projected
    env = (V.VPair(V.VTag("a"), V.VPair(V.VTag("b"), V.VVoid())),)
    assert V.eval_term(T.Switch(enum, fam, T.Var(0), T.IdxE(1)), env) == V.VTag("b")


def test_a_split_binds_the_components_of_a_written_method():
    method = T.Lam("x", T.Lam("y", T.Pair(T.Var(0), T.Var(1))))
    split = T.Split(T.Fst(T.Unit()), method, T.Var(0))  # the motive is never evaluated
    env = (V.VPair(V.VTag("a"), V.VTag("b")),)
    assert V.eval_term(split, env) == V.VPair(V.VTag("b"), V.VTag("a"))


# --- the shared-term rule of conversion --------------------------------------------------


def closures_over_one_term(seed: int, own_binder: bool):
    """Two lambda values over one generated body term, in different
    environments: fresh variables, and the same shuffled with a numeral in
    one place. With `own_binder`, the body reads only its bound variable."""
    gen = ConvPairGen(seed)
    n = gen.n_free
    body = gen.twin(3, 1 if own_binder else n + 1)[0]
    env1 = tuple(V.fresh(i) for i in range(n))
    env2 = list(env1)
    gen.rng.shuffle(env2)
    env2[gen.rng.randrange(n)] = V.VIdxE(gen.rng.randrange(3))
    return n, body, V.VLam("x", V.Clo(env1, body)), V.VLam("x", V.Clo(tuple(env2), body))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), own_binder=st.booleans())
def test_closures_over_one_term_convert_as_they_read_back(seed, own_binder):
    n, body, a, b = closures_over_one_term(seed, own_binder)
    try:
        want = V.quote(a, n) == V.quote(b, n)
    except V.EvalError:
        assume(False)
    assert V.convertible(a, b, n) == want
    assert V.convertible(b, a, n) == want
    if own_binder:
        assert V.own_binder_only(a.body) and want
