"""de Bruijn machinery: shifting, substitution, abstraction."""

import math

from hypothesis import given, strategies as st

from idt import terms as T


def leaf_terms():
    return st.one_of(
        st.builds(T.Var, st.integers(min_value=0, max_value=5)),
        st.just(T.Unit()),
        st.just(T.Void()),
        st.just(T.DOne()),
        st.just(T.Refl()),
        st.builds(T.Tag, st.sampled_from(["a", "b", "c"])),
    )


def terms(max_leaves=12):
    return st.recursive(
        leaf_terms(),
        lambda sub: st.one_of(
            st.builds(lambda a, b: T.App(a, b), sub, sub),
            st.builds(lambda b: T.Lam("x", None, b), sub),
            st.builds(lambda a, b: T.Pi("x", a, b), sub, sub),
            st.builds(lambda a, b: T.Pair(a, b), sub, sub),
            st.builds(T.Fst, sub),
            st.builds(T.Snd, sub),
            st.builds(lambda a, b: T.Eq(T.Unit(), a, b), sub, sub),
        ),
        max_leaves=max_leaves,
    )


@given(terms())
def test_shift_zero_is_identity(t):
    assert T.shift(t, 0) == t


@given(terms(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_shift_compose(t, a, b):
    assert T.shift(T.shift(t, a), b) == T.shift(t, a + b)


@given(terms())
def test_subst_shift_cancel(t):
    # shifting opens a gap at index 0; substituting anything there and
    # renumbering recovers the original term
    stripped = T.subst_free(T.shift(t, 1), lambda j: T.Void() if j == 0 else T.Var(j - 1))
    assert stripped == t
    assert not T.occurs(T.shift(t, 1), 0)


@given(terms())
def test_abstract_then_substitute_roundtrip(t):
    # abstracting variable 0 and substituting it back is the identity
    body, found = T.abstract(t, T.Var(0))
    assert found == T.occurs(t, 0)
    restored = T.subst_free(body, lambda j: T.Var(0) if j == 0 else T.Var(j - 1))
    assert restored == t


def subterms(t):
    """Every subterm of `t`, visited by `map_term`."""
    out = []
    T.map_term(t, lambda u, _d: out.append(u))
    return out


@given(terms())
def test_abstract_closed_subterm_then_substitute_roundtrip(t):
    # abstracting any closed subterm and substituting it back is the identity
    for s in subterms(t):
        if T.occurs(s, 0, math.inf):
            continue
        body, found = T.abstract(t, s)
        assert found
        restored = T.subst_free(body, lambda j: s if j == 0 else T.Var(j - 1))
        assert restored == t


@given(terms(), st.integers(min_value=0, max_value=2))
def test_abstract_variable_is_variable_abstraction(t, k):
    # a variable needle: exactly the renaming that binds free variable k and
    # shifts every other free variable up by one
    want = T.map_vars(t, lambda i, d: T.Var(d) if i - d == k else T.Var(i + 1))
    assert T.abstract(t, T.Var(k)) == (want, T.occurs(t, k))


def test_map_term_binder_depths_and_unchanged_nodes():
    # a label's spines do not bind; a visit that changes nothing keeps every
    # node as is
    fam = T.Lam("x", None, T.App(T.Var(0), T.Var(1)))
    t = T.Pair(T.Var(0), T.Var(1))
    assert T.shift(t, 1) == T.Pair(T.Var(1), T.Var(2))
    lbl = T.LabelTy("D", (T.Var(0), fam), (T.Set_(0), T.Var(2)), T.IDesc(T.Sigma("_", T.Unit(), T.Var(3))))
    shifted = T.shift(lbl, 1)
    assert shifted == T.LabelTy(
        "D", (T.Var(1), T.shift(fam, 1)), (T.Set_(0), T.Var(3)), T.IDesc(T.Sigma("_", T.Unit(), T.Var(4)))
    )
    assert shifted.argtys[1] == T.Var(3)  # `argtys` is not compared by `==`
    assert [j for j in range(5) if T.occurs(lbl, j)] == [0, 2]
    for u in (t, lbl, fam):
        assert T.map_term(u, lambda _u, _d: None) is u


@given(terms())
def test_alpha_equality_ignores_names(t):
    def rename(t):
        if isinstance(t, T.Lam):
            return T.Lam("zz", t.ann, rename(t.body))
        if isinstance(t, T.Pi):
            return T.Pi("ww", rename(t.dom), rename(t.cod))
        fields_ = getattr(t, "_fields", None)
        if not fields_:
            return t
        kwargs = {}
        for name in fields_:
            v = getattr(t, name)
            kwargs[name] = rename(v) if isinstance(v, T.Term) else v
        return type(t)(**kwargs)

    assert rename(t) == t


def test_free_vars_examples():
    t = T.Lam("x", None, T.App(T.Var(0), T.App(T.Var(2), T.Var(1))))
    assert [j for j in range(5) if T.occurs(t, j)] == [0, 1]
    assert T.occurs(t, 1)
    assert not T.occurs(t, 5)
    # a range of outer indices, and the fields that equality ignores
    assert T.occurs(t, 1, math.inf) and not T.occurs(t, 2, math.inf)
    assert T.occurs(T.Lam("x", T.Var(3), T.Var(0)), 3)
    assert T.occurs(T.IMu(T.Var(1), T.Unit(), T.Void()), 1)


def test_tag_validity():
    assert T.valid_tag("not-equal")
    assert T.valid_tag("a_b2")
    assert not T.valid_tag("")
    assert not T.valid_tag("bad tag")
