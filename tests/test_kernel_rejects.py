"""What the kernel rejects: one ill-typed core term per premise.

Each case pairs a well-typed term with a copy that differs in one place, so
that exactly one premise of one rule rejects it. The good term must pass
and the bad one must raise `KernelError` with the pinned kind and message.
The cases cover the sorts, the universe levels of binders and codes, every
rule with a motive (`Switch`, `EqElim`, `IAll`, `IAllMap`, `iinduction`,
`split`), the enumeration formers `consE` and `Enum`, the rules of the code
forms, the checking rules of the introduction forms, the annotation form
`Ann`, the arity of a label and the survivors of earlier mutation runs.
`tests/kernel_mutants.py` deletes each of these premises from a copy of
`kernel.py` in turn and expects this file to fail.
"""

import pytest

from idt import kernel as K
from idt import terms as T

U, TT, S0 = T.Unit(), T.Void(), T.Set_(0)
AB = T.ConsE(T.Tag("a"), T.ConsE(T.Tag("b"), T.NilE()))
TAG = T.Tag("a")  # a term of type UId, wrong wherever it appears below
ONE = T.DOne()


def lam(*names_then_body):
    """`\\x y ... . body`."""
    *names, body = names_then_body
    for nm in reversed(names):
        body = T.Lam(nm, body)
    return body


X = lam("j", U)  # a family over the index type Unit
RF = lam("j", ONE)  # the family of codes of a one-constructor datatype


def _context(*decls):
    ctx = K.Context()
    for name, ty in decls:
        ctx = ctx.extend(name, K.check_entry_type(ctx, ty))
    return ctx


GAMMA = _context(
    ("P", T.Pi("e", T.EnumT(AB), S0)),  # a motive over Enum {'a, 'b}
    ("Q", T.Pi("u", U, S0)),  # a motive over Unit
    ("q", T.Eq(U, TT, TT)),
    ("R", T.IDesc(U)),  # a neutral code
    ("d", T.InterpIDesc(T.Var(0), X)),  # a payload of R
    ("s", T.Sigma("x", U, U)),
)


def var(name: str) -> T.Var:
    return T.Var(GAMMA.lookup(name)[0])


def _verdict(t, want):
    return K.infer(GAMMA, t) if want is None else K.check(GAMMA, t, GAMMA.eval(want))


# --- the eliminators with a motive, as functions of the motive -------------------

REC = lam("i", "v", TT)
METHOD = lam("i", "xs", "h", TT)
SPLIT_METHOD = lam("a", "b", TT)
CASES_B = T.Pair(TT, TT)  # the cases of a switch over Enum {'a, 'b} after the first
ENUM = "Enum {'a, 'b}"
PAIR = "Unit * Unit"
INDEXED = "Unit * IMu (\\j. '1) ()"
# each eliminator as a function of its motive, with the motive's binders and
# the printed types of its first and its last binder
ELIMS = {
    "Switch": (lambda m: T.Switch(AB, m, T.Pair(TT, CASES_B), T.IdxE(0)), ("x",), ENUM, ENUM),
    "EqElim": (lambda m: T.EqElim(m, TT, var("q")), ("y", "r"), "Unit", "() == y"),
    "IAll": (lambda m: T.IAllD(var("R"), X, m, var("d")), ("p",), PAIR, PAIR),
    "IAllMap": (lambda m: T.IAllMap(var("R"), X, m, REC, var("d")), ("p",), PAIR, PAIR),
    "IInduction": (lambda m: T.IInduction(U, RF, m, METHOD, TT, T.In(TT)), ("p",), INDEXED, INDEXED),
    "Split": (lambda m: T.Split(m, SPLIT_METHOD, var("s")), ("p",), PAIR, PAIR),
}
NOT_A_TYPE = "UniverseMismatch: expected a type, its type is "


def _motive_cases():
    """A motive whose annotation, body or domain is wrong, for each rule."""
    for rule, (elim, names, first, last) in ELIMS.items():
        good = elim(lam(*names, U))
        # a variable motive over the wrong domain, and an annotated one
        wrong_var, wrong_ty = (var("P"), f"{ENUM} -> Set") if first == "Unit" else (var("Q"), "Unit -> Set")
        wrong_ann = T.Ann(lam("x", U), T.Pi("x", T.EnumT(AB) if first == "Unit" else U, S0))
        domain = f"TypeMismatch: expected a motive over {first}, got {wrong_ty}"
        yield pytest.param(good, elim(wrong_ann), None, domain, id=f"{rule}-annotation")
        yield pytest.param(good, elim(lam(*names, T.Var(0))), None, NOT_A_TYPE + last, id=f"{rule}-universe")
        yield pytest.param(good, elim(wrong_var), None, domain, id=f"{rule}-domain")


# --- every other premise of those rules, of the sorts and of the codes -----------

IDESC_U = T.IDesc(U)
GOOD_EQELIM = ELIMS["EqElim"][0](lam("y", "r", U))
GOOD_SWITCH = ELIMS["Switch"][0](lam("x", U))
GOOD_SPLIT = ELIMS["Split"][0](lam("p", U))
GOOD_IALL = ELIMS["IAll"][0](lam("p", U))
GOOD_IALLMAP = ELIMS["IAllMap"][0](lam("p", U))
GOOD_INDUCTION = ELIMS["IInduction"][0](lam("p", U))
GOOD_INTERP = T.InterpIDesc(var("R"), X)
GOOD_IMU = T.IMu(U, RF, TT)
CODE_MISMATCH = "TypeMismatch: expected IDesc Unit, got UId"
UNIT_MISMATCH = "TypeMismatch: expected Unit, got UId"
ENUMU_MISMATCH = "TypeMismatch: expected EnumU, got UId"
SET_MISMATCH = "TypeMismatch: expected Set, got Unit"
SET1_IN_SET = "TypeMismatch: expected Set, got Set1"
NOT_A_CODE = "TypeMismatch: expected a description code, got Unit"
SYNTH_ONLY = "CannotInfer: checking-only form in synthesis position"
LEVEL_ONE = "UniverseMismatch: type lives at level 1, needed at most 0"
HYPOTHESES = "TypeMismatch: expected Unit -> Unit -> Unit, got "

CASES = [
    # sorts: a type's type is a universe, at most the level the rule allows
    ("type-is-a-universe", T.Pi("x", U, U), T.Pi("x", TT, U), None, NOT_A_TYPE + "Unit"),
    ("IDesc-index-level", IDESC_U, T.IDesc(S0), None, LEVEL_ONE),
    ("IMu-index-level", GOOD_IMU, T.IMu(S0, RF, U), None, LEVEL_ONE),
    ("IInduction-index-level", GOOD_INDUCTION, T.IInduction(S0, RF, lam("p", U), METHOD, U, T.In(TT)), None, LEVEL_ONE),
    # universe levels: no universe contains itself
    ("Set-in-Set", U, S0, S0, SET1_IN_SET),
    ("Pi-codomain-level", T.Pi("x", U, U), T.Pi("x", U, S0), S0, SET1_IN_SET),
    ("Pi-domain-level", T.Pi("x", U, U), T.Pi("x", S0, U), S0, SET1_IN_SET),
    ("IDesc-level", GOOD_INTERP, IDESC_U, S0, SET1_IN_SET),
    ("IAll-level", GOOD_IALL, T.IAllD(var("R"), X, lam("p", S0), var("d")), S0, SET1_IN_SET),
    # equations
    ("Eq-lhs", T.Eq(U, TT, TT), T.Eq(U, TAG, TT), None, UNIT_MISMATCH),
    ("Eq-rhs", T.Eq(U, TT, TT), T.Eq(U, TT, TAG), None, UNIT_MISMATCH),
    ("EqElim-proof", GOOD_EQELIM, T.EqElim(lam("y", "r", U), TT, TT), None, "TypeMismatch: eliminating a non-equation"),
    ("EqElim-base", GOOD_EQELIM, T.EqElim(lam("y", "r", U), TAG, var("q")), None, UNIT_MISMATCH),
    # enumerations
    ("consE-tag", T.ConsE(TAG, T.NilE()), T.ConsE(TT, T.NilE()), None, "TypeMismatch: expected UId, got Unit"),
    ("consE-rest", T.ConsE(TAG, T.NilE()), T.ConsE(TAG, TAG), None, ENUMU_MISMATCH),
    ("Enum-enumeration", T.EnumT(AB), T.EnumT(TAG), None, ENUMU_MISMATCH),
    ("Switch-cases", GOOD_SWITCH, T.Switch(AB, lam("x", U), T.Pair(TAG, CASES_B), T.IdxE(0)), None, UNIT_MISMATCH),
    ("Switch-enum", GOOD_SWITCH, T.Switch(TAG, lam("x", U), T.Pair(TT, CASES_B), T.IdxE(0)), None, ENUMU_MISMATCH),
    ("Switch-scrutinee", GOOD_SWITCH, T.Switch(AB, lam("x", U), T.Pair(TT, CASES_B), TAG), None,
     f"TypeMismatch: expected {ENUM}, got UId"),
    # pairs
    ("Split-scrutinee", GOOD_SPLIT, T.Split(lam("p", U), SPLIT_METHOD, TT), None, "NotAPair: splitting a non-pair"),
    ("Split-method", GOOD_SPLIT, T.Split(lam("p", U), TAG, var("s")), None, HYPOTHESES + "UId"),
    # the forms over a code: the code synthesises `IDesc I`, the family is over I
    ("interpI-code-checks-only", GOOD_INTERP, T.InterpIDesc(ONE, X), None, SYNTH_ONLY),
    ("interpI-code-is-a-code", GOOD_INTERP, T.InterpIDesc(TT, X), None, NOT_A_CODE),
    ("interpI-family", GOOD_INTERP, T.InterpIDesc(var("R"), lam("j", TT)), None, SET_MISMATCH),
    ("IAll-code-checks-only", GOOD_IALL, T.IAllD(T.DVarI(TT), X, lam("p", U), TT), None, SYNTH_ONLY),
    ("IAll-code-is-a-code", GOOD_IALL, T.IAllD(TT, X, lam("p", U), TT), None, NOT_A_CODE),
    ("IAll-family", GOOD_IALL, T.IAllD(var("R"), lam("j", TT), lam("p", U), var("d")), None, SET_MISMATCH),
    ("IAll-payload", GOOD_IALL, T.IAllD(var("R"), X, lam("p", U), TAG), None,
     "TypeMismatch: expected interpI R (\\j. Unit), got UId"),
    ("IAllMap-code-checks-only", GOOD_IALLMAP, T.IAllMap(T.DTimes(ONE, ONE), X, lam("p", U), REC, TT), None,
     SYNTH_ONLY),
    ("IAllMap-family", GOOD_IALLMAP, T.IAllMap(var("R"), lam("j", TT), lam("p", U), REC, var("d")), None, SET_MISMATCH),
    ("IAllMap-hypotheses", GOOD_IALLMAP, T.IAllMap(var("R"), X, lam("p", U), TT, var("d")), None, HYPOTHESES + "Unit"),
    ("IAllMap-payload", GOOD_IALLMAP, T.IAllMap(var("R"), X, lam("p", U), REC, TAG), None,
     "TypeMismatch: expected interpI R (\\j. Unit), got UId"),
    # fix-points and induction
    ("IMu-family", GOOD_IMU, T.IMu(U, lam("j", TT), TT), None, "TypeMismatch: expected IDesc Unit, got Unit"),
    ("IMu-index", GOOD_IMU, T.IMu(U, RF, TAG), None, UNIT_MISMATCH),
    ("IInduction-family", GOOD_INDUCTION, T.IInduction(U, X, lam("p", U), METHOD, TT, T.In(TT)), None,
     "TypeMismatch: expected IDesc Unit, got Set"),
    ("IInduction-method", GOOD_INDUCTION, T.IInduction(U, RF, lam("p", U), TT, TT, T.In(TT)), None,
     "TypeMismatch: expected Unit -> Unit -> Unit -> Unit, got Unit"),
    ("IInduction-index", GOOD_INDUCTION, T.IInduction(U, RF, lam("p", U), METHOD, TAG, T.In(TT)), None, UNIT_MISMATCH),
    ("IInduction-scrutinee", GOOD_INDUCTION, T.IInduction(U, RF, lam("p", U), METHOD, TT, TT), None,
     "TypeMismatch: expected IMu (\\j. '1) (), got Unit"),
    # the code forms: each only checks, against `IDesc I`
    ("code-against-IDesc", U, ONE, S0, "TypeMismatch: expected Set, got a description code"),
    ("varI-index", T.DVarI(TT), T.DVarI(TAG), IDESC_U, UNIT_MISMATCH),
    ("times-lhs", T.DTimes(ONE, ONE), T.DTimes(TAG, ONE), IDESC_U, CODE_MISMATCH),
    ("times-rhs", T.DTimes(ONE, ONE), T.DTimes(ONE, TAG), IDESC_U, CODE_MISMATCH),
    ("sigmaE-enum", T.DSigmaE(AB, lam("c", ONE)), T.DSigmaE(TAG, lam("c", ONE)), IDESC_U, ENUMU_MISMATCH),
    ("sigmaE-family", T.DSigmaE(AB, lam("c", ONE)), T.DSigmaE(AB, lam("c", TT)), IDESC_U,
     "TypeMismatch: expected IDesc Unit, got Unit"),
    ("pi-domain-level", T.DPi(U, lam("x", ONE)), T.DPi(S0, lam("x", ONE)), IDESC_U, LEVEL_ONE),
    ("sigma-domain-is-a-type", T.DSigma(U, lam("x", ONE)), T.DSigma(TT, lam("x", ONE)), IDESC_U, NOT_A_TYPE + "Unit"),
    ("sigma-family", T.DSigma(U, lam("x", ONE)), T.DSigma(U, lam("x", TT)), IDESC_U,
     "TypeMismatch: expected IDesc Unit, got Unit"),
    # the checking rules of the introduction forms, each against a type of
    # another former; a Sigma and a Pi have the fields the other rule reads
    ("lambda-against-non-Pi", T.Pair(TT, TT), lam("x", TT), T.Sigma("x", U, U),
     "TypeMismatch: function against Unit * Unit"),
    # an annotated lambda is inferred at its annotation, which must match
    ("lambda-annotation", T.Ann(lam("x", TT), T.Pi("x", U, U)), T.Ann(lam("x", TT), T.Pi("x", T.UId(), U)),
     T.Pi("x", U, U), "TypeMismatch: expected Unit -> Unit, got UId -> Unit"),
    ("pair-against-non-Sigma", lam("x", TT), T.Pair(TT, TT), T.Pi("x", U, U),
     "TypeMismatch: pair against Unit -> Unit"),
    ("enum-index-against-non-Enum", TT, T.IdxE(0), U, "TypeMismatch: enum index against Unit"),
    ("enum-index-out-of-range", T.IdxE(1), T.IdxE(2), T.EnumT(AB),
     "TypeMismatch: enum index against Enum {}"),
    ("refl-against-non-Eq", TT, T.Refl(), U, "TypeMismatch: refl against Unit"),
    ("In-against-non-IMu", TT, T.In(TT), U, "TypeMismatch: constructor against Unit"),
    ("return-against-non-label", TT, T.LRet(TT), U, "TypeMismatch: return against Unit"),
    # the annotation form: its type is a type, and its term checks against it
    ("Ann-annotation-is-a-type", T.Ann(U, S0), T.Ann(U, T.Set_(2)), None,
     "UniverseMismatch: the top universe has no type"),
    ("Ann-term-checks", T.Ann(lam("x", TT), T.Pi("x", U, U)), T.Ann(lam("x", TAG), T.Pi("x", U, U)), None,
     "TypeMismatch: expected Unit, got UId"),
    # labels: one type per argument
    ("label-arity", T.LabelTy("f", (TT,), (U,), U), T.LabelTy("f", (TT,), (), U), None,
     "TypeMismatch: label f: 1 args but 0 types"),
]


@pytest.mark.parametrize(
    "good, bad, want, text", [*_motive_cases(), *(pytest.param(*c[1:], id=c[0]) for c in CASES)]
)
def test_premise_rejects(good, bad, want, text):
    _verdict(good, want)
    with pytest.raises(K.KernelError) as e:
        _verdict(bad, want)
    assert str(e.value) == text


CODES = {
    "one": ONE,
    "varI": T.DVarI(TT),
    "times": T.DTimes(ONE, ONE),
    "pi": T.DPi(U, lam("x", ONE)),
    "sigma": T.DSigma(U, lam("x", ONE)),
    "sigmaE": T.DSigmaE(AB, lam("c", ONE)),
}


@pytest.mark.parametrize("code", CODES.values(), ids=CODES.keys())
def test_code_former_only_checks(code):
    K.check(GAMMA, code, GAMMA.eval(IDESC_U))
    with pytest.raises(K.KernelError) as e:
        K.infer(GAMMA, code)
    assert str(e.value) == SYNTH_ONLY
