"""Mutation check of the kernel's rejection tests.

    python tests/kernel_mutants.py

Each mutant below is one text edit to `src/idt/kernel.py` that deletes or
weakens one premise of one rule. The script copies `src/` and `tests/` to a
temporary directory once, and for each mutant applies its edit to the copy
of `kernel.py` and runs `tests/test_kernel_rejects.py` there. A mutant is
killed when that run fails. The script prints one line per mutant and then
the killed/total count, and exits 1 if a mutant survives, if an edit no
longer matches the kernel exactly once, or if the unmutated copy fails.
pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, text in kernel.py, replacement); the first eight survived every
# tier-1 test before the rejection tests existed
MUTANTS = [
    ("conv_le: a universe inside itself", "return got.level <= want.level", "return True"),
    ("Pi/Sigma: the codomain's level ignored", "return V.VSet(max(j, k))", "return V.VSet(j)"),
    ("EqElim: base unchecked", "    check(ctx, t.base, V.vapps(mv, lhs, V.VRefl()))\n", ""),
    ("IMu: index unchecked", "    check(ctx, t.index, iv)\n    return V.VSet(0)", "    return V.VSet(0)"),
    ("varI: index unchecked", "        check(ctx, t.index, ixty)\n", "        pass\n"),
    ("split: method unchecked", "    check(ctx, t.method, _pi_to(sty.dom,", "    (ctx, t.method, _pi_to(sty.dom,"),
    ("IDesc I : Set 0", "    return V.VSet(1)", "    return V.VSet(0)"),
    ("Eq: right side unchecked", "    check(ctx, t.rhs, av)\n", ""),
    # sorts
    (
        "a type's type need not be a universe",
        '        _err("UniverseMismatch", t, f"expected a type, its type is {show(ctx, ty)}")',
        "        return 0",
    ),
    ("a type's level unbounded", "    if ty.level > max_level:", "    if False:"),
    ("Pi/Sigma: the domain's level ignored", "return V.VSet(max(j, k))", "return V.VSet(k)"),
    ("IDesc: index at any level", "    type_level(ctx, t.index, max_level=0)", "    type_level(ctx, t.index)"),
    (
        "IMu: index type at any level",
        "T.IMu) -> Value:\n    iv, _ = check_is_type(ctx, t.ixty, max_level=0)",
        "T.IMu) -> Value:\n    iv, _ = check_is_type(ctx, t.ixty)",
    ),
    (
        "IMu: family unchecked",
        "    check(ctx, t.fam, _const_pi(iv, V.VIDesc(iv)))\n    check(ctx, t.index, iv)",
        "    check(ctx, t.index, iv)",
    ),
    # motives
    ("motive: domain unchecked", "isinstance(got, V.VPi) and conv(ctx, got.dom, want.dom)", "isinstance(got, V.VPi)"),
    (
        "motive: need not end in a universe",
        "    if not isinstance(got, V.VSet):\n"
        '        _err("UniverseMismatch", p, f"expected a type, its type is {show(ctx, got)}")\n'
        "    return outer.eval(motive), got.level",
        '    return outer.eval(motive), getattr(got, "level", 0)',
    ),
    ("motive: level 0 whatever its universe", "return outer.eval(motive), got.level", "return outer.eval(motive), 0"),
    (
        "switch: motive unchecked",
        "_motive_check(ctx, t.fam, _const_pi(V.VEnumT(ev), V.VSet(0)))",
        "ctx.eval(t.fam), 0",
    ),
    (
        "EqElim: motive unchecked",
        "_motive_check(ctx, t.motive, _pi_to(a, lambda y: _const_pi(V.VEq(a, lhs, y), V.VSet(0))))",
        "ctx.eval(t.motive), 0",
    ),
    (
        "IAll/IAllMap: motive unchecked",
        "pv, k = _motive_check(ctx, t.motive, _const_pi(sig, V.VSet(0)))",
        "pv, k = ctx.eval(t.motive), 0",
    ),
    ("IAll: at level 0", "    return V.VSet(k)", "    return V.VSet(0)"),
    (
        "iinduction: motive unchecked",
        "pv, _ = _motive_check(ctx, t.motive, _const_pi(sig, V.VSet(0)))",
        "pv = ctx.eval(t.motive)",
    ),
    (
        "split: motive unchecked",
        "pv, _ = _motive_check(ctx, t.motive, _const_pi(sty, V.VSet(0)))",
        "pv = ctx.eval(t.motive)",
    ),
    # the other premises of the rules with a motive
    ("Eq: left side unchecked", "    check(ctx, t.lhs, av)\n", ""),
    ("EqElim: proof need not be an equation", "    if not isinstance(qty, V.VEq):", "    if False:"),
    (
        "switch: enumeration unchecked",
        "    check(ctx, t.enum, V.VEnumU())\n    ev = ctx.eval(t.enum)",
        "    ev = ctx.eval(t.enum)",
    ),
    # the enumeration formers
    ("consE: tag unchecked", "    check(ctx, t.tag, V.VUId())\n", ""),
    ("consE: rest unchecked", "    check(ctx, t.rest, V.VEnumU())\n", ""),
    (
        "Enum: enumeration unchecked",
        "    check(ctx, t.enum, V.VEnumU())\n    return V.VSet(0)",
        "    return V.VSet(0)",
    ),
    ("switch: cases unchecked", "    check(ctx, t.cases, V.vpie(ev, pv))\n", ""),
    ("switch: scrutinee unchecked", "    check(ctx, t.scrut, V.VEnumT(ev))\n", ""),
    ("split: scrutinee need not be a pair", "    if not isinstance(sty, V.VSigma):", "    if False:"),
    ("interpI/IAll/IAllMap: code need not be a code", "    if not isinstance(cty, V.VIDesc):", "    if False:"),
    ("interpI: family unchecked", "    check(ctx, t.arg, _const_pi(ixty, V.VSet(0)))\n", ""),
    ("IAll/IAllMap: family unchecked", "    check(ctx, t.fam, _const_pi(ixty, V.VSet(0)))\n", ""),
    (
        "IAll: payload unchecked",
        "    _, xv, _, k = _all_motive(ctx, t)\n    check(ctx, t.payload, V.vinterp_i(ctx.eval(t.code), xv))\n",
        "    _, xv, _, k = _all_motive(ctx, t)\n",
    ),
    ("IAllMap: hypotheses unchecked", "    check(ctx, t.rec, _pi_to(", "    (ctx, t.rec, _pi_to("),
    (
        "IAllMap: payload unchecked",
        "    check(ctx, t.payload, V.vinterp_i(ctx.eval(t.code), xv))\n    return V.viall(",
        "    return V.viall(",
    ),
    (
        "iinduction: index type at any level",
        "T.IInduction) -> Value:\n    iv, _ = check_is_type(ctx, t.ixty, max_level=0)",
        "T.IInduction) -> Value:\n    iv, _ = check_is_type(ctx, t.ixty)",
    ),
    (
        "iinduction: family unchecked",
        "    check(ctx, t.fam, _const_pi(iv, V.VIDesc(iv)))\n    rv = ctx.eval(t.fam)",
        "    rv = ctx.eval(t.fam)",
    ),
    ("iinduction: method unchecked", "    check(ctx, t.method, method_ty)\n", ""),
    (
        "iinduction: index unchecked",
        "    check(ctx, t.index, iv)\n    iv2 = ctx.eval(t.index)",
        "    iv2 = ctx.eval(t.index)",
    ),
    ("iinduction: scrutinee unchecked", "    check(ctx, t.scrut, V.VIMu(iv, rv, iv2))\n", ""),
    # the code forms
    (
        "code: checked against any type",
        "    if not isinstance(want, V.VIDesc):\n"
        '        _err("TypeMismatch", t, f"expected {show(ctx, want)}, got a description code")\n'
        "    ixty, cls = want.index, type(t)",
        '    ixty, cls = getattr(want, "index", want), type(t)',
    ),
    ("times: left unchecked", "        check(ctx, t.lhs, want)\n", ""),
    ("times: right unchecked", "        check(ctx, t.rhs, want)\n", ""),
    (
        "sigmaE: enumeration unchecked",
        "        check(ctx, t.enum, V.VEnumU())\n        check(ctx, t.fam, _const_pi(V.VEnumT(",
        "        check(ctx, t.fam, _const_pi(V.VEnumT(",
    ),
    ("sigmaE: family unchecked", "        check(ctx, t.fam, _const_pi(V.VEnumT(ctx.eval(t.enum)), want))\n", ""),
    (
        "pi/sigma: domain at any level",
        "        sv, _ = check_is_type(ctx, t.dom, max_level=0)",
        "        sv, _ = check_is_type(ctx, t.dom)",
    ),
    ("pi/sigma: family unchecked", "        check(ctx, t.fam, _const_pi(sv, want))\n", ""),
    # the checking rules of the introduction forms, and labels
    (
        "lambda: against any type",
        '    if not isinstance(want, V.VPi):\n        _err("TypeMismatch", t, f"function',
        '    if False:\n        _err("TypeMismatch", t, f"function',
    ),
    # the annotation form
    (
        "Ann: annotation need not be a type",
        "    tyv, _ = check_is_type(ctx, t.ty)\n    check(ctx, t.term, tyv)",
        "    tyv = ctx.eval(t.ty)\n    check(ctx, t.term, tyv)",
    ),
    ("Ann: term unchecked", "    check(ctx, t.term, tyv)\n", ""),
    # the pair, enumeration index and constructor rules, in the loop of `_check_intro`
    (
        "pair: against any type",
        '            if not isinstance(want, _VSigma):\n                _err("TypeMismatch", t, f"pair',
        '            if False:\n                _err("TypeMismatch", t, f"pair',
    ),
    ("enum index: against any type", "            if not isinstance(want, _VEnumT):", "            if False:"),
    (
        "enum index: into an empty enumeration",
        "            if not isinstance(enum, _VConsE):  # the enumeration ends",
        "            if False:  # the enumeration ends",
    ),
    ("refl: against any type", "    if not isinstance(want, V.VEq):", "    if False:"),
    ("In: against any type", "            if not isinstance(want, _VIMu):", "            if False:"),
    ("return: against any type", "    if not isinstance(want, V.VLabelTy):", "    if False:"),
    ("label: arity unchecked", "    if len(args) != len(argtys):", "    if False:"),
]


def rejection_tests_pass(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests/test_kernel_rejects.py"]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode == 0


def main() -> int:
    original = (ROOT / "src" / "idt" / "kernel.py").read_text(encoding="utf-8")
    bad = [name for name, old, _ in MUTANTS if original.count(old) != 1]
    for name in bad:
        print(f"stale: {name}: its text does not occur exactly once in kernel.py")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src")
        shutil.copytree(ROOT / "tests", tree / "tests")
        shutil.copy(ROOT / "pyproject.toml", tree)
        kernel = tree / "src" / "idt" / "kernel.py"
        if not rejection_tests_pass(tree):
            print("the rejection tests fail on the unmutated kernel")
            return 1
        killed = 0
        for name, old, new in MUTANTS:
            if name in bad:
                continue
            kernel.write_text(original.replace(old, new), encoding="utf-8")
            dead = not rejection_tests_pass(tree)
            killed += dead
            print(f"{'killed' if dead else 'SURVIVED'}: {name}")
        kernel.write_text(original, encoding="utf-8")
    print(f"killed {killed}/{len(MUTANTS)} kernel mutants")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
