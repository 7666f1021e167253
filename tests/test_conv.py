"""Conversion on values agrees with reading both sides back and comparing."""

import io
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from generators import ConvPairGen

from idt import kernel as K
from idt import values as V
from idt.cli import run_check


def readback_eq(a, b, d: int) -> bool:
    return V.quote(a, d) == V.quote(b, d)


def free_ctx(n: int) -> K.Context:
    ctx = K.Context()
    for i in range(n):
        ctx = ctx.extend(f"v{i}", V.VSet(0))
    return ctx


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(ConvPairGen.KINDS))
def test_conv_agrees_with_readback(seed, kind):
    gen = ConvPairGen(seed)
    ctx = free_ctx(gen.n_free)
    for _ in range(4):
        a, b = gen.pair(kind)
        assert K.conv(ctx, a, b) == readback_eq(a, b, ctx.depth)
        assert K.conv(ctx, b, a) == readback_eq(b, a, ctx.depth)


# `label_argtys` and `lam_names` pairs differ only where equality ignores it,
# so they are meant to be nearly all equal
@pytest.mark.parametrize("kind", ["any", "switch_suc", "switch_enum", "imu_unit"])
def test_conv_pairs_give_both_verdicts(kind):
    verdicts = Counter()
    for seed in range(40):
        gen = ConvPairGen(seed)
        for _ in range(5):
            verdicts[readback_eq(*gen.pair(kind), gen.n_free)] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt")))
def test_corpus_conversions_agree_with_readback(conv_oracle, name):
    code = run_check([os.path.join(CORPUS, name)], show_codes=True, stdout=io.StringIO())
    assert code == (1 if name == "bad.idt" else 0)
    assert conv_oracle
