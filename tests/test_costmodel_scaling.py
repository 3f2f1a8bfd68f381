"""Scaling-law property tests for the parallel cost models."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import HwParams
from repro.distributed.costmodel import (
    cost_25dmml2,
    cost_2dmml2,
    cost_25dmml3_ool2,
    cost_summal3_ool2,
    ll_lunp_beta_cost,
    rl_lunp_beta_cost,
)


def hw(**kw):
    p = HwParams(**kw)
    p.validate()
    return p


@settings(max_examples=25, deadline=None)
@given(
    nexp=st.integers(min_value=12, max_value=18),
    P=st.sampled_from([64, 256, 1024, 4096]),
)
def test_property_2d_cost_scales_cubically_in_n(nexp, P):
    """Doubling n multiplies the flop-bound terms by ~8 and the
    bandwidth terms by 4; only the latency terms (constant in n) dilute
    the ratio — so the total grows by a factor in (2, 8.1]."""
    h = hw()
    n = 1 << nexp
    c1 = cost_2dmml2(n, P, h)["total"]
    c2 = cost_2dmml2(2 * n, P, h)["total"]
    assert 2.0 * c1 < c2 <= 8.1 * c1


@settings(max_examples=25, deadline=None)
@given(
    P=st.sampled_from([4096, 1 << 14, 1 << 16]),
    c2=st.sampled_from([2, 4, 8]),
)
def test_property_25d_beats_2d_at_scale(P, c2):
    """With √P ≫ c^1.5·log c, replication always helps (default hw)."""
    if math.sqrt(P) < 4 * c2**1.5 * (1 + math.log2(c2)):
        return  # outside the asymptotic regime the claim targets
    h = hw()
    n = 1 << 14
    assert (cost_25dmml2(n, P, c2, h)["total"]
            < cost_2dmml2(n, P, h)["total"])


@settings(max_examples=25, deadline=None)
@given(
    m2exp=st.integers(min_value=10, max_value=20),
)
def test_property_summa_ool2_improves_with_m2(m2exp):
    """More DRAM strictly reduces SUMMAL3ooL2's dominant n³/√M2 terms."""
    n, P = 1 << 15, 512
    lo = hw(M1=2**8, M2=float(2**m2exp))
    hi = hw(M1=2**8, M2=float(2 ** (m2exp + 2)))
    assert (cost_summal3_ool2(n, P, hi)["total"]
            < cost_summal3_ool2(n, P, lo)["total"])


@settings(max_examples=25, deadline=None)
@given(
    c3=st.integers(min_value=1, max_value=8),
)
def test_property_25d_ool2_nvm_writes_grow_with_sqrt_p_over_c(c3):
    """The Theorem-4 excess: 2.5DMML3ooL2's β23 words scale as
    n²/√(P·c3) ≫ n²/P; more replication narrows but never closes it."""
    n, P = 1 << 15, 512
    h = hw(M1=2**8, M2=2**14)
    terms = cost_25dmml3_ool2(n, P, c3, h)["terms"]
    b23 = sum(t.count for t in terms
              if t.channel == "L2->L3" and t.param == "beta_23")
    floor = n * n / P
    assert b23 > floor


@settings(max_examples=20, deadline=None)
@given(
    P=st.sampled_from([64, 256, 1024]),
    nexp=st.integers(min_value=12, max_value=16),
)
def test_property_lu_tradeoff_universal(P, nexp):
    """In the Model-2.2 regime (n²/P ≫ M2): LL writes less NVM, RL
    communicates less — for every (n, P) in the regime."""
    n = 1 << nexp
    h = hw(M1=2**8, M2=2**12)
    if n * n / P < 4 * h.M2:
        return  # outside the regime the formulas assume
    ll = ll_lunp_beta_cost(n, P, h)
    rl = rl_lunp_beta_cost(n, P, h)
    assert ll["beta_23_words"] < rl["beta_23_words"]
    assert rl["beta_nw_words"] < ll["beta_nw_words"]
