"""Tests for the non-WA comparator: cache-oblivious (CO) matmul."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import co_matmul, hierarchical_task_order, ideal_cache_misses
from repro.machine import TwoLevel


def rand(m, n, seed=0):
    return np.random.default_rng(seed).standard_normal((m, n))


class TestCOMatmul:
    def test_numerics(self):
        A, B = rand(24, 16, 1), rand(16, 20, 2)
        np.testing.assert_allclose(co_matmul(A, B, base=4), A @ B, rtol=1e-11)

    def test_accumulate(self):
        A, B, C0 = rand(8, 8, 3), rand(8, 8, 4), rand(8, 8, 5)
        np.testing.assert_allclose(
            co_matmul(A, B, C0.copy(), base=2), C0 + A @ B, rtol=1e-11
        )

    def test_odd_sizes(self):
        A, B = rand(7, 5, 6), rand(5, 9, 7)
        np.testing.assert_allclose(co_matmul(A, B, base=2), A @ B, rtol=1e-11)

    def test_task_order_covers_all_work(self):
        m = n = l = 8
        vol = np.zeros((m, l, n))
        for (i0, i1, j0, j1, k0, k1) in hierarchical_task_order(
                m, n, l, [("co", 2)]):
            vol[i0:i1, j0:j1, k0:k1] += 1
        assert (vol == 1).all()  # every (i,j,k) exactly once

    def test_co_is_not_wa(self):
        """Stores grow like n³/√M: the Theorem-3 phenomenon."""
        n = 32
        hier = TwoLevel(3 * 16)  # fits 4x4 subproblems
        co_matmul(rand(n, n, 8), rand(n, n, 9), base=4, hier=hier)
        # Each fitting subproblem stores its C block once; the same C block
        # is stored n/4 times along the reduction: ~ n^3/4 >> n^2.
        assert hier.writes_to_slow >= n * n * (n // 4) // 2
        assert hier.writes_to_slow > 4 * n * n

    def test_co_traffic_scales_with_inverse_sqrt_m(self):
        n = 32
        stores = []
        for M in (3 * 4, 3 * 16, 3 * 64):
            hier = TwoLevel(M)
            co_matmul(rand(n, n, 1), rand(n, n, 2),
                      base=2, hier=hier)
            stores.append(hier.writes_to_slow)
        assert stores[0] > stores[1] > stores[2]

    def test_ideal_cache_misses_formula(self):
        # Paper Figure 2a: M = 24MB, L = 64B, n=4000 outer dims.
        q = ideal_cache_misses(4000, 128, 4000, 24 * 2**20, 64)
        # The paper's plot reports ~2.5M lines for m=128.
        assert 2.0e6 < q < 3.0e6

    def test_ideal_cache_misses_validation(self):
        with pytest.raises(ValueError):
            ideal_cache_misses(10, 10, 10, 0, 64)
        with pytest.raises(ValueError):
            ideal_cache_misses(10, 10, 10, 8, 64)  # cache smaller than 1 word


@settings(max_examples=10, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    l=st.integers(min_value=1, max_value=12),
)
def test_property_co_matmul_any_shape(m, n, l):
    A, B = rand(m, n, 31), rand(n, l, 32)
    np.testing.assert_allclose(co_matmul(A, B, base=2), A @ B, rtol=1e-9,
                               atol=1e-9)
