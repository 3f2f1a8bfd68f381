"""Tests for the multi-level WA matmul orders (Figure 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ab_matmul_multilevel,
    blocked_matmul,
    multilevel_expected_writes,
    naive_matmul,
    wa_matmul_multilevel,
)
from repro.machine import MemoryHierarchy, TwoLevel


def rand(m, n, seed=0):
    return np.random.default_rng(seed).standard_normal((m, n))


def make_hier(block_sizes):
    """Hierarchy with one level per blocking size, 3 blocks each."""
    sizes = [3 * b * b for b in reversed(block_sizes)]
    return MemoryHierarchy(sizes)


class TestNumerics:
    @pytest.mark.parametrize("fn", [wa_matmul_multilevel, ab_matmul_multilevel])
    def test_two_levels(self, fn):
        A, B = rand(16, 16, 1), rand(16, 16, 2)
        C = fn(A, B, block_sizes=[8, 4])
        np.testing.assert_allclose(C, A @ B, rtol=1e-12)

    @pytest.mark.parametrize("fn", [wa_matmul_multilevel, ab_matmul_multilevel])
    def test_three_levels(self, fn):
        A, B = rand(16, 16, 3), rand(16, 16, 4)
        C = fn(A, B, block_sizes=[8, 4, 2])
        np.testing.assert_allclose(C, A @ B, rtol=1e-12)

    @pytest.mark.parametrize("fn", [wa_matmul_multilevel, ab_matmul_multilevel])
    def test_rectangular(self, fn):
        A, B = rand(8, 16, 5), rand(16, 24, 6)
        C = fn(A, B, block_sizes=[8, 2])
        np.testing.assert_allclose(C, A @ B, rtol=1e-12)

    def test_single_level_degenerates_to_blocked(self):
        A, B = rand(8, 8, 7), rand(8, 8, 8)
        C = wa_matmul_multilevel(A, B, block_sizes=[4])
        np.testing.assert_allclose(C, A @ B, rtol=1e-12)


class TestValidation:
    def test_block_sizes_must_nest(self):
        with pytest.raises(ValueError):
            wa_matmul_multilevel(rand(12, 12), rand(12, 12),
                                 block_sizes=[6, 4])

    def test_top_block_must_divide_dims(self):
        with pytest.raises(ValueError):
            wa_matmul_multilevel(rand(12, 12), rand(12, 12),
                                 block_sizes=[8, 4])

    def test_hier_level_count_must_match(self):
        hier = MemoryHierarchy([3 * 16])
        with pytest.raises(ValueError):
            wa_matmul_multilevel(rand(8, 8), rand(8, 8),
                                 block_sizes=[8, 4], hier=hier)

    def test_blocks_must_fit_levels(self):
        hier = MemoryHierarchy([3 * 4, 3 * 16])  # L2 too small for b=8
        with pytest.raises(ValueError):
            wa_matmul_multilevel(rand(8, 8), rand(8, 8),
                                 block_sizes=[8, 2], hier=hier)


class TestMultilevelTraffic:
    def test_backing_store_writes_equal_output(self):
        """The slowest level receives exactly the output, once."""
        m = n = l = 16
        bs = [8, 4]
        hier = make_hier(bs)
        wa_matmul_multilevel(rand(m, n, 1), rand(n, l, 2),
                             block_sizes=bs, hier=hier)
        # Backing store = level r+1 = 3.
        assert hier.writes_at(hier.r + 1) == m * l

    def test_exact_per_level_writes_match_prediction(self):
        m = n = l = 16
        bs = [8, 4]
        hier = make_hier(bs)
        wa_matmul_multilevel(rand(m, n, 1), rand(n, l, 2),
                             block_sizes=bs, hier=hier)
        exp = multilevel_expected_writes(m, n, l, bs)
        # block_sizes is slowest-first: bs[0] -> level r, bs[1] -> level r-1.
        for d, e in enumerate(exp):
            level = hier.r - d
            assert hier.writes_at(level) == e, f"level {level}"

    def test_three_level_writes_decrease_toward_slow_memory(self):
        """WA at every level: writes shrink as you descend the hierarchy."""
        m = n = l = 32
        bs = [16, 8, 4]
        hier = make_hier(bs)
        wa_matmul_multilevel(rand(m, n, 1), rand(n, l, 2),
                             block_sizes=bs, hier=hier)
        w1 = hier.writes_at(1)
        w2 = hier.writes_at(2)
        w3 = hier.writes_at(3)
        w_back = hier.writes_at(4)
        assert w1 > w2 > w3 > w_back
        assert w_back == m * l

    def test_ab_order_same_top_level_writes(self):
        """The slab order only changes *lower*-level traffic: the top-level
        write count (to the backing store) is identical."""
        m = n = l = 16
        bs = [8, 4]
        h_wa = make_hier(bs)
        h_ab = make_hier(bs)
        wa_matmul_multilevel(rand(m, n, 1), rand(n, l, 2),
                             block_sizes=bs, hier=h_wa)
        ab_matmul_multilevel(rand(m, n, 1), rand(n, l, 2),
                             block_sizes=bs, hier=h_ab)
        assert h_wa.writes_at(3) == h_ab.writes_at(3) == m * l

    def test_ab_order_worse_below_top(self):
        """Slab order loses C-tile residency at the inner level under
        explicit control: strictly more writes to the mid level."""
        m = n = l = 32
        bs = [16, 4]
        h_wa = make_hier(bs)
        h_ab = make_hier(bs)
        wa_matmul_multilevel(rand(m, n, 1), rand(n, l, 2),
                             block_sizes=bs, hier=h_wa)
        ab_matmul_multilevel(rand(m, n, 1), rand(n, l, 2),
                             block_sizes=bs, hier=h_ab)
        assert h_ab.writes_at(2) > h_wa.writes_at(2)


class TestAblation:
    """What each ingredient of Figure 4a buys, at n=32 with blocks
    (16, 4): blocking with the reduction innermost, not blocking or a
    write-minimal order alone."""

    n, bs = 32, [16, 4]

    def test_naive_is_write_minimal_only_at_the_slowest_level(self):
        """Dot products write each output word once to slow memory, but
        write more into L1 than the multi-level WA order does."""
        A, B = rand(self.n, self.n, 1), rand(self.n, self.n, 2)
        h_wa = make_hier(self.bs)
        wa_matmul_multilevel(A, B, block_sizes=self.bs, hier=h_wa)
        h_naive = TwoLevel(3 * self.bs[-1] ** 2)
        naive_matmul(A, B, hier=h_naive)
        assert h_naive.writes_at(2) == self.n * self.n
        assert h_naive.writes_at(1) > h_wa.writes_at(1)

    def test_k_outermost_blocking_is_not_wa(self):
        """Blocking alone, with the reduction outermost, stores each C
        block once per k step: far more than the output."""
        h = TwoLevel(3 * self.bs[-1] ** 2)
        blocked_matmul(rand(self.n, self.n, 1), rand(self.n, self.n, 2),
                       b=self.bs[-1], hier=h, loop_order="kij")
        assert h.writes_at(2) > 4 * self.n * self.n


@settings(max_examples=15, deadline=None)
@given(
    nb=st.integers(min_value=1, max_value=3),
    split=st.sampled_from([(8, 4), (8, 2), (4, 2)]),
)
def test_property_multilevel_output_writes(nb, split):
    b_top, b_in = split
    n = nb * b_top
    bs = [b_top, b_in]
    hier = make_hier(bs)
    A, B = rand(n, n, 21), rand(n, n, 22)
    C = wa_matmul_multilevel(A, B, block_sizes=bs, hier=hier)
    np.testing.assert_allclose(C, A @ B, rtol=1e-10)
    assert hier.writes_at(hier.r + 1) == n * n
