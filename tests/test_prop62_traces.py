"""Proposition 6.2 end to end: TRSM / Cholesky / N-body traces under LRU.

"If the two-level WA TRSM, Cholesky factorization and direct N-body are
executed … and five blocks fit in fast memory with one cache line to
spare, the number of write-backs caused by LRU is nm, n²/2, and N,
respectively."  We replay the kernels' line traces through the cache
simulator and check the floors exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cholesky_trace, nbody_trace, trsm_trace
from repro.machine import CacheSim
from repro.machine.fastsim import sweep


def replay(buf, cap_words, line, policy="lru"):
    """Counters plus flush: the per-access loop, or Belady's sweep."""
    if policy == "belady":
        cap = cap_words // line
        return sweep(buf.finalize_trace(), {policy: [cap]})[policy].stats(cap)
    sim = CacheSim(cap_words, line_size=line, policy=policy)
    lines, writes = buf.finalize()
    sim.run_lines(lines, writes)
    sim.flush()
    return sim.stats


LINE = 4


class TestTRSM:
    N, M, B = 32, 16, 8

    def floor(self):
        return self.N * self.M // LINE

    def test_five_blocks_attains_floor(self):
        buf = trsm_trace(self.N, self.M, b=self.B, line_size=LINE)
        st_ = replay(buf, 5 * self.B**2 + LINE, LINE)
        assert st_.writebacks == self.floor()

    def test_belady_matches(self):
        buf = trsm_trace(self.N, self.M, b=self.B, line_size=LINE)
        st_ = replay(buf, 5 * self.B**2 + LINE, LINE, policy="belady")
        assert st_.writebacks == self.floor()

    def test_tiny_cache_exceeds_floor(self):
        buf = trsm_trace(self.N, self.M, b=self.B, line_size=LINE)
        st_ = replay(buf, self.B**2 + LINE, LINE)
        assert st_.writebacks > 1.5 * self.floor()

    def test_validation(self):
        with pytest.raises(ValueError):
            trsm_trace(10, 8, b=4)


class TestCholesky:
    N, B = 32, 8

    def floor(self):
        # Lower-triangle output, full diagonal blocks: n(n+b)/2 words.
        return self.N * (self.N + self.B) // 2 // LINE

    def test_five_blocks_attains_floor(self):
        buf = cholesky_trace(self.N, b=self.B, line_size=LINE)
        st_ = replay(buf, 5 * self.B**2 + LINE, LINE)
        assert st_.writebacks == self.floor()

    def test_writes_only_lower_triangle(self):
        buf = cholesky_trace(self.N, b=self.B, line_size=LINE)
        lines, writes = buf.finalize()
        written = np.unique(lines[writes])
        assert len(written) == self.floor()

    def test_tiny_cache_exceeds_floor(self):
        buf = cholesky_trace(self.N, b=self.B, line_size=LINE)
        st_ = replay(buf, self.B**2 + LINE, LINE)
        assert st_.writebacks > 1.5 * self.floor()


class TestNbody:
    N, B = 64, 8

    def floor(self):
        return self.N // LINE

    def test_three_blocks_suffice(self):
        """N-body holds only 3 vectors (P(i), F(i), P(j)): even 3 blocks
        plus a line attain the floor under LRU."""
        buf = nbody_trace(self.N, b=self.B, line_size=LINE)
        st_ = replay(buf, 3 * self.B + LINE, LINE)
        assert st_.writebacks == self.floor()

    def test_five_blocks_attains_floor(self):
        buf = nbody_trace(self.N, b=self.B, line_size=LINE)
        st_ = replay(buf, 5 * self.B + LINE, LINE)
        assert st_.writebacks == self.floor()

    def test_read_traffic_scales_quadratically(self):
        b = self.B
        fills = []
        for N in (32, 64):
            buf = nbody_trace(N, b=b, line_size=LINE)
            st_ = replay(buf, 3 * b + LINE, LINE)
            fills.append(st_.fills)
        assert fills[1] > 3 * fills[0]  # ~4x for N²/b reads


@settings(max_examples=10, deadline=None)
@given(
    nb=st.integers(min_value=2, max_value=5),
    b=st.sampled_from([4, 8]),
)
def test_property_prop62_trsm_floor(nb, b):
    n = nb * b
    buf = trsm_trace(n, b, b=b, line_size=LINE)
    st_ = replay(buf, 5 * b * b + LINE, LINE)
    assert st_.writebacks == n * b // LINE


@settings(max_examples=10, deadline=None)
@given(nb=st.integers(min_value=2, max_value=5))
def test_property_prop62_cholesky_floor(nb):
    b = 4
    n = nb * b
    buf = cholesky_trace(n, b=b, line_size=LINE)
    st_ = replay(buf, 5 * b * b + LINE, LINE)
    assert st_.writebacks == n * (n + b) // 2 // LINE
