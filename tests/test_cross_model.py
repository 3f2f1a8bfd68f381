"""Cross-validation of the library's two execution models.

The paper analyzes algorithms under explicit data movement (Section 4)
and under hardware caching (Section 6) and argues they agree for WA
schedules.  Our substrate should therefore agree with itself: the
explicitly counted slow-memory writes of a kernel must match the cache
simulator's write-backs on the same kernel's address trace (in words,
when LRU has the residency the propositions require).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    blocked_matmul,
    cholesky_trace,
    matmul_trace,
    nbody2,
    nbody_trace,
    trsm_trace,
    blocked_trsm,
    blocked_cholesky,
)
from repro.machine import CacheSim, TwoLevel

LINE = 4


def writebacks_words(buf, cap_words):
    sim = CacheSim(cap_words, line_size=LINE, policy="lru")
    lines, writes = buf.finalize()
    sim.run_lines(lines, writes)
    sim.flush()
    return sim.stats.writebacks * LINE


class TestModelsAgree:
    def test_matmul(self):
        n, b = 32, 8
        rng = np.random.default_rng(0)
        hier = TwoLevel(3 * b * b)
        blocked_matmul(rng.standard_normal((n, n)),
                       rng.standard_normal((n, n)), b=b, hier=hier)
        buf = matmul_trace(n, n, n, scheme="wa2", b3=b, b2=4, base=2,
                           line_size=LINE)
        assert hier.writes_to_slow == writebacks_words(buf, 5 * b * b + LINE)

    def test_trsm(self):
        n, m, b = 32, 16, 8
        rng = np.random.default_rng(1)
        T = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
        hier = TwoLevel(3 * b * b)
        blocked_trsm(T, rng.standard_normal((n, m)), b=b, hier=hier)
        buf = trsm_trace(n, m, b=b, line_size=LINE)
        assert hier.writes_to_slow == writebacks_words(buf, 5 * b * b + LINE)

    def test_cholesky(self):
        n, b = 32, 8
        rng = np.random.default_rng(2)
        G = rng.standard_normal((n, n))
        hier = TwoLevel(3 * b * b)
        blocked_cholesky(G @ G.T + n * np.eye(n), b=b, hier=hier)
        buf = cholesky_trace(n, b=b, line_size=LINE)
        assert hier.writes_to_slow == writebacks_words(buf, 5 * b * b + LINE)

    def test_nbody(self):
        N, b = 64, 8
        rng = np.random.default_rng(3)
        hier = TwoLevel(3 * b)
        nbody2(rng.standard_normal((N, 1)), b=b, hier=hier)
        # Traces count a particle as one word; match dimensionality d=1.
        buf = nbody_trace(N, b=b, line_size=LINE)
        assert hier.writes_to_slow == writebacks_words(buf, 5 * b + LINE)


@settings(max_examples=10, deadline=None)
@given(
    nb=st.integers(min_value=1, max_value=4),
    b=st.sampled_from([4, 8]),
)
def test_property_matmul_models_agree(nb, b):
    n = nb * b
    rng = np.random.default_rng(nb * b)
    hier = TwoLevel(3 * b * b)
    blocked_matmul(rng.standard_normal((n, n)),
                   rng.standard_normal((n, n)), b=b, hier=hier)
    buf = matmul_trace(n, n, n, scheme="wa2", b3=b, b2=max(2, b // 2),
                       base=2, line_size=LINE)
    assert hier.writes_to_slow == writebacks_words(buf, 5 * b * b + LINE)
