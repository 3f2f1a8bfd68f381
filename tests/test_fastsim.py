"""Parity and property tests for the vectorized fastsim kernels.

The acceptance bar is *bit-identity*: every counter :func:`sweep`
produces, on flat and on chunked traces alike, must equal its policy's
oracle — CacheSim's per-access loop for LRU, the reference heap for
Belady — for every capacity, on paper-shaped and adversarial traces.
"""

import numpy as np
import pytest

from repro.core.traces import matmul_trace
from repro.machine.cache import CacheSim, CacheStats
from repro.machine.fastsim import (
    count_earlier_greater,
    next_occurrences,
    prev_occurrences,
    sweep,
)
from repro.machine.fastsim.belady import belady_reference
from repro.machine.fastsim.distances import warm_distances
from repro.machine.trace import Trace, TraceBuffer


def lru_reference(lines, writes, capacity_lines):
    """The LRU oracle: CacheSim's per-access policy loop, then flush,
    with the flush split out."""
    sim = CacheSim(capacity_lines, line_size=1, policy="lru")
    for ln, w in zip(np.asarray(lines).tolist(), np.asarray(writes).tolist()):
        sim.access(ln, w)
    pre_flush_victims_e = sim.stats.victims_e
    sim.flush()
    st = sim.stats
    return {
        "hits": st.hits,
        "misses": st.misses,
        "fills": st.fills,
        "victims_m": st.victims_m,
        "victims_e": pre_flush_victims_e,
        "flush_writebacks": st.flush_writebacks,
        "flush_victims_e": st.victims_e - pre_flush_victims_e,
    }


def shapes(lines, writes):
    """The same events as a flat trace and as one chunk per event (which
    always symbolizes): the fold of one-line visits built by a sort of
    the lines, and the same visits built by ``symbolize``."""
    lines = np.asarray(lines, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    return (Trace(lines, writes, None),
            Trace(lines, writes, np.ones(len(lines), dtype=np.int64)))


def random_trace(rng, n_events=None, n_lines=None):
    n = n_events or int(rng.integers(1, 400))
    n_lines = n_lines or int(rng.integers(1, 50))
    lines = rng.integers(0, n_lines, n).astype(np.int64)
    writes = rng.random(n) < rng.random()  # write mix varies per trace
    return lines, writes


# --------------------------------------------------------------------- #
# distance machinery
# --------------------------------------------------------------------- #
class TestDistances:
    def test_count_earlier_greater_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 200))
            v = rng.integers(0, max(1, int(rng.integers(1, 300))), n)
            got = count_earlier_greater(v)
            want = [int(np.sum(v[:i] > v[i])) for i in range(n)]
            assert got.tolist() == want
            # Non-uniform weights take the weighted (unpacked) partition.
            w = rng.integers(1, 50, n)
            if n > 1:
                w[0] = w[1] + 1
            got = count_earlier_greater(v, weights=w)
            want = [int(w[:i][v[:i] > v[i]].sum()) for i in range(n)]
            assert got.tolist() == want
            # Uniform weights take the packed partition, then scale.
            got = count_earlier_greater(v, weights=np.full(n, 3))
            assert got.tolist() == [
                3 * int(np.sum(v[:i] > v[i])) for i in range(n)]
        # Values too wide to pack beside two index fields (31 + 2 * 17
        # bits > 62) take the unpacked partition; counts depend only on
        # order, so the dense ranks (packed path) must give the same.
        v = rng.integers(0, (1 << 31) - 1, 70_000)
        v[:50] = (1 << 31) - 1
        v[50:100] = v[100:150]
        ranks = np.unique(v, return_inverse=True)[1]
        assert count_earlier_greater(v).tolist() == (
            count_earlier_greater(ranks).tolist())

    def test_count_earlier_greater_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            count_earlier_greater(np.array([1, -2, 3]))

    def test_prev_next_occurrences(self):
        lines = np.array([7, 3, 7, 7, 3, 9])
        assert prev_occurrences(lines).tolist() == [-1, -1, 0, 2, 1, -1]
        n = len(lines)
        assert next_occurrences(lines).tolist() == [2, 4, 3, n + 1, n + 1,
                                                    n + 1]

    def test_stack_distances_match_lru_stack(self):
        """The warm accesses' distances (the LRU fold's distance pass)
        against a brute-force LRU stack."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            lines, _ = random_trace(rng)
            prev = prev_occurrences(lines)
            warm = np.flatnonzero(prev >= 0)
            dist = dict(zip(warm.tolist(),
                            warm_distances(warm, prev[warm]).tolist()))
            stack = []  # MRU first
            for t, ln in enumerate(lines.tolist()):
                if ln in stack:
                    assert dist[t] == stack.index(ln)
                    stack.remove(ln)
                else:
                    assert t not in dist  # cold
                stack.insert(0, ln)


# --------------------------------------------------------------------- #
# LRU sweep == the per-access loop replayed per capacity
# --------------------------------------------------------------------- #
class TestSweepEquivalence:
    def check(self, lines, writes, capacities):
        for trace in shapes(lines, writes):
            res = sweep(trace, {"lru": capacities})["lru"]
            for cap in capacities:
                want = lru_reference(lines, writes, cap)
                k = res.index_of(cap)
                for name, value in want.items():
                    assert int(getattr(res, name)[k]) == value, (cap, name)

    def test_adversarial_random_traces(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            lines, writes = random_trace(rng)
            caps = sorted(set(rng.integers(
                1, lines.max() + 6, 5).tolist()))
            self.check(lines, writes, caps)

    def test_degenerate_traces(self):
        one = np.zeros(7, dtype=np.int64)
        self.check(one, np.ones(7, dtype=bool), [1, 2, 3])
        self.check(one, np.zeros(7, dtype=bool), [1, 4])
        ramp = np.arange(50, dtype=np.int64)  # all cold, no reuse
        self.check(ramp, np.arange(50) % 3 == 0, [1, 10, 50, 100])
        pingpong = np.tile([5, 9], 30).astype(np.int64)
        self.check(pingpong, np.tile([True, False], 30), [1, 2, 3])

    def test_all_read_and_all_write_mixes(self):
        rng = np.random.default_rng(3)
        lines, _ = random_trace(rng, n_events=300)
        for writes in (np.zeros(300, bool), np.ones(300, bool)):
            self.check(lines, writes, [1, 3, 8, 21, 60])

    @pytest.mark.parametrize("scheme", ["wa2", "co", "ab-multilevel"])
    def test_sec6_shaped_capacity_sweep(self, scheme):
        """The paper's Section-6 grid: one trace, capacities 2..6 blocks."""
        b3, line = 8, 4
        buf = matmul_trace(16, 32, 16, scheme=scheme, b3=b3, b2=4, base=4,
                           line_size=line)
        lines, writes = buf.finalize()
        caps = [(blocks * b3 * b3 + line) // line
                for blocks in (2, 3, 4, 5, 6)]
        self.check(lines, writes, caps)

    def test_fig2_shaped_single_capacity(self):
        buf = matmul_trace(16, 64, 16, scheme="mkl-like", b3=8, b2=4,
                           base=4, line_size=4)
        lines, writes = buf.finalize()
        self.check(lines, writes, [49])  # 3 * 8^2 / 4 + 1

    def test_empty_trace(self):
        policies = ("lru", "belady", "clock", "segmented-lru")
        for trace in shapes([], []):
            res = sweep(trace, dict.fromkeys(policies, [4, 8]))
            assert sorted(res) == sorted(policies)
            for r in res.values():
                assert r.accesses == 0
                assert r.stats(4) == r.stats(8) == CacheStats()

    def test_capacity_validation(self):
        trace = Trace(np.array([1]), np.array([True]), None)
        with pytest.raises(ValueError):
            sweep(trace, {"lru": []})
        with pytest.raises(ValueError):
            sweep(trace, {"belady": [0]})
        with pytest.raises(ValueError):
            sweep(trace, {"fifo": [4]})
        with pytest.raises(ValueError):
            sweep(Trace(np.array([1, 2]), np.array([True]), None),
                  {"lru": [4]})
        with pytest.raises(KeyError):
            sweep(trace, {"lru": [4]})["lru"].stats(5)
        assert sweep(trace, {}) == {}


# --------------------------------------------------------------------- #
# LRU: per-access loop vs one-line vs symbol fold, before the flush
# --------------------------------------------------------------------- #
class TestThreeWayLRUParity:
    def test_three_implementations_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            lines, writes = random_trace(rng)
            flat, chunked = shapes(lines, writes)
            caps = sorted({1, 3, int(rng.integers(1, 60)),
                           int(lines.max()) + 2})
            # one-line visits from a sort of the lines, and the same
            # visits through symbolize
            lines_fold = sweep(flat, {"lru": caps})["lru"]
            folded = sweep(chunked, {"lru": caps})["lru"]
            for cap in caps:
                # the per-access path (the policy-object loop)
                generic = CacheSim(cap, line_size=1, policy="lru")
                assert generic.num_sets == 1
                for ln, w in zip(lines.tolist(), writes.tolist()):
                    generic.access(ln, w)
                assert (generic.stats
                        == lines_fold.stats(cap, include_flush=False)
                        == folded.stats(cap, include_flush=False))

    def test_dispatch_requires_empty_cache(self):
        """``run_lines`` carries on from the lines a cache holds."""
        sim = CacheSim(4, line_size=1, policy="lru")
        sim.access(1, write=True)
        sim.run_lines(np.array([1, 2, 3]), np.array([False] * 3))
        assert sim.stats.accesses == 4
        assert sim.stats.hits == 1


# --------------------------------------------------------------------- #
# Belady sweep == the reference heap replayed per capacity
# --------------------------------------------------------------------- #
class TestOPTSweepEquivalence:
    def check(self, lines, writes, capacities):
        for trace in shapes(lines, writes):
            res = sweep(trace, {"belady": capacities})["belady"]
            for cap in capacities:
                assert res.stats(cap) == belady_reference(lines, writes,
                                                          cap), cap

    def test_adversarial_random_traces(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            lines, writes = random_trace(rng)
            caps = sorted(set(rng.integers(
                1, lines.max() + 6, 5).tolist()))
            self.check(lines, writes, caps)

    def test_degenerate_traces(self):
        one = np.zeros(7, dtype=np.int64)
        self.check(one, np.ones(7, dtype=bool), [1, 2, 3])
        self.check(one, np.zeros(7, dtype=bool), [1, 4])
        ramp = np.arange(50, dtype=np.int64)  # all cold, no reuse
        self.check(ramp, np.arange(50) % 3 == 0, [1, 10, 50, 100])
        pingpong = np.tile([5, 9], 30).astype(np.int64)
        self.check(pingpong, np.tile([True, False], 30), [1, 2, 3])

    def test_never_reused_tie_breaking(self):
        """Many lines sharing the n+1 'never again' sentinel: victim
        choice falls to the line-id tie-break, which must match the
        heap's exactly (it decides the dirty/clean victim split)."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            lines = rng.permutation(n).astype(np.int64)  # every line once
            writes = rng.random(n) < 0.5
            self.check(lines, writes, sorted({1, 2, n // 2 + 1, n + 3}))

    @pytest.mark.parametrize("scheme", ["wa2", "ab-multilevel"])
    def test_sec6_shaped_capacity_sweep(self, scheme):
        """The sec6 belady column: one trace, capacities 3..5 blocks."""
        b3, line = 8, 4
        buf = matmul_trace(16, 32, 16, scheme=scheme, b3=b3, b2=4, base=4,
                           line_size=line)
        lines, writes = buf.finalize()
        caps = [(blocks * b3 * b3 + line) // line for blocks in (3, 4, 5)]
        self.check(lines, writes, caps)

    def test_exclude_flush_isolates_evictions(self):
        rng = np.random.default_rng(9)
        lines, writes = random_trace(rng, n_events=200, n_lines=20)
        res = sweep(Trace(lines, writes, None), {"belady": [8]})["belady"]
        with_flush = res.stats(8, include_flush=True)
        bare = res.stats(8, include_flush=False)
        assert bare.flush_writebacks == 0
        assert bare.victims_e <= with_flush.victims_e
        assert (with_flush.victims_e - bare.victims_e
                + with_flush.flush_writebacks
                == int(res.flush_victims_e[0] + res.flush_writebacks[0]))

    def test_empty_trace_and_validation(self):
        assert belady_reference(np.empty(0, np.int64), np.empty(0, bool),
                                4) == CacheStats()
        res = sweep(Trace(np.empty(0, np.int64), np.empty(0, bool), None),
                    {"belady": [4, 8]})["belady"]
        assert res.stats(4) == CacheStats()

    def test_cachesim_batched_belady_dispatch(self):
        """Belady's one whole-trace path is the sweep: ``CacheSim``
        refuses the offline policy, naming the sweep, and a sweep of one
        capacity has the reference heap's counters."""
        with pytest.raises(ValueError, match="repro.machine.fastsim.sweep"):
            CacheSim(4, line_size=1, policy="belady")
        rng = np.random.default_rng(10)
        for _ in range(10):
            lines, writes = random_trace(rng)
            for cap in sorted({1, 5, int(lines.max()) + 2}):
                for trace in shapes(lines, writes):
                    res = sweep(trace, {"belady": [cap]})["belady"]
                    assert res.stats(cap) == belady_reference(lines, writes,
                                                              cap)


# --------------------------------------------------------------------- #
# Belady preprocessor
# --------------------------------------------------------------------- #
class TestBeladyPreprocessor:
    def test_next_use_matches_reverse_scan(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            lines, _ = random_trace(rng)
            n = len(lines)
            last = {}
            want = np.empty(n, dtype=np.int64)
            for i in range(n - 1, -1, -1):
                want[i] = last.get(int(lines[i]), n + 1)
                last[int(lines[i])] = i
            assert (next_occurrences(lines) == want).all()

    def test_belady_not_worse_than_lru_on_fills(self):
        buf = matmul_trace(16, 32, 16, scheme="wa2", b3=8, b2=4, base=4,
                           line_size=4)
        lines, writes = buf.finalize()
        cap = 3 * 64 + 4
        lru = CacheSim(cap, line_size=4, policy="lru")
        lru.run_lines(lines, writes)
        lru.flush()
        opt = sweep(Trace(lines, writes, None),
                    {"belady": [cap // 4]})["belady"].stats(cap // 4)
        assert opt.fills <= lru.stats.fills


# --------------------------------------------------------------------- #
# TraceBuffer.finalize memoization
# --------------------------------------------------------------------- #
class TestFinalizeMemo:
    def test_repeat_finalize_reuses_arrays(self):
        tb = TraceBuffer(line_size=4)
        tb.touch_lines(np.arange(5), write=False)
        first = tb.finalize()
        again = tb.finalize()
        assert first[0] is again[0] and first[1] is again[1]

    def test_touch_invalidates_memo(self):
        tb = TraceBuffer(line_size=4)
        tb.touch_lines(np.arange(5), write=False)
        lines, _ = tb.finalize()
        tb.touch_lines(np.arange(3), write=True)
        lines2, writes2 = tb.finalize()
        assert len(lines2) == 8 and lines2 is not lines
        assert writes2.sum() == 3
        tb.touch_words(0, 8, write=False)
        assert len(tb.finalize()[0]) == 10

    def test_extend_invalidates_memo(self):
        a = TraceBuffer(line_size=4)
        a.touch_lines(np.arange(4), write=True)
        a.finalize()
        b = TraceBuffer(line_size=4)
        b.touch_lines(np.arange(2), write=False)
        a.extend(b)
        lines, writes = a.finalize()
        assert len(lines) == 6
        assert writes.tolist() == [True] * 4 + [False] * 2
