"""Parity tests for the tile super-symbol pipeline.

The contract is bit-identity: :func:`sweep` on a tile-structured trace
(the super-symbol fold) equals the same events swept flat (the fold of
one-line visits) and each policy's oracle — CacheSim's per-access loop
for LRU, clock and segmented LRU, the reference heap for Belady — on
random and paper-kernel traces.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.traces import (
    cholesky_trace,
    matmul_trace,
    nbody_trace,
    trsm_trace,
)
from repro.machine.cache import CacheSim
from repro.machine.fastsim import sweep, symbolize
from repro.machine.fastsim.belady import belady_reference
from repro.machine.fastsim.profile import set_phase_hook
from repro.machine.fastsim.symbols import line_symbols
from repro.machine.trace import Trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as hst
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False

CAPS = [1, 2, 3, 5, 8, 13, 64]


def assert_sweeps_equal(a, b):
    """Every result field of two sweeps, bit for bit (``n_symbols`` only
    records which visit stream the fold ran over)."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        if f.name == "n_symbols":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(np.asarray(va), np.asarray(vb)), f.name


def tile_trace(sizes, visits, vwrites, rng=None):
    """A tile-structured trace: disjoint symbol footprints, one chunk
    per visit, chunk-uniform write flags."""
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    sym_lines = [offsets[s] + np.arange(sizes[s]) for s in range(len(sizes))]
    if rng is not None:  # footprint order is per-symbol, but arbitrary
        for arr in sym_lines:
            rng.shuffle(arr)
    visits = np.asarray(visits, dtype=np.int64)
    vwrites = np.asarray(vwrites, dtype=bool)
    lines = np.concatenate([sym_lines[s] for s in visits]).astype(np.int64)
    writes = np.repeat(vwrites, sizes[visits])
    return Trace(lines, writes, sizes[visits])


def random_tile_trace(rng):
    n_sym = int(rng.integers(1, 12))
    sizes = rng.integers(1, 7, n_sym)
    n_visits = int(rng.integers(1, 80))
    visits = rng.integers(0, n_sym, n_visits)
    vwrites = rng.random(n_visits) < rng.random()
    return tile_trace(sizes, visits, vwrites, rng)


def flat(trace):
    """The same events without their chunk structure."""
    return Trace(trace.lines, trace.writes, None)


POLICIES = ("lru", "belady", "clock", "segmented-lru")


def both(trace, caps):
    """Every policy of one sweep, the tile fold's and the one-line
    fold's (flat events)."""
    return (sweep(trace, dict.fromkeys(POLICIES, caps)),
            sweep(flat(trace), dict.fromkeys(POLICIES, caps)))


def loop_counters(trace, capacity_lines, policy="lru"):
    """Ground truth: the policy's oracle, flush included — CacheSim's
    per-access loop for LRU, the reference heap for Belady."""
    if policy == "belady":
        return belady_reference(trace.lines, trace.writes, capacity_lines)
    sim = CacheSim(capacity_lines, line_size=1, policy=policy)
    for ln, w in zip(trace.lines.tolist(), trace.writes.tolist()):
        sim.access(ln, w)
    sim.flush()
    return sim.stats


def assert_matches_oracle(res, trace, policy):
    """Every capacity of one sweep result against the policy's oracle."""
    for cap in res.capacities.tolist():
        assert res.stats(cap) == loop_counters(trace, cap, policy), cap


# --------------------------------------------------------------------- #
# super-symbol folds vs one-line folds and the oracles
# --------------------------------------------------------------------- #
class TestSymbolFoldParity:
    def test_lru_fold_matches_line_fold_random_tiles(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            tr = random_tile_trace(rng)
            fold = sweep(tr, {"lru": CAPS})["lru"]
            assert fold.n_symbols is not None
            line = sweep(flat(tr), {"lru": CAPS})["lru"]
            assert line.n_symbols is None
            assert_sweeps_equal(fold, line)
            assert_matches_oracle(fold, tr, "lru")

    def test_opt_fold_matches_line_fold_random_tiles(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            tr = random_tile_trace(rng)
            fold = sweep(tr, {"belady": CAPS})["belady"]
            assert fold.n_symbols is not None
            line = sweep(flat(tr), {"belady": CAPS})["belady"]
            assert line.n_symbols is None
            assert_sweeps_equal(fold, line)
            assert_matches_oracle(fold, tr, "belady")

    @pytest.mark.parametrize("policy", ["clock", "segmented-lru"])
    def test_scalar_fold_matches_line_fold_random_tiles(self, policy):
        rng = np.random.default_rng(17)
        for _ in range(40):
            tr = random_tile_trace(rng)
            fold = sweep(tr, {policy: CAPS})[policy]
            assert fold.n_symbols is not None
            line = sweep(flat(tr), {policy: CAPS})[policy]
            assert line.n_symbols is None
            assert_sweeps_equal(fold, line)
            assert_matches_oracle(fold, tr, policy)

    @pytest.mark.parametrize("policy,cap", [("lru", 4), ("lru", 9),
                                            ("belady", 4), ("belady", 9)])
    def test_fold_matches_cachesim_loop(self, policy, cap):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tr = random_tile_trace(rng)
            got = sweep(tr, {policy: [cap]})[policy].stats(
                cap, include_flush=True)
            ref = loop_counters(tr, cap, policy)
            for name in ("accesses", "hits", "misses", "fills",
                         "victims_m", "victims_e", "flush_writebacks"):
                assert getattr(got, name) == getattr(ref, name), name

    @pytest.mark.parametrize("builder", [
        lambda: matmul_trace(32, 32, 32, scheme="wa2", b3=16, b2=8,
                             base=4, line_size=4),
        lambda: matmul_trace(32, 32, 32, scheme="co", b3=16, b2=8,
                             base=4, line_size=4),
        lambda: trsm_trace(32, 16, b=8, line_size=4),
        lambda: cholesky_trace(32, b=8, line_size=4),
        lambda: nbody_trace(64, b=16, line_size=4),
    ])
    def test_paper_kernel_traces_symbolize_and_match(self, builder):
        tr = builder().finalize_trace()
        st = symbolize(tr.lines, tr.writes, tr.chunk_lens)
        assert st is not None
        assert st.n_symbols < st.n_visits  # tiles actually revisit
        caps = [4, 16, 64, 256]
        folds, lines = both(tr, caps)
        for policy in folds:
            assert folds[policy].n_symbols == st.n_symbols
            assert_sweeps_equal(folds[policy], lines[policy])
            assert_matches_oracle(folds[policy], tr, policy)

    def test_overlapping_footprints_fall_back(self):
        """c_touch_hint interleaves C lines into other tiles' chunks:
        footprints overlap, symbolize declines, and the dispatcher
        still produces exact counters by folding one-line visits."""
        tr = matmul_trace(16, 16, 16, scheme="wa2", b3=8, b2=4, base=2,
                          line_size=4, c_touch_hint=True).finalize_trace()
        assert symbolize(tr.lines, tr.writes, tr.chunk_lens) is None
        caps = [4, 16, 64]
        chunked, lines = both(tr, caps)
        for policy in chunked:
            assert chunked[policy].n_symbols is None
            assert_sweeps_equal(chunked[policy], lines[policy])
            assert_matches_oracle(chunked[policy], tr, policy)

    def test_symbolize_rejects_mixed_write_chunks(self):
        lines = np.array([0, 1, 0, 1], dtype=np.int64)
        writes = np.array([True, False, True, False])
        assert symbolize(lines, writes, np.array([2, 2])) is None

    def test_symbolize_rejects_malformed_partition(self):
        lines = np.arange(4, dtype=np.int64)
        writes = np.zeros(4, bool)
        with pytest.raises(ValueError):
            symbolize(lines, writes, np.array([2, 3]))

    def test_compression_ratio(self):
        tr = tile_trace([4, 4], [0, 1, 0, 1, 0, 1], [False] * 6)
        st = symbolize(tr.lines, tr.writes, tr.chunk_lens)
        assert st.n_events == 24 and st.n_symbols == 2
        assert st.n_visits == 6
        assert st.compression == pytest.approx(4.0)  # events per visit
        np.testing.assert_array_equal(st.expand()[0], tr.lines)
        np.testing.assert_array_equal(st.expand()[1], tr.writes)

    def test_line_symbols_are_one_line_visits(self):
        lines = np.array([9, 2, 9, 5, 2, 9], dtype=np.int64)
        writes = np.array([True, False, False, True, False, False])
        st = line_symbols(lines, writes)
        assert not st.tiles and st.n_visits == 6
        assert st.sym_lines.tolist() == [2, 5, 9]
        assert st.visits.tolist() == [2, 0, 2, 1, 0, 2]
        assert st.sym_sizes.tolist() == [1, 1, 1]
        np.testing.assert_array_equal(st.expand()[0], lines)
        np.testing.assert_array_equal(st.expand()[1], writes)


# --------------------------------------------------------------------- #
# hypothesis property tests
# --------------------------------------------------------------------- #
if HAVE_HYPOTHESIS:
    @hst.composite
    def tile_traces(draw):
        sizes = draw(hst.lists(hst.integers(1, 5), min_size=1,
                               max_size=8))
        n_sym = len(sizes)
        visits = draw(hst.lists(hst.integers(0, n_sym - 1), min_size=1,
                                max_size=40))
        vwrites = draw(hst.lists(hst.booleans(), min_size=len(visits),
                                 max_size=len(visits)))
        return tile_trace(sizes, visits, vwrites)

    def assert_fold_counts_like_loop(tr, policy, cap):
        """A tile fold's counters equal the loop's, before and after
        ``flush()``."""
        fold = sweep(tr, {policy: [cap]})[policy]
        assert fold.n_symbols is not None
        looped = CacheSim(cap, line_size=1, policy=policy)
        looped.run_trace(tr)
        assert fold.stats(cap, include_flush=False) == looped.stats
        assert fold.stats(cap) == looped.flush()

    class TestSymbolProperties:
        @given(tile_traces(), hst.sampled_from(["clock", "segmented-lru"]),
               hst.data())
        def test_symbol_scalar_folds_equal_access_loop(self, tr, policy,
                                                       data):
            """Clock and segmented LRU at visit granularity, at one
            capacity below the largest footprint (a visit then evicts
            its own lines) and one drawn freely.  The draws follow the
            active hypothesis profile; CI runs it once more under
            ``thorough``."""
            zmax = int(tr.chunk_lens.max())
            small = data.draw(hst.integers(1, max(1, zmax - 1)))
            cap = data.draw(hst.integers(1, 30))
            for c in {small, cap}:
                assert_fold_counts_like_loop(tr, policy, c)

        @settings(max_examples=25)
        @given(tile_traces(), hst.integers(1, 30))
        def test_symbol_lru_equals_cachesim(self, tr, cap):
            fold = sweep(tr, {"lru": [cap]})["lru"]
            assert fold.n_symbols is not None
            got = fold.stats(cap, include_flush=True)
            ref = loop_counters(tr, cap, "lru")
            assert (got.hits, got.misses, got.victims_m, got.victims_e,
                    got.flush_writebacks) == (ref.hits, ref.misses,
                                              ref.victims_m,
                                              ref.victims_e,
                                              ref.flush_writebacks)

        @settings(max_examples=25)
        @given(tile_traces(), hst.integers(1, 30))
        def test_symbol_opt_equals_cachesim(self, tr, cap):
            fold = sweep(tr, {"belady": [cap]})["belady"]
            assert fold.n_symbols is not None
            got = fold.stats(cap, include_flush=True)
            ref = loop_counters(tr, cap, "belady")
            assert (got.hits, got.misses, got.victims_m, got.victims_e,
                    got.flush_writebacks) == (ref.hits, ref.misses,
                                              ref.victims_m,
                                              ref.victims_e,
                                              ref.flush_writebacks)


# --------------------------------------------------------------------- #
# sweep's dispatch of tile traces, held to CacheSim.run_trace
# --------------------------------------------------------------------- #
class TestRunTraceDispatch:
    def test_auto_folds_large_tiled_traces(self):
        """A tile trace folds at super-symbol granularity."""
        tr = tile_trace([4] * 8, list(range(8)) * 6, [False] * 48)
        seen = []
        prev = set_phase_hook(lambda name, dur: seen.append(name))
        try:
            sweep(tr, {"lru": [8]})
        finally:
            set_phase_hook(prev)
        assert "supersymbol_fold" in seen

    @pytest.mark.parametrize("policy", ["lru", "belady", "clock",
                                        "segmented-lru"])
    def test_run_trace_counters_match_loop(self, policy):
        """The sweep of one capacity against its oracle: ``run_trace``
        (the per-access loop) plus ``flush()``, or Belady's reference
        heap."""
        rng = np.random.default_rng(41)
        for _ in range(15):
            tr = random_tile_trace(rng)
            got = sweep(tr, {policy: [6]})[policy].stats(6)
            if policy == "belady":
                ref = belady_reference(tr.lines, tr.writes, 6)
            else:
                sim = CacheSim(6, line_size=1, policy=policy)
                sim.run_trace(tr)
                ref = sim.flush()
            assert got == ref

