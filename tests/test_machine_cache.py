"""Unit + property tests for the cache simulator and replacement policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CacheSim
from repro.machine.cache import CacheStats
from repro.machine.fastsim import sweep
from repro.machine.policies import POLICIES, make_policy
from repro.machine.trace import Trace


def run_trace(policy, capacity_words, lines, writes, line_size=1, **kw):
    sim = CacheSim(
        capacity_words, line_size=line_size, policy=policy, **kw
    )
    sim.run_lines(np.asarray(lines), np.asarray(writes, dtype=bool))
    return sim


def belady(capacity_lines, lines, writes):
    """Belady's counters, flush included: its one simulation, the sweep."""
    trace = Trace(np.asarray(lines, dtype=np.int64),
                  np.asarray(writes, dtype=bool), None)
    return sweep(trace, {"belady": [capacity_lines]})["belady"].stats(
        capacity_lines)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        sim = CacheSim(4, line_size=1)
        sim.run_lines(np.array([1, 1, 1]), np.array([False, False, False]))
        assert sim.stats.misses == 1
        assert sim.stats.hits == 2
        assert sim.stats.fills == 1

    def test_dirty_eviction_counts_victims_m(self):
        # Capacity 1 line; write line 0 then touch line 1 -> line 0 evicted dirty.
        sim = run_trace("lru", 1, [0, 1], [True, False])
        assert sim.stats.victims_m == 1
        assert sim.stats.victims_e == 0

    def test_clean_eviction_counts_victims_e(self):
        sim = run_trace("lru", 1, [0, 1], [False, False])
        assert sim.stats.victims_m == 0
        assert sim.stats.victims_e == 1

    def test_write_hit_marks_dirty(self):
        sim = run_trace("lru", 1, [0, 0, 1], [False, True, False])
        assert sim.stats.victims_m == 1

    def test_flush_counts_dirty_residents(self):
        sim = CacheSim(8, line_size=1)
        sim.run_lines(np.array([0, 1, 2]), np.array([True, False, True]))
        sim.flush()
        assert sim.stats.flush_writebacks == 2
        assert sim.stats.writebacks == 2
        assert sim.resident_lines == 0

    def test_word_addresses_map_to_lines(self):
        sim = CacheSim(8, line_size=8)
        # words 0..7 share a line
        sim.run(np.arange(8), np.zeros(8, dtype=bool))
        assert sim.stats.misses == 1
        assert sim.stats.hits == 7

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CacheSim(10, line_size=8)
        with pytest.raises(ValueError):
            CacheSim(0)

    def test_associativity_validation(self):
        with pytest.raises(ValueError):
            CacheSim(8, line_size=1, associativity=3)

    def test_mismatched_trace_shapes(self):
        sim = CacheSim(8, line_size=1)
        with pytest.raises(ValueError):
            sim.run_lines(np.array([1, 2]), np.array([True]))

    def test_stats_as_dict_names(self):
        sim = run_trace("lru", 1, [0, 1], [True, False])
        d = sim.stats.as_dict()
        assert d["LLC_VICTIMS.M"] == 1
        assert "LLC_S_FILLS.E" in d


class TestLRUSemantics:
    def test_lru_evicts_least_recent(self):
        # cap 2: access 0,1, touch 0, access 2 -> victim must be 1
        sim = CacheSim(2, line_size=1)
        sim.run_lines(np.array([0, 1, 0, 2, 1]), np.zeros(5, dtype=bool))
        # After [0,1,0,2]: resident {0,2}; accessing 1 misses again.
        assert sim.stats.misses == 4

    def test_fast_path_matches_generic(self):
        """The sweep of a fully-associative LRU must equal a per-access
        run, before and after the flush."""
        rng = np.random.default_rng(42)
        lines = rng.integers(0, 50, size=3000)
        writes = rng.random(3000) < 0.3
        fast = sweep(Trace(lines, writes, None), {"lru": [16]})["lru"]
        slow = CacheSim(16, line_size=1, policy="lru")
        for ln, w in zip(lines.tolist(), writes.tolist()):
            slow._access_line(ln, w)  # generic path
        assert fast.stats(16, include_flush=False) == slow.stats
        assert fast.stats(16) == slow.flush()


class TestSetAssociativity:
    def test_sets_partition_lines(self):
        # 2 sets, 1 way each: lines 0 and 2 map to set 0 and conflict.
        sim = CacheSim(2, line_size=1, associativity=1)
        sim.run_lines(np.array([0, 2, 0]), np.zeros(3, dtype=bool))
        assert sim.stats.misses == 3  # conflict misses despite capacity 2

    def test_full_associativity_avoids_conflicts(self):
        sim = CacheSim(2, line_size=1)
        sim.run_lines(np.array([0, 2, 0]), np.zeros(3, dtype=bool))
        assert sim.stats.misses == 2


class TestPolicies:
    @pytest.mark.parametrize("name", ["lru", "fifo", "random", "clock", "segmented-lru"])
    def test_policy_respects_capacity(self, name):
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 30, size=2000)
        writes = rng.random(2000) < 0.5
        sim = run_trace(name, 8, lines, writes)
        assert sim.resident_lines <= 8
        # conservation: fills == evictions + still-resident
        st = sim.stats
        assert st.fills == st.victims_m + st.victims_e + sim.resident_lines

    def test_fifo_differs_from_lru(self):
        # Sequence where refreshing recency matters.
        lines = np.array([0, 1, 0, 2, 0, 3, 0, 4, 0])
        writes = np.zeros(len(lines), dtype=bool)
        lru = run_trace("lru", 2, lines, writes)
        fifo = run_trace("fifo", 2, lines, writes)
        assert lru.stats.misses < fifo.stats.misses

    def test_clock_approximates_lru(self):
        # Loop over working set slightly larger than capacity.
        lines = np.concatenate([np.arange(10)] * 20)
        writes = np.zeros(len(lines), dtype=bool)
        clock = run_trace("clock", 8, lines, writes)
        lru = run_trace("lru", 8, lines, writes)
        # Both should miss heavily on a cyclic over-capacity scan.
        assert clock.stats.misses > 0 and lru.stats.misses > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("nope", 4)

    def test_policy_registry_complete(self):
        """Every online policy has a class; offline Belady has none."""
        assert set(POLICIES) == {
            "lru", "fifo", "random", "clock", "segmented-lru",
        }

    def test_online_access_on_belady_raises(self):
        with pytest.raises(ValueError, match="repro.machine.fastsim.sweep"):
            CacheSim(4, line_size=1, policy="belady")
        with pytest.raises(ValueError, match="unknown policy 'belady'"):
            make_policy("belady", 4)


def _feed(sim, via, events):
    """Run *events* through *sim* one ``access()`` at a time or as one
    ``run_lines`` trace."""
    if via == "access":
        for line, w in events:
            sim.access(line, w)
    else:
        sim.run_lines(np.array([line for line, _ in events]),
                      np.array([w for _, w in events], dtype=bool))
    return sim


def _replay_via(via, policy, capacity, events):
    return _feed(CacheSim(capacity, line_size=1, policy=policy), via, events)


def _swept(policy, capacity, events):
    """The sweep's counters of *events* from an empty cache, before the
    flush."""
    trace = Trace(np.array([line for line, _ in events], dtype=np.int64),
                  np.array([w for _, w in events], dtype=bool), None)
    return sweep(trace, {policy: [capacity]})[policy].stats(
        capacity, include_flush=False)


@pytest.mark.parametrize("via", ["access", "run_lines"])
class TestKnownAnswers:
    """Hand-derived end states of the per-access loop, fed one access
    at a time or as one trace; the sweep's folds give the same
    counters."""

    def test_clock_saturation_sweeps_and_hand(self, via):
        events = (
            [(0, True), (1, False), (2, False)]  # fill slots 0..2, marks 1
            + [(0, False)] * 8  # slot 0 saturates at 7, not 9
            + [(1, True),   # slot 1 mark 2, line 1 dirty
               (3, False),  # min mark 1: one decrement sweep -> [6, 1, 0];
                            # victim slot 2 (line 2, clean), hand 0
               (4, False),  # min 1 at slots 1 and 2; from hand 0 -> slot 1
                            # (line 1, dirty); marks [5, 0, 0]; hand 2
               (3, True),   # slot 2 mark 0 -> 1, line 3 dirty
               (5, False)]  # min 1 at slots 1 and 2 again; from hand 2 ->
                            # slot 2 (line 3, dirty); marks [4, 0, 0]
        )
        sim = _replay_via(via, "clock", 3, events)
        pol = sim._sets[0]
        assert pol._slots == [0, 4, 5]
        assert pol._marks == [4, 0, 1]
        assert pol._hand == 0
        assert sim._dirty == {0: True, 4: False, 5: False}
        assert (sim._last_victim, sim._last_victim_dirty) == (3, True)
        assert sim.stats == CacheStats(accesses=16, hits=10, misses=6,
                                       fills=6, victims_m=2, victims_e=1)
        assert _swept("clock", 3, events) == sim.stats
        sim.flush()
        assert sim.stats.flush_writebacks == 1
        assert sim.stats.victims_e == 3

    def test_clock_fills_from_the_hand_after_flush(self, via):
        reads = [(0, False), (1, False),
                 (2, False)]  # marks [1, 1] -> [0, 0]: evict slot 0, hand 1
        sim = _replay_via(via, "clock", 2, reads)
        sim.flush()  # empties both slots; the hand stays at 1
        _feed(sim, via, [(3, False),   # first hole from the hand: slot 1
                         (4, False),   # wraps around to slot 0
                         (5, False)])  # tie at mark 1: from hand 1 -> line 3
        pol = sim._sets[0]
        assert pol._slots == [4, 5]
        assert pol._hand == 0
        assert (sim._last_victim, sim._last_victim_dirty) == (3, False)
        assert sim.stats == CacheStats(accesses=6, misses=6, fills=6,
                                       victims_e=4)

    def test_segmented_lru_tie_evicts_the_read_half(self, via):
        # Capacity 2: both halves at their reservation of 1 when line 2
        # misses, so the clean read-half line goes, not the dirty one.
        events = [(0, False), (1, True), (2, False)]
        sim = _replay_via(via, "segmented-lru", 2, events)
        assert (sim._last_victim, sim._last_victim_dirty) == (0, False)
        assert sim._dirty == {1: True, 2: False}
        assert sim.stats == CacheStats(accesses=3, misses=3, fills=3,
                                       victims_e=1)
        assert _swept("segmented-lru", 2, events) == sim.stats

    def test_segmented_lru_capacity_one(self, via):
        # read_cap == write_cap == 1: a miss evicts whichever half holds
        # the one resident line.
        events = [(0, False),  # fill the read half
                  (0, True),   # promote to the write half
                  (1, False),  # evict 0 from the write half (dirty)
                  (1, False),  # read hit
                  (2, True),   # evict 1 from the read half (clean)
                  (3, True)]   # evict 2 from the write half (dirty)
        sim = _replay_via(via, "segmented-lru", 1, events)
        pol = sim._sets[0]
        assert (pol._read_cap, pol._write_cap) == (1, 1)
        assert (list(pol._read), list(pol._write)) == ([], [3])
        assert sim._dirty == {3: True}
        assert (sim._last_victim, sim._last_victim_dirty) == (2, True)
        assert sim.stats == CacheStats(accesses=6, hits=2, misses=4,
                                       fills=4, victims_m=2, victims_e=1)
        assert _swept("segmented-lru", 1, events) == sim.stats
        sim.flush()
        assert sim.stats.writebacks == 3


class TestBelady:
    def test_belady_not_worse_than_lru(self):
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 40, size=4000)
        writes = rng.random(4000) < 0.3
        opt = belady(10, lines, writes)
        lru = run_trace("lru", 10, lines, writes)
        assert opt.misses <= lru.stats.misses

    def test_belady_classic_example(self):
        # OPT on [0,1,2,0,1,3,0,1] with cap 3: misses = 4 (0,1,2,3).
        lines = np.array([0, 1, 2, 0, 1, 3, 0, 1])
        assert belady(3, lines, np.zeros(8, dtype=bool)).misses == 4

    def test_belady_flushes_dirty_at_end(self):
        lines = np.array([0, 1])
        assert belady(4, lines, np.array([True, True])).writebacks == 2

    def test_sleator_tarjan_competitiveness(self):
        """LRU at capacity 2M misses at most ~2x OPT at capacity M.

        (Sleator & Tarjan bound: factor M/(M-M'+1) = 2M/(M+1) < 2.)
        """
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 60, size=5000)
        writes = np.zeros(5000, dtype=bool)
        M = 12
        opt = belady(M, lines, writes)
        lru = run_trace("lru", 2 * M, lines, writes)
        bound = (2 * M) / (2 * M - M + 1) * opt.misses + 2 * M
        assert lru.stats.misses <= bound


@settings(max_examples=30, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=300),
    cap=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_conservation_all_policies(lines, cap, seed):
    """fills == victims + residents, and hits+misses == accesses, always."""
    rng = np.random.default_rng(seed)
    writes = rng.random(len(lines)) < 0.4
    arr = np.asarray(lines)
    for name in ["lru", "fifo", "clock", "random", "segmented-lru"]:
        sim = CacheSim(cap, line_size=1, policy=name)
        sim.run_lines(arr, writes)
        st_ = sim.stats
        assert st_.hits + st_.misses == st_.accesses == len(lines)
        assert st_.fills == st_.victims_m + st_.victims_e + sim.resident_lines
        assert sim.resident_lines <= cap


@settings(max_examples=30, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200),
    cap=st.integers(min_value=1, max_value=12),
)
def test_property_belady_optimality_vs_online(lines, cap):
    """Belady's MIN never has more misses than any online policy."""
    arr = np.asarray(lines)
    writes = np.zeros(len(lines), dtype=bool)
    opt = belady(cap, arr, writes)
    for name in ["lru", "fifo", "clock"]:
        online = CacheSim(cap, line_size=1, policy=name)
        online.run_lines(arr, writes)
        assert opt.misses <= online.stats.misses


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    cap=st.integers(min_value=1, max_value=8),
)
def test_property_writeback_at_most_once_per_distinct_dirty_line(n, cap):
    """Streaming writes to n distinct lines then flushing writes each back once."""
    sim = CacheSim(cap, line_size=1)
    sim.run_lines(np.arange(n), np.ones(n, dtype=bool))
    sim.flush()
    assert sim.stats.writebacks == n
