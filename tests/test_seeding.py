"""Seed threading through the cache simulators (reproducible sweeps).

The random replacement policy must be deterministic given a seed, both in
a single :class:`CacheSim` and through a :class:`CacheHierarchySim`, so
that ``repro.lab`` sweeps over randomized policies are reproducible and
cacheable point-by-point.
"""

import numpy as np

from repro.machine.cache import CacheSim
from repro.machine.multicache import CacheHierarchySim


def random_trace(n=4000, lines=256, seed=123):
    rng = np.random.default_rng(seed)
    # Skewed line popularity so evictions actually matter.
    addrs = (rng.zipf(1.3, size=n) % lines).astype(np.int64)
    writes = rng.random(n) < 0.4
    return addrs, writes


def stats_tuple(sim):
    st = sim.stats
    return (st.hits, st.misses, st.fills, st.victims_m, st.victims_e)


class TestCacheSimSeed:
    def test_same_seed_same_counters(self):
        lines, writes = random_trace()
        runs = []
        for _ in range(2):
            sim = CacheSim(64 * 4, line_size=4, policy="random", seed=7)
            sim.run_lines(lines, writes)
            sim.flush()
            runs.append(stats_tuple(sim))
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self):
        lines, writes = random_trace()
        outcomes = set()
        for seed in range(8):
            sim = CacheSim(64 * 4, line_size=4, policy="random", seed=seed)
            sim.run_lines(lines, writes)
            sim.flush()
            outcomes.add(stats_tuple(sim))
        # Victim choice is random: at least two seeds must disagree.
        assert len(outcomes) > 1

    def test_default_unseeded_behaviour_unchanged(self):
        """seed=None keeps the historical per-set default_rng(0) stream."""
        lines, writes = random_trace()
        a = CacheSim(64 * 4, line_size=4, policy="random")
        b = CacheSim(64 * 4, line_size=4, policy="random")
        a.run_lines(lines, writes)
        b.run_lines(lines, writes)
        assert stats_tuple(a) == stats_tuple(b)

    def test_explicit_rng_overrides_seed(self):
        lines, writes = random_trace()
        a = CacheSim(64 * 4, line_size=4, policy="random",
                     rng=np.random.default_rng(99), seed=1)
        b = CacheSim(64 * 4, line_size=4, policy="random",
                     rng=np.random.default_rng(99), seed=2)
        a.run_lines(lines, writes)
        b.run_lines(lines, writes)
        assert stats_tuple(a) == stats_tuple(b)

    def test_seed_irrelevant_for_deterministic_policies(self):
        lines, writes = random_trace()
        a = CacheSim(64 * 4, line_size=4, policy="lru", seed=1)
        b = CacheSim(64 * 4, line_size=4, policy="lru", seed=2)
        a.run_lines(lines, writes)
        b.run_lines(lines, writes)
        assert stats_tuple(a) == stats_tuple(b)


class TestHierarchySeed:
    def test_seeded_hierarchy_deterministic(self):
        lines, writes = random_trace(lines=512)
        runs = []
        for _ in range(2):
            hier = CacheHierarchySim([16 * 4, 64 * 4, 256 * 4],
                                     line_size=4,
                                     policies=["random"] * 3, seed=11)
            hier.run_lines(lines, writes)
            hier.flush()
            runs.append(tuple(stats_tuple(lvl) for lvl in hier.levels)
                        + (hier.backing_reads, hier.backing_writes))
        assert runs[0] == runs[1]

    def test_levels_draw_independent_streams(self):
        hier = CacheHierarchySim([16 * 4, 64 * 4], line_size=4,
                                 policies=["random"] * 2, seed=11)
        rng0 = hier.levels[0]._sets[0]._rng
        rng1 = hier.levels[1]._sets[0]._rng
        assert rng0.integers(1 << 30) != rng1.integers(1 << 30)

    def test_seed_recorded(self):
        hier = CacheHierarchySim([16 * 4, 64 * 4], line_size=4, seed=5)
        assert hier.seed == 5
        sim = CacheSim(64, line_size=4, seed=9)
        assert sim.seed == 9
