"""Memory-hierarchy and cache substrate.

Two complementary execution models, mirroring the paper's Section 2 vs
Section 6 viewpoints:

* :mod:`repro.machine.hierarchy` — *explicitly controlled* data movement
  between r levels (the model of Sections 2 and 4).  Kernels call
  :meth:`MemoryHierarchy.load` / :meth:`~MemoryHierarchy.store`; every word
  moved is counted as a read at the source level and a write at the
  destination level.

* :mod:`repro.machine.cache` — *hardware-controlled* movement (Section 6).
  Kernels emit address traces (:mod:`repro.machine.trace`), and a write-back
  write-allocate cache with a pluggable replacement policy
  (:mod:`repro.machine.policies`) produces Nehalem-style counters
  (``LLC_VICTIMS.M``, ``LLC_VICTIMS.E``, ``LLC_S_FILLS.E``) one access
  at a time; :func:`repro.machine.fastsim.sweep` computes the same
  counters for whole traces through fully-associative LRU, Belady,
  clock and segmented-LRU caches, every capacity at once.
"""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "counters": ("ChannelCounters", "LevelCounters", "ResidencyClass"),
    "hierarchy": ("MemoryHierarchy", "TwoLevel"),
    "cache": ("CacheSim", "CacheStats"),
    "multicache": ("CacheHierarchySim",),
    "energy": ("EnergyModel",),
    "policies": ("POLICIES", "ClockPolicy", "FIFOPolicy", "LRUPolicy",
                 "RandomPolicy", "SegmentedLRUPolicy", "make_policy"),
    "trace": ("TraceBuffer",),
    "arrays": ("TracedMatrix", "TracedVector", "AddressSpace"),
})
