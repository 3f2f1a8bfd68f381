"""Single-pass, write-aware, multi-capacity LRU cache simulation.

One trace replay produces the *exact* Section-6 counters — hits, misses,
``LLC_S_FILLS.E``, ``LLC_VICTIMS.M``, ``LLC_VICTIMS.E`` and flush
write-backs — for an arbitrary grid of fully-associative LRU capacities
simultaneously, bit-identical to replaying the trace through
:class:`repro.machine.cache.CacheSim` once per capacity and flushing.

This module holds the theory of that replay and its result type; the
replay itself is :func:`repro.machine.fastsim.symbols.fold_lru_symbols`,
which computes the stack distances per visit
(:func:`repro.machine.fastsim.distances.warm_distances`) and folds them
as below.  How each counter family falls out of the stack-distance
profile:

* **hits/misses/fills** — Mattson: an access with stack distance ``D``
  hits every capacity ``C > D`` and misses (and fills) every ``C <= D``.
* **evictions** — by LRU stack inclusion, the line re-accessed at ``t``
  was evicted from capacity ``C`` during the gap exactly when
  ``D(t) >= C``; after its final access a line is evicted when more than
  ``C - 1`` distinct lines follow, i.e. when its end-of-trace stack depth
  reaches ``C``.
* **dirty vs clean** — a victim is dirty iff the line was written since
  it was last *filled* at that capacity.  The fill before the eviction
  moves earlier as ``C`` grows, so with ``M`` = the largest stack
  distance the line saw at its own accesses since (strictly after) its
  last write, the victim is dirty exactly for ``C > M``: every one of
  those accesses was a hit, so no fill separates the write from the
  eviction.  Each eviction therefore contributes a *capacity interval*
  ``(M, D]`` of dirty victims and ``[1, min(M, D)]`` of clean ones —
  histogram ranges over the capacity grid, accumulated with two
  ``bincount`` calls per family.
* **flush** — lines with end depth ``E < C`` are still resident and
  flushed; dirty (same ``C > M`` test) flushes are write-backs, clean
  ones count as ``VICTIMS.E`` exactly like :meth:`CacheSim.flush`.

Everything is numpy array passes; there is no per-access Python loop and
no approximation anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.cache import CacheStats

__all__ = ["SweepResult"]


@dataclass
class SweepResult:
    """Per-capacity counters of one trace replay under one policy (all
    arrays indexed by the position of the capacity in ``capacities``,
    which is sorted ascending and in units of cache lines).

    Every fold of :func:`repro.machine.fastsim.sweep` returns this
    type: counters only, from an empty cache through the end-of-trace
    flush.
    """

    accesses: int
    capacities: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    fills: np.ndarray
    victims_m: np.ndarray
    victims_e: np.ndarray
    flush_writebacks: np.ndarray
    flush_victims_e: np.ndarray
    #: tile super-symbols the fold ran over; ``None`` for one-line
    #: visits.
    n_symbols: Optional[int] = None

    @property
    def writebacks(self) -> np.ndarray:
        """Dirty lines written below, evictions + flush (paper metric)."""
        return self.victims_m + self.flush_writebacks

    def index_of(self, capacity_lines: int) -> int:
        i = int(np.searchsorted(self.capacities, capacity_lines))
        if i >= len(self.capacities) or self.capacities[i] != capacity_lines:
            raise KeyError(f"capacity {capacity_lines} not in sweep "
                           f"{self.capacities.tolist()}")
        return i

    def stats(self, capacity_lines: int,
              include_flush: bool = True) -> CacheStats:
        """Counters at one capacity, as a :class:`CacheStats`.

        With ``include_flush`` the numbers equal a ``CacheSim`` replay
        *plus* ``flush()`` (clean flushes folded into ``victims_e``,
        exactly as :meth:`CacheSim.flush` and the Belady reference heap
        count them); without it they cover the evictions alone.
        """
        k = self.index_of(capacity_lines)
        victims_e = int(self.victims_e[k])
        flush_wb = 0
        if include_flush:
            victims_e += int(self.flush_victims_e[k])
            flush_wb = int(self.flush_writebacks[k])
        return CacheStats(
            accesses=self.accesses,
            hits=int(self.hits[k]),
            misses=int(self.misses[k]),
            fills=int(self.fills[k]),
            victims_m=int(self.victims_m[k]),
            victims_e=victims_e,
            flush_writebacks=flush_wb,
        )
