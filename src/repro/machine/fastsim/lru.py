"""Single-pass, write-aware, multi-capacity LRU cache simulation.

One trace replay produces the *exact* Section-6 counters — hits, misses,
``LLC_S_FILLS.E``, ``LLC_VICTIMS.M``, ``LLC_VICTIMS.E`` and flush
write-backs — for an arbitrary grid of fully-associative LRU capacities
simultaneously, bit-identical to replaying the trace through
:class:`repro.machine.cache.CacheSim` once per capacity and flushing.

How each counter family falls out of the stack-distance profile
(:func:`repro.machine.fastsim.distances.stack_distances`):

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
from typing import Optional, Tuple

import numpy as np

from repro.machine.cache import CacheStats
from repro.machine.fastsim.distances import reuse_profile
from repro.machine.fastsim.profile import phase

__all__ = ["SweepResult", "lru_event_sweep"]


@dataclass
class SweepResult:
    """Per-capacity counters of one trace replay under one policy (all
    arrays indexed by the position of the capacity in ``capacities``,
    which is sorted ascending and in units of cache lines).

    Every stage of :func:`repro.machine.fastsim.sweep` returns this
    type.  LRU results also carry the end-of-trace stack that
    :class:`CacheSim` rebuilds its resumable state from; Belady runs
    hold no resumable state, so theirs stay ``None``.
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
    #: end-of-trace LRU stack, least- to most-recently used: line ids,
    #: whether the line was ever written, and its max post-write fill
    #: distance (the dirty threshold M above).
    stack_lines: Optional[np.ndarray] = None
    stack_has_write: Optional[np.ndarray] = None
    stack_m: Optional[np.ndarray] = None
    #: super-symbols the fold ran over; ``None`` for the event path.
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
        exactly as :meth:`CacheSim.flush` counts them; an offline Belady
        run always flushes this way); without it they cover the
        evictions alone.
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

    def end_state(self, capacity_lines: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Resident lines in LRU→MRU order and their dirty bits, as the
        cache of this capacity would hold them after the trace (used by
        :class:`CacheSim` to stay a resumable online simulator after a
        batched replay).  LRU results only."""
        c = int(capacity_lines)
        self.index_of(c)  # validate membership
        if (self.stack_lines is None or self.stack_has_write is None
                or self.stack_m is None):
            raise ValueError("this sweep carries no end-of-trace stack")
        resident = self.stack_lines[-c:] if c else self.stack_lines[:0]
        hw = self.stack_has_write[len(self.stack_lines) - len(resident):]
        m = self.stack_m[len(self.stack_lines) - len(resident):]
        return resident, hw & (m < c)


def lru_event_sweep(lines: np.ndarray, writes: np.ndarray,
                    caps: np.ndarray) -> SweepResult:
    """Exact fully-associative LRU counters for every capacity at once,
    at event granularity.  A stage of :func:`repro.machine.fastsim.sweep`,
    which validates the arrays and the sorted, unique ``caps``."""
    K = len(caps)
    n = len(lines)
    zeros = lambda: np.zeros(K, dtype=np.int64)  # noqa: E731
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return SweepResult(0, caps, zeros(), zeros(), zeros(), zeros(),
                           zeros(), zeros(), zeros(), empty,
                           np.empty(0, dtype=bool), empty)

    # ---------------- reuse profile (grouped by line) ----------------- #
    order, sorted_lines, first, prev, dist = reuse_profile(lines)
    with phase("capacity_fold"):
        repeat = ~first
        # Cold accesses must miss at every capacity, however large.
        warm = prev >= 0
        big = np.int64(max(int(caps[-1]), n) + 1)
        dist_c = np.where(warm, dist, big)

        def ub(x):  # number of capacities <= x: index bound for "C <= x"
            return np.searchsorted(caps, x, side="right").astype(np.int64)

        # ---------------- hits / misses / fills ----------------------- #
        # An access of distance d misses capacities C <= d: [0, ub(d)).
        diff = -np.bincount(ub(dist_c), minlength=K + 1)
        diff[0] += n
        misses = np.cumsum(diff)[:K]
        hits = n - misses
        fills = misses.copy()

        # ---------------- per-line write state ------------------------ #
        dist_g = dist_c[order]
        w_g = writes[order]
        w_int = w_g.astype(np.int64)
        starts = np.flatnonzero(first)
        gid = np.cumsum(first) - 1
        cum_w_excl = np.cumsum(w_int) - w_int
        has_write = (np.cumsum(w_int) - cum_w_excl[starts][gid]) > 0
        # M: max stack distance at the line's own accesses since its last
        # write (0 at the write itself), via offset-segmented cummax.
        # The raw (unclamped) distances keep values < BIG; cold entries
        # can only appear in segments where has_write is False (a line's
        # first access cannot follow a write to it), where M is never
        # consulted.
        seg_val = np.where(w_g | first, 0, dist[order])
        seg_id = np.cumsum((w_g | first).astype(np.int64))
        seg_big = np.int64(n + 3)
        m_state = (np.maximum.accumulate(seg_val + seg_id * seg_big)
                   - seg_id * seg_big)

        acc = {name: np.zeros(K + 1, dtype=np.int64)
               for name in ("victims_m", "victims_e",
                            "flush_writebacks", "flush_victims_e")}

        def add_ranges(name, lo, hi):
            """+1 on capacity indices [lo, hi) for each event."""
            acc[name] += (np.bincount(lo, minlength=K + 1)
                          - np.bincount(hi, minlength=K + 1))[:K + 1]

        # ---------------- in-trace evictions (reuse gaps) ------------- #
        # The line re-accessed at grouped slot k was evicted from every
        # C <= d (d = its distance); dirty exactly where C > M at its
        # previous access.
        gaps = np.flatnonzero(repeat)
        if len(gaps):
            ub_d = ub(dist_g[gaps])
            hw_p = has_write[gaps - 1]
            m_p = m_state[gaps - 1]
            dirty_lo = np.where(hw_p, np.minimum(ub(m_p), ub_d), ub_d)
            add_ranges("victims_m", dirty_lo, ub_d)
            clean_hi = np.where(hw_p, ub(np.minimum(m_p, dist_g[gaps])),
                                ub_d)
            add_ranges("victims_e", np.zeros(len(gaps), dtype=np.int64),
                       clean_hi)

        # ---------------- end of trace: per-line last access ---------- #
        ends = np.flatnonzero(np.append(first[1:], True))
        t_last = order[ends]
        n_lines = len(ends)
        depth = np.empty(n_lines, dtype=np.int64)  # final stack depth
        depth[np.argsort(-t_last)] = np.arange(n_lines, dtype=np.int64)
        hw_l = has_write[ends]
        m_l = m_state[ends]
        ub_e = ub(depth)
        # Evicted before the end of the trace (C <= depth):
        dirty_lo = np.where(hw_l, np.minimum(ub(m_l), ub_e), ub_e)
        add_ranges("victims_m", dirty_lo, ub_e)
        clean_hi = np.where(hw_l, ub(np.minimum(m_l, depth)), ub_e)
        add_ranges("victims_e", np.zeros(n_lines, dtype=np.int64),
                   clean_hi)
        # Still resident at flush (C > depth):
        top = np.full(n_lines, K, dtype=np.int64)
        flush_lo = np.where(hw_l, ub(np.maximum(m_l, depth)), top)
        add_ranges("flush_writebacks", flush_lo, top)
        clean_flush_hi = np.where(hw_l, np.maximum(ub(m_l), ub_e), top)
        add_ranges("flush_victims_e", ub_e, clean_flush_hi)

        by_recency = np.argsort(t_last)  # LRU -> MRU
    return SweepResult(
        accesses=n,
        capacities=caps,
        hits=hits,
        misses=misses,
        fills=fills,
        victims_m=np.cumsum(acc["victims_m"])[:K],
        victims_e=np.cumsum(acc["victims_e"])[:K],
        flush_writebacks=np.cumsum(acc["flush_writebacks"])[:K],
        flush_victims_e=np.cumsum(acc["flush_victims_e"])[:K],
        stack_lines=sorted_lines[ends][by_recency],
        stack_has_write=hw_l[by_recency],
        stack_m=m_l[by_recency],
    )

