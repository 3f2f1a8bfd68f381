"""The reference Belady/MIN simulation: one capacity, one lazy heap.

This is the independent oracle the test suite holds the Belady stages of
:func:`repro.machine.fastsim.sweep` to.  It evicts the resident line
with the farthest next use (ties toward the smallest line id, through
the heap's ``(-next_use, line)`` order) and tracks dirty bits, so its
counters — end-of-trace flush included — are the offline-optimal
write-backs the paper bounds.  Set associativity plays no part: the
ideal-cache model of [24] is fully associative.
"""

from __future__ import annotations

import heapq
from typing import Tuple

import numpy as np

from repro.machine.cache import CacheStats
from repro.machine.fastsim.distances import next_occurrences

__all__ = ["belady_reference"]


def belady_reference(lines: np.ndarray, writes: np.ndarray,
                     capacity_lines: int) -> CacheStats:
    """Counters of one Belady run at ``capacity_lines``, flush folded in.

    Two passes: next-use indices (``n + 1`` for "never again") come from
    :func:`~repro.machine.fastsim.distances.next_occurrences`, then a
    lazy max-heap keyed by next use simulates the evictions.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    nu_list = next_occurrences(lines).tolist()
    lines_list = lines.tolist()
    w_list = np.asarray(writes, dtype=bool).tolist()
    resident: dict[int, bool] = {}  # line -> dirty
    cur_next: dict[int, int] = {}
    heap: list[Tuple[int, int]] = []  # (-next_use, line), lazy entries
    st = CacheStats(accesses=n)
    for i in range(n):
        ln = lines_list[i]
        nu = nu_list[i]
        if ln in resident:
            st.hits += 1
            if w_list[i]:
                resident[ln] = True
        else:
            st.misses += 1
            st.fills += 1
            if len(resident) >= capacity_lines:
                # Evict the line with the farthest *current* next use.
                while True:
                    negnu, cand = heapq.heappop(heap)
                    if cand in resident and cur_next.get(cand) == -negnu:
                        break
                if resident.pop(cand):
                    st.victims_m += 1
                else:
                    st.victims_e += 1
                del cur_next[cand]
            resident[ln] = w_list[i]
        cur_next[ln] = nu
        heapq.heappush(heap, (-nu, ln))
    # End-of-trace flush.
    for dirty in resident.values():
        if dirty:
            st.flush_writebacks += 1
        else:
            st.victims_e += 1
    return st
