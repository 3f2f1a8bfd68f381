"""Single-pass, write-aware, multi-capacity Belady (OPT/MIN) simulation.

One trace replay produces the exact offline-optimal counters — hits,
misses, fills, ``LLC_VICTIMS.M``, ``LLC_VICTIMS.E`` and flush
write-backs — for an arbitrary grid of fully-associative capacities
simultaneously, bit-identical to replaying the trace through the
reference heap of :mod:`repro.machine.fastsim.belady` once per capacity
(whose end-of-trace flush is folded into the run, exactly as there).

Why one pass suffices: MIN with a *fixed total-order* tie-break is a
stack algorithm (Mattson et al. 1970).  The reference heap evicts the
resident line with the farthest next use, ties broken toward the
smallest line id — a strict total order on ``(next_use, -line)`` — so
the resident sets of two capacities ``C < C'`` stay nested at every
step: on a shared miss the victim of ``C'`` is the unique worst line of
a *superset*, hence either outside ``C``'s residents or equal to ``C``'s
own victim.  Residency across the whole capacity grid is therefore a
single *inclusion level* per line: the index of the smallest swept
capacity that still holds it.

The sweep maintains exactly that:

* ``level[x]`` — smallest capacity index whose cache holds ``x``; an
  access with level ``j`` hits capacities ``j..K-1`` and misses (and
  fills) ``0..j-1``, so the level histogram *is* the OPT stack-distance
  profile quantized to the capacity grid;
* one lazy max-heap per level, keyed ``(-next_use, line)`` with the
  sentinel ``n + 1`` from :func:`repro.machine.fastsim.distances.
  next_occurrences` — the victim at capacity ``i`` is the best entry
  across heaps ``0..i`` (residents of ``C_i`` = levels ``<= i``), and
  is pushed down to level ``i + 1`` (it stays in every larger cache);
* dirty tracking via the same monotone threshold as the LRU sweep: a
  line is dirty at capacity ``i`` iff it was ever written and every one
  of its accesses since the last write hit at level ``<= i`` (a miss
  refills it clean), so each eviction/flush splits the capacity axis at
  ``max(level, M)`` with ``M`` = the max level since the last write.

The replay is one Python loop like the reference heap's — the per-access
heap work is inherently sequential — but hits cost O(1), and the whole
capacity grid shares the single pass, the vectorized next-use
preprocessing and the trace itself.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.machine.fastsim.distances import next_occurrences
from repro.machine.fastsim.lru import SweepResult
from repro.machine.fastsim.profile import phase

__all__ = ["opt_event_sweep"]


def opt_event_sweep(lines: np.ndarray, writes: np.ndarray,
                    caps: np.ndarray) -> SweepResult:
    """Exact fully-associative Belady counters for every capacity at
    once, at event granularity.  A stage of
    :func:`repro.machine.fastsim.sweep`, which validates the arrays and
    the sorted, unique ``caps``."""
    K = len(caps)
    n = len(lines)
    zeros = lambda: np.zeros(K, dtype=np.int64)  # noqa: E731
    if n == 0:
        return SweepResult(0, caps, zeros(), zeros(), zeros(), zeros(),
                           zeros(), zeros(), zeros())

    caps_l: List[int] = caps.tolist()
    lines_l = lines.tolist()
    w_l = writes.tolist()
    with phase("next_use"):
        nxt_l = next_occurrences(lines).tolist()

    level: dict = {}        # line -> smallest capacity index holding it
    nu_cur: dict = {}       # line -> current next use (lazy-heap validity)
    hw: dict = {}           # line -> written since it went cold
    mlev: dict = {}         # line -> max hit level since the last write
    heaps: List[list] = [[] for _ in range(K)]  # (-next_use, line) per level
    cnt = [0] * K           # lines per level
    hist = [0] * (K + 1)    # accesses per hit level (K = missed everywhere)
    victims_m = [0] * K
    victims_e = [0] * K
    heappush, heappop = heapq.heappush, heapq.heappop
    level_get = level.get
    hw_get = hw.get

    # The replay loop is wrapped manually rather than re-indented under a
    # ``with`` block; the hook only records time, so there is no cleanup
    # to protect.
    replay = phase("opt_replay")
    replay.__enter__()
    for t in range(n):
        x = lines_l[t]
        w = w_l[t]
        j = level_get(x, K)
        hist[j] += 1
        if j:
            # Misses at capacities 0..j-1.  Snapshot resident counts
            # first: an eviction moves its victim to a deeper level,
            # which must not disturb the fullness tests of the larger
            # capacities (their residents are unchanged by it).
            sizes = []
            s = 0
            for i in range(j):
                s += cnt[i]
                sizes.append(s)
            for i in range(j):
                if sizes[i] < caps_l[i]:
                    continue  # cache not full yet: fill without eviction
                # Victim = worst (farthest next use, then smallest line)
                # valid entry across levels 0..i, i.e. over exactly the
                # residents of capacity i.
                best = None
                best_lv = -1
                for lv in range(i + 1):
                    h = heaps[lv]
                    while h:
                        negnu, cand = h[0]
                        if (level_get(cand, -1) == lv
                                and nu_cur.get(cand) == -negnu):
                            break
                        heappop(h)
                    if h and (best is None or h[0] < best):
                        best = h[0]
                        best_lv = lv
                negnu, v = heappop(heaps[best_lv])
                cnt[best_lv] -= 1
                if hw_get(v, False) and mlev[v] <= i:
                    victims_m[i] += 1
                else:
                    victims_e[i] += 1
                if i + 1 < K:
                    # Still resident in every larger cache.
                    level[v] = i + 1
                    cnt[i + 1] += 1
                    heappush(heaps[i + 1], (negnu, v))
                else:
                    del level[v]
                    del nu_cur[v]
        if j < K:
            cnt[j] -= 1
        cnt[0] += 1
        level[x] = 0
        nu = nxt_l[t]
        nu_cur[x] = nu
        heappush(heaps[0], (-nu, x))
        if w:
            hw[x] = True
            mlev[x] = 0      # a write(-allocate) dirties every capacity
        elif j == K:
            hw[x] = False    # cold fill: clean everywhere
            mlev[x] = 0
        elif hw_get(x, False) and j > mlev[x]:
            mlev[x] = j      # refilled clean at capacities < j
    replay.__exit__(None, None, None)

    # ----- end-of-trace flush (folded into the run, as the reference) - #
    wb_diff = [0] * (K + 1)
    ve_diff = [0] * (K + 1)
    for x, lv in level.items():
        if hw_get(x, False):
            dirty_lo = mlev[x]
            if dirty_lo < lv:
                dirty_lo = lv
            wb_diff[dirty_lo] += 1
            ve_diff[lv] += 1
            ve_diff[dirty_lo] -= 1
        else:
            ve_diff[lv] += 1

    # hits[i] = accesses whose level <= i; the histogram tail (level K)
    # missed every capacity.
    hits = np.cumsum(np.asarray(hist[:K], dtype=np.int64))
    misses = n - hits
    return SweepResult(
        accesses=n,
        capacities=caps,
        hits=hits,
        misses=misses,
        fills=misses.copy(),
        victims_m=np.asarray(victims_m, dtype=np.int64),
        victims_e=np.asarray(victims_e, dtype=np.int64),
        flush_writebacks=np.cumsum(
            np.asarray(wb_diff[:K], dtype=np.int64)),
        flush_victims_e=np.cumsum(
            np.asarray(ve_diff[:K], dtype=np.int64)),
    )

