"""Tile super-symbols: the visit-granular folds of both stack policies.

Tile-granular trace builders emit one :class:`~repro.machine.trace.
TraceBuffer` chunk per base-tile visit, so a trace is really a short
sequence of *visits* drawn from a small alphabet of distinct chunks.
:func:`symbolize` compresses that structure explicitly: each distinct
chunk line-sequence becomes one **super-symbol** with a per-symbol line
footprint, and the trace becomes a stream of ``(symbol, write)`` visits
— for the Section-6 matmul shape that is a 4x shorter stream (the base
tile size).  A trace without usable tile structure becomes a stream of
**one-line visits** (:func:`line_symbols`): every distinct line is a
size-1 symbol and every event a visit.

Both stack passes run at *visit* granularity and expand back to exact
per-capacity event counters:

* **LRU** (:func:`fold_lru_symbols`) — when symbol footprints are
  disjoint line sets with distinct lines (checked by ``symbolize``; it
  refuses otherwise), the events of a warm visit are consecutive
  accesses whose previous occurrences are consecutive positions inside
  the previous visit of the same symbol, so by the run-uniformity
  theorem (:mod:`repro.machine.fastsim.distances`) they all share one
  stack distance.  Per-visit distances come from the weighted
  run-compressed inversion count over visit start positions (each
  earlier visit contributes its full event count iff its start is
  later than the current visit's previous start — visit event ranges
  are chunks, which never straddle a chunk boundary), and the
  capacity fold of :mod:`repro.machine.fastsim.lru` runs with visit
  weights: the write flag is uniform per chunk, so the per-line
  has-write / dirty threshold recurrences are per-symbol recurrences,
  identical for every line of the footprint.
* **OPT** (:func:`fold_opt_symbols`) — next uses are visit-granular
  too (position ``p`` of a visit is next used at position ``p`` of the
  symbol's next visit), and within a visit they are strictly
  increasing, so a fully-resident visit needs only *one* lazy-heap
  entry covering the whole footprint run: the run's worst (last)
  position shields the rest, and an eviction peels it off and re-pushes
  the remainder.  Hit visits with the whole footprint at level 0 cost
  O(1) heap work instead of O(tile).

One-line visits meet every footprint precondition trivially, so the
folds are the only simulation path of either policy.  They are exact —
held bit for bit to :class:`repro.machine.cache.CacheSim`'s per-access
loop + flush and to :mod:`repro.machine.fastsim.belady`'s reference
heap by the parity and hypothesis suites, never approximated.
:func:`symbolize` returns ``None`` for traces whose chunks violate the
footprint preconditions (overlapping tiles, duplicate lines inside a
chunk, mixed read/write chunks); :func:`repro.machine.fastsim.sweep`
then folds their one-line visits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.machine.fastsim.distances import warm_distances
from repro.machine.fastsim.lru import SweepResult
from repro.machine.fastsim.profile import phase
from repro.machine.trace import sorted_distinct

__all__ = [
    "SymbolTrace",
    "symbolize",
    "line_symbols",
    "fold_lru_symbols",
    "fold_opt_symbols",
]


@dataclass(frozen=True)
class SymbolTrace:
    """A trace compressed to a super-symbol visit stream.

    Symbols are the distinct chunk line-sequences of a tile trace, or
    the distinct lines of any other trace (the write flag is *not* part
    of the identity — it lives on the visit).  Footprints are
    concatenated in ``sym_lines`` and are guaranteed pairwise disjoint
    with internally distinct lines, which is exactly the precondition
    under which the visit-granular folds are exact.
    """

    #: symbol id per visit, in trace order.
    visits: np.ndarray
    #: per-visit write flag (uniform across the chunk by construction).
    visit_writes: np.ndarray
    #: event index of each visit's first event.
    visit_starts: np.ndarray
    #: events (= distinct lines) per symbol.
    sym_sizes: np.ndarray
    #: offset of each symbol's footprint in ``sym_lines``.
    sym_offsets: np.ndarray
    #: concatenated symbol footprints (globally distinct line ids).
    sym_lines: np.ndarray
    #: total event count of the underlying trace.
    n_events: int
    #: whether symbols are tile chunks (:func:`symbolize`) rather than
    #: single lines (:func:`line_symbols`).
    tiles: bool = True
    #: the stable permutation grouping visits by symbol, when the
    #: builder already sorted for it.
    visit_order: Optional[np.ndarray] = None

    @property
    def n_visits(self) -> int:
        return int(len(self.visits))

    @property
    def n_symbols(self) -> int:
        return int(len(self.sym_sizes))

    @property
    def compression(self) -> float:
        """Event→symbol compression ratio (events per visit)."""
        return self.n_events / max(self.n_visits, 1)

    def positions(self) -> np.ndarray:
        """Each event's position in ``sym_lines``, in trace order."""
        if not self.tiles:
            return self.visits
        z = self.sym_sizes[self.visits]
        return (np.repeat(self.sym_offsets[self.visits]
                          - self.visit_starts, z)
                + np.arange(self.n_events, dtype=np.int64))

    def expand(self) -> Tuple[np.ndarray, np.ndarray]:
        """Reconstruct the flat ``(lines, writes)`` event arrays."""
        return (self.sym_lines[self.positions()],
                np.repeat(self.visit_writes, self.sym_sizes[self.visits]))


def symbolize(lines: np.ndarray, writes: np.ndarray,
              chunk_lens: np.ndarray) -> Optional[SymbolTrace]:
    """Compress a chunked trace (``int64`` lines, ``bool`` writes) into a
    :class:`SymbolTrace`.

    Returns ``None`` when the chunk structure does not support an exact
    visit-granular fold: empty traces, chunks mixing reads and writes,
    or footprints that overlap across symbols / repeat a line within a
    chunk.  Callers fold such a trace as one-line visits
    (:func:`line_symbols`).

    Raises ``ValueError`` if ``chunk_lens`` does not partition the
    event arrays — that is a malformed trace, not a fallback case.
    """
    chunk_lens = np.asarray(chunk_lens, dtype=np.int64)
    n = len(lines)
    V = len(chunk_lens)
    if V == 0:
        if n == 0:
            return None
        raise ValueError("chunk_lens is empty but the trace is not")
    if (chunk_lens <= 0).any():
        raise ValueError("chunk lengths must be positive")
    if int(chunk_lens.sum()) != n:
        raise ValueError(f"chunk_lens sums to {int(chunk_lens.sum())}, "
                         f"trace has {n} events")

    with phase("supersymbol_fold"):
        starts = np.cumsum(chunk_lens) - chunk_lens
        # Visit write flags must be chunk-uniform for the per-symbol
        # dirty recurrences to stand in for the per-line ones.
        visit_writes = writes[starts]
        if not np.array_equal(writes, np.repeat(visit_writes, chunk_lens)):
            return None

        # Under the disjoint-footprint precondition a chunk's *first
        # line* already identifies its symbol (a line belongs to exactly
        # one symbol position), so dedup on that scalar key and then
        # verify: chunks sharing a key must be identical sequences —
        # if they are not, the footprints overlap on the key line and
        # the trace is not symbolizable anyway.
        keys = lines[starts]
        _, rep_visit, sym_of_visit = np.unique(
            keys, return_index=True, return_inverse=True)
        sym_of_visit = sym_of_visit.reshape(-1).astype(np.int64)
        sym_sizes = chunk_lens[rep_visit]
        if not np.array_equal(chunk_lens, sym_sizes[sym_of_visit]):
            return None
        # Every chunk must equal its symbol's representative chunk.
        intra = np.arange(n, dtype=np.int64) - np.repeat(starts, chunk_lens)
        rep_start_v = starts[rep_visit][sym_of_visit]
        if not np.array_equal(lines,
                              lines[np.repeat(rep_start_v, chunk_lens)
                                    + intra]):
            return None
        sym_offsets = np.cumsum(sym_sizes) - sym_sizes
        L = int(sym_sizes.sum())
        rep_starts = starts[rep_visit]
        sym_lines = lines[np.repeat(rep_starts, sym_sizes)
                          + np.arange(L, dtype=np.int64)
                          - np.repeat(sym_offsets, sym_sizes)]
        # Exactness precondition: every line belongs to exactly one
        # symbol position (disjoint footprints, distinct within).
        if len(sorted_distinct(sym_lines)) != L:
            return None

    return SymbolTrace(
        visits=sym_of_visit,
        visit_writes=visit_writes,
        visit_starts=starts,
        sym_sizes=sym_sizes,
        sym_offsets=sym_offsets,
        sym_lines=sym_lines,
        n_events=n,
    )


def line_symbols(lines: np.ndarray, writes: np.ndarray) -> SymbolTrace:
    """One-line visits of a non-empty trace (``int64`` lines, ``bool``
    writes): every distinct line is a size-1 symbol, numbered in line
    order, and every event is a visit.  One stable sort of the lines
    yields both the symbols and the visit grouping the folds reuse."""
    n = len(lines)
    with phase("supersymbol_fold"):
        lo = int(lines.min())
        key = lines
        if int(lines.max()) - lo < 1 << 16:
            # Same order, but numpy sorts 16-bit keys by radix.
            key = (lines - lo).astype(np.uint16)
        order = np.argsort(key, kind="stable")
        sorted_lines = lines[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=first[1:])
        visits = np.empty(n, dtype=np.int64)
        visits[order] = np.cumsum(first) - 1
        sym_lines = sorted_lines[first]
        S = len(sym_lines)
    return SymbolTrace(
        visits=visits,
        visit_writes=writes,
        visit_starts=np.arange(n, dtype=np.int64),
        sym_sizes=np.ones(S, dtype=np.int64),
        sym_offsets=np.arange(S, dtype=np.int64),
        sym_lines=sym_lines,
        n_events=n,
        tiles=False,
        visit_order=order,
    )


def _visit_reuse(st: SymbolTrace
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grouped visit order, first-visit mask (grouped) and previous
    visit per visit (time order, ``-1`` for a symbol's first visit)."""
    order_v = (st.visit_order if st.visit_order is not None
               else np.argsort(st.visits, kind="stable"))
    sv = st.visits[order_v]
    first_g = np.empty(len(sv), dtype=bool)
    first_g[:1] = True
    first_g[1:] = sv[1:] != sv[:-1]
    prev_v = np.full(len(sv), -1, dtype=np.int64)
    same = ~first_g[1:]
    prev_v[order_v[1:][same]] = order_v[:-1][same]
    return order_v, first_g, prev_v


def fold_lru_symbols(st: SymbolTrace, caps: np.ndarray) -> SweepResult:
    """Exact multi-capacity LRU counters from the super-symbol stream.

    The capacity fold of :mod:`repro.machine.fastsim.lru` executed at
    visit granularity: every event-level quantity is uniform across a
    visit's events (distance by run-uniformity, write state by
    chunk-uniform flags), so event bincounts become visit bincounts
    weighted by the symbol size, and only the end-of-trace stack is
    expanded back to per-line granularity (one entry per distinct line,
    not per event).  The fold of :func:`repro.machine.fastsim.sweep`,
    which passes a non-empty trace and sorted, unique ``caps``.
    """
    K = len(caps)
    n = st.n_events
    V = st.n_visits
    starts_v = st.visit_starts
    # Per-visit event counts; a one-line visit is one event, so those
    # folds carry no weights (and no weight arrays).
    z_v = st.sym_sizes[st.visits] if st.tiles else None

    order_v, first_g, prev_v = _visit_reuse(st)
    with phase("distance_pass"):
        warm_v = prev_v >= 0
        dist = np.full(V, -1, dtype=np.int64)
        wi = np.flatnonzero(warm_v)
        if len(wi):
            dist[wi] = warm_distances(
                starts_v[wi], starts_v[prev_v[wi]],
                sizes=None if z_v is None else z_v[wi])

    with phase("capacity_fold"):
        big = np.int64(max(int(caps[-1]), n) + 1)
        dist_c = np.where(warm_v, dist, big)

        def ub(x):  # number of capacities <= x: index bound for "C <= x"
            return np.searchsorted(caps, x, side="right").astype(np.int64)

        # ---------------- hits / misses / fills ----------------------- #
        # Every event of a visit shares its distance: weight by size.
        zf = None if z_v is None else z_v.astype(np.float64)
        diff = -np.bincount(ub(dist_c), weights=zf, minlength=K + 1)
        diff[0] += n
        misses = np.cumsum(diff)[:K].astype(np.int64)
        hits = n - misses
        fills = misses.copy()

        # ---------------- per-symbol write state ---------------------- #
        # The per-line recurrences (lru module notes), one step per
        # visit; chunk-uniform write flags make them per-line exact.
        dist_g = dist_c[order_v]
        w_g = st.visit_writes[order_v]
        z_g = None if z_v is None else z_v[order_v]
        w_int = w_g.astype(np.int64)
        g_starts = np.flatnonzero(first_g)
        gid = np.cumsum(first_g) - 1
        cum_w_excl = np.cumsum(w_int) - w_int
        has_write = (np.cumsum(w_int) - cum_w_excl[g_starts][gid]) > 0
        seg_val = np.where(w_g | first_g, 0, dist[order_v])
        seg_id = np.cumsum((w_g | first_g).astype(np.int64))
        seg_big = np.int64(n + 3)
        m_state = (np.maximum.accumulate(seg_val + seg_id * seg_big)
                   - seg_id * seg_big)

        acc = {name: np.zeros(K + 1, dtype=np.float64)
               for name in ("victims_m", "victims_e",
                            "flush_writebacks", "flush_victims_e")}

        def add_ranges(name, lo, hi, weights=None):
            """+weight on capacity indices [lo, hi) for each element."""
            acc[name] += (np.bincount(lo, weights=weights, minlength=K + 1)
                          - np.bincount(hi, weights=weights,
                                        minlength=K + 1))[:K + 1]

        # ---------------- in-trace evictions (reuse gaps) ------------- #
        gaps = np.flatnonzero(~first_g)
        if len(gaps):
            zg = None if z_g is None else z_g[gaps].astype(np.float64)
            ub_d = ub(dist_g[gaps])
            hw_p = has_write[gaps - 1]
            m_p = m_state[gaps - 1]
            dirty_lo = np.where(hw_p, np.minimum(ub(m_p), ub_d), ub_d)
            add_ranges("victims_m", dirty_lo, ub_d, zg)
            clean_hi = np.where(hw_p, ub(np.minimum(m_p, dist_g[gaps])),
                                ub_d)
            add_ranges("victims_e", np.zeros(len(gaps), dtype=np.int64),
                       clean_hi, zg)

        # ---------------- end of trace: per-line expansion ------------ #
        # Final stack depths per line: symbols ordered by last-visit
        # start descending, positions within a footprint by index
        # descending (later positions are more recent).
        ends_g = np.flatnonzero(np.append(first_g[1:], True))
        last_start = starts_v[order_v[ends_g]]   # by symbol id
        hw_s = has_write[ends_g]
        m_s = m_state[ends_g]
        L = int(len(st.sym_lines))
        ord_desc = np.argsort(-last_start)
        zr = st.sym_sizes[ord_desc]
        blk = np.repeat(np.cumsum(zr) - zr, zr)
        i_local = np.arange(L, dtype=np.int64) - blk
        depth = blk + np.repeat(zr, zr) - 1 - i_local
        hw_l = np.repeat(hw_s[ord_desc], zr)
        m_l = np.repeat(m_s[ord_desc], zr)
        ub_e = ub(depth)
        # Evicted before the end of the trace (C <= depth):
        dirty_lo = np.where(hw_l, np.minimum(ub(m_l), ub_e), ub_e)
        add_ranges("victims_m", dirty_lo, ub_e)
        clean_hi = np.where(hw_l, ub(np.minimum(m_l, depth)), ub_e)
        add_ranges("victims_e", np.zeros(L, dtype=np.int64), clean_hi)
        # Still resident at flush (C > depth):
        top = np.full(L, K, dtype=np.int64)
        flush_lo = np.where(hw_l, ub(np.maximum(m_l, depth)), top)
        add_ranges("flush_writebacks", flush_lo, top)
        clean_flush_hi = np.where(hw_l, np.maximum(ub(m_l), ub_e), top)
        add_ranges("flush_victims_e", ub_e, clean_flush_hi)
    return SweepResult(
        accesses=n,
        capacities=caps,
        hits=hits,
        misses=misses,
        fills=fills,
        victims_m=np.cumsum(acc["victims_m"])[:K].astype(np.int64),
        victims_e=np.cumsum(acc["victims_e"])[:K].astype(np.int64),
        flush_writebacks=np.cumsum(
            acc["flush_writebacks"])[:K].astype(np.int64),
        flush_victims_e=np.cumsum(
            acc["flush_victims_e"])[:K].astype(np.int64),
        n_symbols=st.n_symbols if st.tiles else None,
    )


def fold_opt_symbols(st: SymbolTrace, caps: np.ndarray) -> SweepResult:
    """Exact multi-capacity Belady counters from the super-symbol stream.

    Why one pass suffices: MIN with a *fixed total-order* tie-break is
    a stack algorithm (Mattson et al. 1970).  The reference heap of
    :mod:`repro.machine.fastsim.belady` evicts the resident line with
    the farthest next use, ties toward the smallest line id — a strict
    total order on ``(next_use, -line)`` — so the resident sets of two
    capacities ``C < C'`` stay nested at every step.  Residency across
    the grid is one *inclusion level* per line: the index of the
    smallest swept capacity that holds it.  An access at level ``j``
    hits capacities ``j..K-1`` and misses (and fills) ``0..j-1``; the
    victim at capacity ``i`` is the worst entry of the lazy max-heaps
    of levels ``0..i`` and moves down to level ``i + 1``, so the victim
    at capacity ``i + 1`` is the worse of it and the top of heap
    ``i + 1``: a miss peeks each level's heap once.  A line is
    dirty at capacity ``i`` iff it was written and every access since
    the write hit at a level ``<= i`` (a miss refills it clean), so
    each eviction or flush splits the capacity axis at ``max(level,
    M)`` with ``M`` the largest level since the last write.

    Next uses are visit-granular (position ``p`` is next used at
    ``start(next visit) + p``; disjoint footprints make that exact;
    a symbol's last visit uses the never-again sentinel ``n + 1``) and
    strictly increasing within a visit.  Per-line state is indexed by
    the line's position in ``sym_lines``, so one heap entry
    ``(key, line, lo, last, seq)`` stands for the run of positions
    ``[lo, last]`` of a visit whose position ``g`` is next used at
    ``base + g``; ``key = -(base + last)`` orders the heap and gives
    ``base = -key - last`` back, ``line`` (the line at ``last``) breaks
    ties, and the position names its symbol.  Only the last position can be the global
    Belady victim, and evicting it peels the run down to ``[lo, last -
    1]``.  Validity is a per-position sequence number (any access /
    eviction / level move bumps it), so stale entries lazily shrink or
    vanish.  A visit whose footprint is fully resident at level 0 (the
    common case on tiled traces) costs O(1): one histogram bump, one
    sequence bump, one heap push.  The fold of
    :func:`repro.machine.fastsim.sweep`, which passes a non-empty trace
    and sorted, unique ``caps``.
    """
    K = len(caps)
    n = st.n_events
    V = st.n_visits
    S = st.n_symbols

    order_v, first_g, prev_v = _visit_reuse(st)
    with phase("next_use"):
        # Next visit of each visit; sentinel visits (a symbol's last)
        # give every position next use n + 1, as next_occurrences does.
        nxt_v = np.full(V, -1, dtype=np.int64)
        same = ~first_g[1:]
        nxt_v[order_v[:-1][same]] = order_v[1:][same]
        nu_base = np.where(nxt_v >= 0, st.visit_starts[nxt_v], -1)

    visits_l = st.visits.tolist()
    w_l = st.visit_writes.tolist()
    nb_l = nu_base.tolist()
    sizes_l = st.sym_sizes.tolist()
    offs_l = st.sym_offsets.tolist()
    lines_l = st.sym_lines.tolist()
    L = len(lines_l)
    sym_of = np.repeat(np.arange(S), st.sym_sizes).tolist()

    caps_l: List[int] = caps.tolist()
    # Per-position state, indexed by a line's place in ``sym_lines``
    # (footprints are disjoint, so a position is a line).
    lev = [K] * L
    mlev = [0] * L
    hws = [False] * L
    pseq = [0] * L
    uniform0 = [False] * S   # whole footprint resident at level 0
    heaps: List[list] = [[] for _ in range(K)]
    cnt = [0] * K
    hist = [0] * (K + 1)
    victims_m = [0] * K
    victims_e = [0] * K
    seq = 0
    sentinel = n + 1
    heappush, heappop = heapq.heappush, heapq.heappop

    replay = phase("opt_replay")
    replay.__enter__()
    for loc, w, nb in zip(visits_l, w_l, nb_l):
        off = offs_l[loc]
        z = sizes_l[loc]
        end = off + z
        base = nb - off  # position g is next used at base + g (nb >= 0)
        if uniform0[loc]:
            # Whole footprint hits at level 0; no eviction anywhere.
            hist[0] += z
            seq += 1
            if z == 1:  # a one-line visit needs no slice copies
                pseq[off] = seq
                if w:
                    hws[off] = True
                    mlev[off] = 0
            else:
                pseq[off:end] = [seq] * z
                if w:
                    hws[off:end] = [True] * z
                    mlev[off:end] = [0] * z
            if nb >= 0:
                heappush(heaps[0], (-(base + end - 1), lines_l[end - 1],
                                    off, end - 1, seq))
            else:
                for g in range(off, end):
                    heappush(heaps[0], (-sentinel, lines_l[g], g, g, seq))
            continue

        for g in range(off, end):
            j = lev[g]
            hist[j] += 1
            if j:
                # One running worst climbs the cascade (see above): a
                # line evicted at consecutive capacities stays in
                # flight until a heap top beats it or the cascade
                # ends, and only then lands at its level.
                s = 0
                best = None
                fly = -1   # the in-flight victim's position, or -1
                fly_lv = 0
                for i in range(j):
                    s += cnt[i]
                    h = heaps[i]
                    while h:
                        e = h[0]
                        if pseq[e[3]] == e[4]:
                            break
                        heappop(h)
                        # Shrink: the deepest position still owned by
                        # this push heads the remainder run.
                        pp = e[3] - 1
                        lo = e[2]
                        while pp >= lo and pseq[pp] != e[4]:
                            pp -= 1
                        if pp >= lo:
                            # base + pp = -key - (last - pp)
                            heappush(h, (e[0] + e[3] - pp, lines_l[pp],
                                         lo, pp, e[4]))
                    if h and (best is None or h[0] < best):
                        if fly >= 0:
                            # Beaten: the in-flight line lands.
                            lev[fly] = fly_lv
                            cnt[fly_lv] += 1
                            heappush(heaps[fly_lv], (best[0], best[1], fly,
                                                     fly, pseq[fly]))
                            fly = -1
                        best = h[0]
                        best_lv = i
                    if s < caps_l[i]:
                        continue
                    if fly < 0:
                        # Take the victim out of its heap, peeling its
                        # run down to the positions before it.
                        e = heappop(heaps[best_lv])
                        fly = e[3]
                        if fly > e[2]:
                            heappush(heaps[best_lv],
                                     (e[0] + 1, lines_l[fly - 1], e[2],
                                      fly - 1, e[4]))
                        cnt[best_lv] -= 1
                        seq += 1
                        pseq[fly] = seq
                        uniform0[sym_of[fly]] = False
                    if hws[fly] and mlev[fly] <= i:
                        victims_m[i] += 1
                    else:
                        victims_e[i] += 1
                    fly_lv = i + 1
                if fly >= 0:
                    lev[fly] = fly_lv
                    if fly_lv < K:
                        cnt[fly_lv] += 1
                        heappush(heaps[fly_lv], (best[0], best[1], fly, fly,
                                                 pseq[fly]))
            if j < K:
                cnt[j] -= 1
            cnt[0] += 1
            lev[g] = 0
            seq += 1
            pseq[g] = seq
            if nb >= 0:
                heappush(heaps[0], (-(base + g), lines_l[g], g, g, seq))
            else:
                heappush(heaps[0], (-sentinel, lines_l[g], g, g, seq))
            if w:
                hws[g] = True
                mlev[g] = 0
            elif j == K:
                hws[g] = False
                mlev[g] = 0
            elif hws[g] and j > mlev[g]:
                mlev[g] = j
        uniform0[loc] = not (lev[off] if z == 1 else any(lev[off:end]))
    replay.__exit__(None, None, None)

    # ----- end-of-trace flush (folded into the run, as the reference) -- #
    wb_diff = [0] * (K + 1)
    ve_diff = [0] * (K + 1)
    for g in range(L):
        lvp = lev[g]
        if lvp >= K:
            continue
        if hws[g]:
            dirty_lo = mlev[g]
            if dirty_lo < lvp:
                dirty_lo = lvp
            wb_diff[dirty_lo] += 1
            ve_diff[lvp] += 1
            ve_diff[dirty_lo] -= 1
        else:
            ve_diff[lvp] += 1

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
        n_symbols=st.n_symbols if st.tiles else None,
    )

