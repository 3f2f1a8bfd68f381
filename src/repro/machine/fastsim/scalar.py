"""Whole-trace clock and segmented-LRU folds over a visit stream.

Neither policy is a stack algorithm, so unlike the LRU and Belady folds
these replay the stream once per capacity; what they share with them is
the visit stream (:mod:`repro.machine.fastsim.symbols`), built once per
:func:`repro.machine.fastsim.sweep` call whatever the number of
capacities and policies.  Each fold starts from an empty cache and
leaves, per capacity, the counters of :class:`repro.machine.cache.
CacheSim`'s per-access loop plus ``flush()``.  Lines are named by their
position in ``sym_lines`` (footprints are disjoint, so a position is a
line); only the counters leave the fold.

* **Clock** (:func:`fold_clock`) — the 3-bit clock of
  :class:`~repro.machine.policies.ClockPolicy` over the per-event
  position stream.  Starting empty, the fills take slots ``0, 1, ...``
  in order and the hand first moves on the first eviction.  An eviction
  happens only in a full set, where every mark is at least the minimum
  mark ``m``: ``choose_victim``'s ``m`` decrement sweeps lower every
  mark by exactly ``m`` and then stop at the first slot from the hand
  that held ``m``.  So marks are kept as ``rel[i] - off`` with a running
  offset ``off`` (one assignment replaces the sweeps), and the victim
  slot comes from ``list.index``: the first mark 0 from the hand, else
  from slot 0; only when no slot holds mark 0 does ``off`` move up to
  ``min(rel)``.  Empty slots hold ``rel == -1``, which no ``off >= 0``
  matches.
* **Segmented LRU** (:func:`fold_segmented_lru`) — the read/write halves
  of :class:`~repro.machine.policies.SegmentedLRUPolicy`, each kept as
  an insertion-ordered dict from symbol to that symbol's resident
  positions.  A line sits in the write half exactly while it is dirty.
  A visit touches its whole footprint in ascending order and evictions
  take from the front of a half, so between visits a symbol's positions
  in each half are contiguous in that half's LRU order and ascending:
  one block per half.  A fully resident visit is all hits and moves at
  most two blocks to the MRU end.  Any other visit steps through its
  positions: each hit leaves the front of the symbol's old block, each
  access joins the symbol's new block at the MRU end of its half, and
  a block emptied mid-visit leaves its half at once, so the front block
  always holds the next victim.  One-line visits skip the blocks: each
  half is a dict of positions, as in the policy itself.  A full set
  holds ``read_cap + write_cap`` lines (at capacity 1, where both
  reservations are 1, it holds one), so ``choose_victim``'s rule comes
  down to one test: the write half gives the victim exactly when the
  read half holds fewer lines than its reservation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.machine.fastsim.lru import SweepResult
from repro.machine.fastsim.profile import phase
from repro.machine.fastsim.symbols import SymbolTrace
from repro.machine.policies import ClockPolicy

__all__ = ["fold_clock", "fold_segmented_lru"]


def _result(st: SymbolTrace, caps: np.ndarray,
            per_cap: List[Tuple[int, int, int, int]]) -> SweepResult:
    """A :class:`SweepResult` from per-capacity ``(victims_m,
    victims_e, resident, dirty residents)`` at the end of the trace.
    Every miss fills, and each fill is still resident or was evicted,
    so the misses are ``resident + victims``."""
    vm, ve, resident, dirty = np.asarray(
        per_cap, dtype=np.int64).reshape(-1, 4).T
    misses = resident + vm + ve
    return SweepResult(
        accesses=st.n_events, capacities=caps, hits=st.n_events - misses,
        misses=misses, fills=misses.copy(), victims_m=vm, victims_e=ve,
        flush_writebacks=dirty, flush_victims_e=resident - dirty,
        n_symbols=st.n_symbols if st.tiles else None)


def fold_clock(st: SymbolTrace, caps: np.ndarray) -> SweepResult:
    """Exact clock counters at every capacity in *caps* (sorted,
    unique), each from an empty cache."""
    with phase("scalar_replay"):
        pos_l = st.positions().tolist()
        w_l = np.repeat(st.visit_writes,
                        st.sym_sizes[st.visits]).tolist()
        L = len(st.sym_lines)
        top = ClockPolicy.MAX_MARK
        per_cap = []
        for cap in caps.tolist():
            where = [-1] * L
            dirty = [False] * L
            slots = [0] * cap
            rel = [-1] * cap
            off = hand = resident = 0
            victims_m = victims_e = 0
            for g, w in zip(pos_l, w_l):
                i = where[g]
                if i >= 0:
                    if w:
                        dirty[g] = True
                    if rel[i] - off < top:
                        rel[i] += 1
                    continue
                if resident < cap:
                    i = resident
                    resident += 1
                else:
                    try:
                        i = rel.index(off, hand)
                    except ValueError:
                        try:
                            i = rel.index(off)
                        except ValueError:
                            off = min(rel)
                            try:
                                i = rel.index(off, hand)
                            except ValueError:
                                i = rel.index(off)
                    victim = slots[i]
                    where[victim] = -1
                    if dirty[victim]:
                        victims_m += 1
                    else:
                        victims_e += 1
                    hand = i + 1 if i + 1 < cap else 0
                slots[i] = g
                rel[i] = off + 1
                where[g] = i
                dirty[g] = w
            n_dirty = sum(dirty[g] for g in slots[:resident])
            per_cap.append((victims_m, victims_e, resident, n_dirty))
    return _result(st, caps, per_cap)


def fold_segmented_lru(st: SymbolTrace, caps: np.ndarray) -> SweepResult:
    """Exact segmented-LRU counters at every capacity in *caps*
    (sorted, unique), each from an empty cache."""
    with phase("scalar_replay"):
        args = (st.visits.tolist(), st.visit_writes.tolist())
        if st.tiles:
            replay = _segmented_blocks
            args += (st.sym_sizes.tolist(), st.sym_offsets.tolist())
        else:
            replay = _segmented_lines
        per_cap = [replay(cap, *args) for cap in caps.tolist()]
    return _result(st, caps, per_cap)


def _segmented_lines(cap: int, visits_l: List[int], w_l: List[bool]
                     ) -> Tuple[int, int, int, int]:
    """Segmented LRU over one-line visits: each half a dict of
    positions, least recently used first.  Returns the victim counts,
    the lines resident at the end and the dirty ones among them."""
    read_cap = max(1, cap // 2)
    read: dict = {}
    write: dict = {}
    resident = 0
    victims_m = victims_e = 0
    for g, w in zip(visits_l, w_l):
        if g in write:
            del write[g]
            write[g] = None
            continue
        if g in read:
            del read[g]
            if w:
                write[g] = None
            else:
                read[g] = None
            continue
        if resident < cap:
            resident += 1
        elif len(read) < read_cap:
            del write[next(iter(write))]
            victims_m += 1
        else:
            del read[next(iter(read))]
            victims_e += 1
        if w:
            write[g] = None
        else:
            read[g] = None
    return victims_m, victims_e, resident, len(write)


def _segmented_blocks(cap: int, visits_l: List[int], w_l: List[bool],
                      sizes_l: List[int], offs_l: List[int]
                      ) -> Tuple[int, int, int, int]:
    """Segmented LRU over tile visits, one block of positions per
    symbol and half (module notes); returns what
    :func:`_segmented_lines` does."""
    read_cap = max(1, cap // 2)
    read: dict = {}
    write: dict = {}
    n_read = n_write = 0
    victims_m = victims_e = 0
    for s, w in zip(visits_l, w_l):
        z = sizes_l[s]
        wb = write.get(s)
        rb = read.get(s)
        if rb is None:
            if wb is not None and len(wb) == z:
                # Every line dirty and resident: all hits.
                del write[s]
                write[s] = wb
                continue
        elif len(rb) + (len(wb) if wb else 0) == z:
            del read[s]
            if w:
                # The read block joins the write half.
                n_read -= len(rb)
                n_write += len(rb)
                if wb:
                    del write[s]
                    rb = list(range(offs_l[s], offs_l[s] + z))
                write[s] = rb
            else:
                read[s] = rb
                if wb:
                    del write[s]
                    write[s] = wb
            continue
        # Step through the footprint.  The symbol's new blocks live
        # under key ~s until its old ones are used up.
        ns = ~s
        for g in range(offs_l[s], offs_l[s] + z):
            if wb and wb[0] == g:
                del wb[0]
                if not wb:
                    del write[s]
                half = write
            elif rb and rb[0] == g:
                del rb[0]
                if not rb:
                    del read[s]
                if w:
                    n_read -= 1
                    n_write += 1
                    half = write
                else:
                    half = read
            else:
                if n_read + n_write >= cap:
                    if n_read < read_cap:
                        victim_half = write
                        n_write -= 1
                        victims_m += 1
                    else:
                        victim_half = read
                        n_read -= 1
                        victims_e += 1
                    k = next(iter(victim_half))
                    blk = victim_half[k]
                    del blk[0]
                    if not blk:
                        del victim_half[k]
                if w:
                    n_write += 1
                    half = write
                else:
                    n_read += 1
                    half = read
            blk = half.get(ns)
            if blk is None:
                half[ns] = [g]
            else:
                blk.append(g)
        # The new blocks are the last of their halves: renaming them
        # keeps the order.
        blk = write.pop(ns, None)
        if blk is not None:
            write[s] = blk
        blk = read.pop(ns, None)
        if blk is not None:
            read[s] = blk
    return victims_m, victims_e, n_read + n_write, n_write
