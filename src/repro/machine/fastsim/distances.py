"""Vectorized reuse/stack-distance machinery (the heart of fastsim).

The multi-capacity LRU kernel rests on Mattson's inclusion property: a
fully-associative LRU cache of capacity ``C`` holds exactly the top ``C``
entries of the LRU stack, so one stack-distance profile answers hit/miss
questions for *every* capacity at once.  The classic online algorithm
(Bennett–Kruskal: a Fenwick tree over last-access marks) is a per-access
Python loop — exactly the cost this package exists to remove — so we use
an offline identity instead:

Let ``prev[t]`` be the previous access to ``lines[t]`` (``-1`` on a cold
access).  The distinct lines touched in the reuse window ``(prev[t], t)``
are the window's length minus the accesses that are *repeats within the
window* — and an access ``s`` is a repeat inside the window exactly when
its own previous access also falls inside, i.e. ``prev[s] > prev[t]``
(``prev[s] < s < t`` always holds).  Hence the exact stack distance is

    D(t) = (t - prev[t] - 1) - #{ s < t : prev[s] > prev[t] }

which reduces the whole profile to *per-element inversion counting* on
the ``prev`` array.  That we compute with a most-significant-bit radix
partition: ``bit_length(n)`` rounds of cumulative sums and one packed
scatter each — O(n log n) total work, all inside numpy.

One structural acceleration sits on top of the identity:

* **super-symbol run compression** — tile-granular traces revisit whole
  blocks of lines in a fixed order, so the ``prev`` array is made of
  maximal *consecutive runs* (``prev[t] == prev[t-1] + 1`` for adjacent
  warm accesses).  Every access of such a run has the *same* stack
  distance, and — because the prev values of distinct warm accesses are
  distinct, so the runs' prev ranges are disjoint intervals — the
  inversion count of a run's first access decomposes over earlier runs
  whole: it is the **weighted** inversion count over run start values
  with run lengths as weights.  The distance pass therefore collapses
  the trace to one element per run (4x fewer on the paper's Section-6
  tile shapes) before the radix partition, then broadcasts each run's
  distance back — exact for *any* trace, with no structural
  precondition: an incompressible trace simply yields length-1 runs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.machine.fastsim.profile import phase

__all__ = [
    "prev_occurrences",
    "next_occurrences",
    "count_earlier_greater",
]


def _grouped_by_line(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable permutation grouping equal line ids in time order."""
    order = np.argsort(lines, kind="stable")
    return order, lines[order]


def prev_occurrences(lines: np.ndarray) -> np.ndarray:
    """``prev[t]`` = index of the previous access to ``lines[t]``, else -1."""
    lines = np.ascontiguousarray(lines)
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n > 1:
        order, sorted_lines = _grouped_by_line(lines)
        same = sorted_lines[1:] == sorted_lines[:-1]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def next_occurrences(lines: np.ndarray) -> np.ndarray:
    """``nxt[t]`` = index of the next access to ``lines[t]``, else ``n + 1``.

    The ``n + 1`` sentinel matches the value the Belady scan has always
    used for "never used again", so swapping this in for the Python
    reverse scan leaves the heap tie-breaking bit-identical.
    """
    lines = np.ascontiguousarray(lines)
    n = len(lines)
    nxt = np.full(n, n + 1, dtype=np.int64)
    if n > 1:
        order, sorted_lines = _grouped_by_line(lines)
        same = sorted_lines[1:] == sorted_lines[:-1]
        nxt[order[:-1][same]] = order[1:][same]
    return nxt


def count_earlier_greater(values: np.ndarray,
                          weights: Optional[np.ndarray] = None
                          ) -> np.ndarray:
    """For each i: ``#{ j < i : values[j] > values[i] }`` (vectorized).

    With *weights* (int64, same length), each earlier-and-greater
    element ``j`` contributes ``weights[j]`` instead of 1 — the
    run-compressed form of the inversion count, where one element
    stands for a block of consecutive trace positions.

    Iterative MSB radix partition.  Elements are kept stably partitioned
    by the value bits above the current level, so each element's "earlier
    and greater" predecessors that first differ at the current bit are
    exactly the earlier same-group elements carrying a 1 where it carries
    a 0 — a segmented cumulative sum.  Value and original index are packed
    into one int64 so each round performs a single scatter.

    ``values`` must be non-negative and < 2**31 (trace positions always
    are); returns int64 counts.
    """
    values = np.asarray(values)
    n = len(values)
    counts = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return counts
    if values.min() < 0 or int(values.max()) >= (1 << 31):
        raise ValueError("count_earlier_greater needs 0 <= values < 2**31")
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.int64)
        if weights.shape != values.shape:
            raise ValueError("weights must match values in shape")
    with phase("radix_partition"):
        return _radix_inversions(values, counts, weights)


def _radix_inversions_packed(values: np.ndarray, counts: np.ndarray,
                             bits_v: int) -> np.ndarray:
    """Unweighted partition with value, running count and original index
    packed into *one* int64 (``value | count | index``, low to high field
    order reversed: value highest so prefix compares still work).

    One scatter per round instead of three, no mask selects — the count
    field sits between value and index, and since counts only grow and
    stay ``< n`` they never carry into the value bits.  Only entered when
    ``bits_v + 2*bit_length(n) <= 62`` (callers with trace positions
    always fit).
    """
    n = len(values)
    bits_n = max(1, n.bit_length())
    sc = bits_n                      # count field shift
    sv = 2 * bits_n                  # value field shift
    mask_n = np.int64((1 << bits_n) - 1)
    one = np.int64(1)
    idx = np.arange(n, dtype=np.int64)
    packed = (values.astype(np.int64) << sv) | idx
    boundary = np.empty(n, dtype=bool)
    for b in range(bits_v - 1, -1, -1):
        vb = packed >> np.int64(sv + b)
        bit = vb & one
        # Group boundaries: where the already-partitioned prefix changes.
        prefix = vb >> one
        boundary[0] = True
        np.not_equal(prefix[1:], prefix[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        if len(starts) == n:
            break  # every group is a singleton; lower bits cannot invert
        gsizes = np.diff(np.append(starts, n))
        ones_excl = np.cumsum(bit)
        ones_excl -= bit                         # ones strictly before i
        oas = ones_excl[starts]
        ones_before = ones_excl - np.repeat(oas, gsizes)
        # Zeros gain the weight of the earlier in-group ones; ones gain
        # nothing this round (mask by multiplication, not np.where).
        gain = ones_before * (bit ^ one)
        packed += gain << np.int64(sc)
        # Destinations: zeros keep their in-group order ahead of the
        # ones.  zeros_before = (i - gstart) - ones_before collapses to
        # idx - ones_before + gstart, and the ones' extra offset
        # (group_zeros + 2*ones_before + gstart - idx) folds the three
        # per-group constants into one np.repeat.
        tot_ones = np.append(oas[1:], ones_excl[-1] + bit[-1]) - oas
        gconst = np.repeat(starts + (gsizes - tot_ones), gsizes)
        gconst += ones_before
        gconst += ones_before
        gconst -= idx
        gconst *= bit
        new_pos = idx - ones_before
        new_pos += gconst
        nxt = np.empty_like(packed)
        nxt[new_pos] = packed
        packed = nxt
    counts[packed & mask_n] = (packed >> np.int64(sc)) & mask_n
    return counts


def _radix_inversions(values: np.ndarray, counts: np.ndarray,
                      weights: Optional[np.ndarray] = None) -> np.ndarray:
    n = len(values)
    nbits = max(1, int(values.max()).bit_length())
    # Uniform weights factor out of the count entirely, unlocking the
    # single-array packed path (tile traces hit this: every run carries
    # the tile size).
    uniform: Optional[int] = 1
    if weights is not None:
        w0 = int(weights[0])
        uniform = w0 if bool((weights == w0).all()) else None
    if uniform is not None and nbits + 2 * max(1, n.bit_length()) <= 62:
        _radix_inversions_packed(values, counts, nbits)
        if uniform != 1:
            counts *= uniform
        return counts
    packed = (values.astype(np.int64) << 31) | np.arange(n, dtype=np.int64)
    slot_counts = np.zeros(n, dtype=np.int64)  # rides the permutation
    slot_weights = weights  # permuted into fresh arrays, never written
    idx = np.arange(n, dtype=np.int64)
    one = np.int64(1)
    boundary = np.empty(n, dtype=bool)
    for b in range(nbits - 1, -1, -1):
        vb = packed >> np.int64(31 + b)
        bit = vb & one
        # Segment boundaries: where the already-partitioned prefix changes.
        prefix = vb >> one
        boundary[0] = True
        np.not_equal(prefix[1:], prefix[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        if len(starts) == n:
            break  # every group is a singleton; lower bits cannot invert
        gsizes = np.diff(np.append(starts, n))
        ones_excl = np.cumsum(bit)
        ones_excl -= bit                         # ones strictly before i
        oas = ones_excl[starts]
        ones_before = ones_excl - np.repeat(oas, gsizes)
        if slot_weights is not None:
            wbit = bit * slot_weights
            wexcl = np.cumsum(wbit)
            wexcl -= wbit
            gain = wexcl - np.repeat(wexcl[starts], gsizes)
        else:
            gain = ones_before.copy()
        gain *= bit ^ one                        # ones gain nothing
        slot_counts += gain
        # Same fused-destination algebra as the packed path.
        tot_ones = np.append(oas[1:], ones_excl[-1] + bit[-1]) - oas
        gconst = np.repeat(starts + (gsizes - tot_ones), gsizes)
        gconst += ones_before
        gconst += ones_before
        gconst -= idx
        gconst *= bit
        new_pos = idx - ones_before
        new_pos += gconst
        next_packed = np.empty_like(packed)
        next_counts = np.empty_like(slot_counts)
        next_packed[new_pos] = packed
        next_counts[new_pos] = slot_counts
        packed, slot_counts = next_packed, next_counts
        if slot_weights is not None:
            next_weights = np.empty_like(slot_weights)
            next_weights[new_pos] = slot_weights
            slot_weights = next_weights
    counts[packed & np.int64((1 << 31) - 1)] = slot_counts
    return counts


def warm_distances(t: np.ndarray, prev: np.ndarray,
                   sizes: Optional[np.ndarray] = None) -> np.ndarray:
    """Stack distances of the warm accesses at positions ``t`` (sorted
    ascending) with previous occurrences ``prev`` (``prev[k] < t[k]``).

    This is the run-compressed core of the LRU fold: maximal blocks of
    *adjacent* accesses with *consecutive* prev values share one stack
    distance (the intra-run proof is in the module docstring), and the
    prev ranges of distinct runs are disjoint intervals, so the per-run
    inversion count is the weighted count over run start values with run
    lengths as weights.  Exact for arbitrary inputs, with no structural
    precondition: incompressible stretches degenerate to length-1 runs.

    With *sizes*, element ``k`` itself stands for a block of
    ``sizes[k]`` consecutive events starting at ``t[k]`` whose prevs are
    consecutive from ``prev[k]`` (a super-symbol visit); adjacency then
    means ``t[k+1] == t[k] + sizes[k]`` and run weights are event
    counts.  The returned distance is per *element*, shared by all of
    its events.
    """
    m = len(t)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    step = sizes[:-1] if sizes is not None else 1
    new_run = np.empty(m, dtype=bool)
    new_run[0] = True
    np.logical_or(t[1:] != t[:-1] + step, prev[1:] != prev[:-1] + step,
                  out=new_run[1:])
    rstart = np.flatnonzero(new_run)
    rlen = np.diff(np.append(rstart, m))
    if sizes is None:
        weights = rlen
    else:
        weights = np.add.reduceat(sizes, rstart)
    rprev = prev[rstart]
    repeats = count_earlier_greater(rprev, weights=weights)
    run_dist = t[rstart] - rprev - 1 - repeats
    return np.repeat(run_dist, rlen)
