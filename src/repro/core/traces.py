"""Address-trace generators for the Section 6 cache experiments.

These produce the line-level traces that stand in for the paper's hardware
runs: each matmul *instruction order* (cache-oblivious, MKL-like, two-level
WA, multi-level WA, slab/AB) is lowered to a sequence of base-tile tasks,
and every task touches the lines of its A and B tiles (reads) and its C
tile (writes).  Intra-tile reuse happens below the simulated cache level
and cannot change its replacement state, so one touch per tile visit is the
faithful granularity (see DESIGN.md "Modelling conventions").

The task orders are driven by a small hierarchical scheduler spec so all
variants share one code path:

``spec = [("blocked", b, "ijk"), ("co", base)]`` means: block the problem
into b×b×b bricks visited in loop order i→j→k (k innermost), and execute
each brick cache-obliviously down to *base*-sized tiles.

Every builder lays its kernel out as a **visit table** once (which array,
which tile or segment, read or write) and emits it in a single batch:
each traced array translates all of its visits with numpy index
arithmetic, and the buffer records one chunk per non-empty visit, which
is the tile structure :mod:`repro.machine.fastsim.symbols` folds.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.machine.arrays import (
    AddressSpace,
    TracedMatrix,
    TracedVector,
    matrix_trio,
    ragged_arange,
)
from repro.machine.trace import TraceBuffer
from repro.names import MATMUL_SCHEMES
from repro.util import check_multiple, check_positive_int, require

__all__ = [
    "hierarchical_task_order",
    "matmul_order",
    "matmul_order_trace",
    "matmul_trace",
    "trsm_trace",
    "cholesky_trace",
    "nbody_trace",
    "MATMUL_SCHEMES",
]

LevelSpec = Union[Tuple[str, int, str], Tuple[str, int]]
Traced = Union[TracedMatrix, TracedVector]


def _blocked_level(boxes: np.ndarray, b: int, order: str) -> np.ndarray:
    """Replace every box by its b-bricks, visited in loop order *order*
    (outermost first) and clipped at the box."""
    require(set(order) == {"i", "j", "k"} and len(order) == 3,
            f"bad loop order {order!r}")
    check_positive_int(b, "b")
    lo = boxes[:, 0::2]
    counts = -(-(boxes[:, 1::2] - lo) // b)  # bricks per axis (i, j, k)
    col = {"i": 0, "j": 1, "k": 2}
    c_mid = counts[:, col[order[1]]]
    c_in = counts[:, col[order[2]]]
    per_box = counts.prod(axis=1)
    parent = np.repeat(np.arange(len(boxes)), per_box)
    t = ragged_arange(np.zeros(len(boxes), dtype=np.int64), per_box)
    inner = c_in[parent]
    idx = {order[2]: t % inner,
           order[1]: (t // inner) % c_mid[parent],
           order[0]: t // (inner * c_mid[parent])}
    out = np.empty((len(t), 6), dtype=np.int64)
    for axis, a in col.items():
        start = lo[parent, a] + idx[axis] * b
        out[:, 2 * a] = start
        out[:, 2 * a + 1] = np.minimum(start + b, boxes[parent, 2 * a + 1])
    return out


def _co_level(boxes: np.ndarray, base: int) -> np.ndarray:
    """Recursive halving down to *base*, one depth level per pass: every
    box with an extent above *base* splits at half its largest extent
    (ties split i, then k, then j) into two adjacent boxes, so the
    depth-first order of the recursion holds."""
    check_positive_int(base, "base")
    while True:
        ext = boxes[:, 1::2] - boxes[:, 0::2]  # extents (i, j, k)
        split = (ext > base).any(axis=1)
        if not split.any():
            return boxes
        big = ext.max(axis=1)
        axis = np.where(ext[:, 0] == big, 0, np.where(ext[:, 2] == big, 2, 1))
        reps = 1 + split
        out = np.repeat(boxes, reps, axis=0)
        first = (np.cumsum(reps) - reps)[split]
        col = 2 * axis[split]
        mid = boxes[split, col] + big[split] // 2
        out[first, col + 1] = mid
        out[first + 1, col] = mid
        boxes = out


def hierarchical_task_order(
    m: int, n: int, l: int, spec: Sequence[LevelSpec]
) -> np.ndarray:
    """The base tasks of C(m×l) += A(m×n)·B(n×l) under *spec*, in order:
    an ``(N, 6)`` int64 array of ``(i0, i1, j0, j1, k0, k1)`` boxes.

    One array pass per level: a ``blocked`` level expands every box
    into its bricks in loop order, a ``co`` level halves boxes down to
    its base one recursion depth at a time."""
    require(m > 0 and n > 0 and l > 0, "dimensions must be positive")
    boxes = np.array([[0, m, 0, l, 0, n]], dtype=np.int64)
    for depth, level in enumerate(spec):
        kind = level[0]
        if kind == "co":
            require(depth == len(spec) - 1,
                    "'co' must be the last level of a spec")
            boxes = _co_level(boxes, level[1])
        elif kind == "blocked":
            _, b, order = level  # type: ignore[misc]
            boxes = _blocked_level(boxes, b, order)
        else:
            raise ValueError(f"unknown level kind {kind!r}")
    return boxes


def matmul_order(scheme: str, b3: int, b2: int, base: int
                 ) -> List[LevelSpec]:
    """The scheduler spec of the named instruction order *scheme* (one
    of :data:`repro.names.MATMUL_SCHEMES`, the orders of Figures 2 and
    5) under blocking sizes *b3*, *b2* and base tile *base*, which must
    be positive.

    Two names may resolve to the same spec (``wa2`` and
    ``ab-multilevel`` do), and then they build the same trace: the
    spec, not the name, is what :func:`matmul_order_trace` lowers."""
    check_positive_int(b3, "b3")
    check_positive_int(b2, "b2")
    check_positive_int(base, "base")
    if scheme == "co":
        # Figure 2a: pure cache-oblivious order, no level-aware blocking.
        return [("co", base)]
    if scheme == "mkl-like":
        # Figure 2b stand-in: an L2-blocked, speed-tuned order that ignores
        # L3-level write locality: rank-k panels (reduction outermost).
        return [("blocked", b2, "kij"), ("co", base)]
    if scheme == "wa2":
        # Figures 2c–f: block for L3 with the reduction innermost; inside
        # the block, the paper calls MKL dgemm, whose panel order re-touches
        # C tiles at close intervals — modelled as the same rank-k panel
        # order as "mkl-like" (this is what keeps the C block at high LRU
        # priority even when only ~3 blocks fit; cf. Fig. 5 right column).
        return [("blocked", b3, "ijk"), ("blocked", b2, "kij"), ("co", base)]
    if scheme == "wa-multilevel":
        # Figure 5 left column / Fig. 4a: reduction innermost at every level.
        return [
            ("blocked", b3, "ijk"),
            ("blocked", b2, "ijk"),
            ("co", base),
        ]
    if scheme == "ab-multilevel":
        # Figure 5 right column / Fig. 4b: WA order only at the top; slabs
        # (reduction outermost) below.
        return [
            ("blocked", b3, "ijk"),
            ("blocked", b2, "kij"),
            ("co", base),
        ]
    raise ValueError(f"unknown scheme {scheme!r}; one of {MATMUL_SCHEMES}")


def _emit(buf: TraceBuffer, arrays: Sequence[Traced], which: np.ndarray,
          bounds: np.ndarray, writes: np.ndarray) -> TraceBuffer:
    """Append a whole visit table to *buf* in one batch.

    Visit ``v`` touches ``arrays[which[v]]`` over ``bounds[v]`` (a tile's
    ``(i0, i1, j0, j1)`` or a segment's ``(lo, hi)``), as a write iff
    ``writes[v]``.  Each array translates all of its visits at once; the
    per-array line runs are then scattered into visit order.
    """
    lens = np.empty(len(which), dtype=np.int64)
    parts = []
    for a, arr in enumerate(arrays):
        sel = np.flatnonzero(which == a)
        lines, lens[sel] = arr.batch_lines(*bounds[sel].T)
        parts.append((sel, lines))
    starts = np.cumsum(lens) - lens
    out = np.empty(int(lens.sum()), dtype=np.int64)
    for sel, lines in parts:
        out[ragged_arange(starts[sel], lens[sel])] = lines
    buf.touch_visits(out, lens, writes)
    return buf


def _emit_blocks(buf: TraceBuffer, arrays: Sequence[Traced],
                 visits: List[Tuple[int, int, int, bool]], b: int
                 ) -> TraceBuffer:
    """:func:`_emit` for a table of ``(array, block row, block col,
    write)`` visits to b×b matrix blocks."""
    table = np.array(visits, dtype=np.int64).reshape(-1, 4)
    rows, cols = table[:, 1] * b, table[:, 2] * b
    bounds = np.stack([rows, rows + b, cols, cols + b], axis=1)
    return _emit(buf, arrays, table[:, 0], bounds, table[:, 3] != 0)


def matmul_order_trace(
    m: int,
    n: int,
    l: int,
    order: Sequence[LevelSpec],
    *,
    b3: int,
    b2: int,
    line_size: int = 8,
    c_touch_hint: bool = False,
) -> TraceBuffer:
    """Build the line-level trace of the matmul task order *order* (a
    scheduler spec, e.g. from :func:`matmul_order`).

    Layout: C, A, B allocated contiguously in one address space (C first).
    Every base task touches A-tile lines and B-tile lines as reads and
    C-tile lines as writes, in that order.

    ``c_touch_hint`` implements the paper's Section-6.2 closing
    suggestion: between successive b2-level block multiplications, re-touch
    the *whole* resident b3-level C block to bump its LRU priority —
    rescuing the multi-level WA order when fewer than five blocks fit.
    *b3* and *b2* size those blocks; without the hint they are unused.

    The task order is one int array; the A, B and C visits (and the
    hint's C-block visits) are interleaved from it as one visit table
    and emitted in one batch.
    """
    check_positive_int(b3, "b3")
    check_positive_int(b2, "b2")
    C, A, B, _space = matrix_trio(None, m, n, l, line_size)
    tasks = hierarchical_task_order(m, n, l, order)
    i0, i1, j0, j1, k0, k1 = tasks.T
    # The hint re-touches the C block of b3-block (ci, cj) before the
    # first task of every b2-level block but the first.
    hint = np.zeros(len(tasks), dtype=bool)
    if c_touch_hint:
        b2_block = tasks[:, [0, 2, 4]] // b2
        hint[1:] = (b2_block[1:] != b2_block[:-1]).any(axis=1)
    ci, cj = (i0 // b3) * b3, (j0 // b3) * b3
    # Four visit slots per task: hint C block, A tile, B tile, C tile.
    bounds = np.stack([ci, np.minimum(ci + b3, m), cj, np.minimum(cj + b3, l),
                       i0, i1, k0, k1,
                       k0, k1, j0, j1,
                       i0, i1, j0, j1], axis=1).reshape(-1, 4, 4)
    keep = np.ones((len(tasks), 4), dtype=bool)
    keep[:, 0] = hint
    slots = np.nonzero(keep)[1]
    _C, _A, _B = 0, 1, 2
    return _emit(TraceBuffer(line_size), (C, A, B),
                 np.array([_C, _A, _B, _C])[slots], bounds[keep], slots == 3)


def matmul_trace(
    m: int,
    n: int,
    l: int,
    *,
    scheme: str,
    b3: int = 64,
    b2: int = 16,
    base: int = 8,
    line_size: int = 8,
    c_touch_hint: bool = False,
) -> TraceBuffer:
    """Build the line-level trace of one named matmul instruction order:
    :func:`matmul_order_trace` of ``matmul_order(scheme, b3, b2, base)``.

    Returns a :class:`~repro.machine.trace.TraceBuffer`; feed it to
    :class:`~repro.machine.cache.CacheSim` via ``finalize()``.
    """
    return matmul_order_trace(
        m, n, l, matmul_order(scheme, b3, b2, base), b3=b3, b2=b2,
        line_size=line_size, c_touch_hint=c_touch_hint)


# --------------------------------------------------------------------- #
# Proposition 6.2 traces: TRSM, Cholesky, N-body under hardware caching
# --------------------------------------------------------------------- #
def trsm_trace(
    n: int, m: int, *, b: int, line_size: int = 8
) -> TraceBuffer:
    """Line trace of the two-level WA TRSM (Algorithm 2, k innermost).

    Each inner iteration reads the T(i,k) and X(k,j) tiles and writes the
    B(i,j) tile being accumulated; the diagonal solve reads T(i,i) and
    writes B(i,j) once more.  Proposition 6.2: under LRU with five b×b
    blocks resident, write-backs = n·m (output) lines.
    """
    check_multiple(n, b, "n")
    check_multiple(m, b, "m")
    space = AddressSpace(line_size)
    B = TracedMatrix(space, "B", n, m)
    T = TracedMatrix(space, "T", n, n)
    nb, mb = n // b, m // b
    _B, _T = 0, 1
    visits: List[Tuple[int, int, int, bool]] = []
    for j in range(mb):
        for i in range(nb - 1, -1, -1):
            for k in range(i + 1, nb):
                visits += [(_T, i, k, False), (_B, k, j, False),
                           (_B, i, j, True)]
            visits += [(_T, i, i, False), (_B, i, j, True)]
    return _emit_blocks(TraceBuffer(line_size), (B, T), visits, b)


def cholesky_trace(n: int, *, b: int, line_size: int = 8) -> TraceBuffer:
    """Line trace of the left-looking WA Cholesky (Algorithm 3).

    Proposition 6.2: LRU write-backs = the lower-triangle output
    (≈ n²/2 words) when five blocks fit.
    """
    check_multiple(n, b, "n")
    A = TracedMatrix(AddressSpace(line_size), "A", n, n)
    nb = n // b
    visits: List[Tuple[int, int, int, bool]] = []
    for i in range(nb):
        for k in range(i):
            visits += [(0, i, k, False), (0, i, i, True)]
        visits.append((0, i, i, True))  # in-place factorization
        for j in range(i + 1, nb):
            for k in range(i):
                visits += [(0, i, k, False), (0, j, k, False),
                           (0, j, i, True)]
            visits += [(0, i, i, False),
                       (0, j, i, True)]  # TRSM result
    return _emit_blocks(TraceBuffer(line_size), (A,), visits, b)


def nbody_trace(N: int, *, b: int, line_size: int = 8) -> TraceBuffer:
    """Line trace of the blocked (N,2)-body (Algorithm 4).

    Particle and force arrays are one "word" per particle here; the
    write floor is the N force words.
    """
    check_multiple(N, b, "N")
    space = AddressSpace(line_size)
    P = TracedVector(space, "P", N)
    F = TracedVector(space, "F", N)
    _P, _F = 0, 1
    visits: List[Tuple[int, int, bool]] = []
    for i in range(0, N, b):
        visits += [(_P, i, False), (_F, i, True)]
        for j in range(0, N, b):
            visits += [(_P, j, False), (_F, i, True)]
    table = np.array(visits, dtype=np.int64)
    lo = table[:, 1]
    return _emit(TraceBuffer(line_size), (P, F), table[:, 0],
                 np.stack([lo, lo + b], axis=1), table[:, 2] != 0)
