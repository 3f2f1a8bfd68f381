"""Emission parity: every tile-trace builder against a per-element oracle.

The builders in :mod:`repro.core.traces` emit whole visit tables with
numpy index arithmetic.  The oracle here re-derives each trace one
element at a time from the algorithms' loop nests, using only
:meth:`TracedMatrix.addr` and a vector's base address: a tile visit
touches, row by row, the distinct lines its elements fall in, in
ascending order; a segment visit touches its distinct lines in
ascending order.  ``lines``, ``writes`` and ``chunk_lens`` must agree
exactly, on shapes that are not multiples of the blocks and line sizes
that do not divide the rows.  The matmul task order, one array pass
per level in the builder, is held to the recursion it implements, box
for box and by whole-trace sha256.

The draws follow the active hypothesis profile (``HYPOTHESIS_PROFILE``);
CI runs this module once more under ``thorough``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import traces
from repro.core.traces import (
    MATMUL_SCHEMES,
    cholesky_trace,
    hierarchical_task_order,
    matmul_trace,
    nbody_trace,
    trsm_trace,
)
from repro.machine.arrays import AddressSpace, TracedMatrix, TracedVector
from repro.machine.trace import TraceBuffer


# --------------------------------------------------------------------- #
# the oracles
# --------------------------------------------------------------------- #
def oracle_task_order(m, n, l, spec):
    """The task order as the recursion it is, one box at a time."""

    def co(i0, i1, j0, j1, k0, k1, base):
        mi, li, ni = i1 - i0, j1 - j0, k1 - k0
        if mi <= base and li <= base and ni <= base:
            yield (i0, i1, j0, j1, k0, k1)
            return
        big = max(mi, ni, li)
        if big == mi:
            h = mi // 2
            yield from co(i0, i0 + h, j0, j1, k0, k1, base)
            yield from co(i0 + h, i1, j0, j1, k0, k1, base)
        elif big == ni:
            h = ni // 2
            yield from co(i0, i1, j0, j1, k0, k0 + h, base)
            yield from co(i0, i1, j0, j1, k0 + h, k1, base)
        else:
            h = li // 2
            yield from co(i0, i1, j0, j0 + h, k0, k1, base)
            yield from co(i0, i1, j0 + h, j1, k0, k1, base)

    def dispatch(i0, i1, j0, j1, k0, k1, spec):
        if not spec:
            yield (i0, i1, j0, j1, k0, k1)
            return
        head, rest = spec[0], spec[1:]
        if head[0] == "co":
            yield from co(i0, i1, j0, j1, k0, k1, head[1])
            return
        _, b, order = head
        axes = {"i": range(i0, i1, b), "j": range(j0, j1, b),
                "k": range(k0, k1, b)}
        lo, mid, hi = order
        for x in axes[lo]:
            for y in axes[mid]:
                for z in axes[hi]:
                    v = {lo: x, mid: y, hi: z}
                    i, j, k = v["i"], v["j"], v["k"]
                    yield from dispatch(i, min(i + b, i1), j,
                                        min(j + b, j1), k, min(k + b, k1),
                                        rest)

    yield from dispatch(0, m, 0, l, 0, n, spec)


class Oracle:
    """Collects visits element by element into the three trace arrays."""

    def __init__(self):
        self.lines, self.writes, self.chunk_lens = [], [], []

    def _visit(self, lines, write):
        if lines:
            self.lines += lines
            self.writes += [write] * len(lines)
            self.chunk_lens.append(len(lines))

    def tile(self, M, i0, i1, j0, j1, write):
        L = M.line_size
        out = []
        for i in range(i0, i1):
            out += sorted({M.addr(i, j) // L for j in range(j0, j1)})
        self._visit(out, write)

    def segment(self, v, lo, hi, write):
        self._visit(sorted({(v.base + e) // v.line_size
                            for e in range(lo, hi)}), write)


def assert_trace_equals(trace, oracle):
    assert trace.lines.tolist() == oracle.lines
    assert trace.writes.tolist() == oracle.writes
    assert trace.chunk_lens.tolist() == oracle.chunk_lens
    assert trace.lines.dtype == np.int64
    assert trace.writes.dtype == bool
    assert trace.chunk_lens.dtype == np.int64


def oracle_matmul(m, n, l, scheme, b3, b2, base, line_size, c_touch_hint):
    space = AddressSpace(line_size)
    C = TracedMatrix(space, "C", m, l)
    A = TracedMatrix(space, "A", m, n)
    B = TracedMatrix(space, "B", n, l)
    out = Oracle()
    last_b2 = None
    spec = traces.matmul_order(scheme, b3, b2, base)
    for (i0, i1, j0, j1, k0, k1) in oracle_task_order(m, n, l, spec):
        if c_touch_hint:
            cur_b2 = (i0 // b2, j0 // b2, k0 // b2)
            if last_b2 is not None and cur_b2 != last_b2:
                ci, cj = (i0 // b3) * b3, (j0 // b3) * b3
                out.tile(C, ci, min(ci + b3, m), cj, min(cj + b3, l), False)
            last_b2 = cur_b2
        out.tile(A, i0, i1, k0, k1, False)
        out.tile(B, k0, k1, j0, j1, False)
        out.tile(C, i0, i1, j0, j1, True)
    return out


def oracle_trsm(n, m, b, line_size):
    space = AddressSpace(line_size)
    B = TracedMatrix(space, "B", n, m)
    T = TracedMatrix(space, "T", n, n)
    out = Oracle()

    def tile(M, i, j, write):
        out.tile(M, i * b, (i + 1) * b, j * b, (j + 1) * b, write)

    for j in range(m // b):
        for i in range(n // b - 1, -1, -1):
            for k in range(i + 1, n // b):
                tile(T, i, k, False)
                tile(B, k, j, False)
                tile(B, i, j, True)
            tile(T, i, i, False)
            tile(B, i, j, True)
    return out


def oracle_cholesky(n, b, line_size):
    A = TracedMatrix(AddressSpace(line_size), "A", n, n)
    out = Oracle()

    def tile(i, j, write):
        out.tile(A, i * b, (i + 1) * b, j * b, (j + 1) * b, write)

    nb = n // b
    for i in range(nb):
        for k in range(i):
            tile(i, k, False)
            tile(i, i, True)
        tile(i, i, True)
        for j in range(i + 1, nb):
            for k in range(i):
                tile(i, k, False)
                tile(j, k, False)
                tile(j, i, True)
            tile(i, i, False)
            tile(j, i, True)
    return out


def oracle_nbody(N, b, line_size):
    space = AddressSpace(line_size)
    P = TracedVector(space, "P", N)
    F = TracedVector(space, "F", N)
    out = Oracle()
    for i in range(0, N, b):
        out.segment(P, i, i + b, False)
        out.segment(F, i, i + b, True)
        for j in range(0, N, b):
            out.segment(P, j, j + b, False)
            out.segment(F, i, i + b, True)
    return out


# --------------------------------------------------------------------- #
# parity
# --------------------------------------------------------------------- #
dims = st.integers(min_value=1, max_value=20)
blocks = st.integers(min_value=1, max_value=12)
line_sizes = st.integers(min_value=1, max_value=9)


@given(scheme=st.sampled_from(MATMUL_SCHEMES), hint=st.booleans(),
       m=dims, n=dims, l=dims, b3=blocks, b2=blocks,
       base=st.integers(min_value=1, max_value=6), line_size=line_sizes)
def test_matmul_matches_oracle(scheme, hint, m, n, l, b3, b2, base,
                               line_size):
    trace = matmul_trace(m, n, l, scheme=scheme, b3=b3, b2=b2, base=base,
                         line_size=line_size,
                         c_touch_hint=hint).finalize_trace()
    assert_trace_equals(trace, oracle_matmul(m, n, l, scheme, b3, b2, base,
                                             line_size, hint))


@given(nb=st.integers(min_value=1, max_value=5),
       mb=st.integers(min_value=1, max_value=4),
       b=st.integers(min_value=1, max_value=6), line_size=line_sizes)
def test_trsm_matches_oracle(nb, mb, b, line_size):
    trace = trsm_trace(nb * b, mb * b, b=b,
                       line_size=line_size).finalize_trace()
    assert_trace_equals(trace, oracle_trsm(nb * b, mb * b, b, line_size))


@given(nb=st.integers(min_value=1, max_value=6),
       b=st.integers(min_value=1, max_value=6), line_size=line_sizes)
def test_cholesky_matches_oracle(nb, b, line_size):
    trace = cholesky_trace(nb * b, b=b, line_size=line_size).finalize_trace()
    assert_trace_equals(trace, oracle_cholesky(nb * b, b, line_size))


@given(nb=st.integers(min_value=1, max_value=10),
       b=st.integers(min_value=1, max_value=12), line_size=line_sizes)
def test_nbody_matches_oracle(nb, b, line_size):
    trace = nbody_trace(nb * b, b=b, line_size=line_size).finalize_trace()
    assert_trace_equals(trace, oracle_nbody(nb * b, b, line_size))


@pytest.mark.parametrize("scheme", MATMUL_SCHEMES)
@pytest.mark.parametrize("hint", [False, True])
def test_matmul_ragged_shape_matches_oracle(scheme, hint):
    """A fixed case no profile can skip: no dimension is a multiple of
    any block and the line size divides no row."""
    trace = matmul_trace(19, 13, 11, scheme=scheme, b3=8, b2=4, base=3,
                         line_size=5, c_touch_hint=hint).finalize_trace()
    assert_trace_equals(trace, oracle_matmul(19, 13, 11, scheme, 8, 4, 3, 5,
                                             hint))


@given(scheme=st.sampled_from(MATMUL_SCHEMES), m=dims, n=dims, l=dims,
       b3=blocks, b2=blocks, base=st.integers(min_value=1, max_value=6))
def test_task_order_matches_recursion(scheme, m, n, l, b3, b2, base):
    spec = traces.matmul_order(scheme, b3, b2, base)
    tasks = hierarchical_task_order(m, n, l, spec)
    assert tasks.dtype == np.int64 and tasks.shape[1:] == (6,)
    assert tasks.tolist() == [list(t) for t in
                              oracle_task_order(m, n, l, spec)]


def _trace_sha(m, n, l, scheme, line_size, hint):
    trace = matmul_trace(m, n, l, scheme=scheme, b3=16, b2=8, base=4,
                         line_size=line_size,
                         c_touch_hint=hint).finalize_trace()
    h = hashlib.sha256()
    for arr in trace:
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("scheme", MATMUL_SCHEMES)
@pytest.mark.parametrize("shape", [(100, 37, 61), (96, 256, 96),
                                   (64, 64, 64), (33, 17, 5)])
@pytest.mark.parametrize("line_size", [1, 4, 7])
def test_trace_sha_matches_recursion(scheme, shape, line_size,
                                     monkeypatch):
    """Whole traces, odd and paper shapes, several line sizes: the
    array task order builds the trace the recursion's order does."""
    args = (*shape, scheme, line_size, scheme == "wa2")
    got = _trace_sha(*args)
    order = np.array(list(oracle_task_order(
        *shape, traces.matmul_order(scheme, 16, 8, 4))), dtype=np.int64)
    monkeypatch.setattr(traces, "hierarchical_task_order",
                        lambda *_: order)
    assert got == _trace_sha(*args)


def test_task_order_refuses_bad_specs():
    for spec in ([("blocked", 4, "iij")], [("co", 2), ("blocked", 4, "ijk")],
                 [("tiled", 4)], [("blocked", 0, "ijk")], [("co", 0)]):
        with pytest.raises(ValueError):
            hierarchical_task_order(8, 8, 8, spec)


# --------------------------------------------------------------------- #
# chunk structure
# --------------------------------------------------------------------- #
BUILDERS = {
    "matmul-wa2": lambda: matmul_trace(19, 24, 17, scheme="wa2", b3=8,
                                       b2=4, base=3, line_size=3),
    "matmul-hint": lambda: matmul_trace(16, 16, 16, scheme="wa-multilevel",
                                        b3=8, b2=4, base=2, line_size=4,
                                        c_touch_hint=True),
    "trsm": lambda: trsm_trace(24, 12, b=4, line_size=5),
    "cholesky": lambda: cholesky_trace(24, b=4, line_size=3),
    "nbody": lambda: nbody_trace(48, b=8, line_size=5),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_chunk_lens_partition_the_events(name):
    """No empty chunk and nothing left over: otherwise ``symbolize``
    rejects the chunk lengths and the tile fold cannot run."""
    trace = BUILDERS[name]().finalize_trace()
    assert len(trace.chunk_lens) > 0
    assert int(trace.chunk_lens.min()) > 0
    assert int(trace.chunk_lens.sum()) == trace.n_events
    for arr in (trace.lines, trace.writes, trace.chunk_lens):
        assert not arr.flags.writeable


def test_mixed_appends_finalize():
    """Single visits and batched visits interleave in one buffer."""
    buf = TraceBuffer(line_size=4)
    buf.touch_words(0, 9, write=True)
    buf.touch_visits(np.arange(7, dtype=np.int64),
                     np.array([3, 0, 4]), np.array([False, True, True]))
    buf.touch_lines(np.array([5, 6]), write=False)
    trace = buf.finalize_trace()
    assert trace.lines.tolist() == [0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 5, 6]
    assert trace.writes.tolist() == (
        [True] * 3 + [False] * 3 + [True] * 4 + [False] * 2)
    assert trace.chunk_lens.tolist() == [3, 3, 4, 2]
