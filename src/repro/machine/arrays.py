"""Address-space layout for traced arrays.

The Section-6 experiments need word addresses for matrix tiles so that the
cache simulator sees the same line-sharing effects a real row-major layout
produces (e.g. adjacent tile rows falling in one line).  An
:class:`AddressSpace` hands out line-aligned base addresses;
:class:`TracedMatrix` and :class:`TracedVector` translate whole arrays of
tile/segment bounds into concatenated line ids plus per-visit counts, the
batch a :class:`~repro.machine.trace.TraceBuffer` appends in one call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.util import check_positive_int, round_up

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = ["AddressSpace", "TracedMatrix", "TracedVector", "ragged_arange"]


def ragged_arange(starts: ArrayLike, counts: ArrayLike) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for each ``(s, c)`` pair.

    One ``repeat`` and one ``arange`` instead of one ``arange`` per pair:
    each output position is its pair's start plus its offset within the
    pair's run.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return (np.repeat(starts - (ends - counts), counts)
            + np.arange(total, dtype=np.int64))


class AddressSpace:
    """Allocates disjoint, line-aligned word-address ranges."""

    def __init__(self, line_size: int = 8):
        check_positive_int(line_size, "line_size")
        self.line_size = line_size
        self._next = 0
        self.allocations: dict[str, Tuple[int, int]] = {}

    def alloc(self, name: str, nwords: int) -> int:
        """Reserve *nwords* for *name*; returns the base word address."""
        check_positive_int(nwords, "nwords")
        if name in self.allocations:
            raise ValueError(f"array name {name!r} already allocated")
        base = self._next
        self.allocations[name] = (base, nwords)
        self._next = round_up(base + nwords, self.line_size)
        return base

    @property
    def total_words(self) -> int:
        return self._next


class TracedMatrix:
    """Row-major matrix with address translation for tile touches.

    Does not hold numeric data — tracing and computation are decoupled (the
    numeric kernels in :mod:`repro.core` are validated separately); this
    class only produces the *addresses* a kernel's tile accesses cover.
    """

    def __init__(
        self,
        space: AddressSpace,
        name: str,
        nrows: int,
        ncols: int,
    ):
        check_positive_int(nrows, "nrows")
        check_positive_int(ncols, "ncols")
        self.space = space
        self.name = name
        self.nrows = nrows
        self.ncols = ncols
        self.base = space.alloc(name, nrows * ncols)
        self.line_size = space.line_size

    def addr(self, i: int, j: int) -> int:
        """Word address of element (i, j)."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"({i},{j}) out of bounds for {self.name}")
        return self.base + i * self.ncols + j

    def tile_lines(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """Line ids covering the tile ``[i0:i1, j0:j1]``, row by row: the
        one-tile case of :meth:`batch_lines`."""
        return self.batch_lines([i0], [i1], [j0], [j1])[0]

    def batch_lines(self, i0: ArrayLike, i1: ArrayLike, j0: ArrayLike,
                    j1: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Line ids of many tiles ``[i0[t]:i1[t], j0[t]:j1[t]]`` at once.

        Returns the concatenated line ids and the per-tile counts.  Within
        a tile, rows are emitted in order and each row's covering lines in
        ascending order.  Duplicates across rows are preserved: they are
        genuine repeated touches of a shared line.  An empty tile
        contributes no lines and a count of 0.
        """
        i0, i1, j0, j1 = (np.asarray(x, dtype=np.int64).ravel()
                          for x in (i0, i1, j0, j1))
        bad = ~((0 <= i0) & (i0 <= i1) & (i1 <= self.nrows)
                & (0 <= j0) & (j0 <= j1) & (j1 <= self.ncols))
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            raise IndexError(
                f"tile [{i0[t]}:{i1[t]},{j0[t]}:{j1[t]}] out of bounds for "
                f"{self.name} ({self.nrows}x{self.ncols})"
            )
        L = self.line_size
        rows_per_tile = np.where(j0 < j1, i1 - i0, 0)
        row_starts = self.base + ragged_arange(i0, rows_per_tile) * self.ncols
        firsts = (row_starts + np.repeat(j0, rows_per_tile)) // L
        lasts = (row_starts + np.repeat(j1, rows_per_tile) - 1) // L
        counts = lasts - firsts + 1
        # lines per tile: the prefix sum of row counts after the tile's
        # last row minus the one before its first row
        done = np.concatenate(([0], np.cumsum(counts)))
        row_ends = np.cumsum(rows_per_tile)
        return (ragged_arange(firsts, counts),
                done[row_ends] - done[row_ends - rows_per_tile])

    def whole_lines(self) -> np.ndarray:
        return self.tile_lines(0, self.nrows, 0, self.ncols)

    @property
    def n_lines(self) -> int:
        """Number of distinct lines the matrix occupies."""
        first = self.base // self.line_size
        last = (self.base + self.nrows * self.ncols - 1) // self.line_size
        return last - first + 1


class TracedVector:
    """Contiguous vector with segment-touch address translation."""

    def __init__(self, space: AddressSpace, name: str, n: int):
        check_positive_int(n, "n")
        self.space = space
        self.name = name
        self.n = n
        self.base = space.alloc(name, n)
        self.line_size = space.line_size

    def segment_lines(self, lo: int, hi: int) -> np.ndarray:
        """Line ids covering elements ``[lo, hi)``: the one-segment case
        of :meth:`batch_lines`."""
        return self.batch_lines([lo], [hi])[0]

    def batch_lines(self, lo: ArrayLike, hi: ArrayLike
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Line ids of many segments ``[lo[s], hi[s])`` at once: the
        concatenated ascending line runs and the per-segment counts."""
        lo, hi = (np.asarray(x, dtype=np.int64).ravel() for x in (lo, hi))
        bad = ~((0 <= lo) & (lo <= hi) & (hi <= self.n))
        if bad.any():
            s = int(np.flatnonzero(bad)[0])
            raise IndexError(
                f"segment [{lo[s]}:{hi[s]}) out of bounds for {self.name}")
        L = self.line_size
        firsts = (self.base + lo) // L
        counts = np.where(lo < hi, (self.base + hi - 1) // L - firsts + 1, 0)
        return ragged_arange(firsts, counts), counts

    def whole_lines(self) -> np.ndarray:
        return self.segment_lines(0, self.n)

    @property
    def n_lines(self) -> int:
        first = self.base // self.line_size
        last = (self.base + self.n - 1) // self.line_size
        return last - first + 1


def matrix_trio(
    space: Optional[AddressSpace],
    m: int,
    n: int,
    l: int,
    line_size: int = 8,
) -> Tuple[TracedMatrix, TracedMatrix, TracedMatrix, AddressSpace]:
    """Allocate C (m×l), A (m×n), B (n×l) in one address space.

    Convenience used by the matmul trace generators; layout order matches
    the experiments (C first so its base is stable across middle-dimension
    sweeps).
    """
    if space is None:
        space = AddressSpace(line_size)
    C = TracedMatrix(space, "C", m, l)
    A = TracedMatrix(space, "A", m, n)
    B = TracedMatrix(space, "B", n, l)
    return C, A, B, space
