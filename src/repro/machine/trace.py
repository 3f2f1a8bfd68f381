"""Address-trace collection.

Kernels running in "trace mode" append line ids to a
:class:`TraceBuffer`; the buffer concatenates them lazily into the
``(lines, writes)`` pair that
:meth:`repro.machine.cache.CacheSim.run_lines` consumes.

Traces are stored at **line** granularity because every Section-6 quantity
is measured in cache lines.  Appends are numpy arrays so that
multi-million event traces stay compact and concatenation is vectorized:
no per-element Python appends in hot paths.

A trace is a sequence of **visits** (chunks): the lines of one base tile
or segment, all read or all written.  Tile builders append a whole visit
table at once (:meth:`TraceBuffer.touch_visits`: the concatenated lines,
one length and one write flag per visit); :meth:`TraceBuffer.touch_lines`
appends a single visit.  The chunk boundaries are meaningful, not
incidental: :class:`Trace` keeps the per-visit lengths alongside the flat
arrays so :func:`repro.machine.fastsim.sweep` can fold repeated tile
visits at super-symbol granularity (:mod:`repro.machine.fastsim.symbols`)
without rediscovering them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["Trace", "TraceBuffer", "sorted_distinct"]


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of *values*, ascending: ``np.unique`` by a
    sort, since numpy 2's plain ``np.unique`` imports ``numpy.ma``."""
    out = np.sort(np.asarray(values).ravel())
    if out.size:
        out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out


class Trace(NamedTuple):
    """A finalized trace: flat event arrays plus tile-chunk structure.

    ``chunk_lens`` partitions ``lines``/``writes`` into the builder's
    visits (one per base-tile or segment visit, none empty);
    ``None`` when the structure is unknown.  Within a chunk the write
    flag is uniform by construction.
    """

    lines: np.ndarray
    writes: np.ndarray
    chunk_lens: Optional[np.ndarray]

    @property
    def n_events(self) -> int:
        return int(len(self.lines))

    def pair(self) -> Tuple[np.ndarray, np.ndarray]:
        """The legacy ``(lines, writes)`` view."""
        return self.lines, self.writes


class TraceBuffer:
    """An append-only sequence of (line id, is-write) events, grouped into
    visits (chunks) that are each all reads or all writes."""

    def __init__(self, line_size: int = 8):
        if line_size <= 0:
            raise ValueError(f"line_size must be positive, got {line_size}")
        self.line_size = line_size
        # batches of (lines, per-visit lengths, per-visit write flags)
        self._batches: list[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._n = 0
        self._finalized: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def touch_visits(self, lines: np.ndarray, lens: np.ndarray,
                     writes: np.ndarray) -> None:
        """Append a batch of visits: ``lines`` concatenates the visits'
        line ids, ``lens[v]`` is visit *v*'s length and ``writes[v]`` its
        write flag.  Empty visits are dropped, so every chunk is
        non-empty."""
        lines = np.asarray(lines, dtype=np.int64).ravel()
        lens = np.asarray(lens, dtype=np.int64).ravel()
        writes = np.asarray(writes, dtype=bool).ravel()
        if len(writes) != len(lens):
            raise ValueError(
                f"{len(lens)} visit lengths but {len(writes)} write flags")
        if (lens < 0).any() or int(lens.sum()) != len(lines):
            raise ValueError(
                f"visit lengths must be non-negative and sum to the "
                f"{len(lines)} lines given")
        if len(lines) == 0:
            return
        keep = lens > 0
        self._batches.append((lines, lens[keep], writes[keep]))
        self._n += len(lines)
        self._finalized = None

    def touch_lines(self, lines: np.ndarray, write: bool = False) -> None:
        """Append one visit: an array of line ids, all reads or all
        writes."""
        lines = np.asarray(lines, dtype=np.int64).ravel()
        self.touch_visits(lines, [len(lines)], [write])

    def touch_words(self, start: int, nwords: int, write: bool = False) -> None:
        """Append the lines covering words ``[start, start+nwords)``."""
        if nwords <= 0:
            return
        first = start // self.line_size
        last = (start + nwords - 1) // self.line_size
        self.touch_lines(np.arange(first, last + 1, dtype=np.int64), write)

    def extend(self, other: "TraceBuffer") -> None:
        if other.line_size != self.line_size:
            raise ValueError("cannot mix traces with different line sizes")
        self._batches.extend(other._batches)
        self._n += other._n
        self._finalized = None

    # ------------------------------------------------------------------ #
    # consuming
    # ------------------------------------------------------------------ #
    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate into read-only ``(lines, writes)`` arrays.

        Both outputs are preallocated once and filled batch by batch,
        then frozen with ``setflags(write=False)``.  The concatenation is
        memoized — harnesses finalize the same buffer once per
        capacity/policy point — and the memo is dropped whenever new
        events arrive (``touch_*``/``extend``).
        """
        if self._finalized is not None:
            return self._finalized
        if not self._batches:
            empty = np.empty(0, dtype=np.int64)
            empty_w = np.empty(0, dtype=bool)
            empty.setflags(write=False)
            empty_w.setflags(write=False)
            return empty, empty_w
        lines = np.empty(self._n, dtype=np.int64)
        writes = np.empty(self._n, dtype=bool)
        pos = 0
        for batch, lens, w in self._batches:
            end = pos + len(batch)
            lines[pos:end] = batch
            writes[pos:end] = np.repeat(w, lens)
            pos = end
        lines.setflags(write=False)
        writes.setflags(write=False)
        self._finalized = (lines, writes)
        return self._finalized

    def chunk_lengths(self) -> np.ndarray:
        """Per-chunk (per-visit) event counts, in append order (read-only
        int64, no zeros)."""
        out = np.concatenate([lens for _, lens, _ in self._batches]
                             or [np.empty(0, dtype=np.int64)])
        out.setflags(write=False)
        return out

    def finalize_trace(self) -> Trace:
        """Finalize, keeping the tile-chunk structure alongside."""
        lines, writes = self.finalize()
        return Trace(lines, writes, self.chunk_lengths())

    @property
    def n_unique_lines(self) -> int:
        """Distinct lines touched (the trace's working-set size in lines)."""
        lines, _ = self.finalize()
        return int(len(sorted_distinct(lines)))

    @property
    def n_write_events(self) -> int:
        return sum(int(lens[w].sum()) for _, lens, w in self._batches)

    @property
    def n_read_events(self) -> int:
        return self._n - self.n_write_events
