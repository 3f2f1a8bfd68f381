"""Flat result records: export, aggregation, and sweep-vs-sweep compare.

A :class:`ResultSet` holds one flat record per scenario point — the
shape the csl-experiments GEMM workflow exports for model fitting, and
the shape spreadsheet/pandas users expect — stored by column.  Rows
that arrive with the same key layout (the same keys in the same order)
form a block, which keeps one list of values per key; a 10^4-point
sweep is typically one block.  The exports are written from the
columns, byte for byte what ``json.dumps(rows, indent=2, default=str)``
and ``csv.DictWriter`` over the first-seen column union would write,
while :attr:`ResultSet.rows` materializes the row dicts for the
row-at-a-time helpers (pivot, group_by, aggregate, compare).  It
deliberately has no numpy/pandas dependency.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter
from pathlib import Path
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Mapping, NamedTuple, Optional, Sequence, Tuple, Type,
                    Union)

from repro.util import format_columns, require

__all__ = ["ResultSet", "distinct"]

#: row fields that identify a point to a human, in preference order
#: (used by the missing-column errors below).
_IDENTITY_KEYS = ("kernel", "machine", "scheme", "policy", "algorithm",
                  "method", "cache_blocks", "n")


def _describe_row(i: int, row: Dict[str, Any]) -> str:
    """``row 3 (kernel='matmul-cache', scheme='wa2', ...)`` — enough to
    find the offending point without dumping the whole record."""
    ident = {k: row[k] for k in _IDENTITY_KEYS if k in row}
    if not ident:  # fall back to the first few columns, whatever they are
        ident = dict(list(row.items())[:4])
    parts = ", ".join(f"{k}={v!r}" for k, v in ident.items())
    return f"row {i} ({parts})"

_AGGREGATORS: Dict[str, Callable[[List[float]], float]] = {
    "sum": sum,
    "mean": lambda xs: sum(xs) / len(xs),
    "min": min,
    "max": max,
    "count": len,
}


def distinct(items: Iterable[Hashable]) -> Tuple[List[Any], List[int]]:
    """The distinct *items* (by value, first-seen order) and, per item,
    its index among them.  Each distinct object is hashed once, so a
    sweep whose points share one machine spec object costs one hash."""
    objs = list(items)
    ids = list(map(id, objs))
    by_value: Dict[Hashable, int] = {}
    uniq: List[Any] = []
    slot: Dict[int, int] = {}
    for key, obj in dict(zip(ids, objs)).items():
        slot[key] = i = by_value.setdefault(obj, len(uniq))
        if i == len(uniq):
            uniq.append(obj)
    return uniq, list(map(slot.__getitem__, ids))


# --------------------------------------------------------------------- #
# columnar storage
# --------------------------------------------------------------------- #
class _Block(NamedTuple):
    """Rows that arrived with the same key layout: one value sequence
    per key."""

    keys: Tuple[Any, ...]
    cols: List[Sequence[Any]]
    size: int


def _layouts(seg: Sequence[Mapping[Any, Any]]
             ) -> Tuple[List[Tuple[Any, ...]], Optional[List[int]]]:
    """The distinct key layouts of *seg* (first-seen order) and each
    entry's layout number, ``None`` when there is only one layout."""
    layouts = list(dict.fromkeys(map(tuple, seg)))
    if len(layouts) == 1:
        return layouts, None
    number = {keys: i for i, keys in enumerate(layouts)}
    return layouts, list(map(number.__getitem__, map(tuple, seg)))


def _build(segments: Sequence[Sequence[Mapping[Any, Any]]]
           ) -> Tuple[List[_Block], List[int]]:
    """Blocks (first-seen layout order) and each row's block, for the
    rows ``{**segments[0][i], **segments[1][i], ...}``, built column by
    column without building those dicts."""
    n = len(segments[0]) if segments else 0
    if n == 0:
        return [], []
    per_seg = [_layouts(seg) for seg in segments]
    groups: Dict[Tuple[int, ...], Optional[List[int]]]
    codes: List[Tuple[int, ...]] = []
    if all(numbers is None for _, numbers in per_seg):
        groups = {(0,) * len(segments): None}  # one layout: no gather
    else:
        codes = list(zip(*[numbers or [0] * n for _, numbers in per_seg]))
        gathered: Dict[Tuple[int, ...], List[int]] = {}
        for i, code in enumerate(codes):
            gathered.setdefault(code, []).append(i)
        groups = {code: rows for code, rows in gathered.items()}
    blocks = []
    for code, rows in groups.items():
        source: Dict[Any, int] = {}  # dict.update: first place, last value
        for s, (layouts, _) in enumerate(per_seg):
            for key in layouts[code[s]]:
                source[key] = s
        parts = [seg if rows is None else [seg[i] for i in rows]
                 for seg in segments]
        blocks.append(_Block(
            tuple(source),
            [list(map(itemgetter(key), parts[s]))
             for key, s in source.items()],
            n if rows is None else len(rows)))
    if len(blocks) == 1:
        return blocks, [0] * n
    number = {code: b for b, code in enumerate(groups)}
    return blocks, list(map(number.__getitem__, codes))


def _shared(key: str, values: Sequence[Hashable]) -> List[Dict[str, Any]]:
    """``{key: value}`` per entry of *values*, one dict object per
    distinct value (and type), so a constant column costs no per-row
    dict."""
    memo = {typed: {key: typed[1]}
            for typed in dict.fromkeys(zip(map(type, values), values))}
    return list(map(memo.__getitem__, zip(map(type, values), values)))


def _interleave(per_block: Sequence[Sequence[Any]],
                order: List[int]) -> List[Any]:
    """Merge per-block sequences back into row order."""
    if len(per_block) == 1:
        return list(per_block[0])
    nexts = [iter(seq).__next__ for seq in per_block]
    return [nexts[b]() for b in order]


# --------------------------------------------------------------------- #
# JSON text, one column at a time
# --------------------------------------------------------------------- #
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: the per-row indent of a record's keys (``indent=2``, depth 2).
_KEY_INDENT = "    "


def _json_key(key: Any) -> str:
    if not isinstance(key, str):
        # json's own coercion of int/float/bool/None keys (and its
        # TypeError for anything else).
        key = next(iter(json.loads(json.dumps({key: None}))))
    return encode_basestring_ascii(key)


def _scalar_encoder(kind: Type[Any],
                    nested: Callable[[Any], str]) -> Callable[[Any], str]:
    """The C-level function ``json.dumps`` amounts to for values of
    exactly *kind*, in its own dispatch order; floats come out in
    ``repr`` form (non-finite ones are patched by the caller)."""
    if issubclass(kind, str):
        return encode_basestring_ascii
    if kind is type(None):
        return {None: "null"}.__getitem__
    if kind is bool:
        return {True: "true", False: "false"}.__getitem__
    if issubclass(kind, int):
        return int.__repr__
    if issubclass(kind, float):
        return float.__repr__
    if issubclass(kind, (list, tuple, dict)):
        return nested
    return lambda value: encode_basestring_ascii(str(value))  # default=str


def _float_reprs(col: Sequence[float]) -> List[str]:
    """``repr`` of each float, once per distinct value when values
    repeat (0.0 and -0.0 compare equal, so a column holding a zero
    skips the memo)."""
    uniq = set(col)
    if len(uniq) * 2 > len(col) or 0.0 in uniq:
        return list(map(float.__repr__, col))
    memo = dict(zip(uniq, map(float.__repr__, uniq)))
    return list(map(memo.__getitem__, col))


def _encode_column(col: Sequence[Any],
                   nested: Callable[[Any], str]) -> List[str]:
    """The JSON text of each value in *col*, or one text when every row
    holds the same object."""
    if all(map(is_, col, repeat(col[0]))):  # one shared object
        col = col[:1]
    kinds = set(map(type, col))
    if kinds == {float}:
        text = _float_reprs(col)
    elif len(kinds) == 1:
        text = list(map(_scalar_encoder(next(iter(kinds)), nested), col))
    else:
        fns = {kind: _scalar_encoder(kind, nested) for kind in kinds}
        text = [fns[type(v)](v) for v in col]
    if any(issubclass(kind, float) for kind in kinds) and (
            "nan" in text or "inf" in text or "-inf" in text):
        text = [_NONFINITE.get(s, s) for s in text]
    return text


def _block_json(block: _Block, nested: Callable[[Any], str]) -> List[str]:
    """Each row of *block* as its indented JSON object text.

    A column whose text is the same on every row is folded into the
    literal text between the varying columns once; each row is then one
    ``join`` of literals and its varying texts."""
    if not block.keys:
        return ["  {}"] * block.size
    pieces: List[Iterable[str]] = []
    literal, sep = "  {\n", ""
    for key, col in zip(block.keys, block.cols):
        text = _encode_column(col, nested)
        literal += f"{sep}{_KEY_INDENT}{_json_key(key)}: "
        sep = ",\n"
        if text.count(text[0]) == len(text):
            literal += text[0]
        else:
            pieces += [repeat(literal), text]
            literal = ""
    literal += "\n  }"
    if not pieces:
        return [literal] * block.size
    return list(map("".join, zip(*pieces, repeat(literal))))


class ResultSet:
    """An ordered set of flat records with spreadsheet-style helpers."""

    def __init__(self, rows: Iterable[Mapping[str, Any]] = ()):
        self._blocks, self._order = _build([list(rows)])

    @classmethod
    def from_segments(cls, segments: Sequence[Sequence[Mapping[str, Any]]]
                      ) -> "ResultSet":
        """The set of rows ``{**segments[0][i], **segments[1][i], ...}``
        (equal-length segments), without building those dicts."""
        rs = cls.__new__(cls)
        rs._blocks, rs._order = _build(segments)
        return rs

    @classmethod
    def from_report(cls, report: Any) -> "ResultSet":
        """Flatten a :class:`~repro.lab.executor.SweepReport`: kernel +
        machine identity + params + record fields + ``cached``, one row
        per point (``as_dict`` runs once per distinct machine spec)."""
        results = report.results
        points = [res.point for res in results]
        specs, which = distinct([point.machine for point in points])
        machines = []
        for spec in specs:
            fields = spec.as_dict()
            machines.append({"machine": fields.pop("name"), **fields})
        return cls.from_segments([
            _shared("kernel", [point.kernel for point in points]),
            list(map(machines.__getitem__, which)),
            [point.params for point in points],
            [res.record for res in results],
            _shared("cached", [res.cached for res in results]),
        ])

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Inverse of :meth:`to_json`: parse a JSON array of row objects
        (e.g. a ``GET /results/<id>`` response) back into a set."""
        data = json.loads(text)
        require(isinstance(data, list),
                "ResultSet JSON must be an array of row objects, got "
                f"{type(data).__name__}")
        for i, row in enumerate(data):
            require(isinstance(row, dict),
                    f"ResultSet JSON row {i} is not an object")
        return cls(data)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The records as fresh row dicts, in the keys' original order."""
        return _interleave(
            [[dict(zip(b.keys, values)) for values in zip(*b.cols)]
             if b.keys else [{} for _ in range(b.size)]
             for b in self._blocks], self._order)

    @property
    def columns(self) -> List[str]:
        """Every key, in first-seen order."""
        return list(dict.fromkeys(k for b in self._blocks for k in b.keys))

    def _union(self, fill: Any) -> List[Sequence[Any]]:
        """One full-length column per :attr:`columns` entry, *fill*
        where a row lacks the key."""
        if len(self._blocks) == 1:
            return list(self._blocks[0].cols)
        where = [dict(zip(b.keys, b.cols)) for b in self._blocks]
        return [_interleave([w[name] if name in w else [fill] * b.size
                             for w, b in zip(where, self._blocks)],
                            self._order)
                for name in self.columns]

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        cols = self._union("")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        rows: Iterable[Sequence[Any]] = (zip(*cols) if cols
                                         else [()] * len(self))
        writer.writerows(rows)
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        memo: Dict[int, str] = {}

        def nested(value: Any) -> str:
            # encoded once per distinct object, re-indented to depth 2
            text = memo.get(id(value))
            if text is None:
                text = memo[id(value)] = json.dumps(
                    value, indent=2, default=str).replace("\n", "\n    ")
            return text

        rows = _interleave([_block_json(b, nested) for b in self._blocks],
                           self._order)
        text = "[\n" + ",\n".join(rows) + "\n]" if rows else "[]"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def format(self, title: Optional[str] = None) -> str:
        return format_columns(self.columns, self._union(""), title=title)

    def pivot(self, index: Sequence[str], column: str,
              value: str) -> "ResultSet":
        """Long-to-wide reshape: rows sharing *index* collapse to one row
        with a new column per distinct *column* value, holding *value*.

        Output rows keep the first-seen order of their index tuples, and
        pivoted columns the first-seen order of the *column* values — so
        a grid swept row-major reassembles in grid order (the Table-1/2
        idiom: one record per (row, algorithm) cell, pivoted back into
        the paper's layout).  ``None`` *values* survive the reshape, but
        a row missing any index/column/value key outright is an error
        naming the row — silently reshaping around it would fabricate a
        hole in the grid.  Duplicate (index, column) cells are rejected.
        """
        index = list(index)
        out: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        for i, row in enumerate(self.rows):
            for k in index:
                require(k in row, f"pivot index key {k!r} missing from "
                                  f"{_describe_row(i, row)}")
            require(column in row and row[column] is not None,
                    f"pivot column {column!r} missing from "
                    f"{_describe_row(i, row)}")
            require(value in row,
                    f"pivot value {value!r} missing from "
                    f"{_describe_row(i, row)}")
            key = tuple(row[k] for k in index)
            target = out.setdefault(key, dict(zip(index, key)))
            col = str(row[column])
            require(col not in target,
                    f"duplicate pivot cell {key} x {col!r}")
            target[col] = row[value]
        return ResultSet(list(out.values()))

    # ------------------------------------------------------------------ #
    # aggregation / comparison
    # ------------------------------------------------------------------ #
    def group_by(self, *keys: str) -> Dict[Tuple[Any, ...], "ResultSet"]:
        groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        for row in self.rows:
            groups.setdefault(tuple(row.get(k) for k in keys),
                              []).append(row)
        return {k: ResultSet(v) for k, v in groups.items()}

    def aggregate(self, keys: Sequence[str], value: str,
                  how: str = "mean") -> "ResultSet":
        """Collapse rows sharing *keys* to one row with ``how(value)``.

        Every row must carry *value*: a point whose record lacks the
        aggregated column is an error naming that point, not a silent
        drop from the mean.
        """
        require(how in _AGGREGATORS,
                f"unknown aggregator {how!r}; choose from "
                f"{sorted(_AGGREGATORS)}")
        fn = _AGGREGATORS[how]
        for i, row in enumerate(self.rows):
            require(value in row,
                    f"aggregate value {value!r} missing from "
                    f"{_describe_row(i, row)}")
        out = []
        for gkey, group in self.group_by(*keys).items():
            values = [row[value] for row in group.rows]
            require(len(values) > 0, f"no values for column {value!r}")
            row = dict(zip(keys, gkey))
            row[f"{how}_{value}"] = fn(values)
            row["n"] = len(values)
            out.append(row)
        return ResultSet(out)

    def compare(self, other: "ResultSet", on: Sequence[str],
                value: str) -> "ResultSet":
        """Join two sweeps on *on* and report ``value`` side by side with
        the b/a ratio — the predicted-vs-measured idiom."""
        index = {tuple(row.get(k) for k in on): row for row in other.rows}
        out = []
        for row in self.rows:
            key = tuple(row.get(k) for k in on)
            if key not in index:
                continue
            a, b = row.get(value), index[key].get(value)
            merged = dict(zip(on, key))
            merged[f"{value}_a"] = a
            merged[f"{value}_b"] = b
            merged["ratio"] = (b / a) if a else float("inf")
            out.append(merged)
        return ResultSet(out)
