"""Shared helpers: argument validation, integer geometry, table formatting,
and the lazy re-exports of the package ``__init__`` files.

These utilities are deliberately dependency-light so every subpackage can use
them without import cycles.
"""

from __future__ import annotations

import bisect
import importlib
import math
import numbers
import operator
import sys
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Sequence,
                    Tuple, cast)

__all__ = [
    "require",
    "check_positive_int",
    "check_multiple",
    "ceil_div",
    "round_up",
    "is_power_of_two",
    "next_power_of_two",
    "block_count",
    "canonical_int",
    "json_number_default",
    "format_table",
    "format_columns",
    "format_si",
    "pairwise_ratios",
    "lazy_exports",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with *message* unless *condition* holds.

    Used at public API boundaries so user errors surface as ``ValueError``
    with a clear explanation rather than as downstream numpy shape errors.
    """
    if not condition:
        raise ValueError(message)


def check_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive integer and return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def canonical_int(value: Any, name: str) -> int:
    """Canonicalize *value* to a plain python int.

    Sweep-grid parameters frequently arrive as ``np.int64``
    (``np.arange``-built scenarios); canonicalizing keeps payloads
    JSON-able, cache keys stable across int flavours, and strict
    simulator validation satisfied.  Bools and non-integral values are
    rejected loudly rather than truncated.
    """
    try:
        if not isinstance(value, bool):  # True is Integral, not a size
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(
        f"parameter {name!r} must be an integer, got {value!r}")


def json_number_default(value: Any) -> Any:
    """``json.dumps`` fallback canonicalizing numpy scalars to python
    values, so ``np.int64`` grid axes, ``np.float64`` costs and
    ``np.bool_`` flags key identically to their python twins in cache
    keys and batch-group keys (``np.float64`` already serializes
    natively as a ``float`` subclass; this covers the integer flavours,
    any other Real, and — via ``.item()``, numpy-free — scalars outside
    the numbers ABCs like ``np.bool_``)."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    item = getattr(value, "item", None)
    if item is not None:
        value = item()
        if isinstance(value, (bool, int, float)):
            return value
    raise TypeError(f"not JSON-serializable: {value!r}")


def check_multiple(n: int, b: int, what: str = "dimension") -> None:
    """Validate that ``n`` is a positive multiple of block size ``b``.

    The paper's algorithms assume dimensions divide evenly by the block size
    ("assume n is a multiple of b"); we enforce rather than silently pad.
    """
    check_positive_int(n, what)
    check_positive_int(b, "block size")
    if n % b != 0:
        raise ValueError(f"{what}={n} must be a multiple of block size {b}")


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for nonnegative ints."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def round_up(n: int, multiple: int) -> int:
    """Round *n* up to the nearest multiple of *multiple*."""
    return ceil_div(n, multiple) * multiple


def is_power_of_two(n: int) -> bool:
    """True iff *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two ≥ *n* (n ≥ 1)."""
    check_positive_int(n, "n")
    return 1 << (n - 1).bit_length()


def block_count(n: int, b: int) -> int:
    """Number of blocks of size *b* covering a dimension of size *n*.

    Equivalent to the paper's ``round_up`` helper in Figure 4.
    """
    return ceil_div(n, b)


#: :func:`format_si` by magnitude range (``bisect_right`` over
#: :data:`_SI_BOUNDS`): (divisor, format).
_SI_BOUNDS = (1.0, 1e3, 1e6, 1e9)
_SI_FORMATS = ((1.0, "%.3g"), (1.0, "%.4g"), (1e3, "%.3gK"),
               (1e6, "%.3gM"), (1e9, "%.3gG"))


def _si_text(x: float, r: int) -> str:
    """*x* (finite, nonzero) formatted for magnitude range *r*; a K or M
    value whose rounding reaches 1000 takes the next suffix up."""
    scale, fmt = _SI_FORMATS[r]
    text = fmt % (x / scale)
    if "e" in text and r in (2, 3):
        return _si_text(x, r + 1)
    return text


def format_si(x: float) -> str:
    """Compact human format: 2.0M, 3.4K, 512, 0.25.

    Scaled values show 3 significant figures, and the suffix is chosen
    after that rounding: 999_950 prints as ``1M``, not ``1e+03K``.
    Non-finite values print as ``inf``/``-inf``/``nan``.
    """
    if x == 0:
        return "0"
    if not math.isfinite(x):
        return f"{x:g}"
    return _si_text(x, bisect.bisect_right(_SI_BOUNDS, abs(x)))


def _format_si_column(values: Sequence[float]) -> list[str]:
    """:func:`format_si` of each float in *values*: once per distinct
    value when values repeat, and in one C-level pass when the column
    stays within one SI range (the common case)."""
    uniq = set(values)
    if 0 < len(uniq) * 2 <= len(values):
        distinct = list(uniq)
        memo = dict(zip(distinct, _format_si_column(distinct)))
        return list(map(memo.__getitem__, values))
    if not values or 0.0 in uniq or not all(map(math.isfinite, values)):
        return list(map(format_si, values))
    mags = list(map(abs, values))
    low = bisect.bisect_right(_SI_BOUNDS, min(mags))
    if low != bisect.bisect_right(_SI_BOUNDS, max(mags)):
        return [_si_text(v, bisect.bisect_right(_SI_BOUNDS, m))
                for v, m in zip(values, mags)]
    scale, fmt = _SI_FORMATS[low]
    texts = list(map(fmt.__mod__, map(scale.__rtruediv__, values)))
    if low in (2, 3):  # values that rounded up to 1000 move up a suffix
        for i in [i for i, text in enumerate(texts) if "e" in text]:
            texts[i] = _si_text(values[i], low)
    return texts


def _format_cells(values: Sequence[object]) -> list[str]:
    """One table column as text: floats via :func:`format_si`,
    everything else via ``str``."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return _format_si_column(cast("Sequence[float]", values))
    if not any(issubclass(kind, float) for kind in kinds):
        return list(map(str, values))
    return [format_si(v) if isinstance(v, float) else str(v)
            for v in values]


def format_columns(
    headers: Sequence[str],
    columns: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a plain-text table given column by column.

    Floats are formatted with :func:`format_si`; everything else via
    ``str``.  Every cell is left-justified to its column's width, and
    columns are separated by two spaces.
    """
    require(len(columns) == len(headers),
            f"format_columns: {len(columns)} columns for "
            f"{len(headers)} headers")
    cells = [_format_cells(col) for col in columns]
    widths = [max(len(h), max(map(len, col), default=0))
              for h, col in zip(headers, cells)]
    line = "  ".join(f"%-{w}s" for w in widths)
    lines = [title] if title else []
    lines.append(line % tuple(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(line % row for row in zip(*cells))
    return "\n".join(lines)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a plain-text table (used by experiment harnesses) given
    row by row; see :func:`format_columns`.  Every row must have one
    cell per header (``ValueError`` naming the row otherwise)."""
    table = list(rows)
    for i, row in enumerate(table):
        require(len(row) == len(headers),
                f"format_table: row {i} has {len(row)} cells for "
                f"{len(headers)} headers")
    columns: Sequence[Sequence[object]] = (
        list(zip(*table)) if table else [()] * len(headers))
    return format_columns(headers, columns, title=title)


def pairwise_ratios(xs: Sequence[float]) -> list[float]:
    """Successive ratios x[i+1]/x[i]; used to check asymptotic growth rates."""
    out = []
    for a, b in zip(xs, xs[1:]):
        if a == 0:
            raise ValueError("cannot take ratio with zero denominator")
        out.append(b / a)
    return out


def isqrt_exact(n: int) -> int:
    """Integer square root that must be exact (√n ∈ ℕ), else ValueError."""
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for *package*, whose
    public names load on first access (PEP 562).

    *exports* maps each submodule (relative to *package*) to the names
    it provides.  ``from repro.core import blocked_matmul`` then imports
    ``repro.core.matmul`` and nothing else, and the name is kept on the
    package, so later lookups never reach ``__getattr__``.
    """
    where: Dict[str, str] = {name: module for module, names in exports.items()
                             for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *where})

    return list(where), __getattr__, __dir__
