"""Kernel declarations: one :class:`Kernel` record per registered kernel.

A record holds everything the engine knows about a kernel: its body,
its parameters (:class:`Params`), the machine fields its records depend
on, the record fields worth folding into run-trace metrics and, for a
kernel that evaluates many points at once, its :class:`BatchKernel`.

A :class:`Params` names every parameter a kernel takes, its type,
whether it is required and its default, plus an optional
cross-parameter ``relation`` (``n`` a multiple of ``b``, ``P`` a
perfect square) and, for kernels that simulate the request's machine, a
``fit`` of machine and parameters.  Every request check reads it:
unknown and missing keys, each value's type, ``repro-lab list`` and the
kernels' own defaults (:meth:`Params.resolve`).  Checks never change a
point: its params stay as requested, so records and cache keys do too.

This module imports no kernel, so :mod:`repro.lab.registry` and
:mod:`repro.lab.modelkernels` both declare their records with it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.util import require

__all__ = ["Kernel", "BatchKernel", "Params", "Param", "opt", "fits",
           "multiples", "chain", "POS", "NAT", "INT", "FLOAT", "BOOL",
           "REQUIRED"]

#: value types (a tuple of strings instead is a one-of)
POS = "positive int"
NAT = "int >= 0"
INT = "int"
FLOAT = "finite float >= 0"
BOOL = "bool"

#: the default of a required parameter.
REQUIRED = object()


def _is_int(value: Any) -> bool:
    # True is Integral, but never a size or a count.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: each value type's test and canonical form (plain python values).
_TYPES: Dict[str, Tuple[Callable[[Any], bool], Callable[[Any], Any]]] = {
    POS: (lambda v: _is_int(v) and v > 0, operator.index),
    NAT: (lambda v: _is_int(v) and v >= 0, operator.index),
    INT: (_is_int, operator.index),
    FLOAT: (lambda v: (isinstance(v, numbers.Real)
                       and not isinstance(v, bool)
                       and math.isfinite(v) and v >= 0), float),
    BOOL: (lambda v: isinstance(v, (bool, np.bool_)), bool),
}


def fits(kind: Any, value: Any) -> bool:
    """Whether *value* is of type *kind* (a type above or a one-of)."""
    if kind in _TYPES:
        return _TYPES[kind][0](value)
    # one-of: "2.1" and 2.1 (a CLI literal) both name model 2.1
    return (isinstance(value, (str, numbers.Real))
            and not isinstance(value, bool) and str(value) in kind)


def _canonical(kind: Any, value: Any) -> Any:
    """*value*, already checked to fit *kind*, as a plain python value
    (a one-of as its ``str``)."""
    return None if value is None else _TYPES.get(kind, (None, str))[1](value)


@dataclass(frozen=True)
class Param:
    """One parameter: its type and its default (:data:`REQUIRED` if it
    has none).  An optional parameter whose default is ``None`` also
    takes ``None``, meaning that default."""

    kind: Any
    default: Any = REQUIRED


def opt(kind: Any, default: Any = None) -> Param:
    """An optional parameter of type *kind*."""
    return Param(kind, default)


@dataclass(frozen=True)
class Params:
    """One kernel's declared parameters.

    Build it as ``Params.of(n=POS, b3=opt(POS, 64), ...)``: a bare type
    is a required parameter, :func:`opt` an optional one.  ``relation``
    sees the resolved parameters; ``fit`` sees the machine and the raw
    parameters.  Both raise ``ValueError`` naming the field.
    """

    params: Dict[str, Param] = field(default_factory=dict)
    relation: Optional[Callable[[Dict[str, Any]], None]] = None
    fit: Optional[Callable[[Any, Mapping[str, Any]], Any]] = None

    @classmethod
    def of(cls, relation: Optional[Callable] = None,
           fit: Optional[Callable] = None, **params: Any) -> "Params":
        return cls({name: p if isinstance(p, Param) else Param(p)
                    for name, p in params.items()}, relation, fit)

    def check_keys(self, kernel: str, keys: Iterable[str]) -> None:
        keys = set(keys)
        missing = sorted(name for name, p in self.params.items()
                         if p.default is REQUIRED and name not in keys)
        require(not missing,
                f"kernel {kernel!r} is missing required parameter(s) "
                f"{missing} (pass them via --set or the scenario's "
                f"fixed/grid)")
        unknown = sorted(keys - set(self.params))
        hint = (" (set the line size with machine.line_size)"
                if "line_size" in unknown else "")
        require(not unknown,
                f"kernel {kernel!r} does not take parameter(s) {unknown}; "
                f"it reads {sorted(self.params)}{hint}")

    def check_value(self, name: str, value: Any) -> None:
        p = self.params[name]
        if value is None and p.default is None or fits(p.kind, value):
            return
        if p.kind in (POS, NAT, INT) and _is_int(value):
            bound = "positive" if p.kind == POS else ">= 0"
            raise ValueError(f"{name} must be {bound}, got {value}")
        what = (f"one of {list(p.kind)}" if isinstance(p.kind, tuple)
                else "an integer" if p.kind in (POS, NAT, INT)
                else f"a {p.kind}")
        raise ValueError(f"{name} must be {what}, got {value!r}")

    def check(self, kernel: str, machine: Any, params: Mapping[str, Any]
              ) -> None:
        """Raise ``ValueError`` naming the field unless one point of
        *kernel* can run: keys, values, relation and machine fit."""
        self.check_keys(kernel, params)
        for name, value in params.items():
            self.check_value(name, value)
        self.check_fit(machine, params)

    def check_fit(self, machine: Any, params: Mapping[str, Any]) -> None:
        """The per-point rules: the relation, then the machine fit."""
        if self.relation is not None:
            self.relation(self.resolve(params))
        if self.fit is not None:
            self.fit(machine, params)

    def resolve(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Every declared parameter's value in canonical form (plain
        ``int``/``float``/``bool``/``str``), defaults filled in; a
        missing or ill-typed value raises ``ValueError`` naming it, so a
        kernel called directly keeps its checks."""
        out = {}
        for name, p in self.params.items():
            if name in params:
                value = params[name]
                self.check_value(name, value)
            elif p.default is REQUIRED:
                raise ValueError(f"missing required parameter {name!r} "
                                 f"(pass it via --set or the scenario's "
                                 f"fixed/grid)")
            else:
                value = p.default
            out[name] = _canonical(p.kind, value)
        return out

    def describe(self) -> str:
        """One line per ``repro-lab list``: ``name`` if required,
        ``name=default`` if not, each with its type."""
        parts = []
        for name, p in self.params.items():
            kind = "|".join(p.kind) if isinstance(p.kind, tuple) else p.kind
            head = name if p.default is REQUIRED else f"{name}={p.default}"
            parts.append(f"{head} ({kind})")
        return ", ".join(parts) or "(none)"


def multiples(block: str, *sizes: str) -> Callable[[Dict[str, Any]], None]:
    """A relation: each of *sizes* is a multiple of block size *block*."""
    def relation(p: Dict[str, Any]) -> None:
        for name in sizes:
            require(p[name] % p[block] == 0,
                    f"{name}={p[name]} must be a multiple of block size "
                    f"{block}={p[block]}")
    return relation


def chain(*relations: Callable[[Dict[str, Any]], None]
          ) -> Callable[[Dict[str, Any]], None]:
    """One relation checking each of *relations* in turn."""
    def relation(p: Dict[str, Any]) -> None:
        for rel in relations:
            rel(p)
    return relation



@dataclass(frozen=True)
class BatchKernel:
    """How the executor collapses many uncached points of one kernel
    into a single task.

    ``group_key`` yields the JSON-able identity points must share to
    ride one evaluation; ``run`` evaluates a whole group and returns one
    record per point in group order.  The executor fans the records back
    out into per-point result-cache entries, so batching stays a pure
    execution strategy: records and cache contents are bit-identical to
    the per-point path.

    Two families declare one: every trace kernel (one task per distinct
    trace, which builds it once and replays each of its simulations
    once; gated by the executor's ``multi_capacity`` flag) and every
    analytic ``cost-*`` kernel (one numpy-vectorized grid evaluation,
    gated by ``batch``).
    """

    #: which executor flag gates this entry: ``"multi_capacity"`` for
    #: the trace-kernel batches, ``"batch"`` for grid batches.
    toggle: str
    #: ``(machine, params) -> identity dict``; ``None`` means the point
    #: cannot batch and must run on its own.
    group_key: Callable[[Any, Mapping[str, Any]], Optional[Dict[str, Any]]]
    #: ``group -> [record, ...]`` in group order, *group* a sequence of
    #: ``(machine, params)`` pairs.
    run: Callable[[Sequence[Tuple[Any, Mapping[str, Any]]]],
                  List[Dict[str, Any]]]
    #: ``group_key`` ignores ``params`` entirely (true for the cost
    #: grids: any two same-machine points batch), so the planner
    #: memoizes the serialized key per (kernel, machine) instead of
    #: recomputing it for every one of 10^4+ grid points.
    machine_only: bool = False


@dataclass(frozen=True)
class Kernel:
    """One registered kernel, declared once.

    Every field but ``batch`` is required: a kernel that reads no
    machine field declares ``()``, so no kernel is ever undeclared.
    """

    #: ``(machine, params) -> record``: one flat, JSON-serializable
    #: record per point; its docstring's first line is the kernel's
    #: ``repro-lab list`` entry.
    run: Callable[[Any, Mapping[str, Any]], Dict[str, Any]]
    params: Params
    #: the ``MachineSpec`` fields the records depend on.  The result
    #: cache keys each point on its machine projected to these fields,
    #: and a scenario refuses a grid axis over any other field.
    machine_fields: Tuple[str, ...]
    #: the record fields a traced run folds into its metrics.
    metric_fields: Tuple[str, ...]
    batch: Optional[BatchKernel] = None
