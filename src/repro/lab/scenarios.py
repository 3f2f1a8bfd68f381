"""Declarative scenario specs, cartesian expansion, and the preset table.

A :class:`Scenario` is a parameter grid over a kernel and a machine; its
:meth:`~Scenario.points` expand to concrete :class:`ScenarioPoint`\\ s, the
unit the executor runs and the result cache keys.  Presets in
:data:`SCENARIOS` reproduce every table and figure of the paper point by
point (so sweeps parallelize and cache at the finest grain) and add
NVM-style machine sweeps the paper never ran.

Each preset is built in the :mod:`repro.experiments` module of the
artifact it reproduces, which also holds its claims, the assembly of
its records into rows and the ``format_*`` layout that prints them
(``tests/golden/`` pins each rendered table byte for byte).
:data:`SCENARIOS` imports that module when the preset is built, so a
request loads only its own preset's code.  :func:`build_scenario` turns
a request (CLI arguments or a ``POST /sweep`` body) into a
:class:`Scenario`.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence)

from repro.lab.registry import (
    KERNELS,
    MachineSpec,
    check_point,
    kernel_params,
    machine_fields,
    project_machine,
    resolve_machine,
    takes,
)
from repro.lab.results import ResultSet, distinct
from repro.util import require

__all__ = [
    "Scenario",
    "ScenarioPoint",
    "SCENARIOS",
    "get_scenario",
    "build_scenario",
    "claims_on",
]


# --------------------------------------------------------------------- #
# points and scenarios
# --------------------------------------------------------------------- #
@dataclass
class ScenarioPoint:
    """One concrete (kernel, machine, params) simulation."""

    kernel: str
    machine: MachineSpec
    params: Dict[str, Any]

    def payload(self) -> Dict[str, Any]:
        """JSON-serializable identity of this point — the full machine
        spec, as workers need to reconstruct it (:meth:`from_payload`)."""
        return {
            "kernel": self.kernel,
            "machine": self.machine.as_dict(),
            "params": dict(self.params),
        }

    def cache_payload(self) -> Dict[str, Any]:
        """The result-cache identity of this point: the payload with the
        machine projected to the fields this point's kernel declares it
        reads (its :attr:`~repro.lab.params.Kernel.machine_fields`), so
        renaming a
        machine — or changing a field the kernel never looks at — does
        not cold-start the cache."""
        return {
            "kernel": self.kernel,
            "machine": project_machine(self.machine, self.kernel),
            "params": dict(self.params),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioPoint":
        return cls(
            kernel=payload["kernel"],
            machine=MachineSpec.from_dict(payload["machine"]),
            params=dict(payload["params"]),
        )

    def run(self) -> Dict[str, Any]:
        try:
            kernel = KERNELS[self.kernel]
        except KeyError:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"available: {sorted(KERNELS)}"
            ) from None
        return kernel.run(self.machine, self.params)


@dataclass
class Scenario:
    """A named sweep: fixed params + a cartesian grid over a kernel.

    ``grid`` maps parameter names to value lists; keys are expanded in
    insertion order with the **last key varying fastest** (standard
    odometer order).  A key of the form ``machine.<field>`` overrides that
    field of the machine spec instead of becoming a kernel parameter.
    Presets with non-cartesian structure supply ``explicit`` points.

    A preset names the paper's claims its records show in ``claims``:
    each is a predicate over ``(scenario, results)``, the results in
    point order.  ``benchmarks/preset_digests.py`` evaluates them on
    full-size records and the tier-1 suite on ``--quick`` records,
    except those named in ``full_only``.
    """

    name: str
    kernel: str
    machine: MachineSpec
    description: str = ""
    fixed: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    explicit: Optional[List[ScenarioPoint]] = None
    #: assembles (scenario, results) into a human-readable report.
    report: Optional[Callable[["Scenario", List[Any]], str]] = None
    #: free-form context the report assembler needs (e.g. the middles axis).
    meta: Dict[str, Any] = field(default_factory=dict)
    #: the paper's claims these records show: name -> predicate.
    claims: Dict[str, "Claim"] = field(default_factory=dict)
    #: claims that hold only at full size, not on ``--quick`` records.
    full_only: FrozenSet[str] = frozenset()

    def points(self) -> List[ScenarioPoint]:
        """The concrete points, each checked against its kernel's
        declared parameters (:attr:`repro.lab.params.Kernel.params`): a
        point that cannot run raises ``ValueError`` naming the field.

        A grid checks its key set once, each fixed value and axis value
        once, and only the relation and machine fit per point (if the
        kernel declares them); explicit points are checked one by one.
        """
        pts = self._expand()
        if self.explicit is not None:
            for pt in pts:
                check_point(pt.kernel, pt.machine, pt.params)
            return pts
        decl = kernel_params(self.kernel)
        axes = {k: v for k, v in self.grid.items()
                if not k.startswith("machine.")}
        decl.check_keys(self.kernel, [*self.fixed, *axes])
        for key, value in self.fixed.items():
            decl.check_value(key, value)
        for key, values in axes.items():
            for value in values:
                decl.check_value(key, value)
        if decl.relation is not None or decl.fit is not None:
            for pt in pts:
                decl.check_fit(pt.machine, pt.params)
        return pts

    def _expand(self) -> List[ScenarioPoint]:
        if self.explicit is not None:
            return list(self.explicit)
        self._check_machine_axes()
        keys = list(self.grid)
        pts: List[ScenarioPoint] = []
        for values in itertools.product(*(self.grid[k] for k in keys)):
            params = dict(self.fixed)
            spec = self.machine
            overrides: Dict[str, Any] = {}
            for key, val in zip(keys, values):
                if key.startswith("machine."):
                    overrides[key[len("machine."):]] = val
                else:
                    params[key] = val
            if overrides:
                spec = spec.override(**overrides)
            pts.append(ScenarioPoint(self.kernel, spec, params))
        return pts

    def _check_machine_axes(self) -> None:
        """Reject grid axes over machine fields the kernel never reads.

        A kernel produces the same record for every value of a field
        its record does not declare
        (:attr:`repro.lab.params.Kernel.machine_fields`), so such an axis
        would sweep identical points (and, under projected cache keys,
        collapse onto one cache entry) — a silent no-op grid.  Failing
        at scenario validation keeps the mistake loud.
        """
        fields = machine_fields(self.kernel)
        for key in self.grid:
            if not key.startswith("machine."):
                continue
            name = key[len("machine."):]
            hint = ("; use --hw KEY=VALUE to sweep cost-model rates"
                    if "hw" in fields else "")
            require(
                name in fields,
                f"kernel {self.kernel!r} does not read machine.{name}; "
                f"sweeping it would produce identical points (relevant "
                f"machine fields: {sorted(fields) or 'none'}{hint})")

    def failed_claims(self, results: List[Any],
                      quick: bool = False) -> List[str]:
        """The names of the claims *results* break; on *quick* results
        the :attr:`full_only` claims are not evaluated."""
        return [name for name, holds in self.claims.items()
                if not (quick and name in self.full_only)
                and not holds(self, results)]

    def render(self, results: List[Any]) -> str:
        if self.report is not None:
            return self.report(self, results)
        return _default_report(self, results)

    def with_overrides(self, sets: Optional[Mapping[str, Any]] = None,
                       hw: Optional[Mapping[str, float]] = None,
                       ) -> "Scenario":
        """A copy with ``--set``-style overrides applied.

        *sets* keys become fixed kernel parameters (``machine.<field>``
        keys override the machine spec instead); a key that names a grid
        axis pins it, removing the axis.  Explicit points of several
        kernels take a key only where their kernel declares it.  *hw* merges
        :class:`~repro.distributed.costmodel.HwParams` overrides into
        every machine (see :meth:`MachineSpec.with_hw`).

        Presets whose points are a *coupled* family (the table1/table2/
        sec7-nvm/lu-tradeoff decompositions, where e.g. ``P`` means one
        thing to the analytic cells and another to the small executed
        cross-check) carry a ``rebuild`` hook in :attr:`meta`; parameter
        overrides are routed through it so the whole family — headline
        cells, dominance point, validation geometry — stays consistent.
        Elsewhere parameter overrides merge into every point; reports
        may assume the preset's geometry — overriding it is a power
        tool.
        """
        sets = dict(sets or {})
        hw = dict(hw or {})
        if not sets and not hw:
            return self
        machine_over = {k[len("machine."):]: v for k, v in sets.items()
                        if k.startswith("machine.")}
        param_over = {k: v for k, v in sets.items()
                      if not k.startswith("machine.")}

        rebuild = self.meta.get("rebuild")
        if param_over and rebuild is not None:
            try:
                # Bind first so only genuinely unsupported *keys* are
                # reported here; a bad *value* raises from the factory
                # body with its own (accurate) error.
                inspect.signature(rebuild).bind(**param_over)
            except TypeError:
                raise ValueError(
                    f"scenario {self.name!r} does not accept override(s) "
                    f"{sorted(param_over)}; see its factory signature for "
                    f"the supported keys") from None
            rebuilt = rebuild(**param_over)
            machine_sets = {k: v for k, v in sets.items()
                            if k.startswith("machine.")}
            return rebuilt.with_overrides(machine_sets, hw)

        def patch(spec: MachineSpec) -> MachineSpec:
            if machine_over:
                spec = spec.override(**machine_over)
            if hw:
                spec = spec.with_hw(**hw)
            return spec

        if self.explicit is not None:
            # A key goes to the points whose kernel takes it; a key no
            # kernel takes goes to every point, whose check refuses it.
            kernels = {pt.kernel for pt in self.explicit}
            takers = {key: {k for k in kernels if takes(k, key)} or kernels
                      for key in param_over}
            points = [
                ScenarioPoint(pt.kernel, patch(pt.machine),
                              {**pt.params,
                               **{k: v for k, v in param_over.items()
                                  if pt.kernel in takers[k]}})
                for pt in self.explicit
            ]
            return replace(self, machine=patch(self.machine),
                           explicit=points)
        return replace(
            self,
            machine=patch(self.machine),
            fixed={**self.fixed, **param_over},
            grid={k: v for k, v in self.grid.items() if k not in sets},
        )


#: a paper claim: does it hold on a preset's results (in point order)?
Claim = Callable[[Scenario, List[Any]], bool]


def claims_on(view: Callable[[Scenario, List[Any]], Any],
              preds: Mapping[str, Callable[[Any], bool]]
              ) -> Dict[str, Claim]:
    """Claims that each test one assembled *view* of the results (the
    rows a preset's report prints)."""
    def bind(pred: Callable[[Any], bool]) -> Claim:
        return lambda sc, res: bool(pred(view(sc, res)))
    return {name: bind(pred) for name, pred in preds.items()}


def _default_report(scenario: Scenario, results: List[Any]) -> str:
    """Flat table over the union of param and record columns, plus any
    machine fields that vary across the sweep (swept ``machine.<field>``
    axes must stay visible in the output)."""
    machines, which = distinct([res.point.machine for res in results])
    specs = [spec.as_dict() for spec in machines]
    varying = [k for k in (specs[0] if specs else {})
               if any(s[k] != specs[0][k] for s in specs)]
    shown = [{f"machine.{k}": s[k] for k in varying} for s in specs]
    rows = ResultSet.from_segments([
        list(map(shown.__getitem__, which)),
        [res.point.params for res in results],
        [res.record for res in results],
    ])
    return rows.format(title=f"scenario {scenario.name}")


def _preset(module: str, builder: str) -> Callable[[bool], Scenario]:
    """The factory of a preset whose *builder* lives in
    ``repro.experiments.<module>``, which it imports when called."""
    def factory(quick: bool = False) -> Scenario:
        artifact = importlib.import_module(f"repro.experiments.{module}")
        build: Callable[[bool], Scenario] = getattr(artifact, builder)
        return build(quick)
    return factory


#: Named presets: factory(quick) -> Scenario.  Each builds its scenario
#: in the module of the paper artifact it reproduces, next to the
#: artifact's claims, rows and report.
SCENARIOS: Dict[str, Callable[[bool], Scenario]] = {
    "fig2": _preset("fig2", "fig2_scenario"),
    "fig5": _preset("fig5", "fig5_scenario"),
    "sec3": _preset("sec3_negative", "sec3_scenario"),
    "sec4": _preset("sec4_counts", "sec4_scenario"),
    "sec5": _preset("sec5_co", "sec5_scenario"),
    "sec6": _preset("sec6_lru", "sec6_scenario"),
    "nvm-matmul": _preset("sec7_model1", "nvm_matmul_scenario"),
    "prop62": _preset("prop62", "prop62_scenario"),
    "table1": _preset("table1", "table1_scenario"),
    "table2": _preset("table2", "table2_scenario"),
    "sec7-nvm": _preset("sec7_model1", "sec7_scenario"),
    "sec8": _preset("sec8_ksm", "sec8_scenario"),
    "lu-tradeoff": _preset("lu_tradeoff", "lu_scenario"),
    "distributed": _preset("sec7_model1", "distributed_scenario"),
    "krylov": _preset("sec8_ksm", "krylov_scenario"),
    "cost-map": _preset("table2", "costmap_scenario"),
}


def get_scenario(name: str, quick: bool = False) -> Scenario:
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    return factory(quick)


# --------------------------------------------------------------------- #
# requests (CLI arguments or a POST /sweep body) -> scenarios
# --------------------------------------------------------------------- #
def parse_literal(value: Any) -> Any:
    """A CLI or JSON literal as a python value: a string spelling a
    bool, int or float becomes one (so ``"30"`` and ``30`` key the
    same); anything else passes through."""
    if not isinstance(value, str):
        return value
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _literal_map(obj: Any, what: str) -> Dict[str, Any]:
    if obj is None:
        return {}
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what!r} must be an object of key -> value")
    return {str(k): parse_literal(v) for k, v in obj.items()}


def _literal_axis(values: Any) -> List[Any]:
    """A grid axis: a list, one scalar (a pinned axis) or the CLI's
    comma-separated string (``"2,30"``)."""
    if isinstance(values, str):
        values = values.split(",")
    elif not isinstance(values, Sequence):
        values = [values]
    return [parse_literal(v) for v in values]


def build_scenario(preset: Optional[str] = None, *, quick: Any = False,
                   kernel: Optional[str] = None, machine: Any = "sim-l3",
                   sets: Any = None, hw: Any = None, grid: Any = None
                   ) -> Scenario:
    """The scenario a request names — the one parser behind ``repro-lab
    run``/``sweep``/``report`` and ``POST /sweep``.

    A *preset* is a :data:`SCENARIOS` name: *quick* picks its geometry
    and a *grid* is rejected (the preset defines it).  Otherwise
    *kernel* on the *machine* preset sweeps the cartesian *grid*.
    Either way *sets*/*hw* apply through :meth:`Scenario.with_overrides`:
    a ``machine.<field>`` set overrides that machine field, any other
    set is a fixed parameter (pinning a grid axis of that name), and
    *hw* merges into the machine.  Every value may be a string
    literal (:func:`parse_literal`), and a grid axis a comma-separated
    string.  Raises ``ValueError`` on anything malformed; a ``set`` key
    the kernel does not declare is refused when the points are formed
    (:meth:`Scenario.points`).
    """
    sets = _literal_map(sets, "set")
    hw = _literal_map(hw, "hw")
    if grid is not None and not isinstance(grid, Mapping):
        raise ValueError("'grid' must be an object of key -> values")
    if preset:
        if grid:
            raise ValueError("a grid cannot be combined with a preset "
                             "(the preset defines the grid; pin axes "
                             "with set)")
        scenario = get_scenario(str(preset), quick=bool(parse_literal(quick)))
        return scenario.with_overrides(sets, hw=hw)
    if kernel is None:
        raise ValueError("request must name a preset scenario or a kernel")
    kernel_params(str(kernel))  # an unknown kernel raises here
    return Scenario(
        name="adhoc",
        kernel=str(kernel),
        machine=resolve_machine(str(machine)),
        description="ad-hoc sweep",
        grid={str(k): _literal_axis(v) for k, v in (grid or {}).items()},
    ).with_overrides(sets, hw=hw)
