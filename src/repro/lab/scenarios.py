"""Declarative scenario specs, cartesian expansion, and named presets.

A :class:`Scenario` is a parameter grid over a kernel and a machine; its
:meth:`~Scenario.points` expand to concrete :class:`ScenarioPoint`\\ s, the
unit the executor runs and the result cache keys.  Presets in
:data:`SCENARIOS` reproduce every table and figure of the paper point by
point (so sweeps parallelize and cache at the finest grain) and add
NVM-style machine sweeps the paper never ran.

Report helpers (:func:`fig2_rows`, :func:`fig5_rows`, :func:`sec6_rows`)
reassemble point records into the row structures the ``format_*``
layouts of :mod:`repro.experiments` print; ``tests/golden/`` pins each
rendered table byte for byte.  A layout, and a preset builder that
lives in :mod:`repro.experiments`, is imported when its preset is built
or rendered, so a request loads only its own preset's code.
:func:`build_scenario` turns a request (CLI arguments or a ``POST
/sweep`` body) into a :class:`Scenario`.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List,
                    Mapping, Optional, Sequence)

from repro.lab.registry import (
    KERNELS,
    MACHINES,
    MachineSpec,
    check_point,
    kernel_params,
    machine_fields,
    project_machine,
    resolve_machine,
    takes,
)
from repro.lab.results import ResultSet, distinct
from repro.util import format_table, require

if TYPE_CHECKING:
    from repro.experiments.fig2 import Fig2Config

__all__ = [
    "Scenario",
    "ScenarioPoint",
    "SCENARIOS",
    "get_scenario",
    "build_scenario",
    "fig2_config",
    "fig2_scenario",
    "fig5_scenario",
    "sec6_scenario",
    "nvm_matmul_scenario",
    "prop62_scenario",
    "distributed_scenario",
    "krylov_scenario",
    "costmap_scenario",
    "sec3_scenario",
    "sec4_scenario",
    "sec5_scenario",
    "sec8_scenario",
    "claims_on",
    "fig2_rows",
    "fig5_rows",
    "sec6_rows",
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
        reads (:data:`repro.lab.registry.MACHINE_FIELDS`), so renaming a
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
            fn = KERNELS[self.kernel]
        except KeyError:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"available: {sorted(KERNELS)}"
            ) from None
        return fn(self.machine, self.params)


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
        declared parameters (:data:`repro.lab.registry.PARAMS`): a
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
        if decl is None:
            return pts
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

        A kernel with declared machine relevance
        (:data:`repro.lab.registry.MACHINE_FIELDS`) produces the same
        record for every value of an unread field, so such an axis
        would sweep identical points (and, under projected cache keys,
        collapse onto one cache entry) — a silent no-op grid.  Failing
        at scenario validation keeps the mistake loud.
        """
        fields = machine_fields(self.kernel)
        if fields is None:
            return
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


# --------------------------------------------------------------------- #
# report assemblers (records -> the row structures format_* print)
# --------------------------------------------------------------------- #
def _counter_rows(chunk: List[Any], middles: Sequence[int]
                  ) -> Dict[str, Any]:
    p0 = chunk[0].point.params
    return {
        "scheme": p0["scheme"],
        "b3": p0["b3"],
        "middles": list(middles),
        "VICTIMS.M": [r.record["writebacks"] for r in chunk],
        "VICTIMS.E": [r.record["victims_e"] for r in chunk],
        "FILLS.E": [r.record["fills"] for r in chunk],
        "write_lb": [r.record["write_lb"] for r in chunk],
    }


def _chunks(items: List[Any], size: int) -> List[List[Any]]:
    require(len(items) % size == 0, "result list does not tile the grid")
    return [items[i:i + size] for i in range(0, len(items), size)]


def fig2_rows(scenario: Scenario, results: List[Any]
              ) -> List[Dict[str, Any]]:
    """Reassemble point records into the panels :func:`format_fig2`
    prints."""
    cfg: Fig2Config = scenario.meta["cfg"]
    rows = [_counter_rows(c, cfg.middles)
            for c in _chunks(results, len(cfg.middles))]
    from repro.experiments.fig2 import fig2_ideal_misses

    rows[0]["ideal_misses"] = fig2_ideal_misses(cfg)
    return rows


def fig5_rows(scenario: Scenario, results: List[Any]
              ) -> Dict[str, List[Dict[str, Any]]]:
    """Reassemble point records into the columns :func:`format_fig5`
    prints."""
    cfg: Fig2Config = scenario.meta["cfg"]
    out: Dict[str, List[Dict[str, Any]]] = {"multilevel-wa": [],
                                            "two-level-ab": []}
    col_of = {"wa-multilevel": "multilevel-wa", "ab-multilevel": "two-level-ab"}
    for chunk in _chunks(results, len(cfg.middles)):
        row = _counter_rows(chunk, cfg.middles)
        out[col_of[row["scheme"]]].append(row)
    return out


def sec6_rows(scenario: Scenario, results: List[Any]
              ) -> List[Dict[str, Any]]:
    """Reassemble point records into the rows :func:`format_sec6`
    prints."""
    floor = scenario.meta["floor"]
    rows = []
    for res in results:
        rows.append({
            "scheme": res.point.params["scheme"],
            "capacity_blocks": res.point.params["cache_blocks"],
            "policy": res.point.machine.policy,
            "writebacks": res.record["writebacks"],
            "floor": floor,
            "ratio": res.record["writebacks"] / floor,
            "fills": res.record["fills"],
        })
    return rows


def _flat_rows(results: List[Any]) -> List[Dict[str, Any]]:
    """Each point's params and record as one row."""
    return [{**res.point.params, **res.record} for res in results]


# Each report imports its preset's layout when the table is rendered.
def _fig2_report(scenario: Scenario, results: List[Any]) -> str:
    from repro.experiments.fig2 import format_fig2

    return format_fig2(fig2_rows(scenario, results))


def _fig5_report(scenario: Scenario, results: List[Any]) -> str:
    from repro.experiments.fig5 import format_fig5

    return format_fig5(fig5_rows(scenario, results))


def _sec6_report(scenario: Scenario, results: List[Any]) -> str:
    from repro.experiments.sec6_lru import format_sec6

    return format_sec6(sec6_rows(scenario, results))


def _sec3_report(scenario: Scenario, results: List[Any]) -> str:
    from repro.experiments.sec3_negative import format_sec3

    return format_sec3(_flat_rows(results))


def _sec4_report(scenario: Scenario, results: List[Any]) -> str:
    from repro.experiments.sec4_counts import format_sec4

    return format_sec4(_flat_rows(results))


def _sec5_report(scenario: Scenario, results: List[Any]) -> str:
    from repro.experiments.sec5_co import format_sec5

    return format_sec5(_flat_rows(results))


def _last(row: Dict[str, Any], counter: str = "VICTIMS.M") -> Any:
    """A panel row's counter at the largest middle dimension."""
    return row[counter][-1]


# --------------------------------------------------------------------- #
# presets
# --------------------------------------------------------------------- #
def fig2_config(quick: bool) -> Fig2Config:
    """The scaled-down Figure-2/5 geometry of the fig2 and fig5 presets."""
    from repro.experiments.fig2 import Fig2Config

    if quick:
        return Fig2Config(n_outer=48, middles=(4, 16, 64), line_size=4,
                          b2=8, base=4)
    return Fig2Config(n_outer=96, middles=(8, 32, 128, 256), line_size=4,
                      b2=8, base=4)


def fig2_scenario(quick: bool = False,
                  cfg: Optional[Fig2Config] = None) -> Scenario:
    """Figure 2 decomposed into one point per (variant, middle)."""
    from repro.experiments.fig2 import fig2_variants

    cfg = cfg or fig2_config(quick)
    floor = cfg.n_outer ** 2 // cfg.line_size
    machine = MachineSpec(name="fig2-l3", cache_words=cfg.cache(),
                          line_size=cfg.line_size, policy=cfg.policy)
    points = [
        ScenarioPoint("matmul-cache", machine,
                      {"n": cfg.n_outer, "middle": m, "scheme": scheme,
                       "b3": b3, "b2": cfg.b2, "base": cfg.base})
        for scheme, b3 in fig2_variants(cfg)
        for m in cfg.middles
    ]
    return Scenario(
        name="fig2",
        kernel="matmul-cache",
        machine=machine,
        description="Figure 2: L3 counters of six matmul orders vs the "
                    "middle dimension",
        explicit=points,
        report=_fig2_report,
        meta={"cfg": cfg},
        claims=claims_on(fig2_rows, {
            "co-writebacks-grow-4x":
                lambda r: _last(r[0]) > 4 * r[0]["VICTIMS.M"][0],
            "co-ends-4x-above-floor": lambda r: _last(r[0]) > 4 * floor,
            "mkl-at-least-co": lambda r: _last(r[1]) >= _last(r[0]),
            "wa-under-half-of-co":
                lambda r: all(_last(w) < _last(r[0]) / 2 for w in r[2:]),
            "smallest-blocking-fewest-writebacks":
                lambda r: _last(r[2]) <= _last(r[-1]),
            "smallest-blocking-most-e-fills":
                lambda r: _last(r[2], "FILLS.E") >= _last(r[-1], "FILLS.E"),
        }),
        # at --quick size CO ends at exactly 4x its start and the floor
        full_only=frozenset({"co-writebacks-grow-4x",
                             "co-ends-4x-above-floor"}),
    )


def fig5_scenario(quick: bool = False,
                  cfg: Optional[Fig2Config] = None) -> Scenario:
    """Figure 5 decomposed into one point per (column, blocking, middle)."""
    cfg = cfg or fig2_config(quick)
    floor = cfg.n_outer ** 2 // cfg.line_size
    machine = MachineSpec(name="fig5-l3", cache_words=cfg.cache(),
                          line_size=cfg.line_size, policy=cfg.policy)
    points = [
        ScenarioPoint("matmul-cache", machine,
                      {"n": cfg.n_outer, "middle": m, "scheme": scheme,
                       "b3": b3, "b2": cfg.b2, "base": cfg.base})
        for b3 in cfg.b3_sizes()
        for scheme in ("wa-multilevel", "ab-multilevel")
        for m in cfg.middles
    ]
    return Scenario(
        name="fig5",
        kernel="matmul-cache",
        machine=machine,
        description="Figure 5: multi-level WA vs slab order under LRU",
        explicit=points,
        report=_fig5_report,
        meta={"cfg": cfg},
        claims=claims_on(fig5_rows, {
            "wa-largest-blocking-over-2x-floor":
                lambda c: _last(c["multilevel-wa"][-1]) > 2 * floor,
            "ab-largest-blocking-under-1.5x-floor":
                lambda c: _last(c["two-level-ab"][-1]) < 1.5 * floor,
            "wa-smallest-blocking-under-2x-floor":
                lambda c: _last(c["multilevel-wa"][0]) < 2 * floor,
            "ab-smallest-blocking-under-1.5x-floor":
                lambda c: _last(c["two-level-ab"][0]) < 1.5 * floor,
            "ab-e-fills-within-1.2x-of-wa-smallest":
                lambda c: (_last(c["two-level-ab"][-1], "FILLS.E")
                           <= _last(c["multilevel-wa"][0], "FILLS.E") * 1.2),
        }),
    )


def sec6_scenario(
    quick: bool = False,
    *,
    n: Optional[int] = None,
    middle: Optional[int] = None,
    b3: int = 16,
    b2: int = 8,
    base: int = 4,
    line: int = 4,
    policies: Sequence[str] = ("lru", "clock", "segmented-lru", "belady"),
    schemes: Sequence[str] = ("wa2", "ab-multilevel", "wa-multilevel"),
) -> Scenario:
    """Section 6 policy study as a scheme x capacity x policy grid."""
    n = n if n is not None else (32 if quick else 64)
    middle = middle if middle is not None else (32 if quick else 128)
    machine = MachineSpec(name="sec6-l3", line_size=line, policy="lru")
    return Scenario(
        name="sec6",
        kernel="matmul-cache",
        machine=machine,
        description="Section 6: write-backs vs output floor across "
                    "replacement policies and capacities",
        fixed={"n": n, "middle": middle, "b3": b3, "b2": b2, "base": base},
        grid={
            "scheme": list(schemes),
            "cache_blocks": [3, 4, 5],
            "machine.policy": list(policies),
        },
        report=_sec6_report,
        meta={"floor": n * n // line},
        claims=claims_on(_sec6_view, {
            "prop61-wa2-lru-5-blocks-at-floor":
                lambda v: v["wa2", 5, "lru"]["writebacks"] == n * n // line,
            "ab-lru-3-blocks-under-1.2x-floor":
                lambda v: v["ab-multilevel", 3, "lru"]["ratio"] < 1.2,
            "wa-multilevel-lru-3-blocks-over-1.5x-floor":
                lambda v: v["wa-multilevel", 3, "lru"]["ratio"] > 1.5,
            "belady-fills-at-most-lru":
                lambda v: all(v[s, b, "belady"]["fills"]
                              <= v[s, b, "lru"]["fills"]
                              for s in ("wa2", "ab-multilevel")
                              for b in (3, 5)),
            "clock-wa2-5-blocks-within-3x-of-lru":
                lambda v: (v["wa2", 5, "clock"]["writebacks"]
                           <= 3 * v["wa2", 5, "lru"]["writebacks"]),
        }),
    )


def _sec6_view(scenario: Scenario, results: List[Any]
               ) -> Dict[Any, Dict[str, Any]]:
    """The sec6 rows by (scheme, capacity in blocks, policy)."""
    return {(r["scheme"], r["capacity_blocks"], r["policy"]): r
            for r in sec6_rows(scenario, results)}


def nvm_matmul_scenario(quick: bool = False) -> Scenario:
    """NEW: matmul orders on NVM-style machines with asymmetric costs.

    Sweeps the slow-side write energy from symmetric (battery-backed DRAM)
    to PCM-like 30x, on a cache sized so that only ~3 blocks fit — the
    regime where instruction order decides the write bill.
    """
    n = 32 if quick else 64
    b3 = max(4, n // 4)
    machine = MACHINES["nvm-pcm"].override(
        name="nvm-sweep", cache_words=3 * b3 * b3 + 4, line_size=4)
    return Scenario(
        name="nvm-matmul",
        kernel="matmul-cache",
        machine=machine,
        description="NVM provisioning: slow-memory energy of matmul orders "
                    "as the write/read cost asymmetry grows",
        fixed={"n": n, "middle": 2 * n, "b3": b3, "b2": max(4, b3 // 2),
               "base": 4},
        grid={
            "scheme": ["co", "mkl-like", "wa2", "ab-multilevel"],
            "machine.write_slow": [2.0, 8.0, 30.0],
        },
        report=_nvm_report,
    )


def _nvm_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["scheme", "write_slow", "writebacks", "fills", "energy",
               "energy/floor-energy"]
    body = []
    for res in results:
        m = res.point.machine
        floor_energy = m.line_size * (
            res.record["fills"] * m.read_slow
            + res.record["write_lb"] * m.write_slow
        )
        body.append([
            res.point.params["scheme"],
            m.write_slow,
            res.record["writebacks"],
            res.record["fills"],
            res.record["energy"],
            round(res.record["energy"] / floor_energy, 3),
        ])
    return format_table(
        headers, body,
        title="NVM sweep — slow-boundary energy by instruction order and "
              "write-cost asymmetry (floor = same fills, write-floor "
              "write-backs)")


def prop62_scenario(quick: bool = False) -> Scenario:
    """Proposition 6.2 across kernels: the TRSM, Cholesky and N-body
    write floors vs capacity, under LRU and the offline optimum.

    One point per (kernel, capacity, policy); every (kernel, policy)
    column is a pure capacity sweep over one memoized line trace, so the
    executor collapses the whole scenario into one batched replay per
    kernel (LRU and Belady share it — both are stack algorithms).
    """
    line = 4
    if quick:
        geometries = (("trsm-cache", {"n": 16, "m": 8, "b": 4}),
                      ("cholesky-cache", {"n": 16, "b": 4}),
                      ("nbody-cache", {"n": 32, "b": 8}))
    else:
        geometries = (("trsm-cache", {"n": 32, "m": 16, "b": 8}),
                      ("cholesky-cache", {"n": 32, "b": 8}),
                      ("nbody-cache", {"n": 64, "b": 8}))
    machine = MachineSpec(name="prop62-l3", line_size=line, policy="lru")
    points = [
        ScenarioPoint(kernel, machine.override(policy=policy),
                      dict(params, cache_blocks=blocks))
        for kernel, params in geometries
        for blocks in (1, 2, 3, 4, 5, 6)
        for policy in ("lru", "belady")
    ]
    return Scenario(
        name="prop62",
        kernel="trsm-cache",
        machine=machine,
        description="Proposition 6.2: TRSM/Cholesky/N-body write-backs "
                    "vs the output floor across capacities and policies",
        explicit=points,
        report=_prop62_report,
        claims=claims_on(_prop62_view, {
            "writebacks-at-least-floor":
                lambda v: all(rec["writebacks"] >= rec["write_lb"]
                              for rec in v.values()),
            "lru-at-floor-from-3-blocks":
                lambda v: all(rec["writebacks"] == rec["write_lb"]
                              for (_, blocks, policy), rec in v.items()
                              if policy == "lru" and blocks >= 3),
            "belady-fills-at-most-lru":
                lambda v: all(rec["fills"] <= v[kernel, blocks, "lru"]["fills"]
                              for (kernel, blocks, policy), rec in v.items()
                              if policy == "belady"),
        }),
    )


def _prop62_view(scenario: Scenario, results: List[Any]
                 ) -> Dict[Any, Dict[str, Any]]:
    """Records by (kernel, capacity in blocks, policy)."""
    return {(res.point.kernel, res.point.params["cache_blocks"],
             res.point.machine.policy): res.record for res in results}


def _prop62_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["kernel", "cache (blocks)", "policy", "write-backs",
               "floor", "ratio", "fills"]
    body = []
    for res in results:
        rec = res.record
        body.append([
            res.point.kernel,
            res.point.params["cache_blocks"],
            res.point.machine.policy,
            rec["writebacks"],
            rec["write_lb"],
            round(rec["writebacks"] / rec["write_lb"], 2),
            rec["fills"],
        ])
    return format_table(
        headers, body,
        title="Proposition 6.2 — write-backs vs output floor (five b-blocks "
              "suffice for TRSM/Cholesky; three for N-body)")


def distributed_scenario(quick: bool = False) -> Scenario:
    """Every executed distributed algorithm as one verified, counted
    point: both SUMMA flavours (Model 1), the Model-2.2 pair exhibiting
    the Theorem-4 trade-off, 2.5D replication, and both LU variants."""
    machine = MachineSpec(name="dist-sim")
    if quick:
        n, P, M1, M2 = 16, 4, 3 * 16, 3 * 2 * 2
    else:
        n, P, M1, M2 = 32, 16, 3 * 16, 3 * 4 * 4
    points = [
        ScenarioPoint("summa-2d", machine,
                      {"n": n, "P": P, "M1": M1, "hoard": False, "seed": 0}),
        ScenarioPoint("summa-2d", machine,
                      {"n": n, "P": P, "M1": M1, "hoard": True, "seed": 0}),
        ScenarioPoint("summa-l3-ool2", machine,
                      {"n": n, "P": P, "M2": M2, "seed": 1}),
        ScenarioPoint("mm-25d", machine,
                      {"n": n, "P": P, "c": 1, "storage": "L3-ooL2",
                       "M2": M2, "seed": 1}),
        ScenarioPoint("mm-25d", machine,
                      {"n": 8 if quick else 16, "P": 8, "c": 2, "seed": 0}),
        ScenarioPoint("lu-ll-nonpivot", machine,
                      {"n": n, "b": 4, "P": 4, "seed": 0}),
        ScenarioPoint("lu-rl-nonpivot", machine,
                      {"n": n, "b": 4, "P": 4, "seed": 0}),
    ]
    return Scenario(
        name="distributed",
        kernel="summa-2d",
        machine=machine,
        description="Executed distributed kernels: SUMMA / 2.5D / LU, "
                    "verified, with per-rank channel counters",
        explicit=points,
        report=_distributed_report,
    )


def _distributed_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["kernel", "n", "P", "correct", "net recv (max)",
               "NVM writes (max)", "NVM reads (max)", "L1→L2 (max)"]
    body = []
    for res in results:
        p, rec = res.point.params, res.record
        body.append([
            res.point.kernel, p["n"], p["P"], rec["correct"],
            rec["nw_recv_max"], rec["l2_to_l3_max"], rec["l3_to_l2_max"],
            rec["l1_to_l2_max"],
        ])
    return format_table(
        headers, body,
        title="Distributed kernels — executed and verified, per-rank "
              "maxima on the paper's channels")


def krylov_scenario(quick: bool = False) -> Scenario:
    """Section 8 as a sweep: CG vs (streaming) CA-CG vs (CA-)GMRES plus
    the matrix-powers and TSQR building blocks, one point per method
    configuration with slow-memory read/write/flop counters."""
    machine = MachineSpec(name="krylov-sim")
    mesh = 128 if quick else 256
    block = 32 if quick else 64
    s_values = (2, 4) if quick else (2, 4, 8)
    fixed = {"mesh": mesh, "block": block}
    points = [ScenarioPoint("krylov-cg", machine, {"mesh": mesh})]
    points += [
        ScenarioPoint("krylov-cacg", machine,
                      {**fixed, "s": s, "streaming": streaming})
        for s in s_values
        for streaming in (False, True)
    ]
    points += [
        ScenarioPoint("krylov-gmres", machine,
                      {**fixed, "s": 4, "variant": variant})
        for variant in ("restarted", "ca")
    ]
    points += [
        ScenarioPoint("krylov-matrix-powers", machine,
                      {**fixed, "s": 4, "variant": variant})
        for variant in ("naive", "blocked", "streaming")
    ]
    points += [
        ScenarioPoint("krylov-tsqr", machine,
                      {**fixed, "s": 4, "variant": variant})
        for variant in ("stored", "streaming")
    ]
    return Scenario(
        name="krylov",
        kernel="krylov-cacg",
        machine=machine,
        description="Krylov methods: write traffic of CG / CA-CG / "
                    "GMRES and the matrix-powers / TSQR kernels",
        explicit=points,
        report=_krylov_report,
    )


def _krylov_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["method", "s", "steps", "reads", "writes", "writes/step",
               "flops", "converged"]
    body = []
    for res in results:
        rec = res.record
        body.append([
            rec["method"], rec.get("s", 1), rec.get("steps", ""),
            rec["reads"], rec["writes"],
            round(rec["writes_per_step"], 1), rec["flops"],
            rec.get("converged", ""),
        ])
    return format_table(
        headers, body,
        title=f"Krylov sweep — slow-memory traffic "
              f"(mesh={scenario.explicit[0].params['mesh']}); streaming "
              f"variants cut writes by Θ(s)")


def costmap_scenario(quick: bool = False) -> Scenario:
    """NEW: an analytic provisioning map over (P, c3) for the Model-2.2
    NVM-staged 2.5D matmul.

    Pure closed-form arithmetic, so the executor evaluates the whole
    grid as one vectorized ``cost-*`` batch (``--no-batch`` opts out);
    the c3 axis deliberately runs past each P's ``c3 <= P^(1/3)`` edge,
    where points report ``feasible: False`` — provisioning questions
    are exactly about walking past those edges.
    """
    machine = MACHINES["hw-2015"]
    P_axis = [64, 256, 1024] if quick else [64, 256, 1024, 4096, 16384]
    c3_axis = [1, 2, 4, 8] if quick else [1, 2, 4, 8, 16, 32]
    return Scenario(
        name="cost-map",
        kernel="cost-25d-mm-l3-ool2",
        machine=machine,
        description="Provisioning map: 2.5DMML3ooL2 analytic cost over "
                    "(P, c3), one vectorized batch",
        fixed={"n": 1 << 14},
        grid={"P": P_axis, "c3": c3_axis},
    )


def sec3_scenario(quick: bool = False) -> Scenario:
    """Section 3: one ``cdag-pebble`` point per (algorithm, n).  The
    CDAGs are small, so the quick geometry is the full one."""
    machine = MachineSpec(name="pebble")
    cases = ([("fft", n, 16) for n in (64, 256, 1024)]
             + [("strassen", n, 16) for n in (4, 8)]
             + [("matmul", n, 3 * n) for n in (4, 6, 8)])
    return Scenario(
        name="sec3",
        kernel="cdag-pebble",
        machine=machine,
        description="Section 3: pebbled FFT/Strassen/matmul stores vs "
                    "the Theorem-2 bound",
        explicit=[ScenarioPoint("cdag-pebble", machine,
                                {"algorithm": alg, "n": n, "M": M})
                  for alg, n, M in cases],
        report=_sec3_report,
        claims=claims_on(lambda sc, res: _flat_rows(res), {
            "fft-strassen-stores-at-least-theorem2":
                lambda r: all(x["stores"] >= x["theorem2_lb"]
                              for x in _of(r, "fft", "strassen")),
            "fft-strassen-stores-over-0.2-of-traffic":
                lambda r: all(x["store_fraction"] > 0.2
                              for x in _of(r, "fft", "strassen")),
            "largest-fft-stores-over-3x-output":
                lambda r: (_of(r, "fft")[-1]["stores"]
                           > 3 * _of(r, "fft")[-1]["output_size"]),
            "fft-stores-superlinear-in-n":
                lambda r: (_of(r, "fft")[-1]["stores"]
                           / _of(r, "fft")[0]["stores"]
                           > _of(r, "fft")[-1]["n"] / _of(r, "fft")[0]["n"]),
            "wa-matmul-stores-equal-output":
                lambda r: all(x["stores"] == x["output_size"]
                              for x in _of(r, "matmul")),
        }),
    )


def _of(rows: List[Dict[str, Any]], *algorithms: str
        ) -> List[Dict[str, Any]]:
    """The rows of the named algorithms, in point order."""
    return [r for r in rows if r["algorithm"] in algorithms]


def sec4_scenario(quick: bool = False) -> Scenario:
    """Section 4: one ``twolevel-counts`` point per (algorithm, variant)
    at n=32, b=4 (quick is the full geometry)."""
    machine = MachineSpec(name="two-level")
    cases = ([("matmul", order)
              for order in ("ijk", "jik", "ikj", "kij", "jki", "kji")]
             + [(alg, variant) for alg in ("trsm", "cholesky")
                for variant in ("left-looking", "right-looking")]
             + [("nbody2", "blocked"), ("nbody2", "symmetry"),
                ("nbody3", "blocked")])
    return Scenario(
        name="sec4",
        kernel="twolevel-counts",
        machine=machine,
        description="Section 4: writes of the WA kernels and their "
                    "non-WA variants on a two-level memory",
        explicit=[ScenarioPoint("twolevel-counts", machine,
                                {"algorithm": alg, "variant": variant,
                                 "n": 32, "b": 4, "seed": 0})
                  for alg, variant in cases],
        report=_sec4_report,
        claims=claims_on(_sec4_view, {
            "k-innermost-matmul-writes-equal-output":
                lambda v: all(v["matmul", o]["writes_to_slow"]
                              == v["matmul", o]["output_size"]
                              for o in ("ijk", "jik")),
            "other-matmul-orders-write-over-2x-output":
                lambda v: all(v["matmul", o]["writes_to_slow"]
                              > 2 * v["matmul", o]["output_size"]
                              for o in ("ikj", "kij", "jki", "kji")),
            "trsm-left-looking-wa": lambda v: v["trsm", "left-looking"]["wa"],
            "trsm-right-looking-not-wa":
                lambda v: not v["trsm", "right-looking"]["wa"],
            "cholesky-left-looking-wa":
                lambda v: v["cholesky", "left-looking"]["wa"],
            "cholesky-right-looking-not-wa":
                lambda v: not v["cholesky", "right-looking"]["wa"],
            "nbody2-blocked-wa": lambda v: v["nbody2", "blocked"]["wa"],
            "nbody2-symmetry-not-wa":
                lambda v: not v["nbody2", "symmetry"]["wa"],
            "nbody3-blocked-wa": lambda v: v["nbody3", "blocked"]["wa"],
            "theorem1-every-row": lambda v: all(r["theorem1"]
                                                for r in v.values()),
        }),
    )


def _sec4_view(scenario: Scenario, results: List[Any]
               ) -> Dict[Any, Dict[str, Any]]:
    """Rows by (algorithm, variant)."""
    return {(r["algorithm"], r["variant"]): r
            for r in _flat_rows(results)}


def sec5_scenario(quick: bool = False) -> Scenario:
    """Section 5: CO vs WA matmul stores over the fast-memory size M
    (quick is the full geometry)."""
    return Scenario(
        name="sec5",
        kernel="co-vs-wa",
        machine=MachineSpec(name="two-level"),
        description="Section 5: cache-oblivious matmul stores vs WA's "
                    "n² as fast memory grows",
        fixed={"n": 32, "seed": 0},
        grid={"M": [3 * 4, 3 * 16, 3 * 64]},
        report=_sec5_report,
        claims=claims_on(lambda sc, res: _flat_rows(res), {
            "co-stores-shrink-with-M":
                lambda r: r[0]["co_stores"] > r[-1]["co_stores"],
            "co-over-4x-output-at-smallest-M":
                lambda r: r[0]["co_over_output"] > 4,
            "wa-stores-equal-output":
                lambda r: all(x["wa_stores"] == x["output"] for x in r),
            "co-stores-over-wa":
                lambda r: all(x["co_stores"] > x["wa_stores"] for x in r),
        }),
    )


def sec8_scenario(quick: bool = False) -> Scenario:
    """Section 8: CG against plain and streaming CA-CG over s, on a 1-D
    stencil of ``mesh`` points."""
    W = "writes_per_step"
    machine = MachineSpec(name="krylov-sim")
    mesh = 128 if quick else 256
    block = 32 if quick else 64
    points = [ScenarioPoint("krylov-cg", machine, {"mesh": mesh})]
    points += [
        ScenarioPoint("krylov-cacg", machine,
                      {"mesh": mesh, "block": block, "s": s,
                       "streaming": streaming})
        for s in (2, 4, 8)
        for streaming in (False, True)
    ]
    return Scenario(
        name="sec8",
        kernel="krylov-cacg",
        machine=machine,
        description="Section 8: CG vs (streaming) CA-CG writes per step",
        explicit=points,
        report=_sec8_report,
        claims=claims_on(_sec8_view, {
            "all-converge": lambda v: all(r["converged"] for r in v.values()),
            "streaming-writes-fall-with-s":
                lambda v: v["stream", 2][W] > v["stream", 4][W]
                > v["stream", 8][W],
            "streaming-s8-under-half-of-cg":
                lambda v: v["stream", 8][W] < v["cg", 1][W] / 2,
            "plain-cacg-s8-over-2x-streaming":
                lambda v: v["plain", 8][W] > 2 * v["stream", 8][W],
            "streaming-flops-within-2.1x-of-plain":
                lambda v: all(v["stream", s]["flops"]
                              <= 2.1 * v["plain", s]["flops"]
                              for s in (2, 4, 8)),
        }),
    )


def _sec8_view(scenario: Scenario, results: List[Any]
               ) -> Dict[Any, Dict[str, Any]]:
    """Rows by (CG, plain or streaming CA-CG, s)."""
    short = {"CG": "cg", "CA-CG": "plain", "CA-CG streaming": "stream"}
    return {(short[r["method"]], r.get("s", 1)): r
            for r in _flat_rows(results)}


def _sec8_report(scenario: Scenario, results: List[Any]) -> str:
    from repro.experiments.sec8_ksm import format_sec8

    p0 = results[0].point.params
    d = p0.get("d", 1)
    return format_sec8({"n": p0["mesh"] ** d, "d": d,
                        "rows": [{"s": 1, **r.record} for r in results]})


# The presets whose decomposition lives beside its layout in
# repro.experiments, imported when the preset is built.
def _table1(quick: bool = False) -> Scenario:
    from repro.experiments.table1 import table1_scenario

    return table1_scenario(quick)


def _table2(quick: bool = False) -> Scenario:
    from repro.experiments.table2 import table2_scenario

    return table2_scenario(quick)


def _sec7(quick: bool = False) -> Scenario:
    from repro.experiments.sec7_model1 import sec7_scenario

    return sec7_scenario(quick)


def _lu(quick: bool = False) -> Scenario:
    from repro.experiments.lu_tradeoff import lu_scenario

    return lu_scenario(quick)


#: Named presets: factory(quick) -> Scenario.
SCENARIOS: Dict[str, Callable[[bool], Scenario]] = {
    "fig2": fig2_scenario,
    "fig5": fig5_scenario,
    "sec3": sec3_scenario,
    "sec4": sec4_scenario,
    "sec5": sec5_scenario,
    "sec6": sec6_scenario,
    "nvm-matmul": nvm_matmul_scenario,
    "prop62": prop62_scenario,
    "table1": _table1,
    "table2": _table2,
    "sec7-nvm": _sec7,
    "sec8": sec8_scenario,
    "lu-tradeoff": _lu,
    "distributed": distributed_scenario,
    "krylov": krylov_scenario,
    "cost-map": costmap_scenario,
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
