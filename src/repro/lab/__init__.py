"""repro.lab — parallel scenario-sweep engine with persistent result caching.

The paper's evidence is sweep-shaped: every table and figure is a grid of
(kernel x machine geometry x replacement policy x problem size) runs.  This
subpackage turns those grids into first-class objects:

* :mod:`repro.lab.registry` — every kernel, machine model and replacement
  policy under a string key (:data:`KERNELS`, :data:`MACHINES`,
  :data:`POLICIES`), including NVM-style machines
  with asymmetric read/write costs and ``hw-*`` analytic cost-model
  presets (:class:`MachineSpec.hw_params`);
* :mod:`repro.lab.modelkernels` — point-level kernels for the Section-7
  cost models (``cost-*``), the executed distributed algorithms
  (``summa-2d``, ``mm-25d``, ``lu-*-nonpivot``) and the Section-8
  Krylov methods (``krylov-*``);
* :mod:`repro.lab.scenarios` — declarative :class:`Scenario` grids with
  cartesian expansion, the :data:`SCENARIOS` table of presets for every
  figure and table of the paper (``fig2``, ``fig5``, ``table1``,
  ``table2``, ``sec3``–``sec6``, ``sec7-nvm``, ``sec8``, ``prop62``,
  ``lu-tradeoff``) plus new sweeps (``nvm-matmul``, ``distributed``,
  ``krylov``, ``cost-map``), each built in its
  :mod:`repro.experiments` module, and :func:`build_scenario`, the one
  request parser of the CLI and the serve daemon;
* :mod:`repro.lab.executor` — :func:`execute` fans points out over
  ``multiprocessing`` workers;
* :mod:`repro.lab.cache` — :class:`ResultCache`, a content-addressed
  on-disk store keyed by point payload + code fingerprint, so repeated
  sweeps skip already-simulated points across processes and sessions;
* :mod:`repro.lab.results` — :class:`ResultSet` flat records, stored
  by column, with CSV/JSON export, aggregation and sweep-vs-sweep
  comparison;
* :mod:`repro.lab.telemetry` — :class:`RunTrace` structured run traces
  (spans, per-point path tags, cache counters, fastsim
  phase timings) streaming to JSONL, aggregated by
  :class:`MetricsRegistry` and rendered by ``repro-lab ... --trace`` /
  ``repro-lab trace {show,diff}``;
* :mod:`repro.lab.cli` — ``python -m repro.lab
  {list,run,sweep,report,trace,cache}``.

Quickstart::

    from repro.lab import ResultCache, execute, get_scenario

    scenario = get_scenario("fig2", quick=True)
    report = execute(scenario.points(), jobs=4, cache=ResultCache())
    print(scenario.render(report.results))   # Figure 2's tables
    print(report.cache_line(None))
"""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("ResultCache", "code_fingerprint", "default_cache_root"),
    "executor": ("MissingResultsError", "PointExecutionError", "PointResult",
                 "SweepReport", "execute"),
    "registry": ("KERNELS", "MACHINES", "POLICIES", "MachineSpec",
                 "resolve_machine"),
    "results": ("ResultSet",),
    "scenarios": ("SCENARIOS", "Scenario", "ScenarioPoint", "get_scenario"),
    "telemetry": ("MetricsRegistry", "RunTrace", "active_trace",
                  "render_attribution", "tracing"),
})
