"""``python -m repro.lab`` / ``repro-lab`` — the sweep engine's CLI.

Subcommands::

    repro-lab list                     # scenarios, kernels, machines, policies
    repro-lab run fig2 --quick --jobs 4
    repro-lab run nvm-matmul --csv out.csv
    repro-lab run table1 --jobs 4      # Table 1, one point per cell
    repro-lab run sec6 --set middle=64 --set machine.line_size=8
    repro-lab sweep --kernel matmul-cache --machine nvm-pcm \\
        --set n=32 --set middle=64 --set b3=8 --set b2=4 --set base=4 \\
        --grid scheme=co,wa2 --grid machine.write_slow=2,30 --jobs 2
    repro-lab sweep --kernel cost-25d-mm-l3 \\
        --grid c3=1,2,4,8 --grid P=64,256 --hw beta_23=30
    repro-lab sweep --preset sec6 --quick --trace   # preset sweep, traced
    repro-lab report fig2 --quick      # re-render from cache, compute nothing
    repro-lab trace show RUN.jsonl     # attribution table of a saved trace
    repro-lab trace diff A.jsonl B.jsonl
    repro-lab serve --port 8737 --jobs 4   # HTTP sweep daemon (hot cache)
    repro-lab cache stats              # result-cache inventory
    repro-lab cache gc                 # prune superseded code versions
    repro-lab check                    # static contract analyzer (R1-R5)
    repro-lab check --format json --output findings.json

Every ``run``/``sweep`` prints a final accounting line reporting how many
points were served from the persistent result cache.  Capacity sweeps
over fully-associative LRU machines are collapsed into single-replay
fastsim batches unless ``--no-multi-capacity`` is given, analytic
``cost-*`` grids are collapsed into vectorized batch evaluations unless
``--no-batch`` is given, and an in-process run builds each distinct
trace once.

With ``--trace`` (``run``/``sweep``) the engine records a structured run
trace (:mod:`repro.lab.telemetry`): a JSONL event stream written beside
the result cache (``<cache root>/runs/`` unless ``--trace-out`` names a
file) plus a post-run attribution table — execution path per point,
batch efficiency, cache hit rate with miss reasons, fastsim phase
timings.  Tracing never changes records or cache contents.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.lab import telemetry
from repro.lab.cache import ResultCache, default_cache_root
from repro.lab.executor import (MissingResultsError, PointExecutionError,
                                execute)
from repro.lab.faults import FAULTS_ENV, FaultPlan, plan_from_env
from repro.lab.registry import KERNELS, MACHINES, POLICIES
from repro.lab.results import ResultSet
from repro.lab.scenarios import SCENARIOS, Scenario, build_scenario
from repro.lab.telemetry import RunTrace
from repro.util import format_table

# perfbench/probe.py times a traced run's layers by wrapping entry points
# in the modules loaded once this module is imported; the super-symbol
# pass is one of them, though only a trace sweep calls it.
import repro.machine.fastsim.symbols  # noqa: F401,E402

__all__ = ["main"]


def _parse_kv(items: Optional[Sequence[str]]) -> Dict[str, str]:
    """Repeated ``KEY=VALUE`` arguments as a dict of raw strings (the
    values are literals :func:`build_scenario` parses)."""
    out: Dict[str, str] = {}
    for item in items or ():
        if "=" not in item:
            raise SystemExit(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        out[key] = raw
    return out


def _scenario(args: argparse.Namespace) -> Scenario:
    """The scenario a ``run``/``sweep``/``report`` invocation names."""
    return build_scenario(
        getattr(args, "scenario", None) or getattr(args, "preset", None),
        quick=args.quick, kernel=getattr(args, "kernel", None),
        machine=getattr(args, "machine", "sim-l3"),
        sets=_parse_kv(args.set), hw=_parse_kv(args.hw),
        grid=_parse_kv(getattr(args, "grid", None)))


def _jobs(raw: str) -> int:
    """``--jobs``: a worker count of at least 1."""
    jobs = int(raw)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _timeout(raw: str) -> float:
    """``--timeout``: a positive, finite number of seconds."""
    seconds = float(raw)
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of seconds, got {raw}")
    return seconds


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _make_run_trace(args: argparse.Namespace,
                    label: str) -> Optional[RunTrace]:
    """The :class:`RunTrace` this invocation should record into, or
    ``None``.  ``--trace-out FILE`` picks the sink explicitly; bare
    ``--trace`` writes a timestamped JSONL under ``<cache root>/runs``
    (beside the result cache, scoped by ``--cache-dir`` like it)."""
    out = getattr(args, "trace_out", None)
    if not getattr(args, "trace", False) and not out:
        return None
    if not out:
        root = (Path(args.cache_dir) if getattr(args, "cache_dir", None)
                else default_cache_root())
        out = telemetry.default_trace_path(root / "runs", label)
    return RunTrace(out, meta={"command": args.command, "scenario": label,
                               "jobs": getattr(args, "jobs", 1)})


def _render_failures(report) -> str:
    """The per-point failure table a degraded (``--keep-going``) sweep
    prints instead of burying errors in the flat export."""
    rows = []
    for res in report.failures():
        ident = res.record.get("point") or {}
        params = ", ".join(f"{k}={v}" for k, v in
                           sorted((ident.get("params") or {}).items()))
        rows.append([ident.get("kernel", res.point.kernel),
                     ident.get("machine", res.point.machine.name),
                     params,
                     res.record.get("attempts", "?"),
                     res.record.get("error", "?")])
    return format_table(["kernel", "machine", "params", "attempts",
                         "error"], rows, title="failed points")


def _finish(scenario: Scenario, report, cache, args,
            trace: Optional[RunTrace] = None) -> int:
    if report.failed:
        # Scenario renderers assume complete kernel records; a degraded
        # sweep shows the flat rows that exist plus a failure table
        # (the error-record internals stay in the exports).
        display = ResultSet([{k: v for k, v in row.items()
                              if k not in ("remote_traceback", "point")}
                             for row in ResultSet.from_report(report)])
        print(display.format(title=f"{scenario.name} — partial results "
                                   f"({report.failed} of {report.total} "
                                   f"point(s) failed)"))
        print(_render_failures(report))
        if cache is None or cache.disabled:
            print("[repro.lab] nothing was kept (caching is off); "
                  "re-running the same command recomputes every point")
        else:
            print("[repro.lab] re-running the same command retries only "
                  "the failures (completed points are cached)")
    else:
        print(scenario.render(report.results))
    csv_path = getattr(args, "csv", None)
    json_path = getattr(args, "json", None)
    if csv_path or json_path:
        rs = ResultSet.from_report(report)
        if csv_path:
            rs.to_csv(csv_path)
            print(f"[repro.lab] wrote {len(rs)} rows to {csv_path}")
        if json_path:
            rs.to_json(json_path)
            print(f"[repro.lab] wrote {len(rs)} rows to {json_path}")
    print(report.cache_line(cache))
    if trace is not None:
        trace.finish(hits=report.hits, misses=report.misses,
                     elapsed=report.elapsed, failed=report.failed)
        print(telemetry.render_attribution(trace))
        print(f"[repro.lab] run trace written to {trace.path}")
    return 3 if report.failed else 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("scenarios:")
    for name in sorted(SCENARIOS):
        print(f"  {name:<14} {SCENARIOS[name](False).description}")
    print("kernels:")
    for name, kernel in sorted(KERNELS.items()):
        doc = (kernel.run.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<18} {doc}")
        print(f"  {'':<18} params: {kernel.params.describe()}")
    print("machines:")
    for name, spec in sorted(MACHINES.items()):
        geom = (f"levels={list(spec.levels)}" if spec.levels
                else f"{spec.cache_words}w")
        print(f"  {name:<14} policy={spec.policy:<13} {geom:<22} "
              f"read_slow={spec.read_slow} write_slow={spec.write_slow}")
    print("policies:")
    print("  " + "  ".join(sorted(POLICIES)))
    return 0


def _fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """``--fault-plan SPEC`` wins; otherwise honour ``$REPRO_LAB_FAULTS``
    (how CI's chaos job injects without touching the preset commands)."""
    spec = getattr(args, "fault_plan", None)
    if spec is not None:
        return FaultPlan.parse(spec)
    return plan_from_env()


def _engine_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """The fault-tolerance arguments ``run``/``sweep`` thread through
    to :func:`repro.lab.executor.execute`."""
    return dict(retries=args.retries, timeout=args.timeout,
                keep_going=args.keep_going, faults=_fault_plan(args))


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    cache = _make_cache(args)
    trace = _make_run_trace(args, scenario.name)
    report = execute(scenario.points(), jobs=args.jobs, cache=cache,
                     multi_capacity=not args.no_multi_capacity,
                     batch=not args.no_batch, trace=trace,
                     **_engine_kwargs(args))
    return _finish(scenario, report, cache, args, trace=trace)


def _cmd_serve(args: argparse.Namespace) -> int:
    # Deferred import: the batch subcommands shouldn't pay for the HTTP
    # layer at startup.
    from repro.lab.serve import ServeDaemon

    cache = _make_cache(args)
    daemon = ServeDaemon(host=args.host, port=args.port, jobs=args.jobs,
                         cache=cache)
    print(f"[repro.lab] serving on {daemon.url} (jobs={args.jobs}, "
          f"cache={'off' if cache is None else cache.root})")
    print("[repro.lab] POST /sweep · GET /jobs/<id>[?sse=1] · "
          "GET /results/<id>[?format=csv] · GET /metrics; "
          "Ctrl-C drains and exits")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("\n[repro.lab] draining in-flight sweeps (Ctrl-C again "
              "cancels at the next task boundary) ...", file=sys.stderr)
        try:
            daemon.shutdown(drain=True)
        except KeyboardInterrupt:
            daemon.shutdown(drain=False)
            raise  # main()'s SIGINT path sweeps temporaries, exits 130
        print("[repro.lab] serve: clean shutdown; completed points are "
              "cached", file=sys.stderr)
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    trace = RunTrace.load(args.file)
    print(telemetry.render_attribution(trace))
    if args.metrics:
        reg = trace.metrics()
        print(reg.format(title=f"metrics — {args.file}"))
        events = reg.counters.get("trace.events", 0)
        symbols = reg.counters.get("trace.symbols", 0)
        if symbols:
            print(f"super-symbol compression: {events:.0f} events -> "
                  f"{symbols:.0f} symbols ({events / symbols:.1f}x)")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    a = RunTrace.load(args.a)
    b = RunTrace.load(args.b)
    print(telemetry.render_diff(a, b, labels=(Path(args.a).stem,
                                              Path(args.b).stem)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    cache = ResultCache(args.cache_dir)
    try:
        report = execute(scenario.points(), cache=cache, require_cached=True)
    except MissingResultsError as exc:
        print(f"[repro.lab] {exc}", file=sys.stderr)
        return 1
    return _finish(scenario, report, cache, args)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    print(f"[repro.lab] {cache.describe()}")
    versions = cache.versions()
    for version in sorted(versions, key=lambda v: -versions[v]):
        marker = " (current)" if version == cache.code_version else ""
        print(f"  {versions[version]:>6} record(s) from code version "
              f"{version}{marker}")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    removed = cache.gc(keep_version="" if args.all else None)
    note = (f" ({cache.quarantined} quarantined as corrupt)"
            if cache.quarantined else "")
    print(f"[repro.lab] removed {removed} result record(s){note}; "
          f"{len(cache)} kept at {cache.root}")
    return 0


def _add_cache_args(p: argparse.ArgumentParser, *,
                    allow_disable: bool = True) -> None:
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result-cache directory (default: $REPRO_LAB_CACHE "
                        "or ~/.cache/repro-lab)")
    if allow_disable:
        p.add_argument("--no-cache", action="store_true",
                       help="compute everything, read/write no cache")


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-multi-capacity", action="store_true",
                   help="replay capacity sweeps point by point instead of "
                        "batching them through the fastsim kernel")
    p.add_argument("--no-batch", action="store_true",
                   help="evaluate analytic cost-* grids point by point "
                        "instead of as vectorized batches")
    p.add_argument("--trace", action="store_true",
                   help="record a structured run trace (JSONL under "
                        "<cache root>/runs) and print the attribution "
                        "table; never changes records")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write the run trace to FILE (implies --trace)")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="per-task retry budget beyond the first attempt "
                        "(capped exponential backoff; a failed batch "
                        "falls back to per-point execution first)")
    p.add_argument("--timeout", type=_timeout, default=None,
                   metavar="SECONDS",
                   help="per-task wall-clock limit (a trace kernel's "
                        "task runs every simulation of one trace); an "
                        "overdue worker is killed and the task retried "
                        "(--jobs > 1 only — in-process tasks cannot be "
                        "preempted)")
    p.add_argument("--keep-going", action="store_true",
                   help="degrade instead of aborting: points that "
                        "exhaust their retries become structured error "
                        "records in the report (exit code 3)")
    p.add_argument("--fault-plan", default=None, metavar="SPEC",
                   help="deterministic fault injection for chaos "
                        "testing, e.g. 'seed=42,rate=0.3,"
                        "kinds=raise+die,times=1' "
                        f"(default: ${FAULTS_ENV} if set; 'off' "
                        f"disables)")


def _add_export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="also export flat records as CSV")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also export flat records as JSON")


def _cmd_check(args: argparse.Namespace) -> int:
    # Deferred import: the analyzer parses the whole package on load;
    # the runtime subcommands shouldn't pay for that at startup.
    from repro.lab.check import (ALL_RULES, default_config, render_table,
                                 report_to_json, run_check)

    cfg = default_config()
    if args.rules:
        wanted = tuple(dict.fromkeys(
            r.strip().upper() for chunk in args.rules
            for r in chunk.split(",") if r.strip()))
        bad = sorted(set(wanted) - set(ALL_RULES))
        if bad:
            raise ValueError(f"unknown rule(s) {', '.join(bad)}; "
                             f"available: {', '.join(ALL_RULES)}")
        cfg = cfg.with_rules(wanted)
    report = run_check(cfg)
    payload = report_to_json(report, cfg.display_base)
    if args.output:
        Path(args.output).write_text(payload + "\n")
    if args.format == "json":
        print(payload)
    else:
        print(render_table(report, cfg.display_base))
    return 1 if report.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lab",
        description="Parallel scenario-sweep engine with persistent "
                    "result caching for the Write-Avoiding Algorithms "
                    "reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate scenarios, kernels, "
                                         "machines and policies")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run a named scenario preset")
    p_run.add_argument("scenario", choices=sorted(SCENARIOS))
    p_run.add_argument("--quick", action="store_true",
                       help="smaller geometry, seconds instead of minutes")
    p_run.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                       help="worker processes for uncached points")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a preset parameter on every point; "
                            "'machine.<field>=..' edits the machine spec, "
                            "a grid-axis key pins that axis (repeatable)")
    p_run.add_argument("--hw", action="append", metavar="KEY=VALUE",
                       help="override an HwParams cost parameter (e.g. "
                            "beta_23=30) on every point (repeatable)")
    _add_cache_args(p_run)
    _add_engine_args(p_run)
    _add_export_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="ad-hoc cartesian sweep over a "
                                           "registered kernel, or a named "
                                           "preset via --preset")
    p_sweep.add_argument("--preset", default=None, metavar="NAME",
                         choices=sorted(SCENARIOS),
                         help="sweep a scenario preset instead of an "
                              "ad-hoc grid (ignores --kernel/--machine; "
                              "--set/--hw apply as overrides)")
    p_sweep.add_argument("--quick", action="store_true",
                         help="with --preset: the preset's quick geometry")
    p_sweep.add_argument("--kernel", default="matmul-cache",
                         choices=sorted(KERNELS))
    p_sweep.add_argument("--machine", default="sim-l3",
                         help=f"machine preset ({', '.join(sorted(MACHINES))})")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="fixed kernel parameter (repeatable)")
    p_sweep.add_argument("--grid", action="append", metavar="KEY=V1,V2,..",
                         help="swept axis; 'machine.<field>=..' overrides "
                              "the machine spec (repeatable)")
    p_sweep.add_argument("--hw", action="append", metavar="KEY=VALUE",
                         help="override an HwParams cost parameter of the "
                              "machine (e.g. beta_23=30, M2=16384) for the "
                              "cost-* kernels (repeatable)")
    p_sweep.add_argument("--jobs", type=_jobs, default=1, metavar="N")
    _add_cache_args(p_sweep)
    _add_engine_args(p_sweep)
    _add_export_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve", help="HTTP sweep daemon over the hot cache: POST "
                      "/sweep, SSE job progress, /results, /metrics")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8737,
                         help="bind port (default: 8737; 0 = ephemeral)")
    p_serve.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                         help="worker budget shared across all jobs")
    _add_cache_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_rep = sub.add_parser("report", help="re-render a scenario purely from "
                                          "cached results")
    p_rep.add_argument("scenario", choices=sorted(SCENARIOS))
    p_rep.add_argument("--quick", action="store_true")
    p_rep.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="same overrides as the `run` that filled the "
                            "cache (repeatable)")
    p_rep.add_argument("--hw", action="append", metavar="KEY=VALUE",
                       help="same HwParams overrides as the `run` that "
                            "filled the cache (repeatable)")
    _add_cache_args(p_rep, allow_disable=False)
    _add_export_args(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_trace = sub.add_parser("trace", help="render or compare saved run "
                                           "traces (--trace JSONL files)")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tshow = trace_sub.add_parser(
        "show", help="attribution table of one saved run trace")
    p_tshow.add_argument("file", help="run-trace JSONL file")
    p_tshow.add_argument("--metrics", action="store_true",
                         help="also dump the aggregated metrics registry")
    p_tshow.set_defaults(func=_cmd_trace_show)
    p_tdiff = trace_sub.add_parser(
        "diff", help="compare two saved run traces side by side")
    p_tdiff.add_argument("a", help="baseline run-trace JSONL file")
    p_tdiff.add_argument("b", help="candidate run-trace JSONL file")
    p_tdiff.set_defaults(func=_cmd_trace_diff)

    p_cache = sub.add_parser("cache", help="inspect or prune the result "
                                           "cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="record counts, sizes and code versions")
    p_gc = cache_sub.add_parser(
        "gc", help="drop records from superseded code versions")
    p_gc.add_argument("--all", action="store_true",
                      help="drop everything, current code version included")
    for p in (p_stats, p_gc):
        _add_cache_args(p, allow_disable=False)
    p_stats.set_defaults(func=_cmd_cache_stats)
    p_gc.set_defaults(func=_cmd_cache_gc)

    p_check = sub.add_parser(
        "check", help="static contract analyzer: kernel/cache/telemetry "
                      "invariants (rules R1-R5)")
    p_check.add_argument("--format", choices=("table", "json"),
                         default="table",
                         help="render findings as a human table (default) "
                              "or as JSON")
    p_check.add_argument("--output", default=None, metavar="FILE",
                         help="also write the JSON report to FILE, "
                              "whatever --format says (CI artifact)")
    p_check.add_argument("--rules", action="append", metavar="R1,R2,..",
                         help="run only these rules (comma-separated, "
                              "repeatable; default: all)")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    no_cache = getattr(args, "no_cache", False)
    try:
        return args.func(args)
    except ValueError as exc:
        # Registry lookups (unknown machine/kernel/scenario, bad grid
        # values) surface as ValueError; report them CLI-style.
        print(f"repro-lab: error: {exc}", file=sys.stderr)
        return 2
    except PointExecutionError as exc:
        # A task failed terminally and the run was not --keep-going;
        # everything that completed before the failure is cached, unless
        # --no-cache kept nothing.
        print(f"repro-lab: sweep aborted: {exc}", file=sys.stderr)
        if no_cache:
            print("repro-lab: nothing was kept (--no-cache); re-run (or "
                  "add --keep-going / --retries) to recompute every point",
                  file=sys.stderr)
        else:
            print("repro-lab: completed points are cached; re-run (or add "
                  "--keep-going / --retries) to continue", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Terminating the pool is the executor's job (its finally
        # block); here we sweep up half-written cache temporaries and
        # exit with the conventional SIGINT status instead of a
        # traceback.  Completed points were cached as they finished.
        if no_cache:
            print("\n[repro.lab] interrupted; nothing was kept "
                  "(--no-cache)", file=sys.stderr)
            return 130
        try:
            ResultCache(getattr(args, "cache_dir", None)).cleanup_tmp()
        except Exception:
            pass
        print("\n[repro.lab] interrupted; completed points are cached — "
              "re-run the same command to resume", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # `repro-lab trace show ... | head` closes stdout early; exit
        # quietly instead of tracebacking.  Detach stdout so the
        # interpreter's shutdown flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
