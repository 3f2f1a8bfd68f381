"""Benchmarks for the vectorized cost-grid batches: pointwise vs batched.

The Section-7 cost models are pure closed-form arithmetic, so a
10^4-point provisioning grid evaluated point by point pays mostly
per-point plumbing (machine resolution, HwParams validation, Term
construction, record assembly) — and, with worker processes, payload
pickling on top.  The batch-kernel protocol evaluates the whole grid
as one numpy pass per family instead.  Cases:

* **end-to-end** — the acceptance number: a 10^4-point
  ``cost-25d-mm-l3-ool2`` grid through the lab executor, pointwise
  in-process replay (``batch=False``, the cheapest pointwise path)
  against one vectorized batch, both cold (no result cache).  Records
  are asserted bit-identical.
* **mixed feasibility** — the same grid deliberately run past the
  ``c3 <= P^(1/3)`` edges (~1/3 infeasible): infeasible points fall
  back to the scalar kernel for exact ``reason`` strings, so this
  documents what masking costs.
* **table family** — ``cost-table1`` cells, where the batch evaluator
  memoizes the scalar row list per unique size tuple instead of
  vectorizing the 15-row table formulas.
* **fan-out footnote** — the pointwise grid at ``jobs=4``: per-point
  multiprocessing fan-out is *slower* than in-process evaluation for
  ~50µs kernels, which is exactly the overhead batching removes.
* **export** — turning the grid's report into output: the columnar
  ``ResultSet.from_report``, the rendered table and ``to_json``, with
  the JSON asserted byte-identical to ``json.dumps`` of the row dicts.

Each full-size run appends one entry to ``BENCH_costgrid.json`` at the
repo root (the committed perf trajectory), with the environment
``bench_paper.environment`` records.  ``REPRO_BENCH_QUICK=1`` shrinks
the geometry for CI and leaves the snapshot untouched.
"""

import json
import os
import time
from pathlib import Path

from bench_paper import run_recorder

from repro.lab.executor import execute
from repro.lab.registry import MACHINES
from repro.lab.results import ResultSet
from repro.lab.scenarios import Scenario

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_costgrid.json"

if QUICK:
    N_AXIS = sorted(set(512 * k for k in range(1, 11)))     # 10
    P_AXIS = [1024 * k for k in range(1, 11)]               # 10
    C3_AXIS = list(range(1, 11))                            # 10 -> 1000
else:
    N_AXIS = sorted(set(256 * k for k in range(1, 26)))     # 25
    P_AXIS = [1024 * k for k in range(1, 41)]               # 40
    C3_AXIS = list(range(1, 11))                            # 10 -> 10000


def grid_scenario(c3_axis=None):
    return Scenario(
        name="bench-costgrid",
        kernel="cost-25d-mm-l3-ool2",
        machine=MACHINES["hw-2015"],
        grid={"n": N_AXIS, "P": P_AXIS,
              "c3": list(c3_axis or C3_AXIS)},
    )


def grid_points(c3_axis=None):
    return grid_scenario(c3_axis).points()


def table_points():
    n_axis = N_AXIS[:10] if QUICK else N_AXIS[:20]
    return Scenario(
        name="bench-costtable",
        kernel="cost-table1",
        machine=MACHINES["hw-2015"],
        fixed={"P": 1 << 20, "c2": 4},
        grid={"n": n_axis, "c3": [16, 32, 64],
              "row": list(range(15)),
              "algorithm": ["2DMML2", "2.5DMML2", "2.5DMML3"]},
    ).points()


#: appends this run's entry to the snapshot (full size only: quick
#: runs never touch the committed numbers).
_record = run_recorder(SNAPSHOT, {
    "kernel": "cost-25d-mm-l3-ool2",
    "n_axis": N_AXIS, "P_axis": P_AXIS, "c3_axis": C3_AXIS,
    "points": len(N_AXIS) * len(P_AXIS) * len(C3_AXIS),
    "quick": QUICK,
})


def record_snapshot(**numbers):
    if not QUICK:
        _record(**numbers)


def _best_elapsed(points, rounds=3, **kw):
    """Cold-execute *points* a few times, keep the fastest wall time
    (first calls pay numpy warm-up, which is not what a long-lived
    sweep service sees)."""
    report = None
    best = None
    for _ in range(rounds):
        report = execute(points, cache=None, **kw)
        best = report.elapsed if best is None else min(best,
                                                       report.elapsed)
    return best, report


def test_cost_grid_end_to_end(benchmark):
    """The acceptance number: a 10^4-point all-feasible cost grid,
    pointwise in-process vs one vectorized batch."""
    points = grid_points()
    pointwise_s, pointwise = _best_elapsed(points, batch=False)
    batched_s, batched = _best_elapsed(points, batch=True)
    benchmark.pedantic(
        lambda: execute(points, cache=None, batch=True),
        rounds=1, iterations=1)
    assert batched.batches == 1
    assert batched.records() == pointwise.records()  # bit-identical
    speedup = pointwise_s / batched_s
    print(f"\n[bench_costgrid] {len(points)}-point cost grid: pointwise "
          f"{pointwise_s:.3f}s, batched {batched_s:.3f}s "
          f"-> {speedup:.1f}x")
    record_snapshot(end_to_end={
        "points": len(points),
        "pointwise_s": round(pointwise_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(speedup, 2),
    })
    # Regression tripwire (the committed snapshot records the full-size
    # number, >= 10x; keep slack here for noisy CI runners).
    assert speedup >= 4.0


def test_cost_grid_mixed_feasibility(benchmark):
    """The same grid walked past the c3 <= P^(1/3) feasibility edge:
    infeasible points take the per-point scalar fallback inside the
    batch, trimming but not erasing the win."""
    points = grid_points(c3_axis=list(range(1, 11))
                         + [64, 128, 256, 512, 1024])
    pointwise_s, pointwise = _best_elapsed(points, batch=False)
    batched_s, batched = _best_elapsed(points, batch=True)
    benchmark.pedantic(
        lambda: execute(points, cache=None, batch=True),
        rounds=1, iterations=1)
    assert batched.batches == 1
    assert batched.records() == pointwise.records()
    infeasible = sum(1 for r in batched.records() if not r["feasible"])
    speedup = pointwise_s / batched_s
    print(f"\n[bench_costgrid] {len(points)}-point mixed grid "
          f"({infeasible} infeasible): pointwise {pointwise_s:.3f}s, "
          f"batched {batched_s:.3f}s -> {speedup:.1f}x")
    record_snapshot(mixed_feasibility={
        "points": len(points),
        "infeasible_points": infeasible,
        "pointwise_s": round(pointwise_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 2.0


def test_cost_table_end_to_end(benchmark):
    """The memoized table family: cost-table1 cells share one scalar
    row evaluation per unique (n, P, c2, c3) tuple."""
    points = table_points()
    pointwise_s, pointwise = _best_elapsed(points, batch=False)
    batched_s, batched = _best_elapsed(points, batch=True)
    benchmark.pedantic(
        lambda: execute(points, cache=None, batch=True),
        rounds=1, iterations=1)
    assert batched.batches == 1
    assert batched.records() == pointwise.records()
    speedup = pointwise_s / batched_s
    print(f"\n[bench_costgrid] {len(points)}-cell table grid: pointwise "
          f"{pointwise_s:.3f}s, batched {batched_s:.3f}s "
          f"-> {speedup:.1f}x")
    record_snapshot(table_cells={
        "points": len(points),
        "pointwise_s": round(pointwise_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 1.5


def test_fanout_footnote(benchmark):
    """Pointwise with worker processes — the pre-batching way to
    'speed up' a big grid — is slower than in-process evaluation for
    ~50µs analytic kernels: payload pickling dominates.  Documents the
    overhead the ROADMAP's follow-on called out."""
    points = grid_points()
    fanout_s, fanout = _best_elapsed(points, rounds=1, batch=False,
                                     jobs=4)
    batched_s, batched = _best_elapsed(points, batch=True)
    benchmark.pedantic(
        lambda: execute(points, cache=None, batch=True),
        rounds=1, iterations=1)
    assert batched.records() == fanout.records()
    speedup = fanout_s / batched_s
    print(f"\n[bench_costgrid] {len(points)}-point grid, pointwise "
          f"jobs=4 {fanout_s:.3f}s vs batched {batched_s:.3f}s "
          f"-> {speedup:.1f}x")
    record_snapshot(fanout_footnote={
        "points": len(points),
        "pointwise_jobs4_s": round(fanout_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 4.0


def _best_of(fn, rounds=3):
    """``(fastest wall seconds, last result)`` of *rounds* calls."""
    best, out = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, out


def test_export(benchmark):
    """Record export at grid scale — what ``repro-lab sweep --json``
    does after the kernel: flatten the report into a ResultSet, render
    the table, write the JSON."""
    scenario = grid_scenario()
    report = execute(scenario.points(), cache=None)
    flatten_s, rs = _best_of(lambda: ResultSet.from_report(report))
    render_s, _ = _best_of(lambda: scenario.render(report.results))
    json_s, text = _best_of(rs.to_json)
    benchmark.pedantic(
        lambda: (ResultSet.from_report(report).to_json(),
                 scenario.render(report.results)),
        rounds=1, iterations=1)
    assert text == json.dumps(rs.rows, indent=2, default=str)
    total = flatten_s + render_s + json_s
    print(f"\n[bench_costgrid] {len(rs)}-row export: from_report "
          f"{flatten_s * 1e3:.1f} ms, render {render_s * 1e3:.1f} ms, "
          f"to_json {json_s * 1e3:.1f} ms ({len(text) / 1e6:.1f} MB)")
    record_snapshot(export={
        "points": len(rs),
        "from_report_s": round(flatten_s, 4),
        "render_s": round(render_s, 4),
        "to_json_s": round(json_s, 4),
        "total_s": round(total, 4),
        "json_bytes": len(text),
    })
