"""End-to-end benchmark of the ``repro-lab`` sweep engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sec6-cold --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

``sec6-cold``
    ``repro-lab sweep --preset sec6 --set middle=64`` (36 points: 18
    batched LRU/Belady capacity points, 18 per-point clock/segmented-LRU
    replays) as a fresh process with an empty result cache and trace
    store.  ``middle=64`` halves the preset's trace so a run holds about
    ten operations.  The seed draws the machine's slow-memory read/write
    costs, which change every record's ``energy`` and cache key but not
    the simulation work.
``costgrid-cold``
    A 10^4-point ``cost-25d-mm-l3-ool2`` grid through ``repro-lab
    sweep --no-cache`` (cold, as ``benchmarks/bench_costgrid.py``
    measures it), exported with ``--json``.  The seed draws the
    ``beta_23``/``beta_32`` hardware costs.

Every operation's records are checked: sec6 against
``sec6_golden.json`` (seed-independent counters, regenerate with
``make_golden.py``) plus the energy formula; the cost grid against a
per-point reference computed in this process through the engine's
unbatched path (``batch=False``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics
``latency_ms`` and ``points_per_s`` of the fastest operation (shared
hosts slow whole stretches of seconds, so a run reports its best),
``peak_rss_mb`` (median over the operations' processes) and
``setup_s`` (median of five ``repro-lab list`` start-ups).  With
``--trace 1`` the same operations run under ``probe.py`` and the line
carries per-operation mean layer times whose sum is ``total_ms``, plus
layer counters.

All scratch files live under ``.perfbench_work/`` in the checkout and
are removed on exit.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = HERE / "probe.py"
GOLDEN = HERE / "sec6_golden.json"

#: operations per run at least, however long they take.
MIN_REPS = 3
#: program start-ups per run that ``setup_s`` takes the median of.
SETUP_LAUNCHES = 5
#: a child process still running after this long is killed.
CHILD_TIMEOUT_S = 150
#: overrides of the sec6 preset (``make_golden.py`` uses them too).
SEC6_SETS = {"middle": 64}

END_TO_END = {"latency_ms": "ms", "points_per_s": "points/s",
              "peak_rss_mb": "MB", "setup_s": "s"}

#: per-operation layer times (ms), in attribution order; they sum to
#: ``total_ms``.
LAYERS = ("interpreter", "import", "fingerprint", "plan", "key_hash",
          "cache_read", "cache_write", "engine", "kernel", "trace_fetch",
          "trace_build", "symbolize", "fold", "opt_replay",
          "scalar_replay", "render", "serialize", "unattributed")
COUNTS = ("points", "cache_hits", "cache_misses", "cache_writes",
          "trace_builds", "trace_events", "trace_symbols",
          "scalar_replays", "kernel_tasks")

COSTGRID_AXES = {
    "n": [256 * k for k in range(1, 26)],
    "P": [1024 * k for k in range(1, 41)],
    "c3": list(range(1, 11)),
}


# --------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------- #
def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["REPRO_LAB_CACHE"] = str(WORK / "default-cache")
    for var in ("REPRO_LAB_TRACES", "REPRO_LAB_FAULTS"):
        env.pop(var, None)
    return env


def _reap(proc, timeout):
    """Wait for *proc* (killing it after *timeout*); returns
    ``(returncode, peak_rss_mb)``."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def launch(argv):
    """Run ``python <argv>`` in the checkout; returns
    ``(wall_s, returncode, peak_rss_mb)``."""
    with open(WORK / "child.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        rc, rss = _reap(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
    return wall, rc, rss


def program(argv, trace, layers):
    """The ``repro-lab`` invocation, or its probed twin when tracing."""
    if trace:
        return [str(PROBE), "--layers", str(layers), "--", *argv]
    return ["-m", "repro.lab", *argv]


def log_error(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


def child_log_tail(lines=20):
    try:
        text = (WORK / "child.log").read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


# --------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------- #
def comparable(rows):
    """JSON round trip (as the CLI exports) minus the ``cached``
    flag."""
    rows = json.loads(json.dumps(rows, default=str))
    return [{k: v for k, v in row.items() if k != "cached"} for row in rows]


def reference_rows(points):
    """Records of *points* through the engine's unbatched per-point
    path, independent of the batched paths the program takes."""
    from repro.lab.executor import execute
    from repro.lab.results import ResultSet

    report = execute(points, cache=None, multi_capacity=False, batch=False)
    return comparable(ResultSet.from_report(report).rows)


def grid_points(kernel, machine, hw, grid):
    from repro.lab.registry import resolve_machine
    from repro.lab.scenarios import Scenario

    spec = resolve_machine(machine).with_hw(**hw)
    return Scenario(name="adhoc", kernel=kernel, machine=spec,
                    fixed={}, grid=grid).points()


def check_sec6(read_slow, write_slow):
    golden = json.loads(GOLDEN.read_text())

    def check(rows):
        if len(rows) != len(golden["points"]):
            return f"sec6: {len(rows)} rows, want {len(golden['points'])}"
        seen = set()
        for row in rows:
            key = f"{row['scheme']}/{row['cache_blocks']}/{row['policy']}"
            want = golden["points"].get(key)
            if want is None or key in seen:
                return f"sec6: unexpected or repeated point {key}"
            seen.add(key)
            for field, value in want.items():
                if row.get(field) != value:
                    return (f"sec6 {key}: {field}={row.get(field)!r}, "
                            f"golden {value!r}")
            energy = golden["line_size"] * (row["fills"] * read_slow
                                            + row["writebacks"] * write_slow)
            if not math.isclose(row["energy"], energy, rel_tol=1e-12):
                return f"sec6 {key}: energy {row['energy']} != {energy}"
        return None
    return check


def check_rows(expected):
    def check(rows):
        if comparable(rows) != expected:
            return "records differ from the per-point reference"
        return None
    return check


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def metric_block(values, units):
    return {name: {"value": float(values.get(name, 0.0)),
                   "unit": units[name]} for name in units}


def layer_metrics(rows, counts, points):
    """Per-operation means of layer seconds (*rows*) and counters."""
    n = max(len(rows), 1)
    values = {}
    for layer in LAYERS:
        values[f"{layer}_ms"] = sum(r.get(layer, 0.0) for r in rows) / n * 1e3
    values["total_ms"] = sum(values[f"{layer}_ms"] for layer in LAYERS)
    values["unattributed_share"] = (100.0 * values["unattributed_ms"]
                                    / values["total_ms"]
                                    if values["total_ms"] else 0.0)
    for name in COUNTS:
        values[name] = sum(c.get(name, 0) for c in counts) / n
    values["points"] = points
    return values


def per_layer_units():
    units = {f"{layer}_ms": "ms" for layer in LAYERS}
    units["total_ms"] = "ms"
    units["unattributed_share"] = "%"
    units.update({name: "count" for name in COUNTS})
    return units


def layer_row(seconds, elapsed, import_s, interpreter):
    """One operation's attribution: probe self times plus the import,
    interpreter start/exit and the unattributed remainder."""
    row = dict(seconds)
    row["import"] = import_s
    row["interpreter"] = interpreter
    row["unattributed"] = max(0.0, elapsed - import_s - sum(seconds.values()))
    return row


# --------------------------------------------------------------------- #
# CLI workloads
# --------------------------------------------------------------------- #
def cli_workload(argv, points, check, seconds, trace):
    """Cold ``repro-lab`` invocations, each into a fresh cache, for
    *seconds* (at least :data:`MIN_REPS`)."""
    setups = []
    if not trace:
        for _ in range(SETUP_LAUNCHES):
            wall, rc, _ = launch(["-m", "repro.lab", "list"])
            if rc != 0:
                raise RuntimeError(f"repro-lab list exited {rc}")
            setups.append(wall)
    walls, rsss, rows, counts = [], [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + seconds
    while attempted < MIN_REPS or time.perf_counter() < t_end:
        rep = WORK / f"rep-{attempted}"
        rep.mkdir(parents=True)
        records, layers = rep / "records.json", rep / "layers.json"
        cmd = [*argv, "--cache-dir", str(rep / "cache"),
               "--json", str(records)]
        wall, rc, rss = launch(program(cmd, trace, layers))
        attempted += 1
        error = (f"exit code {rc}" if rc != 0 else
                 "no records written" if not records.is_file() else
                 check(json.loads(records.read_text())))
        if error is None:
            walls.append(wall)
            rsss.append(rss)
            if trace:
                doc = json.loads(layers.read_text())
                rows.append(layer_row(doc["seconds"], doc["elapsed_s"],
                                      doc["import_s"],
                                      wall - doc["elapsed_s"]))
                counts.append(doc["counts"])
                if doc["skipped"] and len(rows) == 1:
                    log_error("probe found no entry point for "
                              + ", ".join(doc["skipped"])
                              + "; that time is unattributed")
        else:
            failed += 1
            log_error(f"operation {attempted}: {error}")
        shutil.rmtree(rep, ignore_errors=True)
    if trace:
        values = layer_metrics(rows, counts, points)
    elif walls:
        values = {"latency_ms": min(walls) * 1e3,
                  "points_per_s": points / min(walls),
                  "peak_rss_mb": statistics.median(rsss),
                  "setup_s": statistics.median(setups)}
    else:
        values = {}
    return attempted, failed, values


def sec6_cold(seed, seconds, trace):
    rng = random.Random(seed)
    read_slow = rng.choice([k / 2 for k in range(2, 17)])
    write_slow = rng.choice([k / 2 for k in range(4, 81)])
    argv = ["sweep", "--preset", "sec6", "--jobs", "1",
            "--set", f"machine.read_slow={read_slow!r}",
            "--set", f"machine.write_slow={write_slow!r}"]
    for key, value in SEC6_SETS.items():
        argv += ["--set", f"{key}={value}"]
    return cli_workload(argv, 36, check_sec6(read_slow, write_slow),
                        seconds, trace)


def costgrid_cold(seed, seconds, trace):
    rng = random.Random(seed)
    hw = {"beta_23": rng.choice([k / 4 for k in range(20, 161)]),
          "beta_32": rng.choice([k / 4 for k in range(4, 33)])}
    expected = reference_rows(grid_points(
        "cost-25d-mm-l3-ool2", "hw-2015", hw, COSTGRID_AXES))
    argv = ["sweep", "--kernel", "cost-25d-mm-l3-ool2",
            "--machine", "hw-2015", "--jobs", "1", "--no-cache"]
    for axis, values in COSTGRID_AXES.items():
        argv += ["--grid", f"{axis}=" + ",".join(map(str, values))]
    for key, value in hw.items():
        argv += ["--hw", f"{key}={value!r}"]
    return cli_workload(argv, len(expected), check_rows(expected),
                        seconds, trace)


WORKLOADS = {
    "sec6-cold": sec6_cold,
    "costgrid-cold": costgrid_cold,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "lab" / "cli.py").is_file():
        log_error(f"no repro sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        attempted, failed, values = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace))
        if failed:
            log_error("program stderr (tail):\n" + child_log_tail())
    except BaseException:
        log_error("program stderr (tail):\n" + child_log_tail())
        raise
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({"correct": bool(values) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metric_block(values, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
