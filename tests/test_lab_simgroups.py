"""One task per distinct trace: the executor's trace-kernel plan.

Points are grouped by the trace they replay, not by scheme name,
policy, capacity or machine energy.  Inside its task the trace is built
once: its fully-associative LRU, Belady, clock and segmented-LRU
points share one sweep, and any other point shares one replay with the
points that have its policy, capacity, associativity and seed.  Two scheme names with
one task order (``wa2``, ``ab-multilevel``) are one trace.  Records
stay bit-identical to the per-point path, and each distinct trace is
built once per run, in-process or on pool workers.
"""

import hashlib
import itertools
import json

from repro.core.traces import MATMUL_SCHEMES, matmul_trace
from repro.experiments.sec6_lru import sec6_scenario
from repro.lab.executor import _plan, execute
from repro.lab.registry import MachineSpec, matmul_trace_payload
from repro.lab.scenarios import ScenarioPoint
from repro.lab.telemetry import RunTrace, summarize
from repro.machine.cache import CacheSim
from repro.machine.fastsim import dispatch
from repro.machine.fastsim import profile as fs_profile

PARAMS = {"n": 16, "middle": 32, "b3": 8, "b2": 4, "base": 4}
LINE = 4


def mixed_grid():
    """Every policy, a set-associative column, two schemes with one
    task order, and two energy variants of every point."""
    base = MachineSpec(name="t", line_size=LINE)
    machines = [base.override(policy=p) for p in
                ("lru", "belady", "clock", "segmented-lru", "fifo")]
    machines.append(base.override(policy="random", seed=5))
    points = []
    for energy in ({}, {"read_slow": 4.0, "write_slow": 30.0}):
        for scheme, blocks, machine in itertools.product(
                ("wa2", "ab-multilevel", "wa-multilevel"), (3, 4),
                machines):
            points.append(ScenarioPoint(
                "matmul-cache", machine.override(**energy),
                dict(PARAMS, scheme=scheme, cache_blocks=blocks)))
        for scheme in ("wa2", "wa-multilevel"):
            # 3 blocks = 49 lines: seven 7-way sets.
            points.append(ScenarioPoint(
                "matmul-cache",
                base.override(associativity=7, **energy),
                dict(PARAMS, scheme=scheme, cache_blocks=3)))
    return points


def contents(trace):
    """A content hash of a finalized trace."""
    h = hashlib.sha256()
    for arr in trace:
        h.update(arr.tobytes())
    return h.hexdigest()


def trace_digest(scheme, c_touch_hint=False, **blocking):
    """A content hash of the trace a scheme builds by name."""
    shape = dict(PARAMS, **blocking)
    return contents(matmul_trace(
        shape["n"], shape["middle"], shape["n"], scheme=scheme,
        b3=shape["b3"], b2=shape["b2"], base=shape["base"],
        line_size=LINE, c_touch_hint=c_touch_hint).finalize_trace())


def simulation_of(point):
    """What a point simulates, derived from trace *contents*: a
    fully-associative LRU, Belady, clock or segmented-LRU point needs
    only its trace (one sweep serves every capacity and those four
    policies); any other point needs its whole cache."""
    m = point.machine
    trace = trace_digest(point.params["scheme"])
    if (m.policy in ("lru", "belady", "clock", "segmented-lru")
            and m.associativity is None):
        return (trace, "sweep")
    return (trace, m.policy, point.params["cache_blocks"],
            m.associativity, m.seed)


def canonical(records):
    return json.dumps(records, sort_keys=True)


class TestPlan:
    def test_one_task_per_distinct_trace(self, monkeypatch):
        points = mixed_grid()
        tasks = _plan(points, range(len(points)), multi_capacity=True)
        traces = [{simulation_of(points[i])[0] for i in task}
                  for task, _ in tasks]
        assert all(len(t) == 1 for t in traces)
        assert len(tasks) == len({trace_digest(p.params["scheme"])
                                  for p in points}) == 2
        assert [kind for _, kind in tasks] == ["multi_capacity"] * 2

        sweeps, swept, replays = [], [], []
        sweep, run_trace = dispatch.sweep, CacheSim.run_trace

        def counted_sweep(trace, caps_by_policy):
            sweeps.append(contents(trace))
            swept.append({p: sorted(set(c))
                          for p, c in caps_by_policy.items()})
            return sweep(trace, caps_by_policy)

        def counted_run_trace(sim, trace):
            replays.append((contents(trace), sim.policy_name,
                            sim.capacity_lines, sim.associativity,
                            sim.seed))
            return run_trace(sim, trace)

        monkeypatch.setattr(dispatch, "sweep", counted_sweep)
        monkeypatch.setattr(CacheSim, "run_trace", counted_run_trace)
        execute(points, cache=None, multi_capacity=True)
        # Per trace: 1 sweep + 2 capacities x 2 unswept policies
        # (FIFO, random) + 1 set-associative replay, each exactly once.
        distinct = {simulation_of(p) for p in points}
        assert len(distinct) == 2 * (1 + 2 * 2 + 1)
        assert len(sweeps) == len(set(sweeps)) == 2
        assert swept == [{p: [49, 65] for p in ("lru", "belady", "clock",
                                                 "segmented-lru")}] * 2
        assert len(replays) == len(set(replays)) == len(distinct) - 2
        assert {policy for _, policy, _, _, _ in replays} == {
            "fifo", "random", "lru"}
        assert all(assoc != capacity or policy in ("fifo", "random")
                   for _, policy, capacity, assoc, _ in replays)

    def test_batched_records_equal_per_point_records(self):
        points = mixed_grid()
        looped = execute(points, cache=None, multi_capacity=False)
        batched = execute(points, cache=None, multi_capacity=True)
        assert batched.batches == 2
        assert batched.batched_points == len(points)
        assert canonical(looped.records()) == canonical(batched.records())
        pooled = execute(points, cache=None, multi_capacity=True, jobs=2)
        assert canonical(pooled.records()) == canonical(batched.records())

    def test_bad_point_does_not_sink_its_trace(self):
        """A point whose associativity does not divide its capacity
        (49 lines, 5-way) shares its trace with the grid but not its
        task: it fails on its own, and its siblings keep the batch."""
        points = mixed_grid()
        bad = ScenarioPoint(
            "matmul-cache",
            MachineSpec(name="t", line_size=LINE, associativity=5),
            dict(PARAMS, scheme="wa2", cache_blocks=3))
        points.insert(7, bad)
        report = execute(points, cache=None, keep_going=True)
        assert report.failed == 1 and report.retries == 0
        assert report.batches == 2
        failed = report.results[7]
        assert failed.failed and failed.record["exc_type"] == "ValueError"
        assert "associativity (5)" in failed.record["error"]
        good = points[:7] + points[8:]
        looped = execute(good, cache=None, multi_capacity=False)
        assert canonical(report.records()[:7] + report.records()[8:]) \
            == canonical(looped.records())

    def test_energy_variants_keep_their_own_energy(self):
        points = mixed_grid()
        report = execute(points, cache=None)
        half = len(points) // 2
        for cheap, dear in zip(report.results[:half],
                               report.results[half:]):
            counters = {k: v for k, v in cheap.record.items()
                        if k != "energy"}
            assert counters == {k: v for k, v in dear.record.items()
                                if k != "energy"}
            st = cheap.record
            assert dear.record["energy"] == LINE * (
                st["fills"] * 4.0 + st["writebacks"] * 30.0)

    def test_lone_point_runs_scalar_and_is_no_batch(self):
        clock = MachineSpec(name="t", line_size=LINE, policy="clock")
        points = [ScenarioPoint("matmul-cache", clock,
                                dict(PARAMS, scheme="co", cache_blocks=3))]
        assert _plan(points, [0], multi_capacity=True) == [([0], None)]
        tr = RunTrace()
        report = execute(points, cache=None, trace=tr)
        assert report.batches == 0 and report.batched_points == 0
        [tags] = [e["tags"] for e in tr.events if e["type"] == "point"]
        assert tags["path"] == "scalar" and not tags["batchable"]
        assert summarize(tr)["batch_coverage"] == 1.0


class TestTraceIdentity:
    SHAPES = [
        {"b3": 8, "b2": 4, "base": 4, "c_touch_hint": False},
        {"b3": 8, "b2": 4, "base": 4, "c_touch_hint": True},
        {"b3": 8, "b2": 8, "base": 2, "c_touch_hint": True},
        {"b3": 6, "b2": 3, "base": 2, "c_touch_hint": False},
        {"b3": 16, "b2": 4, "base": 8, "c_touch_hint": True},
    ]

    def test_equal_payloads_build_equal_traces(self):
        machine = MachineSpec(name="t", line_size=LINE)
        cases = list(itertools.product(MATMUL_SCHEMES,
                                       range(len(self.SHAPES))))
        payload, digest = {}, {}
        for scheme, k in cases:
            shape = self.SHAPES[k]
            payload[scheme, k] = matmul_trace_payload(
                machine, dict(PARAMS, **shape, scheme=scheme))
            digest[scheme, k] = trace_digest(scheme, **shape)
        shared = 0
        for a, b in itertools.combinations(cases, 2):
            if payload[a] == payload[b]:
                assert digest[a] == digest[b], (a, b)
                shared += 1
        for k in range(len(self.SHAPES)):
            assert payload["wa2", k] == payload["ab-multilevel", k]
        assert shared == len(self.SHAPES)


class TestRunMemo:
    """How many traces a run builds: one per distinct trace, whatever
    the venue, with nothing kept between tasks."""

    def build_count(self, fn):
        seen = []
        previous = fs_profile.set_phase_hook(
            lambda name, seconds: seen.append(name))
        try:
            fn()
        finally:
            fs_profile.set_phase_hook(previous)
        return seen.count("trace_build")

    def test_each_trace_is_built_once_per_run(self):
        points = sec6_scenario(quick=True).points()
        assert self.build_count(lambda: execute(points, cache=None)) == 2

    def test_pool_workers_build_each_trace_once(self):
        points = sec6_scenario(quick=True).points()
        trace = RunTrace()
        report = execute(points, cache=None, jobs=2, trace=trace)
        builds = [e for e in trace.events
                  if e["type"] == "phase" and e["name"] == "trace_build"]
        assert len(builds) == 2
        assert report.batches == 2 and report.batched_points == len(points)

    def test_per_point_path_builds_per_point(self):
        # multi_capacity=False is the per-point reference: every point
        # builds its own trace, as before simulation batching.
        points = sec6_scenario(quick=True).points()
        assert self.build_count(lambda: execute(
            points, cache=None, multi_capacity=False)) == len(points)
