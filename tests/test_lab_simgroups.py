"""One task per distinct simulation: the executor's trace-kernel plan.

Points are grouped by the simulation they run, not by scheme name or
machine energy: fully-associative LRU/Belady points of one trace share
one multi-capacity sweep, any other point shares a replay with the
points that have its trace, policy, capacity, associativity and seed.
Two scheme names with one task order (``wa2``, ``ab-multilevel``) are
one trace.  Records stay bit-identical to the per-point path, and the
in-run memo builds each distinct trace once per run.
"""

import hashlib
import itertools
import json

from repro.core.traces import MATMUL_SCHEMES, matmul_trace
from repro.experiments.sec6_lru import sec6_scenario
from repro.lab import registry
from repro.lab.executor import _plan, execute
from repro.lab.registry import MachineSpec, matmul_trace_payload
from repro.lab.scenarios import ScenarioPoint
from repro.lab.telemetry import RunTrace, summarize
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


def trace_digest(scheme, c_touch_hint=False, **blocking):
    """A content hash of the trace a scheme builds by name."""
    shape = dict(PARAMS, **blocking)
    tr = matmul_trace(shape["n"], shape["middle"], shape["n"],
                      scheme=scheme, b3=shape["b3"], b2=shape["b2"],
                      base=shape["base"], line_size=LINE,
                      c_touch_hint=c_touch_hint).finalize_trace()
    h = hashlib.sha256()
    for arr in tr:
        h.update(arr.tobytes())
    return h.hexdigest()


def simulation_of(point):
    """What a point simulates, derived from trace *contents*: a stack
    point needs only its trace (one sweep serves every capacity and
    both policies); any other point needs its whole cache."""
    m = point.machine
    trace = trace_digest(point.params["scheme"])
    if m.policy in ("lru", "belady") and m.associativity is None:
        return (trace, "stack")
    return (trace, m.policy, point.params["cache_blocks"],
            m.associativity, m.seed)


def canonical(records):
    return json.dumps(records, sort_keys=True)


class TestPlan:
    def test_one_task_per_distinct_simulation(self):
        points = mixed_grid()
        tasks = _plan(points, range(len(points)), multi_capacity=True)
        sims = [{simulation_of(points[i]) for i in task}
                for task, _ in tasks]
        assert all(len(s) == 1 for s in sims)
        distinct = {simulation_of(p) for p in points}
        # 2 traces x (1 stack sweep + 2 capacities x 4 non-stack
        # policies + 1 set-associative replay).
        assert len(distinct) == 2 * (1 + 2 * 4 + 1)
        assert len(tasks) == len(distinct)
        assert [kind for _, kind in tasks] == ["multi_capacity"] * len(tasks)

    def test_batched_records_equal_per_point_records(self):
        points = mixed_grid()
        looped = execute(points, cache=None, multi_capacity=False)
        batched = execute(points, cache=None, multi_capacity=True)
        assert batched.batches == 20
        assert batched.batched_points == len(points)
        assert canonical(looped.records()) == canonical(batched.records())
        pooled = execute(points, cache=None, multi_capacity=True, jobs=2)
        assert canonical(pooled.records()) == canonical(batched.records())

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
        assert registry._memo.get() is None  # dropped with the run

    def test_per_point_path_builds_per_point(self):
        # multi_capacity=False is the per-point reference: every point
        # builds its own trace, as before simulation batching.
        points = sec6_scenario(quick=True).points()
        assert self.build_count(lambda: execute(
            points, cache=None, multi_capacity=False)) == len(points)

    def test_budget_bounds_the_memo(self, monkeypatch):
        monkeypatch.setattr(registry, "MEMO_BUDGET_BYTES", 0)
        points = sec6_scenario(quick=True).points()
        report = execute(points, cache=None)
        assert self.build_count(lambda: execute(points, cache=None)) \
            == report.batches + (len(points) - report.batched_points)

    def test_trace_is_kept_only_while_a_fetch_is_due(self):
        built = []

        def build():
            built.append(matmul_trace(8, 8, 8, scheme="co", b3=4, b2=4,
                                      base=4).finalize_trace())
            return built[-1]

        once, twice = {"family": "once"}, {"family": "twice"}
        with registry.run_memo({registry.payload_key(twice): 2}):
            memo = registry._memo.get()
            registry.memo_trace(once, build)
            assert memo.traces == {} and memo.nbytes == 0
            tr = registry.memo_trace(twice, build)
            assert not tr.lines.flags.writeable  # shared: read-only
            assert memo.nbytes > 0
            assert registry.memo_trace(twice, build) is tr
            assert memo.traces == {} and memo.nbytes == 0
        assert len(built) == 2
