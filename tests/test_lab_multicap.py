"""Lab-engine wiring of fastsim: multi-capacity batching, trace
identity, and the cache maintenance CLI."""

import numpy as np
import pytest

from repro.lab.cache import ResultCache
from repro.lab.cli import main
from repro.lab.executor import _batch_key, _plan, execute
from repro.lab.registry import (
    MachineSpec,
    matmul_trace_payload,
    run_capacity_batch,
)
from repro.lab.scenarios import ScenarioPoint
from repro.machine.fastsim import profile as fs_profile


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch, tmp_path):
    """Keep every test off the user's real cache directory."""
    monkeypatch.setenv("REPRO_LAB_CACHE", str(tmp_path / "results"))


def _capacity_key(point):
    """The trace-capacity view of the executor's batch key."""
    return _batch_key(point, multi_capacity=True, batch=False)


def sweep_points(schemes=("wa2",), blocks=(3, 4, 5), policies=("lru",)):
    machine = MachineSpec(name="t", line_size=4, policy="lru")
    return [
        ScenarioPoint("matmul-cache",
                      machine.override(policy=policy),
                      {"n": 16, "middle": 32, "scheme": scheme, "b3": 8,
                       "b2": 4, "base": 4, "cache_blocks": b})
        for scheme in schemes
        for b in blocks
        for policy in policies
    ]


# --------------------------------------------------------------------- #
# grouping
# --------------------------------------------------------------------- #
class TestGrouping:
    def test_capacity_sweep_points_share_a_key(self):
        pts = sweep_points(blocks=(3, 4, 5))
        keys = {_capacity_key(p) for p in pts}
        assert len(keys) == 1 and None not in keys

    def test_points_group_per_trace(self):
        """Points of one trace share a task whatever their policy,
        capacity, associativity, seed or energy; another trace is
        another task.  Hierarchies, points whose associativity does not
        divide their capacity and other kernels stay single."""
        machine = MachineSpec(name="t", line_size=4, policy="clock")
        params = {"n": 16, "middle": 32, "scheme": "wa2", "b3": 8,
                  "cache_blocks": 3}

        def key(spec, **changes):
            return _capacity_key(ScenarioPoint(
                "matmul-cache", spec, dict(params, **changes)))

        clock = key(machine)
        assert clock is not None
        for same in (key(machine.override(write_slow=30.0, read_fast=0.5)),
                     key(machine, scheme="ab-multilevel"),
                     key(machine, cache_blocks=4),
                     key(machine.override(seed=1)),
                     key(machine.override(policy="segmented-lru")),
                     key(machine.override(associativity=7)),
                     key(machine.override(policy="lru")),
                     key(machine.override(policy="lru", associativity=7))):
            assert same == clock
        other = key(machine, scheme="wa-multilevel")
        assert other is not None and other != clock
        assert key(machine.override(associativity=5)) is None
        assert key(machine.override(levels=(64, 256))) is None
        assert _capacity_key(
            ScenarioPoint("krylov-cg", MachineSpec(), {"mesh": 16})
        ) is None

    def test_different_traces_group_separately(self):
        pts = sweep_points(schemes=("wa2", "co"), blocks=(3, 4))
        tasks = [t for t, _ in _plan(pts, range(len(pts)),
                                     multi_capacity=True)]
        assert sorted(len(t) for t in tasks) == [2, 2]

    def test_grouping_disabled_gives_singletons(self):
        pts = sweep_points(blocks=(3, 4, 5))
        tasks = [t for t, _ in _plan(pts, range(len(pts)),
                                     multi_capacity=False)]
        assert [len(t) for t in tasks] == [1, 1, 1]


# --------------------------------------------------------------------- #
# execution equivalence and fan-out caching
# --------------------------------------------------------------------- #
class TestMultiCapacityExecution:
    def test_batched_records_equal_per_point_records(self):
        pts = sweep_points(schemes=("wa2", "ab-multilevel"),
                           policies=("lru", "clock"))
        looped = execute(pts, cache=None, multi_capacity=False)
        batched = execute(pts, cache=None, multi_capacity=True)
        # wa2 and ab-multilevel share one task order, so one task: one
        # LRU sweep of six points and one clock replay per capacity.
        assert batched.batches == 1 and batched.batched_points == 12
        for a, b in zip(looped.results, batched.results):
            assert a.record == b.record

    def test_batch_results_fan_out_into_point_cache(self, tmp_path):
        pts = sweep_points()
        cache = ResultCache(tmp_path / "rc")
        report = execute(pts, cache=cache, multi_capacity=True)
        assert report.batches == 1 and report.misses == len(pts)
        # every point is individually addressable now, batching off
        warm = execute(pts, cache=cache, multi_capacity=False)
        assert warm.hits == len(pts)
        assert [r.record for r in warm.results] == report.records()

    def test_parallel_jobs_with_batches(self):
        pts = sweep_points(schemes=("wa2", "co"))
        serial = execute(pts, cache=None, jobs=1)
        parallel = execute(pts, cache=None, jobs=2)
        assert serial.records() == parallel.records()

    def test_batch_runner_validates_group(self):
        pts = sweep_points(blocks=(3, 4))
        clock = pts[0].machine.override(policy="clock")
        # One trace, several simulations: each point gets the record of
        # its own per-point run.
        group = [(pts[0].machine, pts[0].params), (clock, pts[0].params),
                 (clock, pts[1].params)]
        assert run_capacity_batch("matmul-cache", group) == [
            ScenarioPoint("matmul-cache", m, p).run() for m, p in group]
        with pytest.raises(ValueError):
            run_capacity_batch("matmul-cache", [
                (pts[0].machine, pts[0].params),
                (clock.override(associativity=5), pts[0].params),
            ])
        other = dict(pts[0].params, middle=64)
        with pytest.raises(ValueError):
            run_capacity_batch("matmul-cache", [
                (pts[0].machine, pts[0].params),
                (pts[0].machine, other),
            ])


# --------------------------------------------------------------------- #
# trace-kernel protocol: every line-trace kernel batches, OPT included
# --------------------------------------------------------------------- #
PROTOCOL_KERNELS = [
    ("trsm-cache", {"n": 16, "m": 8, "b": 4}),
    ("cholesky-cache", {"n": 16, "b": 4}),
    ("nbody-cache", {"n": 32, "b": 8}),
]


def kernel_sweep_points(kernel, params, blocks=(2, 3, 5),
                        policies=("lru",)):
    machine = MachineSpec(name="t", line_size=4, policy="lru")
    return [
        ScenarioPoint(kernel, machine.override(policy=policy),
                      dict(params, cache_blocks=b))
        for b in blocks
        for policy in policies
    ]


class TestProtocolBatching:
    @pytest.mark.parametrize("kernel,params", PROTOCOL_KERNELS)
    def test_batched_records_equal_per_point_records(self, kernel, params):
        """Parity for every newly batchable kernel: the batched executor
        path and --no-multi-capacity produce identical records."""
        pts = kernel_sweep_points(kernel, params,
                                  policies=("lru", "belady"))
        looped = execute(pts, cache=None, multi_capacity=False)
        batched = execute(pts, cache=None, multi_capacity=True)
        assert batched.batches == 1 and batched.batched_points == len(pts)
        assert looped.records() == batched.records()

    def test_opt_sweep_records_equal_per_point_records(self):
        """The sec6 belady column: a pure Belady capacity sweep batches
        into one fastsim.sweep replay, bit-identical to CacheSim."""
        pts = sweep_points(policies=("belady",))
        looped = execute(pts, cache=None, multi_capacity=False)
        batched = execute(pts, cache=None, multi_capacity=True)
        assert batched.batches == 1 and batched.batched_points == len(pts)
        assert looped.records() == batched.records()

    def test_lru_and_belady_share_one_batch(self):
        """The policy axis is excluded from the group key: one trace
        generation serves both stack-algorithm columns."""
        pts = sweep_points(policies=("lru", "belady"))
        batched = execute(pts, cache=None, multi_capacity=True)
        assert batched.batches == 1 and batched.batched_points == 6
        looped = execute(pts, cache=None, multi_capacity=False)
        assert looped.records() == batched.records()

    def test_prop62_scenario_batches_per_kernel(self):
        from repro.experiments.prop62 import prop62_scenario

        pts = prop62_scenario(quick=True).points()
        batched = execute(pts, cache=None, multi_capacity=True)
        assert batched.batches == 3  # one replay per kernel family
        assert batched.batched_points == len(pts)
        looped = execute(pts, cache=None, multi_capacity=False)
        assert looped.records() == batched.records()

    def test_numpy_integer_capacities_batch(self):
        """Regression: np.int64 grid axes (np.arange-built scenarios)
        used to fail the group key's `isinstance(cap, int)` check and
        silently fall back to per-point replay."""
        machine = MachineSpec(name="t", line_size=4, policy="lru")
        pts = [
            ScenarioPoint("matmul-cache", machine,
                          {"n": 16, "middle": 32, "scheme": "wa2",
                           "b3": 8, "b2": 4, "base": 4,
                           "cache_blocks": blocks})
            for blocks in np.arange(3, 6)  # np.int64, not int
        ]
        assert all(isinstance(p.params["cache_blocks"], np.integer)
                   for p in pts)
        report = execute(pts, cache=None, multi_capacity=True)
        assert report.batches > 0
        assert report.batched_points == len(pts)
        # ... and the per-point path accepts them too (CacheSim's strict
        # capacity validation sees a canonicalized python int).
        looped = execute(pts, cache=None, multi_capacity=False)
        assert looped.records() == report.records()

    def test_bool_capacity_never_batches(self):
        machine = MachineSpec(name="t", line_size=4, policy="lru")
        pt = ScenarioPoint("matmul-cache", machine,
                           {"n": 16, "middle": 32, "scheme": "wa2",
                            "b3": 8, "cache_blocks": True})
        assert _capacity_key(pt) is None

    def test_mixed_policy_batch_runner_validates(self):
        pts = sweep_points(blocks=(3,))
        clock = pts[0].machine.override(policy="clock")
        group = [(clock, pts[0].params),
                 (clock.override(policy="segmented-lru"), pts[0].params)]
        assert run_capacity_batch("matmul-cache", group) == [
            ScenarioPoint("matmul-cache", m, p).run() for m, p in group]
        with pytest.raises(ValueError):
            run_capacity_batch("krylov-cg",
                               [(pts[0].machine, pts[0].params)])


# --------------------------------------------------------------------- #
# trace identity
# --------------------------------------------------------------------- #
class TestTraceStore:
    """The trace identity the planner groups points by."""

    def test_trace_payload_excludes_capacity(self):
        machine = MachineSpec(name="t", line_size=4, policy="lru")
        params = {"n": 16, "middle": 32, "scheme": "wa2", "b3": 8}
        with_cap = dict(params, cache_blocks=5)
        assert (matmul_trace_payload(machine, params)
                == matmul_trace_payload(machine, with_cap))


# --------------------------------------------------------------------- #
# cache stats / gc CLI
# --------------------------------------------------------------------- #
class TestCacheCLI:
    def run_sweep(self, tmp_path, *extra):
        return main([
            "sweep", "--kernel", "matmul-cache", "--machine", "sim-l3",
            "--set", "n=16", "--set", "middle=32", "--set", "b3=8",
            "--set", "b2=4", "--set", "base=4", "--set", "scheme=wa2",
            "--grid", "cache_blocks=3,4,5",
            "--cache-dir", str(tmp_path / "rc"), *extra,
        ])

    def test_stats_and_gc_roundtrip(self, tmp_path, capsys):
        assert self.run_sweep(tmp_path) == 0
        out = capsys.readouterr().out
        assert "via 1 batch(es)" in out

        args = ["--cache-dir", str(tmp_path / "rc")]
        assert main(["cache", "stats", *args]) == 0
        out = capsys.readouterr().out
        assert "3 records" in out

        # same-version gc keeps everything; --all clears the cache
        assert main(["cache", "gc", *args]) == 0
        out = capsys.readouterr().out
        assert "removed 0 result record(s)" in out
        assert main(["cache", "gc", "--all", *args]) == 0
        out = capsys.readouterr().out
        assert "removed 3 result record(s)" in out

    def test_gc_prunes_stale_code_versions(self, tmp_path, capsys):
        root = tmp_path / "rc"
        stale = ResultCache(root, code_version="stale")
        stale.put({"kernel": "k", "params": {}}, {"x": 1})
        current = ResultCache(root)
        current.put({"kernel": "k", "params": {}}, {"x": 1})
        assert main(["cache", "gc", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 result record(s); 1 kept" in out

    def test_no_multi_capacity_flag(self, tmp_path, capsys):
        assert self.run_sweep(tmp_path, "--no-multi-capacity") == 0
        out = capsys.readouterr().out
        assert "batch(es)" not in out

    def test_runs_build_each_trace_once_and_write_no_traces(
            self, tmp_path, capsys):
        """A cached in-process ``run``/``sweep`` keeps traces in its
        tasks only: nothing lands under ``<cache dir>/traces``, and
        each distinct trace is built once per run."""
        builds = []
        previous = fs_profile.set_phase_hook(
            lambda name, seconds: builds.append(name))
        try:
            assert self.run_sweep(tmp_path) == 0
            sweep_builds = builds.count("trace_build")
            assert main(["run", "sec6", "--quick",
                         "--cache-dir", str(tmp_path / "rc")]) == 0
        finally:
            fs_profile.set_phase_hook(previous)
        capsys.readouterr()
        assert sweep_builds == 1  # one trace, three capacities
        assert builds.count("trace_build") == 1 + 2  # sec6: two traces
        assert (tmp_path / "rc").is_dir()
        assert not (tmp_path / "rc" / "traces").exists()

    def test_no_cache_skips_default_trace_store(self, tmp_path):
        """--no-cache promises no disk I/O: nothing is written under the
        cache directory, traces included."""
        assert self.run_sweep(tmp_path, "--no-cache") == 0
        assert not (tmp_path / "rc").exists()
