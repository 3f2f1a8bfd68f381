"""Lab-engine wiring of fastsim: multi-capacity batching, the trace
store, and the cache maintenance CLI."""

import numpy as np
import pytest

from repro.lab.cache import ResultCache
from repro.lab.cli import main
from repro.lab.executor import _batch_key, _plan, execute
from repro.lab.registry import (
    MachineSpec,
    kernel_matmul_cache,
    matmul_trace_payload,
    run_capacity_batch,
)
from repro.lab.scenarios import ScenarioPoint
from repro.lab.tracestore import TraceStore, set_active_store, store_from_env


@pytest.fixture(autouse=True)
def no_ambient_stores(monkeypatch, tmp_path):
    """Keep every test off the user's real cache/trace directories."""
    monkeypatch.setenv("REPRO_LAB_CACHE", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_LAB_TRACES", "off")
    previous = set_active_store(None)
    yield
    set_active_store(previous)


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

    def test_non_stack_points_group_per_simulation(self):
        """Clock and set-associative points group only with points
        running the same replay: same policy, capacity, associativity
        and seed.  Energy fields never split a group; hierarchies and
        other kernels stay single."""
        machine = MachineSpec(name="t", line_size=4, policy="clock")
        params = {"n": 16, "middle": 32, "scheme": "wa2", "b3": 8,
                  "cache_blocks": 3}

        def key(spec, **changes):
            return _capacity_key(ScenarioPoint(
                "matmul-cache", spec, dict(params, **changes)))

        clock = key(machine)
        assert clock is not None
        assert key(machine.override(write_slow=30.0, read_fast=0.5)) \
            == clock
        assert key(machine, scheme="ab-multilevel") == clock
        for other in (key(machine, cache_blocks=4),
                      key(machine.override(seed=1)),
                      key(machine.override(policy="segmented-lru")),
                      key(machine.override(associativity=7)),
                      key(machine, scheme="wa-multilevel")):
            assert other is not None and other != clock
        set_assoc = key(machine.override(policy="lru", associativity=7))
        assert set_assoc not in (None, key(machine.override(policy="lru")))
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
        # wa2 and ab-multilevel share one task order: one LRU sweep of
        # all six points, and one clock replay per capacity for both.
        assert batched.batches == 4 and batched.batched_points == 12
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
        with pytest.raises(ValueError):
            run_capacity_batch("matmul-cache", [(pts[0].machine,
                                                 pts[0].params),
                                                (clock, pts[0].params)])
        with pytest.raises(ValueError):
            run_capacity_batch("matmul-cache", [(clock, pts[0].params),
                                                (clock, pts[1].params)])
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
        from repro.lab.scenarios import prop62_scenario

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
        from repro.lab.registry import run_capacity_batch

        pts = sweep_points(blocks=(3,))
        clock = pts[0].machine.override(policy="clock")
        with pytest.raises(ValueError):
            run_capacity_batch("matmul-cache",
                               [(clock, pts[0].params),
                                (clock.override(policy="segmented-lru"),
                                 pts[0].params)])
        with pytest.raises(ValueError):
            run_capacity_batch("krylov-cg",
                               [(pts[0].machine, pts[0].params)])


# --------------------------------------------------------------------- #
# trace store
# --------------------------------------------------------------------- #
class TestTraceStore:
    def test_roundtrip_is_memory_mapped(self, tmp_path):
        store = TraceStore(tmp_path / "ts")
        lines = np.arange(100, dtype=np.int64)
        writes = np.arange(100) % 3 == 0
        payload = {"family": "x", "n": 1}
        assert store.get(payload) is None
        assert store.put(payload, lines, writes)
        got_lines, got_writes = store.get(payload)
        assert isinstance(got_lines, np.memmap)
        assert (np.asarray(got_lines) == lines).all()
        assert (np.asarray(got_writes) == writes).all()
        assert store.hits == 1 and store.misses == 1 and store.stores == 1

    def test_get_or_build_builds_once(self, tmp_path):
        store = TraceStore(tmp_path / "ts")
        calls = []

        def builder():
            calls.append(1)
            return np.arange(5, dtype=np.int64), np.zeros(5, bool)

        payload = {"family": "x", "n": 2}
        store.get_or_build(payload, builder)
        store.get_or_build(payload, builder)
        assert len(calls) == 1

    def test_key_depends_on_payload_and_code_version(self, tmp_path):
        a = TraceStore(tmp_path / "ts", code_version="v1")
        b = TraceStore(tmp_path / "ts", code_version="v2")
        payload = {"family": "x", "n": 3}
        assert a.key_for(payload) != a.key_for({"family": "x", "n": 4})
        assert a.key_for(payload) != b.key_for(payload)

    def test_gc_drops_superseded_versions(self, tmp_path):
        old = TraceStore(tmp_path / "ts", code_version="old")
        old.put({"n": 1}, np.arange(3, dtype=np.int64), np.zeros(3, bool))
        new = TraceStore(tmp_path / "ts", code_version="new")
        new.put({"n": 1}, np.arange(3, dtype=np.int64), np.zeros(3, bool))
        assert len(new) == 2
        assert new.gc() == 1
        assert len(new) == 1
        assert new.get({"n": 1}) is not None
        assert new.gc(keep_version="") == 1
        assert len(new) == 0

    def test_gc_reclaims_orphaned_blobs(self, tmp_path):
        """Blobs left by a crashed put() (payload without sidecar) must
        be sweepable, not invisible dead weight."""
        store = TraceStore(tmp_path / "ts")
        store.put({"n": 1}, np.arange(3, dtype=np.int64),
                  np.zeros(3, bool))
        orphan_dir = store.root / "ab"
        orphan_dir.mkdir()
        (orphan_dir / "abcd0123.lines.npy").write_bytes(b"partial")
        (orphan_dir / "tmpjunk.npy.tmp").write_bytes(b"crashed write")
        assert store.gc() == 1  # the orphaned key; junk swept, not counted
        assert not (orphan_dir / "abcd0123.lines.npy").exists()
        assert not (orphan_dir / "tmpjunk.npy.tmp").exists()
        assert store.get({"n": 1}) is not None  # valid entry survives

    def test_get_rejects_wrong_dtypes_and_rebuilds(self, tmp_path):
        """A stored entry whose arrays are not (1-D int64, 1-D bool) is
        a miss — and get_or_build overwrites it with a rebuilt trace
        instead of feeding garbage into fastsim."""
        store = TraceStore(tmp_path / "ts")
        payload = {"family": "x", "n": 9}
        good_lines = np.arange(6, dtype=np.int64)
        good_writes = np.zeros(6, bool)
        for bad_lines, bad_writes in (
            (good_lines.astype(np.float64), good_writes),   # float lines
            (good_lines, good_writes.astype(np.uint8)),     # int writes
            (good_lines.reshape(2, 3),
             good_writes.reshape(2, 3)),                    # 2-D arrays
        ):
            key = store.key_for(payload)
            lines_p, writes_p, _, _ = store._paths(key)
            lines_p.parent.mkdir(parents=True, exist_ok=True)
            np.save(lines_p, bad_lines)
            np.save(writes_p, bad_writes)
            assert store.get(payload) is None  # rejected, counted a miss
            rebuilt = store.get_or_build(
                payload, lambda: (good_lines, good_writes))
            assert rebuilt[0].dtype == np.int64
            assert rebuilt[1].dtype == np.bool_
            # the rebuild replaced the bad blobs on disk
            again = store.get(payload)
            assert again is not None
            assert np.asarray(again[0]).tolist() == good_lines.tolist()
            lines_p.unlink(), writes_p.unlink()

    def test_put_canonicalizes_storable_dtypes(self, tmp_path):
        """Builders handing int32 lines or uint8 write masks get stored
        in the canonical (int64, bool) form get() validates, not left
        to miss forever."""
        store = TraceStore(tmp_path / "ts")
        payload = {"family": "x", "n": 10}
        assert store.put(payload, np.arange(4, dtype=np.int32),
                         np.array([1, 0, 1, 1], dtype=np.uint8))
        got = store.get(payload)
        assert got is not None
        assert got[0].dtype == np.int64 and got[1].dtype == np.bool_
        assert np.asarray(got[1]).tolist() == [True, False, True, True]

    def test_put_refuses_unservable_entries(self, tmp_path):
        """Float lines (or mismatched shapes) are refused rather than
        stored in a form get() would reject on every lookup."""
        store = TraceStore(tmp_path / "ts")
        assert not store.put({"family": "x", "n": 11},
                             np.linspace(0.0, 1.0, 4), np.ones(4, bool))
        assert not store.put({"family": "x", "n": 12},
                             np.arange(4, dtype=np.int64),
                             np.ones(3, bool))
        assert store.stores == 0
        assert not any((tmp_path / "ts").rglob("*.npy"))

    def test_unwritable_root_degrades_to_noop(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        store = TraceStore(blocker / "sub")
        assert store.disabled
        assert not store.put({"n": 1}, np.arange(2, dtype=np.int64),
                             np.zeros(2, bool))
        assert store.get({"n": 1}) is None

    def test_store_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LAB_TRACES", "off")
        assert store_from_env() is None
        monkeypatch.setenv("REPRO_LAB_TRACES", str(tmp_path / "ts"))
        store = store_from_env()
        assert store is not None and store.root == tmp_path / "ts"

    def test_kernel_uses_active_store(self, tmp_path):
        store = TraceStore(tmp_path / "ts")
        set_active_store(store)
        machine = MachineSpec(name="t", line_size=4, policy="lru")
        params = {"n": 16, "middle": 32, "scheme": "wa2", "b3": 8,
                  "b2": 4, "base": 4}
        set_active_store(None)
        bare = kernel_matmul_cache(machine, params)
        set_active_store(store)
        cold = kernel_matmul_cache(machine, params)
        assert store.stores == 1 and store.misses == 1
        warm = kernel_matmul_cache(machine, params)
        assert store.hits == 1
        assert bare == cold == warm

    def test_hierarchy_kernel_uses_active_store(self, tmp_path):
        from repro.lab.registry import kernel_matmul_hierarchy

        store = TraceStore(tmp_path / "ts")
        set_active_store(store)
        machine = MachineSpec(name="t", line_size=4, levels=(64, 256),
                              policy="lru")
        params = {"n": 8, "middle": 8, "scheme": "wa2"}
        cold = kernel_matmul_hierarchy(machine, params)
        assert store.stores == 1
        warm = kernel_matmul_hierarchy(machine, params)
        assert store.hits == 1
        assert cold == warm

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

    def test_stats_and_gc_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LAB_TRACES", str(tmp_path / "ts"))
        assert self.run_sweep(tmp_path) == 0
        out = capsys.readouterr().out
        assert "via 1 batch(es)" in out

        args = ["--cache-dir", str(tmp_path / "rc"),
                "--trace-dir", str(tmp_path / "ts")]
        assert main(["cache", "stats", *args]) == 0
        out = capsys.readouterr().out
        assert "3 records" in out
        assert "1 traces" in out

        # same-version gc keeps everything; --all clears both stores
        assert main(["cache", "gc", *args]) == 0
        out = capsys.readouterr().out
        assert "removed 0 result record(s)" in out
        assert main(["cache", "gc", "--all", *args]) == 0
        out = capsys.readouterr().out
        assert "removed 3 result record(s)" in out
        assert "removed 1 trace(s)" in out

    def test_gc_prunes_stale_code_versions(self, tmp_path, capsys):
        root = tmp_path / "rc"
        stale = ResultCache(root, code_version="stale")
        stale.put({"kernel": "k", "params": {}}, {"x": 1})
        current = ResultCache(root)
        current.put({"kernel": "k", "params": {}}, {"x": 1})
        assert main(["cache", "gc", "--cache-dir", str(root),
                     "--trace-dir", str(tmp_path / "ts")]) == 0
        out = capsys.readouterr().out
        assert "removed 1 result record(s); 1 kept" in out

    def test_no_multi_capacity_flag(self, tmp_path, capsys):
        assert self.run_sweep(tmp_path, "--no-multi-capacity",
                              "--no-trace-store") == 0
        out = capsys.readouterr().out
        assert "batch(es)" not in out

    def test_no_trace_store_flag_keeps_disk_clean(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_LAB_TRACES", str(tmp_path / "ts"))
        assert self.run_sweep(tmp_path, "--no-trace-store") == 0
        assert not (tmp_path / "ts").exists() \
            or not any((tmp_path / "ts").rglob("*.npy"))

    def test_stats_and_gc_honour_env_off(self, tmp_path, monkeypatch,
                                         capsys):
        """REPRO_LAB_TRACES=off disables the store for runs, so stats/gc
        must not resolve (or prune) the default root behind its back."""
        monkeypatch.setenv("REPRO_LAB_TRACES", "off")
        for cmd in ("stats", "gc"):
            assert main(["cache", cmd,
                         "--cache-dir", str(tmp_path / "rc")]) == 0
            out = capsys.readouterr().out
            assert "trace store disabled" in out
            assert "trace(s)" not in out

    def test_cache_dir_scopes_trace_store(self, tmp_path, monkeypatch,
                                          capsys):
        """--cache-dir scopes traces to <dir>/traces, and a gc scoped to
        an unrelated dir must not touch them."""
        monkeypatch.delenv("REPRO_LAB_TRACES", raising=False)
        assert self.run_sweep(tmp_path) == 0
        capsys.readouterr()
        scoped = tmp_path / "rc" / "traces"
        assert any(scoped.rglob("*.npy"))
        assert main(["cache", "gc", "--all",
                     "--cache-dir", str(tmp_path / "unrelated")]) == 0
        capsys.readouterr()
        assert any(scoped.rglob("*.npy"))  # untouched
        assert main(["cache", "gc", "--all",
                     "--cache-dir", str(tmp_path / "rc")]) == 0
        out = capsys.readouterr().out
        assert "removed 1 trace(s)" in out
        assert not any(scoped.rglob("*.npy"))

    def test_no_trace_store_does_not_leak_to_next_run(self, tmp_path,
                                                      monkeypatch):
        """One --no-trace-store run must not disable the store for later
        in-process invocations (set_active_store must not rewrite the
        user's $REPRO_LAB_TRACES)."""
        monkeypatch.delenv("REPRO_LAB_TRACES", raising=False)
        assert self.run_sweep(tmp_path, "--no-trace-store") == 0
        scoped = tmp_path / "rc" / "traces"
        assert not scoped.exists() or not any(scoped.rglob("*.npy"))
        # fresh cache dir so the kernels actually run again
        scoped2 = tmp_path / "rc2" / "traces"
        assert self.run_sweep(tmp_path, "--cache-dir",
                              str(tmp_path / "rc2")) == 0
        assert any(scoped2.rglob("*.npy"))

    def test_no_cache_skips_default_trace_store(self, tmp_path,
                                                monkeypatch):
        """--no-cache promises no disk I/O: the default trace store must
        not be installed either."""
        monkeypatch.delenv("REPRO_LAB_TRACES", raising=False)
        assert self.run_sweep(tmp_path, "--no-cache") == 0
        scoped = tmp_path / "rc" / "traces"
        assert not scoped.exists() or not any(scoped.rglob("*.npy"))
