"""Executor-level cost-grid batching and machine-projected cache keys.

Covers the batch-kernel protocol wiring (grouping, fan-out into
per-point cache records, ``--no-batch`` symmetry), the
``machine_fields`` cache-key normalization (renamed / irrelevant-field
machines share entries; meaningless machine grid axes are rejected at
scenario validation), and numpy-typed grid canonicalization for the new
group keys.
"""

import numpy as np
import pytest

from repro.lab.cache import ResultCache, point_key
from repro.lab.cli import main
from repro.lab.executor import _batch_key, execute
from repro.lab.registry import (
    KERNELS,
    MACHINES,
    MachineSpec,
    project_machine,
    run_batch,
)
from repro.lab.scenarios import Scenario, ScenarioPoint, get_scenario


def cost_grid_points(machine=None, P_axis=(64, 256, 1024),
                     c3_axis=(1, 2, 4, 8)):
    machine = machine if machine is not None else MACHINES["hw-2015"]
    return Scenario(
        name="t", kernel="cost-25d-mm-l3-ool2", machine=machine,
        fixed={"n": 1 << 13},
        grid={"P": list(P_axis), "c3": list(c3_axis)},
    ).points()


# --------------------------------------------------------------------- #
# batching regression: grouping, fan-out, --no-batch
# --------------------------------------------------------------------- #
class TestCostGridBatching:
    def test_cost_grid_reports_batches(self):
        report = execute(cost_grid_points(), cache=None)
        assert report.batches == 1
        assert report.batched_points == report.total == 12

    def test_batched_records_equal_per_point_records(self):
        pts = cost_grid_points()
        looped = execute(pts, cache=None, batch=False)
        batched = execute(pts, cache=None, batch=True)
        assert looped.batches == 0 and batched.batches == 1
        assert looped.records() == batched.records()

    def test_batch_results_fan_out_into_point_cache(self, tmp_path):
        pts = cost_grid_points()
        cache = ResultCache(tmp_path / "rc")
        report = execute(pts, cache=cache, batch=True)
        assert report.batches == 1 and report.misses == len(pts)
        # every point is individually addressable now, batching off
        warm = execute(pts, cache=ResultCache(tmp_path / "rc"),
                       batch=False)
        assert warm.hits == len(pts)
        assert warm.records() == report.records()

    def test_negative_P_point_does_not_crash_the_batch(self):
        """Regression: python pow goes complex on a negative base with
        a fractional exponent, so an eagerly evaluated c3 <= P^(1/3)
        bound used to crash the whole batch over one bad point — even
        one whose scalar kernel short-circuits the chained require and
        reports feasible: False before ever touching P^(1/3)."""
        machine = MACHINES["hw-2015"]
        for kernel, params in (
            ("cost-25d-mm-l2", {"n": 64, "c2": 0}),
            ("cost-25d-mm-l3", {"n": 64, "c2": 1, "c3": 0}),
            ("cost-25d-mm-l3-ool2", {"n": 64, "c3": 0}),
        ):
            pts = [ScenarioPoint(kernel, machine, dict(params, P=P))
                   for P in (64, -8, 4096)]
            batched = execute(pts, cache=None, batch=True)
            looped = execute(pts, cache=None, batch=False)
            assert batched.records() == looped.records()
            assert not any(r["feasible"] for r in batched.records())

    def test_infeasible_edge_points_share_the_batch(self):
        # c3 = 32 > P^(1/3) everywhere in this grid: still one batch,
        # with per-point feasible flags.
        report = execute(cost_grid_points(c3_axis=(1, 4, 32)),
                         cache=None)
        assert report.batches == 1
        feasible = [r.record["feasible"] for r in report.results]
        assert True in feasible and False in feasible

    def test_different_hw_machines_group_separately(self):
        pts = (cost_grid_points(machine=MACHINES["hw-2015"])
               + cost_grid_points(machine=MACHINES["hw-sym"]))
        report = execute(pts, cache=None)
        assert report.batches == 2
        assert report.batched_points == len(pts)

    def test_parallel_jobs_with_cost_batches(self):
        pts = (cost_grid_points(machine=MACHINES["hw-2015"])
               + cost_grid_points(machine=MACHINES["hw-sym"]))
        serial = execute(pts, cache=None, jobs=1)
        parallel = execute(pts, cache=None, jobs=2)
        assert serial.records() == parallel.records()

    def test_multi_capacity_flag_does_not_gate_cost_batches(self):
        report = execute(cost_grid_points(), cache=None,
                         multi_capacity=False)
        assert report.batches == 1

    def test_batch_flag_does_not_gate_capacity_batches(self):
        machine = MachineSpec(name="t", line_size=4, policy="lru")
        pts = [ScenarioPoint("matmul-cache", machine,
                             {"n": 16, "middle": 32, "scheme": "wa2",
                              "b3": 8, "b2": 4, "base": 4,
                              "cache_blocks": b})
               for b in (3, 4, 5)]
        assert execute(pts, cache=None, batch=False).batches == 1
        pt = pts[0]
        assert _batch_key(pt, multi_capacity=True, batch=False) is not None
        assert _batch_key(pt, multi_capacity=False, batch=True) is None

    def test_short_batch_result_fails_loudly(self):
        """A batch evaluator returning too few records must abort the
        sweep attributably, not silently drop points."""
        from dataclasses import replace

        from repro.lab.params import BatchKernel

        broken = BatchKernel(
            toggle="batch",
            group_key=lambda machine, params: {"machine": {}},
            run=lambda group: [{"x": 1}],  # one record, whatever the size
            machine_only=True)
        original = KERNELS["cost-2d-mm"]
        KERNELS["cost-2d-mm"] = replace(original, batch=broken)
        try:
            pts = [ScenarioPoint("cost-2d-mm", MACHINES["hw-2015"],
                                 {"n": 64, "P": P}) for P in (4, 16)]
            with pytest.raises(RuntimeError,
                               match="returned 1 record.s. for 2"):
                execute(pts, cache=None)
        finally:
            KERNELS["cost-2d-mm"] = original

    def test_run_batch_rejects_unregistered_kernels(self):
        machine = MACHINES["sim-l3"]
        with pytest.raises(ValueError, match="no batch evaluator"):
            run_batch("krylov-cg", [(machine, {"mesh": 16})])

    def test_mixed_hw_batch_rejected(self):
        a = MACHINES["hw-2015"]
        b = MACHINES["hw-sym"]
        with pytest.raises(ValueError, match="mixes different hw"):
            run_batch("cost-2d-mm", [(a, {}), (b, {})])

    def test_inprocess_and_worker_paths_agree_on_noncanonical_specs(
            self):
        """In-process execution skips the payload round-trip workers
        perform, so spec construction must canonicalize hand-built
        machines (int hw rates, list levels) to keep records — and
        hence cached bytes — independent of `jobs`."""
        import json

        from repro.lab.executor import _run_points, _run_task

        machine = MachineSpec(name="x", hw=(("beta_nw", 2),),
                              levels=None)
        assert machine.hw == (("beta_nw", 2.0),)
        assert type(machine.hw[0][1]) is float
        pt = ScenarioPoint("cost-break-even", machine, {})
        direct = _run_points([pt])
        via_payload = _run_task({"points": [pt.payload()]})["records"]
        assert json.dumps(direct) == json.dumps(via_payload)
        assert MachineSpec(name="x", levels=[64, 256]).levels == \
            (64, 256)

    def test_every_cost_kernel_registers_a_batch_entry(self):
        cost = [KERNELS[name] for name in KERNELS if name.startswith("cost-")]
        assert all(k.batch is not None and k.batch.toggle == "batch"
                   for k in cost)


# --------------------------------------------------------------------- #
# numpy-typed grids: group keys and cache keys stay canonical
# --------------------------------------------------------------------- #
class TestNumpyGridCanonicalization:
    def test_numpy_grid_neither_splits_nor_duplicates_batches(self):
        pts = cost_grid_points(P_axis=np.array([64, 256, 1024]),
                               c3_axis=np.array([1, 2, 4, 8]))
        assert all(isinstance(p.params["P"], np.integer) for p in pts)
        report = execute(pts, cache=None)
        assert report.batches == 1
        assert report.batched_points == len(pts)
        plain = execute(cost_grid_points(), cache=None, batch=False)
        assert report.records() == plain.records()

    def test_numpy_and_plain_grids_share_cache_keys(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        execute(cost_grid_points(P_axis=np.array([64, 256, 1024]),
                                 c3_axis=np.array([1, 2, 4, 8])),
                cache=cache)
        warm = execute(cost_grid_points(), cache=cache, batch=False)
        assert warm.hits == warm.total

    def test_point_key_accepts_numpy_payloads(self):
        pt_np = ScenarioPoint("cost-2d-mm", MACHINES["hw-2015"],
                              {"n": np.int64(4096), "P": np.int64(64)})
        pt_py = ScenarioPoint("cost-2d-mm", MACHINES["hw-2015"],
                              {"n": 4096, "P": 64})
        assert point_key(pt_np.cache_payload(), "v1") == \
            point_key(pt_py.cache_payload(), "v1")

    def test_numpy_bool_payloads_key_like_python_bools(self, tmp_path):
        machine = MACHINES["sim-l3"]
        np_pt = ScenarioPoint("summa-2d", machine,
                              {"n": 16, "P": 4, "M1": 48,
                               "hoard": np.bool_(True), "seed": 0})
        py_pt = ScenarioPoint("summa-2d", machine,
                              {"n": 16, "P": 4, "M1": 48,
                               "hoard": True, "seed": 0})
        assert point_key(np_pt.cache_payload(), "v1") == \
            point_key(py_pt.cache_payload(), "v1")
        cache = ResultCache(tmp_path / "rc")
        cold = execute([np_pt], cache=cache)
        warm = execute([py_pt], cache=cache)
        assert cold.misses == 1 and warm.hits == 1

    def test_numpy_machine_override_keys_canonically(self):
        machine = MACHINES["sim-l3"].override(
            write_slow=np.float64(8.0))
        pt = ScenarioPoint("matmul-cache", machine,
                           {"n": 16, "middle": 32, "scheme": "wa2"})
        plain = ScenarioPoint("matmul-cache",
                              MACHINES["sim-l3"].override(write_slow=8.0),
                              pt.params)
        assert (_batch_key(pt, multi_capacity=True, batch=False)
                == _batch_key(plain, multi_capacity=True, batch=False))
        assert point_key(pt.cache_payload(), "v1") == \
            point_key(plain.cache_payload(), "v1")


# --------------------------------------------------------------------- #
# machine-projected cache keys
# --------------------------------------------------------------------- #
class TestMachineRelevanceKeys:
    def test_every_registered_kernel_declares_machine_fields(self):
        spec_fields = set(MachineSpec().as_dict())
        for kernel in KERNELS.values():
            fields = kernel.machine_fields
            assert set(fields) <= spec_fields
            assert "name" not in fields  # names never shape a record

    def test_renamed_machine_shares_cost_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        execute(cost_grid_points(machine=MACHINES["hw-2015"]),
                cache=cache)
        renamed = MACHINES["hw-2015"].override(name="some-other-box")
        warm = execute(cost_grid_points(machine=renamed), cache=cache)
        assert warm.hits == warm.total

    def test_irrelevant_field_shares_cost_cache_entries(self, tmp_path):
        # cost-* kernels read only `hw`: energy fields are noise.
        cache = ResultCache(tmp_path / "rc")
        execute(cost_grid_points(machine=MACHINES["hw-2015"]),
                cache=cache)
        noisy = MACHINES["hw-2015"].override(write_slow=99.0,
                                             cache_words=12345)
        warm = execute(cost_grid_points(machine=noisy), cache=cache)
        assert warm.hits == warm.total

    def test_default_and_empty_hw_key_identically(self):
        # hw=None and hw=() both mean "HwParams defaults".
        assert project_machine(MACHINES["sim-l3"], "cost-2d-mm") == \
            project_machine(MACHINES["hw-2015"], "cost-2d-mm")

    def test_executed_kernels_ignore_the_whole_machine(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        params = {"n": 16, "P": 4, "M1": 48, "hoard": False, "seed": 0}
        cold = execute([ScenarioPoint("summa-2d", MACHINES["sim-l3"],
                                      params)], cache=cache)
        warm = execute([ScenarioPoint("summa-2d", MACHINES["nvm-pcm"],
                                      params)], cache=cache)
        assert cold.misses == 1 and warm.hits == 1
        assert warm.records() == cold.records()

    def test_trace_kernels_share_entries_across_names_only(self,
                                                           tmp_path):
        cache = ResultCache(tmp_path / "rc")
        machine = MachineSpec(name="a", line_size=4, policy="lru")
        params = {"n": 16, "middle": 32, "scheme": "wa2", "b3": 8,
                  "b2": 4, "base": 4, "cache_blocks": 3}
        execute([ScenarioPoint("matmul-cache", machine, params)],
                cache=cache)
        renamed = machine.override(name="b")
        warm = execute([ScenarioPoint("matmul-cache", renamed, params)],
                       cache=cache)
        assert warm.hits == 1
        # ... but a *relevant* field still misses: energy shapes the
        # record, so write_slow stays part of the key.
        hot = machine.override(write_slow=30.0)
        miss = execute([ScenarioPoint("matmul-cache", hot, params)],
                       cache=cache)
        assert miss.misses == 1

    def test_hw_override_still_changes_cost_keys(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        execute(cost_grid_points(machine=MACHINES["hw-2015"]),
                cache=cache)
        tuned = MACHINES["hw-2015"].with_hw(beta_23=30.0)
        miss = execute(cost_grid_points(machine=tuned), cache=cache)
        assert miss.misses == miss.total


# --------------------------------------------------------------------- #
# meaningless machine axes are rejected at scenario validation
# --------------------------------------------------------------------- #
class TestMachineAxisValidation:
    def test_irrelevant_axis_rejected_with_clear_error(self):
        sc = Scenario(name="t", kernel="cost-2d-mm",
                      machine=MACHINES["hw-2015"],
                      grid={"machine.write_slow": [2.0, 30.0]})
        with pytest.raises(ValueError,
                           match="does not read machine.write_slow"):
            sc.points()

    def test_cost_error_hints_at_hw_overrides(self):
        sc = Scenario(name="t", kernel="cost-break-even",
                      machine=MACHINES["hw-2015"],
                      grid={"machine.read_slow": [2.0, 4.0]})
        with pytest.raises(ValueError, match="--hw KEY=VALUE"):
            sc.points()

    def test_executed_kernels_reject_any_machine_axis(self):
        sc = Scenario(name="t", kernel="krylov-cg",
                      machine=MACHINES["sim-l3"],
                      grid={"machine.policy": ["lru", "clock"]})
        with pytest.raises(ValueError, match="does not read"):
            sc.points()

    def test_relevant_axes_still_sweep(self):
        sc = Scenario(name="t", kernel="matmul-cache",
                      machine=MACHINES["nvm-pcm"],
                      fixed={"n": 8, "middle": 8, "scheme": "wa2"},
                      grid={"machine.write_slow": [2.0, 30.0]})
        assert len(sc.points()) == 2

    def test_cli_rejects_meaningless_axis(self, capsys, tmp_path):
        code = main(["sweep", "--kernel", "cost-2d-mm",
                     "--machine", "hw-2015",
                     "--grid", "machine.write_slow=2,30",
                     "--cache-dir", str(tmp_path / "rc")])
        assert code == 2
        assert "does not read machine.write_slow" in \
            capsys.readouterr().err


# --------------------------------------------------------------------- #
# CLI: --no-batch symmetry and the cost-map preset
# --------------------------------------------------------------------- #
class TestCostGridCLI:
    def run_sweep(self, tmp_path, *extra):
        return main([
            "sweep", "--kernel", "cost-25d-mm-l3-ool2",
            "--machine", "hw-2015", "--set", "n=8192",
            "--grid", "P=64,256,1024", "--grid", "c3=1,2,4,8",
            "--cache-dir", str(tmp_path / "rc"), *extra,
        ])

    def test_sweep_batches_by_default(self, tmp_path, capsys):
        assert self.run_sweep(tmp_path) == 0
        assert "12 via 1 batch(es)" in capsys.readouterr().out

    def test_no_batch_round_trips_identically(self, tmp_path, capsys):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        assert self.run_sweep(tmp_path, "--no-cache",
                              "--csv", str(csv_a)) == 0
        out = capsys.readouterr().out
        assert "batch(es)" in out
        assert self.run_sweep(tmp_path, "--no-cache", "--no-batch",
                              "--csv", str(csv_b)) == 0
        out = capsys.readouterr().out
        assert "batch(es)" not in out
        assert csv_a.read_text() == csv_b.read_text()

    def test_no_batch_run_reads_batched_cache(self, tmp_path, capsys):
        assert self.run_sweep(tmp_path) == 0
        capsys.readouterr()
        assert self.run_sweep(tmp_path, "--no-batch") == 0
        assert "12/12 points (100%)" in capsys.readouterr().out

    def test_cost_map_preset_runs_batched(self, capsys):
        assert main(["run", "cost-map", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "via 1 batch(es)" in out
        assert "False" in out  # the infeasible provisioning edge shows

    def test_cost_map_preset_points(self):
        pts = get_scenario("cost-map", quick=True).points()
        assert len(pts) == 12
        assert {p.kernel for p in pts} == {"cost-25d-mm-l3-ool2"}
