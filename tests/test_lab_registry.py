"""Registry completeness + scenario expansion for ``repro.lab``.

Everything the engine claims to expose must be resolvable by string key
and actually runnable; scenario grids must expand to exactly the points
the paper's tables iterate over.
"""

import numpy as np
import pytest

from repro.lab.registry import (
    KERNELS,
    MACHINES,
    POLICIES,
    MachineSpec,
    resolve_machine,
)
from repro.lab.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioPoint,
    get_scenario,
)
from repro.machine.cache import CacheSim
from repro.machine.multicache import CacheHierarchySim
from repro.machine.policies import POLICIES as MACHINE_POLICIES


class TestMachines:
    def test_every_preset_builds(self):
        for name, spec in MACHINES.items():
            sim = spec.make()
            assert isinstance(sim, (CacheSim, CacheHierarchySim)), name

    def test_every_policy_reachable_through_spec(self):
        """Every online policy builds a per-access simulator, and every
        policy, Belady included, runs a trace kernel's point."""
        lines = np.arange(64, dtype=np.int64) % 16
        writes = np.zeros(64, dtype=bool)
        params = {"n": 8, "middle": 8, "scheme": "wa2", "b3": 4, "b2": 2,
                  "base": 2}
        for policy in POLICIES:
            spec = MachineSpec(cache_words=8 * 4, line_size=4,
                               policy=policy, seed=3)
            if policy in MACHINE_POLICIES:
                sim = spec.make()
                sim.run_lines(lines, writes)
                assert sim.stats.accesses == 64, policy
            else:
                with pytest.raises(ValueError, match="fastsim.sweep"):
                    spec.make()
            rec = KERNELS["matmul-cache"].run(spec, params)
            assert rec["accesses"] > 0 and rec["writebacks"] > 0, policy

    def test_policies_are_the_machine_registry(self):
        """A machine may name every online policy class, and Belady."""
        assert set(POLICIES) == set(MACHINE_POLICIES) | {"belady"}

    def test_spec_roundtrips_through_dict(self):
        for spec in MACHINES.values():
            assert MachineSpec.from_dict(spec.as_dict()) == spec

    def test_resolve_machine(self):
        assert resolve_machine("nvm-pcm") == MACHINES["nvm-pcm"]
        spec = resolve_machine({"name": "x", "cache_words": 64,
                                "line_size": 4})
        assert spec.cache_words == 64
        with pytest.raises(ValueError, match="unknown machine"):
            resolve_machine("no-such-machine")

    def test_override(self):
        spec = MACHINES["sim-l3"].override(policy="fifo")
        assert spec.policy == "fifo"
        assert MACHINES["sim-l3"].policy == "lru"  # frozen original


#: an in-domain point for the kernels no preset runs and whose defaults
#: cannot run either (required parameters, a machine with levels).
_NO_PRESET = {
    "matmul-hierarchy": ScenarioPoint(
        "matmul-hierarchy", MACHINES["three-level"],
        {"n": 16, "middle": 16, "scheme": "wa2"}),
}


@pytest.fixture(scope="module")
def sample_points():
    """One point per kernel: the first quick-preset point that runs it,
    else :data:`_NO_PRESET`, else the kernel's defaults."""
    points = dict(_NO_PRESET)
    for name in sorted(SCENARIOS):
        for pt in SCENARIOS[name](True).points():
            points.setdefault(pt.kernel, pt)
    for name in KERNELS:
        points.setdefault(name, ScenarioPoint(name, MACHINES["hw-2015"], {}))
    return points


class TestKernels:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_record_carries_every_declared_metric_field(self, name,
                                                        sample_points):
        """A traced run folds only the declared fields a record carries,
        so a declared field the records lack is a metric that silently
        never appears."""
        record = sample_points[name].run()
        assert record.get("feasible", True) is True
        missing = [f for f in KERNELS[name].metric_fields if f not in record]
        assert not missing, (name, missing, sorted(record))

    def test_every_kernel_resolvable_and_callable(self):
        for name, kernel in KERNELS.items():
            assert callable(kernel.run), name

    def test_matmul_cache_runs(self):
        rec = KERNELS["matmul-cache"].run(
            MachineSpec(cache_words=3 * 8 * 8 + 4, line_size=4),
            {"n": 16, "middle": 16, "scheme": "wa2", "b3": 8, "b2": 4,
             "base": 4},
        )
        assert rec["writebacks"] >= rec["write_lb"] > 0
        assert rec["energy"] > 0

    def test_matmul_hierarchy_runs(self):
        rec = KERNELS["matmul-hierarchy"].run(
            MACHINES["three-level"],
            {"n": 16, "middle": 16, "scheme": "wa2", "b3": 8, "b2": 4,
             "base": 4},
        )
        assert rec["backing_reads"] > 0
        assert "L3_writebacks" in rec

    def test_matmul_hierarchy_needs_levels(self):
        with pytest.raises(ValueError):
            KERNELS["matmul-hierarchy"].run(
                MachineSpec(), {"n": 8, "middle": 8, "scheme": "co"})

    def test_unknown_kernel_rejected(self):
        pt = ScenarioPoint("no-such-kernel", MachineSpec(), {})
        with pytest.raises(ValueError, match="unknown kernel"):
            pt.run()



class TestScenarioExpansion:
    def test_grid_is_cartesian_with_odometer_order(self):
        sc = Scenario(
            name="t", kernel="matmul-cache", machine=MachineSpec(),
            fixed={"n": 8},
            grid={"scheme": ["co", "wa2"], "middle": [4, 8, 16]},
        )
        pts = sc.points()
        assert len(pts) == 6
        assert [p.params["scheme"] for p in pts] == \
            ["co"] * 3 + ["wa2"] * 3
        assert [p.params["middle"] for p in pts] == [4, 8, 16] * 2
        assert all(p.params["n"] == 8 for p in pts)

    def test_machine_dot_keys_override_spec(self):
        sc = Scenario(
            name="t", kernel="matmul-cache", machine=MachineSpec(),
            fixed={"n": 8, "middle": 8, "scheme": "co"},
            grid={"machine.policy": ["lru", "clock"]},
        )
        pts = sc.points()
        assert [p.machine.policy for p in pts] == ["lru", "clock"]
        assert all("machine.policy" not in p.params for p in pts)

    def test_point_payload_roundtrip(self):
        pt = ScenarioPoint("matmul-cache", MACHINES["nvm-pcm"],
                           {"n": 8, "middle": 8, "scheme": "co"})
        again = ScenarioPoint.from_payload(pt.payload())
        assert again.kernel == pt.kernel
        assert again.machine == pt.machine
        assert again.params == pt.params

    def test_fig2_quick_point_count(self):
        # 6 variants (co, mkl-like, 4 wa2 blockings) x 3 middles.
        assert len(get_scenario("fig2", quick=True).points()) == 18

    def test_sec6_point_count_and_order(self):
        pts = get_scenario("sec6", quick=True).points()
        # 3 schemes x 3 capacities x 4 policies, policy fastest.
        assert len(pts) == 36
        assert [p.machine.policy for p in pts[:4]] == \
            ["lru", "clock", "segmented-lru", "belady"]

    def test_every_preset_expands(self):
        for name in SCENARIOS:
            pts = get_scenario(name, quick=True).points()
            assert len(pts) > 0, name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("figure-nine")
