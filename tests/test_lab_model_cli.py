"""CLI acceptance for the cost-model / distributed / Krylov sweeps.

Pins the issue's acceptance criteria: ``repro-lab run table1 --jobs N``
and ``repro-lab sweep --kernel cost-25d-mm-l3 --grid c3=... --grid
P=...`` both work and are served from the result cache on re-run; the
new presets run; ``run --set`` nudges presets and ``--hw`` overrides
cost parameters.
"""

import pytest

from repro.experiments import format_table1
from repro.experiments.table1 import _assemble_table1, table1_scenario
from repro.lab.cli import main as lab_main
from repro.lab.executor import execute


class TestTable1Preset:
    def test_run_matches_harness_and_caches(self, capsys, tmp_path):
        argv = ["run", "table1", "--jobs", "4", "--cache-dir",
                str(tmp_path)]
        assert lab_main(argv) == 0
        first = capsys.readouterr().out
        points = table1_scenario().points()
        assert format_table1(_assemble_table1(execute(points).results)) \
            in first
        assert "0/47" in first  # cold cache

        assert lab_main(argv) == 0
        second = capsys.readouterr().out
        assert "47/47" in second and "100%" in second

    def test_report_from_warm_cache(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path)]
        assert lab_main(["run", "lu-tradeoff", "--quick"] + argv) == 0
        capsys.readouterr()
        assert lab_main(["report", "lu-tradeoff", "--quick"] + argv) == 0
        assert "Section 7.2" in capsys.readouterr().out


class TestCostSweeps:
    def test_acceptance_grid_caches(self, capsys, tmp_path):
        argv = ["sweep", "--kernel", "cost-25d-mm-l3",
                "--grid", "c3=1,2,4,8", "--grid", "P=64,256",
                "--cache-dir", str(tmp_path)]
        assert lab_main(argv) == 0
        first = capsys.readouterr().out
        assert "2.5DMML3" in first
        assert "False" in first     # infeasible c3=1 / c3=8 rows survive
        assert "0/8" in first

        assert lab_main(argv) == 0
        assert "8/8" in capsys.readouterr().out

    def test_hw_override_changes_the_answer(self, capsys):
        base = ["sweep", "--kernel", "cost-break-even", "--no-cache"]
        assert lab_main(base) == 0
        default = capsys.readouterr().out
        assert "1.23K" in default   # ((1 + 1.5*20 + 4)/1)^2 = 1225
        assert lab_main(base + ["--hw", "beta_23=4"]) == 0
        symmetric = capsys.readouterr().out
        assert "121" in symmetric   # ((1 + 6 + 4)/1)^2

    def test_bad_hw_key_is_a_cli_error(self, capsys):
        assert lab_main(["sweep", "--kernel", "cost-break-even",
                         "--no-cache", "--hw", "beta_99=1"]) == 2
        assert "unknown hw parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("hw, message", [
        ("beta_23=-1", "beta_23 must be positive"),
        ("beta_23=nan", "beta_23 must be positive"),
        ("M1=1e12", "level sizes must satisfy M1 < M2 < M3"),
    ])
    def test_bad_hw_value_is_a_cli_error(self, capsys, hw, message):
        # Rejected while the scenario is built, not by the kernel
        # mid-sweep (which exited 1 with a remote traceback).
        assert lab_main(["sweep", "--kernel", "cost-2d-mm", "--grid",
                         "n=64", "--set", "P=16", "--hw", hw,
                         "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"repro-lab: error: {message}"

    def test_hw_machine_preset(self, capsys):
        assert lab_main(["sweep", "--kernel", "cost-dominance",
                         "--machine", "hw-sym", "--no-cache",
                         "--set", "c2=1", "--set", "c3=4"]) == 0
        assert "winner" in capsys.readouterr().out.lower()


class TestNewPresets:
    @pytest.mark.parametrize("name,expect", [
        ("sec7-nvm", "Section 7 Model 1"),
        ("lu-tradeoff", "Section 7.2"),
        ("table2", "Theorem-4"),
        ("distributed", "Distributed kernels"),
        ("krylov", "Krylov sweep"),
    ])
    def test_preset_runs_quick(self, capsys, name, expect):
        assert lab_main(["run", name, "--quick", "--no-cache"]) == 0
        assert expect in capsys.readouterr().out

    def test_every_point_of_distributed_is_verified(self, capsys):
        assert lab_main(["run", "distributed", "--quick",
                         "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "False" not in out.split("correct")[1]


class TestRunSetOverrides:
    def test_set_pins_a_grid_axis(self, capsys):
        assert lab_main(["run", "sec6", "--quick", "--no-cache",
                         "--set", "machine.policy=lru"]) == 0
        out = capsys.readouterr().out
        assert "computed 9" in out       # 36 points / 4 policies
        assert "clock" not in out

    def test_set_overrides_fixed_param(self, capsys):
        assert lab_main(["run", "sec6", "--quick", "--no-cache",
                         "--set", "middle=16"]) == 0
        small = capsys.readouterr().out
        assert lab_main(["run", "sec6", "--quick", "--no-cache"]) == 0
        default = capsys.readouterr().out
        # Same grid shape, different middle => different counters.
        assert "computed 36" in small and "computed 36" in default
        assert small != default

    def test_set_on_explicit_preset(self, capsys):
        # Nudge every LU point to a different seed: still correct.
        assert lab_main(["run", "lu-tradeoff", "--quick", "--no-cache",
                         "--set", "seed=3"]) == 0
        assert "correct=True" in capsys.readouterr().out

    def test_set_rebuilds_coupled_preset(self, capsys):
        # table1's points are a coupled family: --set P must retarget
        # the analytic cells *without* touching the small executed
        # validation point (whose geometry P=64 cannot run).
        assert lab_main(["run", "table1", "--quick", "--no-cache",
                         "--set", "P=64"]) == 0
        out = capsys.readouterr().out
        assert "P=64" in out
        assert "correct=True" in out  # validation still at its own P=8

    def test_unknown_preset_override_rejected(self, capsys):
        assert lab_main(["run", "table1", "--quick", "--no-cache",
                         "--set", "bogus=1"]) == 2
        assert "does not accept override" in capsys.readouterr().err

    def test_typo_set_key_warns_on_stderr(self, capsys):
        # Every kernel declares its parameters, so a typo'd key is
        # refused instead of riding into records and cache keys (it
        # used to print "applying anyway" and run).
        for preset in ("sec5", "sec6"):
            assert lab_main(["run", preset, "--quick", "--no-cache",
                             "--set", "midle=64"]) == 2
            err = capsys.readouterr().err
            assert "does not take parameter(s) ['midle']" in err
            assert "applying anyway" not in err

    def test_rebuild_knob_applies_without_spurious_warning(self, capsys):
        # model_n is a documented lu-tradeoff knob (factory kwarg), not
        # a point param: it must apply cleanly with no typo warning.
        assert lab_main(["run", "lu-tradeoff", "--quick", "--no-cache",
                         "--set", "model_n=4096"]) == 0
        cap = capsys.readouterr()
        assert "n=4096" in cap.out
        assert "note:" not in cap.err

    def test_machine_hw_override_rejected_loudly(self, capsys):
        assert lab_main(["run", "table1", "--quick", "--no-cache",
                         "--set", "machine.hw=2"]) == 2
        assert "use --hw" not in capsys.readouterr().out  # no crash text
        # and with_hw (the supported path) still works:
        from repro.lab.registry import MACHINES
        assert MACHINES["sim-l3"].with_hw(beta_23=9).hw_params().beta_23 == 9

    def test_bad_override_value_not_misreported_as_bad_key(self):
        # A supported key with a broken value must surface the real
        # error, not the "does not accept override(s)" message.
        from repro.lab.scenarios import get_scenario
        with pytest.raises(ValueError, match="'n' must be an integer"):
            get_scenario("table1", quick=True).with_overrides({"n": "foo"})

    def test_infeasible_table_geometry_fails_at_build_time(self):
        # c3 <= c2 makes every analytic cell infeasible — the factory
        # must say so up front, not leave the table assembler to choke
        # on feasible:False records.
        from repro.lab.scenarios import get_scenario
        with pytest.raises(ValueError, match="need c3 > c2 >= 1"):
            get_scenario("table1", quick=True).with_overrides({"c3": 2})
        with pytest.raises(ValueError, match="P must be positive"):
            get_scenario("table2", quick=True).with_overrides({"P": -4})
        with pytest.raises(ValueError, match="c3 must be >= 1"):
            get_scenario("table2", quick=True).with_overrides({"c3": -1})
        for name in ("table1", "table2"):
            with pytest.raises(ValueError, match="n must be positive"):
                get_scenario(name, quick=True).with_overrides({"n": 0})

    def test_report_accepts_run_overrides(self, capsys, tmp_path):
        argv = ["table1", "--quick", "--hw", "beta_23=30",
                "--cache-dir", str(tmp_path)]
        assert lab_main(["run"] + argv) == 0
        capsys.readouterr()
        assert lab_main(["report"] + argv) == 0
        assert "100%" in capsys.readouterr().out
