"""CLI tests for ``python -m repro.lab``.

Includes the subsystem's acceptance criterion: the engine's ``run fig2``
prints the pinned Figure-2 tables exactly, and a second invocation is
served (entirely) from the persistent result cache.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lab.cache import ResultCache
from repro.lab.cli import build_parser
from repro.lab.cli import main as lab_main
from repro.lab.executor import RetryPolicy, execute

GOLDEN = Path(__file__).parent / "golden"


class TestLabList:
    def test_list_enumerates_registries(self, capsys):
        assert lab_main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("scenarios:", "kernels:", "machines:", "policies:"):
            assert section in out
        for name in ("fig2", "nvm-matmul", "matmul-cache", "nvm-pcm",
                     "belady", "lru"):
            assert name in out


class TestLabRun:
    def test_fig2_matches_serial_harness_and_caches(self, capsys, tmp_path):
        """Acceptance: the pinned Figure-2 tables; 2nd run >=90% cached."""
        argv = ["run", "fig2", "--quick", "--jobs", "2",
                "--cache-dir", str(tmp_path)]
        assert lab_main(argv) == 0
        first = capsys.readouterr().out
        expected = GOLDEN.joinpath("fig2-quick.txt").read_text()
        assert expected in first
        assert "0/18" in first  # cold cache

        assert lab_main(argv) == 0
        second = capsys.readouterr().out
        assert expected in second
        assert "18/18" in second and "100%" in second  # >= 90% from cache

    def test_nvm_scenario_runs_and_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "nvm.csv"
        assert lab_main(["run", "nvm-matmul", "--quick", "--no-cache",
                         "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "NVM sweep" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "write_slow" in header and "energy" in header

    def test_report_needs_a_warm_cache(self, capsys, tmp_path):
        argv = ["--quick", "--cache-dir", str(tmp_path)]
        assert lab_main(["report", "fig2"] + argv) == 1
        assert "not in the result cache" in capsys.readouterr().err
        assert lab_main(["run", "fig2"] + argv) == 0
        capsys.readouterr()
        assert lab_main(["report", "fig2"] + argv) == 0
        assert "Figure 2 panel" in capsys.readouterr().out

    def test_sweep_grid_over_machine_fields(self, capsys, tmp_path):
        assert lab_main([
            "sweep", "--kernel", "matmul-cache", "--machine", "nvm-pcm",
            "--set", "n=16", "--set", "middle=16", "--set", "b3=8",
            "--set", "b2=4", "--set", "base=4",
            "--grid", "scheme=co,wa2",
            "--grid", "machine.write_slow=2,30",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario adhoc" in out
        assert out.count("co") >= 2  # 2 write costs x scheme co


class TestExperimentsCLIRewired:
    """A paper table under ``repro-lab run PRESET``: its golden text,
    the persistent cache and the ``--no-cache`` and ``--jobs`` flags."""

    def test_single_experiment_output_unchanged(self, capsys):
        assert lab_main(["run", "sec5"]) == 0
        out = capsys.readouterr().out
        assert GOLDEN.joinpath("sec5.txt").read_text() in out
        assert "[repro.lab]" in out  # the run's cache accounting line

    def test_second_invocation_served_from_cache(self, capsys):
        assert lab_main(["run", "sec5"]) == 0
        first = capsys.readouterr().out
        assert lab_main(["run", "sec5"]) == 0
        second = capsys.readouterr().out
        table = first.split("[repro.lab]")[0]
        assert second.startswith(table)
        assert "3/3 points (100%)" in second

    def test_no_cache_flag(self, capsys):
        assert lab_main(["run", "sec5", "--no-cache"]) == 0
        assert lab_main(["run", "sec5", "--no-cache"]) == 0
        assert "cache disabled" in capsys.readouterr().out

    def test_jobs_flag_parallelizes_all(self, capsys):
        # The points run in two workers; output is printed in order.
        assert lab_main(["run", "sec5", "--jobs", "2"]) == 0
        assert GOLDEN.joinpath("sec5.txt").read_text() \
            in capsys.readouterr().out


def _fresh_modules(code: str, *prefixes: str) -> list:
    """Run *code* in a fresh interpreter and return the loaded modules
    named by *prefixes* (a module or any of its submodules)."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted("
             f"m for m in sys.modules if any(m == p or m.startswith(p + '.')"
             f" for p in {prefixes!r}))))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, env=env).stdout
    return json.loads(out.strip().splitlines()[-1])


def _cli(*argv: str) -> str:
    """Code that runs ``repro-lab *argv`` and requires exit status 0."""
    return ("from repro.lab.cli import main\n"
            f"assert main({list(argv)!r}) == 0")


class TestStartup:
    def test_cli_import_skips_the_pebbling_stack(self):
        """networkx and repro.cdag load only when a cdag-pebble point
        runs, never on CLI start-up."""
        assert _fresh_modules("import repro.lab.cli",
                              "networkx", "repro.cdag") == []

    def test_cli_import_skips_scipy(self):
        """scipy loads only inside the numeric LU/TRSM/Cholesky and
        Krylov kernels, never on CLI start-up."""
        assert _fresh_modules("import repro.lab.cli", "scipy") == []

    def test_cli_import_skips_thread_pools(self):
        """The stack-distance pass is single-threaded, so no thread
        pool module loads on CLI start-up; multiprocessing loads only
        when the executor starts a worker pool."""
        assert _fresh_modules("import repro.lab.cli",
                              "concurrent.futures", "multiprocessing") == []

    def test_cost_grid_sweep_runs_without_scipy(self):
        code = _cli("sweep", "--kernel", "cost-25d-mm-l3-ool2",
                    "--machine", "hw-2015", "--grid", "n=256,512",
                    "--grid", "P=1024,2048", "--grid", "c3=1,2",
                    "--no-cache")
        assert _fresh_modules(code, "scipy") == []

    def test_sec6_sweep_runs_without_scipy(self, tmp_path):
        code = _cli("sweep", "--preset", "sec6", "--quick",
                    "--cache-dir", str(tmp_path))
        assert _fresh_modules(code, "scipy") == []

    def test_cost_grid_sweep_loads_only_the_cost_models(self):
        """A cost grid runs no trace, executed or Section 3-5 kernel, so
        none of their packages load; of repro.distributed only the
        analytic cost models do.  Of fastsim only the super-symbol pass
        the layer probe wraps loads, not the folds that run a sweep."""
        code = _cli("sweep", "--kernel", "cost-25d-mm-l3-ool2",
                    "--machine", "hw-2015", "--grid", "n=256,512",
                    "--grid", "P=1024,2048", "--grid", "c3=1,2",
                    "--no-cache")
        loaded = _fresh_modules(code, "repro.machine.fastsim", "repro.core",
                                "repro.krylov", "repro.bounds",
                                "repro.experiments", "repro.distributed",
                                "repro.machine.multicache")
        assert loaded == ["repro.distributed",
                          "repro.distributed.costmodel",
                          "repro.machine.fastsim",
                          "repro.machine.fastsim.distances",
                          "repro.machine.fastsim.lru",
                          "repro.machine.fastsim.profile",
                          "repro.machine.fastsim.symbols"]

    def test_list_loads_no_fastsim_fold(self):
        """``repro-lab list`` names every kernel and runs none, so no
        fold module loads; the clock and segmented-LRU folds load only
        when a sweep asks for those policies."""
        loaded = _fresh_modules(_cli("list"), "repro.machine.fastsim")
        assert loaded == ["repro.machine.fastsim",
                          "repro.machine.fastsim.distances",
                          "repro.machine.fastsim.lru",
                          "repro.machine.fastsim.profile",
                          "repro.machine.fastsim.symbols"]

    def test_sec6_sweep_loads_only_the_trace_stack(self, tmp_path):
        """A sec6 sweep builds matmul traces and replays them: of
        repro.core only the trace builders load, and neither the
        executed distributed algorithms, Krylov, the bound catalogue
        nor numpy.ma (numpy 2's plain np.unique imports it)."""
        code = _cli("sweep", "--preset", "sec6", "--quick",
                    "--cache-dir", str(tmp_path))
        loaded = _fresh_modules(code, "repro.core", "repro.krylov",
                                "repro.bounds", "numpy.ma",
                                "repro.distributed.summa",
                                "repro.distributed.mm25d",
                                "repro.distributed.lu")
        assert loaded == ["repro.core", "repro.core.traces"]

    def test_sec6_sweep_compiles_only_its_own_preset(self, tmp_path):
        """Each preset is built in its artifact's module, which loads
        when the preset is built: after a sec6 sweep no loaded module
        defines another preset's builder."""
        code = _cli("sweep", "--preset", "sec6", "--quick",
                    "--cache-dir", str(tmp_path)) + (
            "\nimport inspect, sys\n"
            "print(sorted(f'{name}.{attr}'\n"
            "    for name, mod in list(sys.modules.items())\n"
            "    if name.startswith('repro')\n"
            "    for attr, obj in vars(mod).items()\n"
            "    if inspect.isfunction(obj) and obj.__module__ == name\n"
            "    and attr.endswith('_scenario') and attr[0] != '_'\n"
            "    and attr not in ('build_scenario', 'get_scenario')))")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip().splitlines()[-1] == \
            "['repro.experiments.sec6_lru.sec6_scenario']"

    def test_every_public_name_resolves(self):
        """The package __init__s resolve their names on first access;
        every __all__ name of every module and package still does, and
        dir() lists it."""
        code = (
            "import importlib, pkgutil\n"
            "import repro\n"
            "mods = [repro] + [importlib.import_module(m.name) for m in\n"
            "    pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
            "for mod in mods:\n"
            "    for name in getattr(mod, '__all__', ()):\n"
            "        getattr(mod, name)\n"
            "        assert name in dir(mod), (mod.__name__, name)\n"
            "from repro import blocked_matmul, cg\n"
            "from repro.krylov import cg as krylov_cg\n"
            "assert cg is krylov_cg and callable(cg)\n"
            "print(sum(len(getattr(mod, '__all__', ())) for mod in mods))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert int(out.strip().splitlines()[-1]) > 400

    def test_numeric_kernels_load_scipy_on_demand(self):
        lu = _cli("sweep", "--kernel", "lu-ll-nonpivot", "--set", "n=16",
                  "--set", "b=4", "--set", "P=4", "--no-cache")
        assert "scipy.linalg" in _fresh_modules(lu, "scipy")
        cg = _cli("sweep", "--kernel", "krylov-cg", "--set", "mesh=16",
                  "--no-cache")
        assert "scipy.sparse" in _fresh_modules(cg, "scipy")


class TestRobustnessCLI:
    """ISSUE-7 exit-code contract: 3 = degraded (--keep-going), 1 =
    aborted sweep, 2 = bad spec, 130 = interrupted."""

    ARGV = ["run", "sec6", "--quick"]
    #: every point faults twice: in its trace's batch and in the
    #: per-point fallback that batch failure grants it.
    ALL_FAIL = "rate=1.0,times=2"

    def test_keep_going_exits_3_with_failure_table(self, capsys,
                                                   tmp_path):
        rc = lab_main(self.ARGV + ["--cache-dir", str(tmp_path),
                                   "--fault-plan", self.ALL_FAIL,
                                   "--keep-going"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "partial results" in out
        assert "failed points" in out
        assert "FaultInjected" in out
        assert "retries only the failures" in out

    def test_terminal_failure_exits_1_with_resume_hint(self, capsys,
                                                       tmp_path):
        rc = lab_main(self.ARGV + ["--cache-dir", str(tmp_path),
                                   "--fault-plan", self.ALL_FAIL])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sweep aborted" in err
        assert "re-run" in err

    def test_retries_beat_the_fault_plan(self, capsys, tmp_path):
        # times=1 <= --retries 1: the injected failures all recover and
        # the exit code is clean.
        rc = lab_main(self.ARGV + ["--cache-dir", str(tmp_path),
                                   "--fault-plan", "rate=1.0,times=1",
                                   "--retries", "1"])
        assert rc == 0
        assert "partial results" not in capsys.readouterr().out

    def test_nonpositive_base_aborts_with_its_name(self, capsys):
        """``--set base=0`` used to recurse until RecursionError, then
        failed inside the run; it is now rejected at request time."""
        rc = lab_main(["sweep", "--kernel", "matmul-cache", "--machine",
                       "sim-l3", "--set", "n=16", "--set", "middle=16",
                       "--set", "b3=8", "--set", "b2=4", "--set", "base=0",
                       "--set", "scheme=co", "--no-cache"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "base must be positive, got 0" in err
        assert "Traceback" not in err and "RecursionError" not in err

    MATMUL = ["sweep", "--kernel", "matmul-cache", "--machine", "sim-l3",
              "--set", "n=16", "--set", "middle=16", "--set", "b3=8",
              "--set", "b2=4", "--set", "base=4", "--set", "scheme=co",
              "--no-cache"]

    def test_nonpositive_cache_blocks_exits_2_with_its_name(self, capsys):
        """``--set cache_blocks=0`` used to simulate a one-line cache
        and exit 0 with a 0-hit record."""
        for blocks in ("0", "-2"):
            assert lab_main(self.MATMUL + ["--set",
                                           f"cache_blocks={blocks}"]) == 2
            err = capsys.readouterr().err
            assert f"cache_blocks must be positive, got {blocks}" in err
        assert lab_main(["run", "prop62", "--quick", "--no-cache",
                         "--set", "cache_blocks=0"]) == 2
        assert "cache_blocks" in capsys.readouterr().err

    def test_adhoc_machine_set_overrides_the_machine(self, tmp_path,
                                                     capsys):
        """Ad-hoc ``--set machine.policy=clock`` used to run LRU and
        carry ``machine.policy`` as an inert kernel parameter."""
        out = tmp_path / "rows.json"
        assert lab_main(self.MATMUL + ["--set", "cache_blocks=3",
                                       "--set", "machine.policy=clock",
                                       "--json", str(out)]) == 0
        capsys.readouterr()
        [row] = json.loads(out.read_text())
        assert row["policy"] == "clock"
        assert "machine.policy" not in row
        from repro.lab.registry import MACHINES, kernel_matmul_cache
        clock = MACHINES["sim-l3"].override(policy="clock")
        params = {"n": 16, "middle": 16, "b3": 8, "b2": 4, "base": 4,
                  "scheme": "co", "cache_blocks": 3}
        want = kernel_matmul_cache(clock, params)
        assert want != kernel_matmul_cache(MACHINES["sim-l3"], params)
        assert {k: row[k] for k in want} == want

    def test_adhoc_bad_machine_set_exits_2_with_its_name(self, capsys):
        for key, value in (("line_size", "0"), ("cache_words", "-8"),
                           ("associativity", "0"), ("policy", "bogus")):
            assert lab_main(self.MATMUL + [
                "--set", f"machine.{key}={value}"]) == 2
            assert f"machine.{key}" in capsys.readouterr().err

    def test_bad_fault_plan_spec_exits_2(self, capsys):
        assert lab_main(self.ARGV + ["--no-cache", "--fault-plan",
                                     "bogus=1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130_and_sweeps_tmp(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        import repro.lab.cli as cli_mod

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "execute", boom)
        stale_dir = tmp_path / "ab"
        stale_dir.mkdir()
        stale = stale_dir / "half-written.tmp"
        stale.write_text("partial", encoding="utf-8")
        rc = lab_main(self.ARGV + ["--cache-dir", str(tmp_path)])
        assert rc == 130
        assert not stale.exists()
        assert "re-run the same command to resume" in \
            capsys.readouterr().err

    def test_no_cache_partial_results_promise_no_cache(self, capsys):
        rc = lab_main(self.ARGV + ["--no-cache", "--fault-plan",
                                   self.ALL_FAIL, "--keep-going"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "nothing was kept (caching is off)" in out
        assert "points are cached" not in out

    def test_no_cache_abort_hint_promises_no_cache(self, capsys):
        rc = lab_main(self.ARGV + ["--no-cache", "--fault-plan",
                                   self.ALL_FAIL])
        assert rc == 1
        err = capsys.readouterr().err
        assert "nothing was kept (--no-cache)" in err
        assert "cached" not in err

    def test_no_cache_interrupt_hint_promises_no_cache(self, capsys,
                                                       monkeypatch):
        import repro.lab.cli as cli_mod

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "execute", boom)
        assert lab_main(self.ARGV + ["--no-cache"]) == 130
        err = capsys.readouterr().err
        assert "nothing was kept (--no-cache)" in err
        assert "cached" not in err

    def test_cache_gc_reports_quarantined(self, capsys, tmp_path):
        assert lab_main(self.ARGV + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        cache = ResultCache(tmp_path)
        doc = next(iter(cache.entries()))
        cache._path(doc["key"]).write_text("{not json", encoding="utf-8")
        assert lab_main(["cache", "gc", "--cache-dir",
                         str(tmp_path)]) == 0
        assert "1 quarantined as corrupt" in capsys.readouterr().out

    def test_nonfinite_timeout_exits_2_naming_it(self, capsys):
        """``--timeout nan`` passed the ``timeout <= 0`` check, and the
        pool then killed every task as overdue."""
        for value in ("nan", "inf", "0", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                lab_main(["sweep", "--preset", "sec6", "--quick",
                          "--no-cache", "--jobs", "2",
                          "--timeout", value])
            assert excinfo.value.code == 2
            assert "argument --timeout" in capsys.readouterr().err
        for seconds in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="timeout"):
                RetryPolicy(timeout=seconds)

    def test_nonpositive_jobs_exits_2_naming_it(self, capsys):
        """``--jobs 0``/``--jobs -3`` ran in-process and printed
        ``jobs=0``/``jobs=-3``; ``serve`` took them too."""
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as excinfo:
                lab_main(["sweep", "--preset", "sec6", "--quick",
                          "--no-cache", "--jobs", value])
            assert excinfo.value.code == 2
            assert "argument --jobs" in capsys.readouterr().err
            for argv in (["run", "sec6"], ["serve"]):
                with pytest.raises(SystemExit) as excinfo:
                    build_parser().parse_args([*argv, "--jobs", value])
                assert excinfo.value.code == 2
                assert "argument --jobs" in capsys.readouterr().err
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            execute([], jobs=0)

    MATMUL_CO = ["sweep", "--kernel", "matmul-cache", "--no-cache",
                 "--set", "n=16", "--set", "middle=16", "--set", "scheme=co"]
    HIERARCHY = ["sweep", "--kernel", "matmul-hierarchy", "--no-cache",
                 "--set", "n=16", "--set", "middle=16", "--set", "scheme=co"]

    @pytest.mark.parametrize("argv, named", [
        (MATMUL_CO + ["--set", "b3=0"], "b3 must be positive, got 0"),
        (MATMUL_CO + ["--set", "middle=0"], "middle must be positive"),
        (MATMUL_CO + ["--set", "l=0"], "l must be positive, got 0"),
        (MATMUL_CO + ["--set", "n=-4"], "n must be positive, got -4"),
        (MATMUL_CO + ["--machine", "three-level"], "`levels`"),
        (MATMUL_CO + ["--grid", "machine.associativity=3"],
         "capacity (433 lines) must be a multiple of associativity (3)"),
        (["sweep", "--kernel", "trsm-cache", "--no-cache", "--set", "n=0",
          "--set", "m=8", "--set", "b=4"], "n must be positive, got 0"),
        (["sweep", "--kernel", "trsm-cache", "--no-cache", "--set", "n=30",
          "--set", "m=8", "--set", "b=4"],
         "n=30 must be a multiple of block size b=4"),
        (["sweep", "--kernel", "nbody-cache", "--no-cache", "--set", "n=32",
          "--set", "b=0"], "b must be positive, got 0"),
        (HIERARCHY + ["--machine", "sim-l3"],
         "matmul-hierarchy needs a machine with `levels`"),
        (HIERARCHY + ["--machine", "three-level", "--set", "middle=0"],
         "middle must be positive, got 0"),
        (MATMUL_CO + ["--set", "machine.policy=belady",
                      "--grid", "machine.associativity=1"],
         "machine.associativity=1"),
        (HIERARCHY + ["--machine", "three-level",
                      "--set", "machine.policy=belady"],
         "machine.policy=belady"),
    ], ids=["b3=0", "middle=0", "l=0", "n=-4", "three-level",
            "associativity=3", "trsm-n=0", "trsm-n=30", "nbody-b=0",
            "hierarchy-sim-l3", "hierarchy-middle=0",
            "belady-associativity=1", "hierarchy-belady"])
    def test_unrunnable_trace_point_exits_2_naming_the_field(
            self, argv, named, capsys):
        """Each of these points used to be accepted and then fail inside
        the run, with a remote traceback; a set-associative Belady point
        exited 0 with the counters of a fully-associative cache."""
        assert lab_main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, named", [
        (MATMUL_CO + ["--set", "bogus=7"],
         "does not take parameter(s) ['bogus']"),
        (MATMUL_CO + ["--set", "line_size=0"],
         "set the line size with machine.line_size"),
        (["sweep", "--kernel", "trsm-cache", "--no-cache", "--set", "n=16",
          "--set", "m=8", "--set", "b=4", "--set", "b3=4"],
         "does not take parameter(s) ['b3']"),
    ], ids=["bogus", "line_size", "trsm-b3"])
    def test_unknown_trace_param_exits_2_naming_it(self, argv, named,
                                                   capsys):
        """An unknown key used to run anyway: it entered the record and
        the cache key while the simulation ignored it."""
        assert lab_main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "--kernel", "twolevel-counts", "--no-cache"],
         "missing required parameter(s) ['algorithm', 'b', 'n', 'seed', "
         "'variant']"),
        (["sweep", "--kernel", "co-vs-wa", "--no-cache", "--set", "n=0",
          "--set", "M=0"], "missing required parameter(s) ['seed']"),
        (["sweep", "--kernel", "co-vs-wa", "--no-cache", "--set", "n=8",
          "--set", "M=0", "--set", "seed=0"], "M must be positive, got 0"),
        (["sweep", "--kernel", "cdag-pebble", "--no-cache", "--set",
          "algorithm=fft", "--set", "n=0", "--set", "M=4"],
         "n must be positive, got 0"),
    ], ids=["twolevel-bare", "co-vs-wa-seed", "co-vs-wa-M=0",
            "cdag-n=0"])
    def test_unrunnable_table_point_exits_2_naming_the_field(
            self, argv, named, capsys):
        """Each of these Section 3-5 points used to be accepted and then
        fail inside the run, with a remote traceback."""
        assert lab_main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    def test_missing_trace_params_exit_2_naming_them(self, capsys):
        """A trace-kernel sweep without its required parameters used to
        fail inside the run, with a remote traceback."""
        rc = lab_main(["sweep", "--kernel", "matmul-cache", "--machine",
                       "sim-l3", "--no-cache"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing required parameter(s) ['middle', 'n', 'scheme']" \
            in err
        assert "Traceback" not in err
