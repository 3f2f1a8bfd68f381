"""Smoke tests: every example script runs cleanly and says what it should.

The examples are part of the public API surface — a user's first contact —
so the suite executes each one and checks its key output lines.
"""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "write-avoiding" in out
        assert "LLC_VICTIMS.M" in out

    def test_nvm_provisioning(self):
        out = run_example("nvm_provisioning.py")
        assert "Model 2.1" in out and "Model 2.2" in out
        assert "predicted winner" in out

    def test_krylov_poisson(self):
        out = run_example("krylov_poisson.py")
        assert "CG " in out or "CG    " in out
        assert "CA-CG WA" in out

    def test_cache_policy_study(self):
        out = run_example("cache_policy_study.py")
        assert "floor reached at" in out
        assert "never" in out  # the CO row

    def test_nbody_simulation(self):
        out = run_example("nbody_simulation.py")
        assert "write floor per step" in out

    def test_lab_sweep(self):
        out = run_example("lab_sweep.py")
        assert "NVM sweep" in out
        assert "12/12 points (100%) served from cache" in out
        assert "cheapest order overall" in out

    def test_every_example_is_covered(self):
        """Adding an example without a smoke test here should fail."""
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        covered = {"quickstart.py", "nvm_provisioning.py",
                   "krylov_poisson.py", "cache_policy_study.py",
                   "nbody_simulation.py", "lab_sweep.py"}
        assert scripts == covered
