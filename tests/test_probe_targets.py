"""The benchmark probe's layer entry points still exist.

``perfbench/probe.py`` attributes a traced run's time to engine layers
by wrapping named entry points and routing fastsim's profiling phases.
A target it cannot find is skipped silently, so renaming one of those
functions would move its time into the ``unattributed`` row without
failing anything.  These tests make such a rename fail loudly instead.
"""

import importlib.util
import sys
from pathlib import Path

from repro.lab.registry import MachineSpec, run_capacity_batch
from repro.machine.fastsim import profile

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_resolves():
    probe = load_probe()
    import repro.lab.cli  # noqa: F401  (the probe wraps after this import)

    targets = {(mod, path) for mod, path, _ in probe.TARGETS}
    for entry in [
        ("repro.machine.fastsim.symbols", "symbolize"),
        ("repro.machine.cache", "CacheSim.run_trace"),
        ("repro.machine.cache", "CacheSim.run_lines"),
        ("repro.machine.cache", "CacheSim.flush"),
        ("repro.lab.registry", "TraceKernel.trace"),
        ("repro.lab.executor", "_plan"),
        ("repro.lab.executor", "_run_points"),
    ]:
        assert entry in targets, entry
    assert set(probe.COUNTERS) <= targets
    for mod_name, path in sorted(targets):
        module = sys.modules.get(mod_name)
        assert module is not None, f"{mod_name} is not loaded by the CLI"
        owner_name, _, name = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert name in vars(owner), f"{mod_name}.{path} is gone"
    assert hasattr(profile, "_TimedPhase")


def test_sec6_batch_emits_probe_phases():
    probe = load_probe()
    machine = MachineSpec(name="t", line_size=4)
    params = {"n": 16, "middle": 32, "scheme": "wa2", "b3": 8, "b2": 4,
              "base": 4}
    group = [(machine.override(policy=policy), dict(params, cache_blocks=b))
             for policy in ("lru", "belady") for b in (3, 4, 5)]
    seen = []
    previous_hook = profile.set_phase_hook(
        lambda name, seconds: seen.append(name))
    try:
        run_capacity_batch("matmul-cache", group)
    finally:
        profile.set_phase_hook(previous_hook)
    assert {"trace_build", "opt_replay"} <= set(seen)
    assert set(probe.PHASE_LAYERS) <= set(seen)
