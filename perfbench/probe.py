"""Run one ``repro-lab`` command with per-layer timing wrappers installed.

The benchmark's traced runs (``run.py --trace 1``) launch this script in
place of ``python -m repro.lab``.  It imports the CLI (timing the
import), wraps the engine's layer entry points in self-time clocks, runs
``repro.lab.cli.main`` on the given arguments and writes what it saw to
a JSON file::

    python3 perfbench/probe.py --layers out.json -- sweep --preset sec6

Each wrapped call charges its *self* time — its duration minus the
wrapped calls nested inside it — to one layer, per thread, so the layer
totals never double count and sum to at most the run's elapsed time.
The remainder is the run's unattributed time.  A target that no longer
exists is skipped: its time then shows up as unattributed instead of
breaking the benchmark.
"""

import argparse
import functools
import json
import sys
import threading
import time

T_START = time.perf_counter()

#: (module, attribute path, layer) — the layer entry points this probe
#: times.  Module-level functions are replaced in every loaded ``repro``
#: module that imported them by name.
TARGETS = (
    ("repro.lab.cache", "code_fingerprint", "fingerprint"),
    ("repro.lab.scenarios", "Scenario.points", "plan"),
    ("repro.lab.scenarios", "Scenario.with_overrides", "plan"),
    ("repro.lab.executor", "_plan", "plan"),
    ("repro.lab.scenarios", "ScenarioPoint.cache_payload", "key_hash"),
    ("repro.lab.cache", "point_key", "key_hash"),
    ("repro.lab.cache", "ResultCache.get", "cache_read"),
    ("repro.lab.cache", "ResultCache.put", "cache_write"),
    ("repro.lab.executor", "execute", "engine"),
    ("repro.lab.executor", "_run_points", "kernel"),
    ("repro.lab.registry", "TraceKernel.trace", "trace_fetch"),
    ("repro.machine.fastsim.symbols", "symbolize", "symbolize"),
    ("repro.machine.cache", "CacheSim.run_trace", "scalar_replay"),
    ("repro.machine.cache", "CacheSim.run_lines", "scalar_replay"),
    ("repro.machine.cache", "CacheSim.flush", "scalar_replay"),
    ("repro.lab.scenarios", "Scenario.render", "render"),
    ("repro.lab.results", "ResultSet.from_report", "serialize"),
    ("repro.lab.results", "ResultSet.to_json", "serialize"),
    ("repro.lab.results", "ResultSet.to_csv", "serialize"),
)

#: fastsim profiling phases -> layer (any other phase counts as fold).
PHASE_LAYERS = {"trace_build": "trace_build", "opt_replay": "opt_replay"}


def _count_cache_get(clock, result):
    clock.count("cache_hits" if result is not None else "cache_misses")


def _count_cache_put(clock, result):
    if result:
        clock.count("cache_writes")


def _count_trace(clock, result):
    clock.count("trace_events", getattr(result, "n_events", 0))


def _count_symbols(clock, result):
    if result is not None:
        clock.count("trace_symbols", getattr(result, "n_symbols", 0))


#: (module, attribute path) -> counter hook called with each result.
COUNTERS = {
    ("repro.lab.cache", "ResultCache.get"): _count_cache_get,
    ("repro.lab.cache", "ResultCache.put"): _count_cache_put,
    ("repro.lab.registry", "TraceKernel.trace"): _count_trace,
    ("repro.machine.fastsim.symbols", "symbolize"): _count_symbols,
    ("repro.machine.cache", "CacheSim.run_lines"):
        lambda clock, _: clock.count("scalar_replays"),
    ("repro.lab.executor", "_run_points"):
        lambda clock, _: clock.count("kernel_tasks"),
}


class LayerClock:
    """Self-time totals per layer, with one open-frame stack per thread
    (fastsim may fan a phase out over threads)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.seconds = {}
        self.counts = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer):
        self._stack().append([layer, time.perf_counter(), 0.0])

    def leave(self):
        stack = self._stack()
        layer, t0, nested = stack.pop()
        duration = time.perf_counter() - t0
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.seconds[layer] = (self.seconds.get(layer, 0.0)
                                   + duration - nested)

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n


def _timed(clock, layer, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        clock.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            clock.leave()
        if on_result is not None:
            on_result(clock, result)
        return result
    return wrapper


def _patch_function(module, name, wrap):
    original = getattr(module, name)
    wrapped = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "repro" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _patch_method(owner, name, wrap):
    raw = owner.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, name, wrap(raw))


def install(clock):
    """Wrap every target whose module is loaded; returns the skipped
    targets (renamed or removed entry points)."""
    skipped = []
    for mod_name, path, layer in TARGETS:
        module = sys.modules.get(mod_name)
        owner_name, _, name = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or name not in vars(owner):
            if module is not None:
                skipped.append(f"{mod_name}.{path}")
            continue
        hook = COUNTERS.get((mod_name, path))

        def wrap(fn, layer=layer, hook=hook):
            return _timed(clock, layer, fn, hook)

        if owner_name:
            _patch_method(owner, name, wrap)
        else:
            _patch_function(owner, name, wrap)
    _install_phases(clock, skipped)
    return skipped


def _install_phases(clock, skipped):
    """Route fastsim's timed phases through the clock.  ``phase()``
    builds a ``_TimedPhase`` only while a hook is installed, so a no-op
    hook goes in unless the engine installed its own."""
    profile = sys.modules.get("repro.machine.fastsim.profile")
    if profile is None or not hasattr(profile, "_TimedPhase"):
        skipped.append("repro.machine.fastsim.profile._TimedPhase")
        return

    class LayerPhase:
        __slots__ = ("name", "hook", "t0")

        def __init__(self, name, hook):
            self.name = name
            self.hook = hook

        def __enter__(self):
            clock.enter(PHASE_LAYERS.get(self.name, "fold"))
            if self.name == "trace_build":
                clock.count("trace_builds")
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            seconds = time.perf_counter() - self.t0
            clock.leave()
            self.hook(self.name, seconds)

    profile._TimedPhase = LayerPhase
    if profile.phase_hook() is None:
        profile.set_phase_hook(lambda name, seconds: None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layers", required=True,
                    help="JSON file to write the layer totals to")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="-- followed by repro-lab arguments")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command

    t0 = time.perf_counter()
    import repro.lab.cli as cli
    import_s = time.perf_counter() - t0

    clock = LayerClock()
    skipped = install(clock)
    rc = cli.main(command)
    with open(args.layers, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc,
                   "elapsed_s": time.perf_counter() - T_START,
                   "import_s": import_s,
                   "seconds": clock.seconds,
                   "counts": clock.counts,
                   "skipped": skipped}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
