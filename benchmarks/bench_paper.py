"""Whole-paper cold benchmark: every preset at full size, no caches.

Usage (from the repository root)::

    python benchmarks/bench_paper.py [--presets sec6,nvm-matmul]
        [--root CHECKOUT] [--against OTHER] [--repeat 5]
        [--out BENCH_paper.json]

Each preset runs as ``repro-lab sweep --preset P --no-cache --jobs 1``
in a fresh process of the checkout at ``--root`` (default: this one),
so the result cache carries no work between runs (nor, in older
checkouts, their on-disk trace store).  With ``--against`` a second
checkout (e.g. the parent commit, made with ``git clone``) is measured
in the same run, launch for launch in alternation, so the two entries
see the same machine load.
Per preset and checkout the entry records:

* ``wall_s`` — the median of ``--repeat`` untraced launches (process
  start to exit, import included), and every launch in ``wall_runs_s``;
* ``peak_rss_mb`` — the median of those launches' peak resident sets;
* from one more launch with ``--trace-out``: ``points``, ``tasks``
  (executor task spans: one per simulation batch or scalar point),
  ``trace_builds`` and the engine's phase seconds (``phases_s``, the
  fastsim phases the run trace records, ``trace_build`` included);
* from one more launch: ``loaded_modules`` and ``loaded_lines``, the
  ``repro`` modules the run imported and their source lines — what an
  interpreter without bytecode caches compiles at start-up.

Each checkout's entry is appended to ``--out`` (a JSON list, oldest
first) with its ``git describe`` (``sha``), the git tree id of the
``src/`` it ran (``src_tree``: uncommitted edits included, so it equals
``git rev-parse <commit>:src`` of the commit that holds them), the
date, Python and numpy versions, CPU count and model, and whether
bytecode writing is disabled — so an entry is only compared with one
taken on the same hardware, best with its ``paired_with`` partner.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_paper.json"


def _env(root: Path, cache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_LAB_CACHE"] = str(cache)
    # REPRO_LAB_TRACES is read only by older checkouts (--against).
    for var in ("REPRO_LAB_TRACES", "REPRO_LAB_FAULTS"):
        env.pop(var, None)
    return env


def _launch(root: Path, argv: List[str], cache: Path
            ) -> Tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one ``repro-lab`` process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "repro.lab", *argv],
                            cwd=root, env=_env(root, cache),
                            stdout=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return wall, usage.ru_maxrss / 1024  # Linux reports KiB


#: runs ``repro-lab ARGV...`` and writes the ``repro`` modules it
#: loaded, with their source line counts, to the JSON file ``OUT``
#: (``python -c _LOADED OUT ARGV...``).
_LOADED = """
import json, sys
from repro.lab.cli import main
rc = main(sys.argv[2:])
files = [getattr(sys.modules[m], "__file__", None) for m in list(sys.modules)
         if m == "repro" or m.startswith("repro.")]
lines = [open(f, "rb").read().count(b"\\n") for f in files if f]
json.dump({"loaded_modules": len(files), "loaded_lines": sum(lines)},
          open(sys.argv[1], "w"))
sys.exit(rc)
"""


def _loaded(root: Path, argv: List[str], cache: Path, out: Path
            ) -> Dict[str, int]:
    """The ``repro`` modules one launch of *argv* loads, and their
    source lines."""
    subprocess.run([sys.executable, "-c", _LOADED, str(out), *argv],
                   cwd=root, env=_env(root, cache), stdout=subprocess.DEVNULL,
                   stdin=subprocess.DEVNULL, check=True)
    loaded: Dict[str, int] = json.loads(out.read_text())
    return loaded


def _trace_counts(path: Path) -> Dict[str, Any]:
    """Points, tasks, trace builds and phase seconds of one run trace
    (schema-v1 JSONL, read without importing the checkout)."""
    points = tasks = builds = 0
    phases: Dict[str, float] = {}
    for line in path.read_text().splitlines():
        ev = json.loads(line)
        kind = ev.get("type")
        if kind == "point":
            points += 1
        elif kind == "span" and ev.get("name") == "task":
            tasks += 1
        elif kind == "phase":
            name = ev["name"]
            builds += name == "trace_build"
            phases[name] = phases.get(name, 0.0) + ev.get("dur", 0.0)
    return {"points": points, "tasks": tasks, "trace_builds": builds,
            "phases_s": {k: round(v, 4) for k, v in sorted(phases.items())}}


def bench_preset(roots: List[Path], preset: str, repeat: int,
                 workdir: Path) -> List[Dict[str, Any]]:
    """One result per checkout in *roots*; launch rounds alternate
    which checkout goes first."""
    argv = ["sweep", "--preset", preset, "--no-cache", "--jobs", "1"]
    cache = workdir / "cache"
    runs: List[List[Tuple[float, float]]] = [[] for _ in roots]
    for r in range(repeat):
        order = range(len(roots)) if r % 2 == 0 else reversed(
            range(len(roots)))
        for k in order:
            runs[k].append(_launch(roots[k], argv, cache))
    results = []
    for root, launches in zip(roots, runs):
        trace = workdir / f"{preset}.jsonl"
        _launch(root, [*argv, "--trace-out", str(trace)], cache)
        walls = [wall for wall, _ in launches]
        results.append({
            "wall_s": round(statistics.median(walls), 3),
            "wall_runs_s": [round(w, 3) for w in walls],
            "peak_rss_mb": round(statistics.median(
                rss for _, rss in launches), 1),
            **_trace_counts(trace),
            **_loaded(root, argv, cache, workdir / f"{preset}.json")})
    return results


def _git(root: Path, *args: str, env: Optional[Dict[str, str]] = None
         ) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], env=env,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def _src_tree(root: Path) -> Optional[str]:
    """The git tree id of *root*'s ``src/`` as it is on disk, built in
    a throwaway index so the checkout's own index is left alone."""
    with tempfile.TemporaryDirectory(prefix="bench-paper-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        if (_git(root, "read-tree", "HEAD", env=env) is None
                and _git(root, "rev-parse", "HEAD") is None):
            return None
        _git(root, "add", "-A", "src", env=env)
        return _git(root, "write-tree", "--prefix=src/", env=env)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path = ROOT) -> Dict[str, Any]:
    """What a perf entry of checkout *root* is compared by: ``sha``,
    ``src_tree``, the date, Python and numpy versions, CPU count and
    model, and whether bytecode writing is disabled."""
    return {
        "sha": _git(root, "describe", "--always", "--dirty", "--abbrev=7"),
        "src_tree": _src_tree(root),
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "dont_write_bytecode": bool(os.environ.get(
            "PYTHONDONTWRITEBYTECODE")),
    }


def _history(out: Path) -> List[Dict[str, Any]]:
    """The entries of the JSON list at *out*; a snapshot written before
    the files became append-only (one dict) is its first entry."""
    if not out.is_file():
        return []
    doc = json.loads(out.read_text())
    return doc if isinstance(doc, list) else [doc]


def run_recorder(out: Path, config: Dict[str, Any]
                 ) -> Callable[..., None]:
    """A ``record(**sections)`` for one benchmark run: its first call
    appends an entry (:func:`environment` plus *config*) to the JSON
    list at *out*, and every call merges *sections* into that entry."""
    entry: Dict[str, Any] = {}
    history: List[Dict[str, Any]] = []

    def record(**sections: Any) -> None:
        if not entry:
            entry.update(environment(), config=config)
            history.extend(_history(out) + [entry])
        entry.update(sections)
        out.write_text(json.dumps(history, indent=1) + "\n")

    return record


def _presets(root: Path) -> List[str]:
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.lab.scenarios import SCENARIOS; "
         "print(' '.join(sorted(SCENARIOS)))"],
        cwd=root, env=_env(root, root), capture_output=True, text=True,
        check=True)
    return out.stdout.split()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to benchmark (default: this one)")
    ap.add_argument("--against", type=Path, default=None,
                    help="a second checkout, measured in alternation "
                         "(its entry is appended first)")
    ap.add_argument("--presets", default=None,
                    help="comma-separated presets (default: all)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="untraced launches per preset (default 5)")
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)
    roots = [args.root.resolve()]
    if args.against is not None:
        roots.insert(0, args.against.resolve())
    presets = (args.presets.split(",") if args.presets
               else _presets(roots[-1]))
    results: List[Dict[str, Any]] = [{} for _ in roots]
    with tempfile.TemporaryDirectory(prefix="bench-paper-") as tmp:
        for preset in presets:
            for k, r in enumerate(bench_preset(roots, preset, args.repeat,
                                               Path(tmp))):
                results[k][preset] = r
                print(f"{preset:<12} {roots[k].name:<10} "
                      f"{r['wall_s']:7.3f} s  {r['peak_rss_mb']:6.1f} MB  "
                      f"{r['points']:4d} points  {r['tasks']:4d} tasks  "
                      f"{r['trace_builds']:3d} trace builds  "
                      f"{r['loaded_modules']:3d} modules "
                      f"({r['loaded_lines']} lines)", flush=True)
    envs = [environment(root) for root in roots]
    entries = []
    for k, per_preset in enumerate(results):
        entry = {
            **envs[k],
            "command": "repro-lab sweep --preset P --no-cache --jobs 1",
            "repeat": args.repeat,
            "total_wall_s": round(sum(r["wall_s"]
                                      for r in per_preset.values()), 3),
            "presets": per_preset,
        }
        if len(roots) > 1:
            other = envs[1 - k]
            entry["paired_with"] = {"sha": other["sha"],
                                    "src_tree": other["src_tree"]}
        entries.append(entry)
    history = _history(args.out) + entries
    args.out.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended {len(entries)} entries to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
