"""Render run traces into a markdown regression digest.

Usage::

    python benchmarks/digest.py RUN.jsonl [RUN2.jsonl ...] \
        [--out DIGEST.md] [--min-batch-coverage 1.0]

Each input is a ``--trace`` JSONL file from ``repro-lab run/sweep``;
the digest is one markdown section per trace — points by execution
path, batch efficiency, cache hit rate with miss reasons, fastsim
phase timings, queue-vs-compute — the committed report CI attaches to
its nightly-style bench job, and the thing to diff across commits when
a perf claim changes.

``--min-batch-coverage`` turns the digest into a regression gate: if
the share of *batchable* points (points whose kernel had a registered
batch path at plan time) that actually executed through a batched task
drops below the threshold in any trace, the exit code is 1.  The CI
presets are constructed so coverage is exactly 1.0 — any dip means the
planner stopped collapsing a group it used to collapse.

``--min-completed`` is the chaos job's recovery gate: the share of
points that produced a real record (``failed``-path points are the
only non-completions).  A seeded fault plan whose ``times`` is within
the retry budget must recover every point, so CI runs the chaos
presets with ``--min-completed 1.0``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

if __package__ in (None, ""):  # script usage without an installed repro
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.lab.telemetry import RunTrace, summarize  # noqa: E402


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]
              ) -> List[str]:
    out = ["| " + " | ".join(str(h) for h in headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return out


def _pct(x: float) -> str:
    return f"{x:.1%}"


def _completed_share(s: Dict[str, Any]) -> float:
    """Fraction of a trace's points that produced a real record (the
    chaos job's recovery floor — ``failed`` path points are the only
    non-completions; retried-then-recovered points count as complete)."""
    if not s["points"]:
        return 1.0
    return 1.0 - s["paths"].get("failed", 0) / s["points"]


def digest_section(path: Path, s: Dict[str, Any]) -> List[str]:
    """One trace's markdown section, from its :func:`summarize` dict."""
    label = s["meta"].get("scenario") or s["meta"].get("kernel") or path.stem
    lines = [f"## {label} (`{path.name}`)", ""]
    jobs = f", jobs={s['jobs']}" if s["jobs"] is not None else ""
    lines.append(f"{s['points']} point(s) in {s['elapsed']:.2f}s{jobs}; "
                 f"queue {s['queue_s']:.3f}s / compute "
                 f"{s['compute_s']:.3f}s.")
    lines.append("")
    lines += _md_table(
        ["path", "points", "share"],
        [[p, n, _pct(n / s["points"]) if s["points"] else "-"]
         for p, n in sorted(s["paths"].items(), key=lambda kv: -kv[1])])
    lines.append("")
    if s["batchable_points"]:
        eff = (s["batched_points"] / s["batches"]) if s["batches"] else 0.0
        lines.append(f"Batching: {s['batched_points']} point(s) in "
                     f"{s['batches']} batch(es) ({eff:.1f} points/batch); "
                     f"**batch-path coverage "
                     f"{_pct(s['batch_coverage'])}** of "
                     f"{s['batchable_points']} batchable point(s).")
        lines.append("")
    c = s["cache"]
    if c["hits"] or c["misses"]:
        rate = _pct(c["hit_rate"]) if c["hit_rate"] is not None else "-"
        reasons = ", ".join(f"{k}: {int(v)}"
                            for k, v in sorted(c["miss_reasons"].items()))
        lines.append(f"Result cache: {int(c['hits'])} hit(s) / "
                     f"{int(c['misses'])} miss(es) ({rate} hit rate), "
                     f"{int(c['writes'])} write(s)"
                     + (f"; miss reasons — {reasons}." if reasons else "."))
        lines.append("")
    f = s["faults"]
    if f["retries"] or f["timeouts"] or f["respawns"] or f["failed_points"]:
        reasons = ", ".join(f"{k}: {int(v)}" for k, v in
                            sorted(f["retry_reasons"].items()))
        lines.append(f"Fault tolerance: {int(f['retries'])} task "
                     f"retr{'y' if f['retries'] == 1 else 'ies'}"
                     + (f" ({reasons})" if reasons else "")
                     + f", {int(f['timeouts'])} timeout kill(s), "
                     f"{int(f['respawns'])} worker respawn(s), "
                     f"**{int(f['failed_points'])} failed point(s)** of "
                     f"{s['points']} ({_pct(_completed_share(s))} "
                     f"completed).")
        lines.append("")
    if s["phases"]:
        lines += _md_table(
            ["phase", "calls", "seconds"],
            [[name, int(p["calls"]), f"{p['seconds']:.4f}"]
             for name, p in sorted(s["phases"].items(),
                                   key=lambda kv: -kv[1]["seconds"])])
        lines.append("")
    return lines


def main(argv: Sequence[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="+", metavar="TRACE.jsonl",
                    help="run-trace JSONL files (repro-lab ... --trace)")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="write the markdown digest here "
                         "(default: stdout)")
    ap.add_argument("--min-batch-coverage", type=float, default=None,
                    metavar="FRACTION",
                    help="fail (exit 1) if any trace's batch-path "
                         "coverage of batchable points is below this")
    ap.add_argument("--min-completed", type=float, default=None,
                    metavar="FRACTION",
                    help="fail (exit 1) if any trace completed fewer "
                         "than this share of its points (failed-path "
                         "points count against it) — the chaos job's "
                         "recovery floor")
    args = ap.parse_args(argv)

    lines: List[str] = ["# Sweep telemetry digest", ""]
    failures: List[str] = []
    for raw in args.traces:
        path = Path(raw)
        s = summarize(RunTrace.load(path))
        lines += digest_section(path, s)
        if (args.min_batch_coverage is not None and s["batchable_points"]
                and s["batch_coverage"] < args.min_batch_coverage):
            failures.append(
                f"{path.name}: batch-path coverage "
                f"{_pct(s['batch_coverage'])} < required "
                f"{_pct(args.min_batch_coverage)}")
        if (args.min_completed is not None
                and _completed_share(s) < args.min_completed):
            failures.append(
                f"{path.name}: completed-point share "
                f"{_pct(_completed_share(s))} < required "
                f"{_pct(args.min_completed)} "
                f"({s['paths'].get('failed', 0)} failed point(s))")
    if failures:
        lines.append("## Regression gate: FAILED")
        lines.append("")
        lines += [f"- {f}" for f in failures]
        lines.append("")
    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"[digest] wrote {args.out}")
    else:
        print(text)
    for failure in failures:
        print(f"[digest] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) hung up; exit quietly and
        # detach stdout so the shutdown flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
