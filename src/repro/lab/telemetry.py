"""Structured run tracing and metrics for the sweep engine.

Every load-bearing fast path in the engine — multi-capacity trace
batching, vectorized cost grids, the content-addressed result cache —
is invisible from the outside: a sweep prints one accounting line and
nothing says which path a point actually took, where the wall-clock
went, or why a point missed the cache.  This module is the engine's
flight recorder:

* a :class:`RunTrace` records **events** — nested *spans* (sweep →
  task) with monotonic timings, per-point *path tags*
  (``cache``/``batch``/``multi_capacity``/``scalar`` plus the venue,
  ``in_process`` or ``pool-worker-N``), *counters* (cache hits/misses
  with the miss reason, retries, respawns), *phases*
  (fastsim's trace build, radix partition, distance pass, per-capacity
  fold) and *metrics* (the record fields each kernel declares,
  :attr:`repro.lab.params.Kernel.metric_fields`);
* events stream to a JSONL file beside the result cache (one JSON
  object per line, a ``meta`` header first and a ``summary`` footer
  last) and aggregate into a :class:`MetricsRegistry`
  (counters/gauges/histograms);
* :func:`render_attribution` turns a trace into the post-run table
  ``repro-lab run/sweep --trace`` print; :func:`render_diff` compares
  two saved traces (``repro-lab trace diff``); ``benchmarks/digest.py``
  turns traces into the committed markdown regression report.

The module is deliberately **zero-dependency** (stdlib only) and
**opt-in**: instrumentation sites consult :func:`active_trace` and do
nothing when no trace is installed, so an untraced sweep pays one
``None`` check per event site and produces bit-identical records
(enforced by ``tests/test_lab_telemetry.py``).  Executor pool workers
capture events into an in-memory subtrace that the parent splices back
in (:meth:`RunTrace.merge_subtrace`) with timestamps rebased onto the
parent's epoch — ``time.monotonic`` is system-wide on the platforms we
run on, so queue-vs-compute attribution stays meaningful across
processes.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, TextIO, Union)

from repro.util import format_table

__all__ = [
    "SCHEMA_VERSION",
    "RunTrace",
    "Span",
    "MetricsRegistry",
    "active_trace",
    "set_active_trace",
    "tracing",
    "default_trace_path",
    "summarize",
    "render_attribution",
    "render_diff",
]

#: bumped whenever the JSONL event schema changes incompatibly.
SCHEMA_VERSION = 1

#: point paths that mean "rode a batched task".
BATCHED_PATHS = ("batch", "multi_capacity")


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
class MetricsRegistry:
    """Counters, gauges and histograms aggregated from trace events.

    Histograms are the cheap streaming kind — count/total/min/max —
    which is all the attribution and digest layers need; anything
    fancier can re-derive from the raw JSONL.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        h = self.histograms.get(name)
        if h is None:
            self.histograms[name] = {"count": 1, "total": value,
                                     "min": value, "max": value}
        else:
            h["count"] += 1
            h["total"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)

    def observe_span(self, name: str, seconds: float) -> None:
        """One *name* span of *seconds*, aggregated as its trace event
        would be (into ``span.<name>.seconds``)."""
        self.observe(f"span.{name}.seconds", seconds)

    def merge(self, other: "MetricsRegistry") -> None:
        """Add *other*'s counters and histograms into this registry, as
        if its events had been aggregated here (its gauges win)."""
        for name, value in other.counters.items():
            self.count(name, value)
        self.gauges.update(other.gauges)
        for name, theirs in other.histograms.items():
            h = self.histograms.setdefault(name, {"count": 0, "total": 0.0,
                                                  "min": theirs["min"],
                                                  "max": theirs["max"]})
            h["count"] += theirs["count"]
            h["total"] += theirs["total"]
            h["min"] = min(h["min"], theirs["min"])
            h["max"] = max(h["max"], theirs["max"])

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, Any]:
        return {"counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {k: dict(v)
                               for k, v in self.histograms.items()}}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MetricsRegistry":
        reg = cls()
        reg.counters.update(d.get("counters", {}))
        reg.gauges.update(d.get("gauges", {}))
        for k, v in d.get("histograms", {}).items():
            reg.histograms[k] = dict(v)
        return reg

    @classmethod
    def from_events(cls, events: Sequence[Mapping[str, Any]]
                    ) -> "MetricsRegistry":
        """Aggregate a trace's event stream.

        * ``counter`` events sum into :attr:`counters` (miss reasons
          fan out as ``<name>[reason]`` sub-counters);
        * ``span`` and ``phase`` durations observe into
          ``span.<name>.seconds`` / ``phase.<name>.seconds``;
        * ``metric`` events observe under their own name.
        """
        reg = cls()
        for ev in events:
            kind = ev.get("type")
            if kind == "counter":
                name = ev["name"]
                reg.count(name, ev.get("value", 1))
                reason = (ev.get("tags") or {}).get("reason")
                if reason is not None:
                    reg.count(f"{name}[{reason}]", ev.get("value", 1))
            elif kind == "span":
                reg.observe_span(ev["name"], ev.get("dur", 0.0))
            elif kind == "phase":
                reg.observe(f"phase.{ev['name']}.seconds",
                            ev.get("dur", 0.0))
            elif kind == "metric":
                reg.observe(ev["name"], ev.get("value", 0.0))
        return reg

    def format(self, title: str = "metrics") -> str:
        rows: List[List[Any]] = []
        for name in sorted(self.counters):
            rows.append(["counter", name, _num(self.counters[name]), ""])
        for name in sorted(self.gauges):
            rows.append(["gauge", name, _num(self.gauges[name]), ""])
        for name in sorted(self.histograms):
            h = self.histograms[name]
            rows.append(["hist", name, _num(h["total"]),
                         f"n={int(h['count'])} min={_num(h['min'])} "
                         f"max={_num(h['max'])}"])
        return format_table(["kind", "name", "value", "detail"], rows,
                            title=title)


def _num(x: float) -> Any:
    """Render a metric value compactly (ints stay ints)."""
    if isinstance(x, float):
        return int(x) if x == int(x) else round(x, 6)
    return x


# --------------------------------------------------------------------- #
# run traces
# --------------------------------------------------------------------- #
class Span:
    """Handle yielded by :meth:`RunTrace.span`; lets the body attach
    tags discovered mid-span (e.g. how many batches a plan produced)."""

    __slots__ = ("id", "tags")

    def __init__(self, span_id: int, tags: Dict[str, Any]) -> None:
        self.id = span_id
        self.tags = tags

    def tag(self, **tags: Any) -> None:
        self.tags.update(tags)


class RunTrace:
    """One run's structured event stream.

    With a *path* the trace streams events to a JSONL sink as they are
    emitted (``meta`` header first, ``summary`` footer on
    :meth:`finish`); without one it records in memory only — the shape
    executor pool workers use for their capture subtraces, whose raw
    ``(events, epoch)`` the parent splices back in via
    :meth:`merge_subtrace`.
    """

    def __init__(self,
                 path: Optional[Union[str, Path]] = None,
                 meta: Optional[Mapping[str, Any]] = None) -> None:
        self.meta: Dict[str, Any] = dict(meta or {})
        self.path = Path(path) if path is not None else None
        self.events: List[Dict[str, Any]] = []
        self.epoch = time.monotonic()
        self.finished = False
        self._fh: Optional[TextIO] = None
        self._ids = itertools.count(1)
        self._stack: List[int] = []
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
        self.emit({"type": "meta", "version": SCHEMA_VERSION,
                   "meta": self.meta})

    # ------------------------------------------------------------------ #
    def now(self) -> float:
        return time.monotonic() - self.epoch

    def add_listener(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        """Call *fn* with every subsequently emitted event — the live
        tap the serve daemon's SSE streams ride.  Listeners run on the
        emitting thread and must not raise; they see events *after*
        they are appended to :attr:`events`, so a subscriber that
        snapshots the backlog first and then listens misses nothing."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        """Detach a listener added by :meth:`add_listener` (no-op if it
        was already removed)."""
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(json.dumps(event, sort_keys=True,
                                      default=str) + "\n")
        for fn in tuple(self._listeners):
            fn(event)

    def current_span(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """A nested timed span; the event is emitted when it closes."""
        sid = next(self._ids)
        parent = self.current_span()
        handle = Span(sid, dict(tags))
        t0 = self.now()
        self._stack.append(sid)
        try:
            yield handle
        finally:
            self._stack.pop()
            self.emit({"type": "span", "name": name, "id": sid,
                       "parent": parent, "t": round(t0, 6),
                       "dur": round(self.now() - t0, 6),
                       "tags": handle.tags})

    def emit_span(self, name: str, *, start_monotonic: float,
                  duration: float, parent: Optional[int] = None,
                  **tags: Any) -> int:
        """A span from absolute ``time.monotonic`` stamps — how the
        executor records worker tasks after the pool fans them back in.
        Returns the span id (for parenting merged subtrace events)."""
        sid = next(self._ids)
        self.emit({"type": "span", "name": name, "id": sid,
                   "parent": parent if parent is not None
                   else self.current_span(),
                   "t": round(start_monotonic - self.epoch, 6),
                   "dur": round(duration, 6), "tags": dict(tags)})
        return sid

    def point(self, **tags: Any) -> None:
        """One scenario point's attribution tags (kernel, path, venue,
        cached, result-cache key)."""
        self.emit({"type": "point", "t": round(self.now(), 6),
                   "parent": self.current_span(), "tags": tags})

    def counter(self, name: str, value: float = 1, **tags: Any) -> None:
        ev: Dict[str, Any] = {"type": "counter", "name": name,
                              "t": round(self.now(), 6), "value": value}
        if tags:
            ev["tags"] = tags
        self.emit(ev)

    def phase(self, name: str, seconds: float, **tags: Any) -> None:
        """A profiling-hook sample (e.g. one fastsim radix partition)."""
        ev: Dict[str, Any] = {"type": "phase", "name": name,
                              "t": round(self.now(), 6),
                              "dur": round(seconds, 9)}
        if tags:
            ev["tags"] = tags
        self.emit(ev)

    def metric(self, name: str, value: float, **tags: Any) -> None:
        ev: Dict[str, Any] = {"type": "metric", "name": name,
                              "t": round(self.now(), 6), "value": value}
        if tags:
            ev["tags"] = tags
        self.emit(ev)

    # ------------------------------------------------------------------ #
    def merge_subtrace(self, events: Sequence[Mapping[str, Any]],
                       epoch: float,
                       parent_id: Optional[int] = None) -> None:
        """Splice a worker-side capture into this trace: timestamps are
        rebased from the subtrace's epoch onto ours, span ids are
        re-allocated, and events that were top-level in the worker hang
        under *parent_id* (the task span)."""
        shift = epoch - self.epoch
        id_map: Dict[int, int] = {}
        for ev in events:
            old = ev.get("id")
            if old is not None:
                id_map[old] = next(self._ids)
        for ev in events:
            if ev.get("type") == "meta":
                continue  # the worker header carries no information
            ev = dict(ev)
            if "t" in ev:
                ev["t"] = round(ev["t"] + shift, 6)
            if ev.get("id") is not None:
                ev["id"] = id_map[ev["id"]]
            if "parent" in ev:
                ev["parent"] = id_map.get(ev["parent"], parent_id)
            self.emit(ev)

    def metrics(self) -> MetricsRegistry:
        return MetricsRegistry.from_events(self.events)

    def finish(self, **tags: Any) -> None:
        """Emit the summary footer (aggregated metrics + any final
        tags) and close the JSONL sink.  Idempotent."""
        if self.finished:
            return
        self.finished = True
        self.emit({"type": "summary", "t": round(self.now(), 6),
                   "elapsed": round(self.now(), 6), "tags": dict(tags),
                   "metrics": self.metrics().as_dict()})
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunTrace":
        """Read a saved JSONL trace back (for ``trace show/diff`` and
        the digest writer).  Unparseable lines are skipped — a trace
        truncated by a crash still renders."""
        trace = cls()
        trace.events.clear()  # drop the fresh meta header
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    ev = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(ev, dict):
                    continue
                if ev.get("type") == "meta":
                    trace.meta = dict(ev.get("meta") or {})
                trace.events.append(ev)
        trace.finished = True
        return trace


# --------------------------------------------------------------------- #
# thread-local active trace
# --------------------------------------------------------------------- #
# Thread-local rather than process-global: the serve daemon runs sweeps
# on a job-runner thread while HTTP handler threads probe the result
# cache concurrently — a global active trace would splice one request's
# cache counters into another job's trace.  Single-threaded callers
# (the CLI, executor pool workers — which are processes, each scoping
# its own subtrace) see exactly the old semantics.
_active = threading.local()


def active_trace() -> Optional[RunTrace]:
    """The trace instrumentation sites on *this thread* should emit to
    (or ``None``, the default — in which case every site is a no-op)."""
    trace: Optional[RunTrace] = getattr(_active, "trace", None)
    return trace


def set_active_trace(trace: Optional[RunTrace]) -> Optional[RunTrace]:
    """Install *trace* for the current thread; returns the previous one."""
    previous: Optional[RunTrace] = getattr(_active, "trace", None)
    _active.trace = trace
    return previous


@contextmanager
def tracing(trace: Optional[RunTrace]) -> Iterator[Optional[RunTrace]]:
    """Scope *trace* as the active trace for a ``with`` body."""
    previous = set_active_trace(trace)
    try:
        yield trace
    finally:
        set_active_trace(previous)


def default_trace_path(runs_dir: Union[str, Path], label: str) -> Path:
    """Where ``--trace`` writes when no ``--trace-out`` is given: a
    timestamped JSONL under *runs_dir* (``<cache root>/runs``)."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-"
                   for c in label) or "run"
    return Path(runs_dir) / f"{safe}-{stamp}-{os.getpid()}.jsonl"


# --------------------------------------------------------------------- #
# summarization / rendering
# --------------------------------------------------------------------- #
def summarize(trace: RunTrace) -> Dict[str, Any]:
    """Reduce a trace to the attribution numbers every renderer shares.

    Returns a plain dict: total points and elapsed, per-path and
    per-kernel point counts, batch efficiency, batch-path coverage of
    batchable points, cache counters with miss reasons,
    fastsim phase totals, and queue-vs-compute seconds.
    """
    paths: Dict[str, int] = {}
    kernels: Dict[str, Dict[str, float]] = {}
    phases: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    reasons: Dict[str, Dict[str, float]] = {}
    batchable = covered = 0
    batches = batched_points = 0
    queue_s = compute_s = 0.0
    elapsed = 0.0
    points = 0
    jobs = None
    for ev in trace.events:
        kind = ev.get("type")
        tags = ev.get("tags") or {}
        if kind == "point":
            points += 1
            path = tags.get("path", "?")
            paths[path] = paths.get(path, 0) + 1
            k = kernels.setdefault(tags.get("kernel", "?"),
                                   {"points": 0, "tasks": 0,
                                    "compute_s": 0.0})
            k["points"] += 1
            if tags.get("batchable"):
                batchable += 1
                if path in BATCHED_PATHS:
                    covered += 1
        elif kind == "span":
            name = ev.get("name")
            if name == "task":
                dur = ev.get("dur", 0.0)
                k = kernels.setdefault(tags.get("kernel", "?"),
                                       {"points": 0, "tasks": 0,
                                        "compute_s": 0.0})
                k["tasks"] += 1
                k["compute_s"] += tags.get("compute_s", dur)
                queue_s += tags.get("queue_s", 0.0)
                compute_s += tags.get("compute_s", dur)
                if tags.get("kind") in BATCHED_PATHS \
                        and tags.get("points", 0) > 1:
                    batches += 1
                    batched_points += int(tags.get("points", 0))
            elif name == "sweep":
                elapsed = max(elapsed, ev.get("dur", 0.0))
                jobs = tags.get("jobs", jobs)
        elif kind == "phase":
            p = phases.setdefault(ev["name"], {"calls": 0, "seconds": 0.0})
            p["calls"] += 1
            p["seconds"] += ev.get("dur", 0.0)
        elif kind == "counter":
            name = ev["name"]
            counters[name] = counters.get(name, 0) + ev.get("value", 1)
            reason = tags.get("reason")
            if reason is not None:
                by = reasons.setdefault(name, {})
                by[reason] = by.get(reason, 0) + ev.get("value", 1)
        elif kind == "summary":
            elapsed = max(elapsed, ev.get("elapsed", 0.0))
    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    return {
        "meta": dict(trace.meta),
        "points": points,
        "elapsed": elapsed,
        "jobs": jobs,
        "paths": paths,
        "kernels": kernels,
        "batches": batches,
        "batched_points": batched_points,
        "batch_coverage": (covered / batchable) if batchable else 1.0,
        "batchable_points": batchable,
        "cache": {
            "hits": hits,
            "misses": misses,
            "writes": counters.get("cache.write", 0),
            "hit_rate": hits / (hits + misses) if hits + misses else None,
            "miss_reasons": reasons.get("cache.miss", {}),
        },
        "phases": phases,
        "queue_s": queue_s,
        "compute_s": compute_s,
        "faults": {
            "retries": counters.get("task.retry", 0),
            "timeouts": counters.get("task.timeout", 0),
            "respawns": counters.get("worker.respawn", 0),
            "failed_points": counters.get("point.failed", 0),
            "retry_reasons": reasons.get("task.retry", {}),
            "respawn_reasons": reasons.get("worker.respawn", {}),
        },
    }


def _share(n: int, total: int) -> str:
    return f"{n / total:.0%}" if total else "-"


def render_attribution(trace: RunTrace) -> str:
    """The post-run attribution table ``--trace`` prints: where every
    point went (path × kernel family), batch efficiency, cache hit
    rate with miss reasons, fastsim phase timings, queue vs compute."""
    s = summarize(trace)
    out: List[str] = []
    label = s["meta"].get("scenario") or s["meta"].get("kernel") \
        or s["meta"].get("command") or "run"
    head = (f"run trace — {label}: {s['points']} point(s) in "
            f"{s['elapsed']:.2f}s")
    if s["jobs"] is not None:
        head += f" (jobs={s['jobs']})"
    out.append(head)

    rows = [[path, n, _share(n, s["points"])]
            for path, n in sorted(s["paths"].items(),
                                  key=lambda kv: -kv[1])]
    out.append(format_table(["path", "points", "share"], rows,
                            title="execution paths"))
    if s["batches"]:
        out.append(f"batch efficiency: {s['batched_points']} point(s) in "
                   f"{s['batches']} batch(es) "
                   f"({s['batched_points'] / s['batches']:.1f} "
                   f"points/batch); batch-path coverage "
                   f"{s['batch_coverage']:.0%} of "
                   f"{s['batchable_points']} batchable point(s)")
    krows = [[name, int(k["points"]), int(k["tasks"]),
              round(k["compute_s"], 4)]
             for name, k in sorted(s["kernels"].items(),
                                   key=lambda kv: -kv[1]["compute_s"])]
    out.append(format_table(["kernel", "points", "tasks", "compute_s"],
                            krows, title="kernel families"))
    c = s["cache"]
    if c["hits"] or c["misses"] or c["writes"]:
        reasons = ", ".join(f"{k}={int(v)}" for k, v in
                            sorted(c["miss_reasons"].items())) or "-"
        rate = f"{c['hit_rate']:.0%}" if c["hit_rate"] is not None else "-"
        out.append(f"result cache: {int(c['hits'])} hit(s) / "
                   f"{int(c['misses'])} miss(es) ({rate} hit rate), "
                   f"{int(c['writes'])} write(s); miss reasons: {reasons}")
    f = s["faults"]
    if f["retries"] or f["timeouts"] or f["respawns"] or f["failed_points"]:
        reasons = ", ".join(f"{k}={int(v)}" for k, v in
                            sorted(f["retry_reasons"].items())) or "-"
        out.append(f"fault tolerance: {int(f['retries'])} task retr"
                   f"{'y' if f['retries'] == 1 else 'ies'} "
                   f"(reasons: {reasons}), {int(f['timeouts'])} "
                   f"timeout kill(s), {int(f['respawns'])} worker "
                   f"respawn(s), {int(f['failed_points'])} failed "
                   f"point(s)")
    if s["phases"]:
        prows = [[name, int(p["calls"]), round(p["seconds"], 4)]
                 for name, p in sorted(s["phases"].items(),
                                       key=lambda kv: -kv[1]["seconds"])]
        out.append(format_table(["phase", "calls", "seconds"], prows,
                                title="profiling phases"))
    out.append(f"queue vs compute: {s['queue_s']:.3f}s queued, "
               f"{s['compute_s']:.3f}s computing")
    return "\n".join(out)


def render_diff(a: RunTrace, b: RunTrace,
                labels: Sequence[str] = ("a", "b")) -> str:
    """Side-by-side comparison of two saved traces (the regression
    view: elapsed, paths, batch efficiency, cache behaviour, kernel
    compute time and fastsim phases, with b/a ratios)."""
    sa, sb = summarize(a), summarize(b)
    la, lb = labels

    def ratio(x: Any, y: Any) -> Any:
        if isinstance(x, (int, float)) and isinstance(y, (int, float)) \
                and x:
            return round(y / x, 3)
        return "-"

    def fmt(v: Any) -> Any:
        if isinstance(v, float):
            return round(v, 4)
        return v if v is not None else "-"

    rows: List[List[Any]] = []

    def add(name: str, va: Any, vb: Any) -> None:
        rows.append([name, fmt(va), fmt(vb), ratio(va, vb)])

    add("points", sa["points"], sb["points"])
    add("elapsed_s", sa["elapsed"], sb["elapsed"])
    for path in sorted(set(sa["paths"]) | set(sb["paths"])):
        add(f"path.{path}", sa["paths"].get(path, 0),
            sb["paths"].get(path, 0))
    add("batches", sa["batches"], sb["batches"])
    add("batched_points", sa["batched_points"], sb["batched_points"])
    add("batch_coverage", sa["batch_coverage"], sb["batch_coverage"])
    add("cache.hit_rate", sa["cache"]["hit_rate"], sb["cache"]["hit_rate"])
    add("cache.writes", sa["cache"]["writes"], sb["cache"]["writes"])
    add("queue_s", sa["queue_s"], sb["queue_s"])
    add("compute_s", sa["compute_s"], sb["compute_s"])
    fa, fb = sa["faults"], sb["faults"]
    if any(fa[k] or fb[k] for k in
           ("retries", "timeouts", "respawns", "failed_points")):
        add("faults.retries", fa["retries"], fb["retries"])
        add("faults.timeouts", fa["timeouts"], fb["timeouts"])
        add("faults.respawns", fa["respawns"], fb["respawns"])
        add("faults.failed_points", fa["failed_points"],
            fb["failed_points"])
    for kernel in sorted(set(sa["kernels"]) | set(sb["kernels"])):
        add(f"kernel.{kernel}.compute_s",
            sa["kernels"].get(kernel, {}).get("compute_s", 0.0),
            sb["kernels"].get(kernel, {}).get("compute_s", 0.0))
    for phase in sorted(set(sa["phases"]) | set(sb["phases"])):
        add(f"phase.{phase}.seconds",
            sa["phases"].get(phase, {}).get("seconds", 0.0),
            sb["phases"].get(phase, {}).get("seconds", 0.0))
    title = (f"trace diff — {la}: "
             f"{sa['meta'].get('scenario') or sa['meta'].get('kernel') or '?'}"
             f" vs {lb}: "
             f"{sb['meta'].get('scenario') or sb['meta'].get('kernel') or '?'}")
    return format_table(["metric", la, lb, f"{lb}/{la}"], rows, title=title)
