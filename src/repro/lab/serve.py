"""``repro-lab serve`` — a long-running sweep daemon over the hot cache.

The engine's cost models are microseconds per point once warm, and the
content-addressed :class:`~repro.lab.cache.ResultCache` makes repeated
grids free — what batch invocations cannot give is *sharing*: every
``repro-lab run`` pays process start-up, and two users sweeping the
same grid both pay for it.  This module is the missing front-end: one
warm process answering sweep requests over HTTP so arbitrarily many
clients share a single hot cache.

Deliberately **zero-dependency** (stdlib ``http.server`` only), like
the rest of the lab.  Endpoints:

``POST /sweep``
    Body is JSON: either ``{"scenario": "fig2", "quick": true}`` (a
    preset, with optional ``"set"``/``"hw"`` override objects — the
    HTTP spelling of ``--set``/``--hw``) or an inline grid
    ``{"kernel": ..., "machine": ..., "set": {...}, "grid": {...}}``
    mirroring ``repro-lab sweep``.  Replies with a job id.  Requests
    whose every point is already cached are answered synchronously
    without enqueuing anything (``serve.cache_hit``); a request
    identical to one already queued or running joins that job instead
    of re-executing (single-flight, ``serve.dedup``) — "identical"
    means the same set of result-cache point keys, so it is exactly
    the dedup the cache itself would have provided, minus the wasted
    compute.

``GET /jobs/<id>``
    JSON status (404 for an id never issued; 410 for a finished job the
    daemon has forgotten: it keeps the last :data:`MAX_FINISHED_JOBS`
    finished jobs, and a re-submitted request is served from cache.
    Only an id's sequence number tells the two apart, so a well-formed
    id with an issued number but another key prefix also answers 410);
    with ``?sse=1`` (or ``Accept: text/event-stream``) a
    Server-Sent-Events stream of the job's :class:`RunTrace` events —
    spans, per-point paths, counters — live while the sweep runs,
    ending with the trace summary and an ``event: done`` terminator.

``GET /results/<id>``
    The finished job's flat records via :class:`ResultSet` — JSON by
    default, ``?format=csv`` for CSV.  Records are bit-identical to
    the same scenario run through ``repro-lab sweep``: the daemon
    calls the very same :func:`repro.lab.executor.execute`.

``GET /metrics``
    The :class:`~repro.lab.telemetry.MetricsRegistry` of the server's
    own counters and request spans, merged with the one aggregated from
    every job trace — schema-v1 events in, the standard
    counters/gauges/histograms dict out.  No second metrics format is
    invented here.

``POST /jobs/<id>/cancel``
    Ask a queued/running job to stop at the next task boundary (the
    executor's job-level ``cancel`` hook).  Completed points are
    already cached, so a cancelled grid resumes for free.

Sweeps run on a single job-runner thread with a bounded worker budget
(``jobs=N`` workers *shared across* jobs, never multiplied by them);
HTTP handler threads only parse, probe the cache, enqueue and stream.
Graceful shutdown stops accepting, drains queued jobs through the
runner, and reclaims half-written cache temporaries — the same path a
SIGINT takes in the CLI.
"""

from __future__ import annotations

import hashlib
import json
import queue
import re
import socket
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (Any, Deque, Dict, List, Mapping, Optional, Sequence,
                    Tuple)
from urllib.parse import parse_qs, urlparse

from repro.lab import telemetry
from repro.lab.cache import ResultCache, point_key
from repro.lab.executor import (MissingResultsError, SweepCancelled,
                                execute)
from repro.lab.results import ResultSet
from repro.lab.scenarios import ScenarioPoint, build_scenario
from repro.lab.telemetry import MetricsRegistry, RunTrace

__all__ = ["Job", "JobManager", "ServeDaemon"]

#: job states a subscriber can no longer observe progress from.
_TERMINAL = frozenset({"done", "failed", "cancelled"})

#: finished jobs the daemon keeps (their rows and traces); beyond it the
#: oldest to finish is forgotten, and its id answers 410.
MAX_FINISHED_JOBS = 256

#: the largest POST body the daemon reads, in bytes; a larger declared
#: ``Content-Length`` is answered 413 before any of it is read.  A
#: request is a preset or kernel name plus a few overrides (the test
#: suite's largest is 117 bytes); 64 KiB still holds a grid axis of
#: thousands of values.
MAX_BODY_BYTES = 1 << 16

#: a job id: ``job-<sequence number>-<grid key prefix>``.
_JOB_ID = re.compile(r"job-(\d+)-([0-9a-f]{8})")


# --------------------------------------------------------------------- #
# request -> points
# --------------------------------------------------------------------- #
def points_from_request(body: Any
                        ) -> Tuple[str, List[ScenarioPoint]]:
    """Resolve a ``POST /sweep`` body to ``(label, points)``.

    The body spells ``repro-lab sweep``'s arguments as JSON and goes
    through the CLI's own parser, :func:`build_scenario`: a
    ``scenario`` key selects a preset (``quick``/``set``/``hw``),
    otherwise ``kernel``/``machine``/``set``/``grid``/``hw`` describe
    an ad-hoc cartesian sweep.  Raises ``ValueError`` (-> HTTP 400) on
    anything malformed.
    """
    if not isinstance(body, Mapping):
        raise ValueError("request body must be a JSON object")
    scenario = build_scenario(
        body.get("scenario"), quick=body.get("quick", False),
        kernel=body.get("kernel"), machine=body.get("machine", "sim-l3"),
        sets=body.get("set"), hw=body.get("hw"), grid=body.get("grid"))
    points = scenario.points()
    if not points:
        raise ValueError("request resolves to zero points")
    return scenario.name, points


# --------------------------------------------------------------------- #
# jobs
# --------------------------------------------------------------------- #
class Job:
    """One submitted sweep: its points, its in-memory :class:`RunTrace`
    (the SSE source), and its finished :class:`ResultSet`.

    Subscribers get ``(backlog, queue)``: a snapshot of every event so
    far plus a queue the trace listener fans live events into.  Events
    arrive indexed so a subscriber skips anything its backlog already
    covered — no event is lost or duplicated across the handoff.  A
    ``None`` sentinel on the queue means the job reached a terminal
    state and nothing more will come.
    """

    def __init__(self, job_id: str, key: str, label: str,
                 points: Sequence[ScenarioPoint]) -> None:
        self.id = job_id
        self.key = key
        self.label = label
        self.points = list(points)
        self.status = "queued"
        self.cached = False
        self.error: Optional[str] = None
        self.rows: Optional[ResultSet] = None
        self.summary: Dict[str, Any] = {}
        self.cancel_requested = False
        self.trace = RunTrace(meta={"command": "serve", "job": job_id,
                                    "scenario": label})
        self._lock = threading.Lock()
        self._subs: List["queue.SimpleQueue[Any]"] = []
        self._emitted = 0
        self.trace.add_listener(self._fanout)

    # ------------------------------------------------------------------ #
    def _fanout(self, event: Dict[str, Any]) -> None:
        with self._lock:
            idx = self._emitted
            self._emitted += 1
            for q in self._subs:
                q.put((idx, event))

    def subscribe(self) -> Tuple[List[Dict[str, Any]],
                                 "queue.SimpleQueue[Any]"]:
        with self._lock:
            backlog = list(self.trace.events)
            q: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
            self._subs.append(q)
            if self.status in _TERMINAL:
                q.put(None)
            return backlog, q

    def unsubscribe(self, q: "queue.SimpleQueue[Any]") -> None:
        with self._lock:
            try:
                self._subs.remove(q)
            except ValueError:
                pass

    def _finish(self, status: str) -> None:
        with self._lock:
            self.status = status
            for q in self._subs:
                q.put(None)

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, Any]:
        return {"job": self.id, "label": self.label,
                "status": self.status, "points": len(self.points),
                "cached": self.cached, "error": self.error,
                "events": len(self.trace.events), **self.summary}


class JobManager:
    """Single-flight job queue over one runner thread.

    * Warm requests (every point cached) are served synchronously on
      the calling thread — a ``require_cached`` execute, zero compute,
      nothing enqueued.
    * Cold requests dedup on the *grid key* — a hash of the sorted
      result-cache point keys — so two clients asking for the same
      uncached grid share one execution.
    * All sweeps run on one runner thread with ``jobs`` workers: the
      worker budget is shared across jobs, never multiplied by them.
    * At most :data:`MAX_FINISHED_JOBS` finished jobs are kept, the
      oldest to finish forgotten first; a queued or running job is
      never forgotten.  Each job's events fold into one metrics
      registry once, when it settles, so a forgotten job's metrics stay
      in ``/metrics`` and a ``/metrics`` call never re-reads them.  Ids
      carry an increasing sequence number, so telling a forgotten id
      from a never-issued one keeps no per-job state.
    """

    def __init__(self, cache: Optional[ResultCache],
                 jobs: int = 1) -> None:
        self.cache = cache
        self.jobs = jobs
        self.executions = 0  #: sweeps actually run (cache-served excluded)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = deque()  #: kept settled job ids
        self._settled_metrics = MetricsRegistry()
        self._forgotten_status: Dict[str, int] = {}
        self._inflight: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._issued = 0  #: the last job sequence number handed out
        self._cancel_all = False
        self._stopped = False
        self._runner = threading.Thread(target=self._run_loop,
                                        name="repro-lab-serve-runner",
                                        daemon=True)
        self._runner.start()

    # ------------------------------------------------------------------ #
    def grid_key(self, points: Sequence[ScenarioPoint]) -> str:
        """Request identity = the multiset of result-cache point keys
        (order-independent: the same grid swept in any order is the
        same work)."""
        if self.cache is not None:
            keys = sorted(self.cache.key_for(pt.cache_payload())
                          for pt in points)
        else:
            keys = sorted(point_key(pt.cache_payload(), "")
                          for pt in points)
        digest = hashlib.sha256("\n".join(keys).encode("ascii"))
        return digest.hexdigest()[:16]

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def forgot(self, job_id: str) -> bool:
        """Whether *job_id* is an id this manager issued and no longer
        keeps.  The manager keeps nothing of a forgotten job, so only
        the sequence number is checked: a well-formed id whose number
        was issued counts as forgotten whatever its key prefix.  (An id
        issued to a request that then joined an identical running job
        counts as forgotten too.)"""
        match = _JOB_ID.fullmatch(job_id)
        if match is None:
            return False
        seq = int(match[1])
        with self._lock:
            return (job_id == f"job-{seq:04d}-{match[2]}"
                    and 1 <= seq <= self._issued
                    and job_id not in self._jobs)

    def jobs_snapshot(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def metrics_snapshot(self) -> Tuple[List[Job], MetricsRegistry,
                                        Dict[str, int]]:
        """The unsettled (queued or running) jobs, the merged metrics
        of every settled job and the status count of every job, taken
        together."""
        with self._lock:
            by_status = dict(self._forgotten_status)
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            settled = set(self._finished)
            return ([job for job_id, job in self._jobs.items()
                     if job_id not in settled],
                    MetricsRegistry.from_dict(
                        self._settled_metrics.as_dict()),
                    by_status)

    def _retire(self, job: Job) -> None:
        """Fold the settled *job*'s events into the metrics, and forget
        the oldest finished jobs beyond :data:`MAX_FINISHED_JOBS`."""
        metrics = MetricsRegistry.from_events(job.trace.events)
        with self._lock:
            self._settled_metrics.merge(metrics)
            self._finished.append(job.id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                old = self._jobs.pop(self._finished.popleft())
                self._forgotten_status[old.status] = (
                    self._forgotten_status.get(old.status, 0) + 1)

    def _new_job(self, key: str, label: str,
                 points: Sequence[ScenarioPoint]) -> Job:
        with self._lock:
            self._issued += 1
            job = Job(f"job-{self._issued:04d}-{key[:8]}", key,
                      label, points)
            self._jobs[job.id] = job
            return job

    # ------------------------------------------------------------------ #
    def submit(self, label: str, points: Sequence[ScenarioPoint]
               ) -> Tuple[Job, str]:
        """Route a request; returns ``(job, how)`` with *how* one of
        ``"cached"`` (answered synchronously from the result cache),
        ``"dedup"`` (joined an identical queued/running job) or
        ``"queued"``."""
        key = self.grid_key(points)
        if self._probe_warm(points):
            job = self._new_job(key, label, points)
            try:
                self._run_cached(job)
                self._retire(job)
                return job, "cached"
            except MissingResultsError:
                # Raced a gc between probe and read.  The attempt's trace
                # is finished, so drop it (its events never reach
                # /metrics) and run the request cold on a fresh job.
                with self._lock:
                    del self._jobs[job.id]
        job = self._new_job(key, label, points)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._jobs.pop(job.id, None)  # join theirs, drop ours
                return existing, "dedup"
            job.status = "queued"
            self._inflight[key] = job
            self._queue.put(job)
        return job, "queued"

    def _probe_warm(self, points: Sequence[ScenarioPoint]) -> bool:
        """Whether every point is already cached.  Probed *untraced* —
        the probe is bookkeeping, not execution; counting its reads
        would double every hit in ``/metrics``."""
        if self.cache is None or self.cache.disabled:
            return False
        with telemetry.tracing(None):
            return all(self.cache.get(pt.cache_payload()) is not None
                       for pt in points)

    def _run_cached(self, job: Job) -> None:
        """Answer a fully-warm request on the calling thread: a
        ``require_cached`` execute reads every record (zero compute)
        under the job's own trace, so ``/metrics`` still attributes
        the hits."""
        job.status = "running"
        try:
            report = execute(job.points, cache=self.cache,
                             require_cached=True, trace=job.trace)
        except MissingResultsError:
            job.trace.finish(status="failed")
            job._finish("failed")
            raise
        job.rows = ResultSet.from_report(report)
        job.cached = True
        job.summary = {"hits": report.hits, "misses": report.misses,
                       "elapsed": report.elapsed}
        job.trace.finish(status="done", cached=True)
        job._finish("done")

    # ------------------------------------------------------------------ #
    def _run_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None:
                    return
                if self._cancel_all:
                    self._settle(job, "cancelled")
                    continue
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        job.status = "running"
        with self._lock:
            self.executions += 1
        status = "failed"
        try:
            report = execute(
                job.points, jobs=self.jobs, cache=self.cache,
                trace=job.trace,
                cancel=lambda: self._cancel_all or job.cancel_requested)
            job.rows = ResultSet.from_report(report)
            job.summary = {"hits": report.hits,
                           "misses": report.misses,
                           "elapsed": report.elapsed,
                           "failed": report.failed}
            status = "done"
        except SweepCancelled:
            status = "cancelled"
        except Exception as exc:  # surfaced via the job, not the thread
            job.error = f"{type(exc).__name__}: {exc}"
            status = "failed"
        finally:
            self._settle(job, status)

    def _settle(self, job: Job, status: str) -> None:
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
        job.trace.finish(status=status)
        job._finish(status)
        self._retire(job)

    # ------------------------------------------------------------------ #
    def stop(self, drain: bool = True) -> None:
        """Stop the runner.  ``drain=True`` lets every queued job run
        to completion first; ``drain=False`` cancels the running sweep
        at its next task boundary and fails the queue fast.  Either
        way completed points are already in the cache."""
        if self._stopped:
            return
        self._stopped = True
        if not drain:
            self._cancel_all = True
        self._queue.put(None)
        self._runner.join()


# --------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------- #
class _BodyTooLarge(ValueError):
    """A declared request body over :data:`MAX_BODY_BYTES` (413)."""


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog of 5 overflows under a burst
    # of concurrent clients; the kernel caps this at net.core.somaxconn.
    request_queue_size = socket.SOMAXCONN
    repro_daemon: "ServeDaemon"


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0: the connection closes when the handler returns, which
    # is exactly the framing an SSE stream without chunked encoding
    # needs.
    protocol_version = "HTTP/1.0"
    server: _ServeHTTPServer

    @property
    def daemon(self) -> "ServeDaemon":
        return self.server.repro_daemon

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the run trace is the access log

    # ------------------------------------------------------------------ #
    def _send_json(self, code: int, payload: Mapping[str, Any]) -> None:
        blob = json.dumps(payload, indent=2, default=str).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _send_text(self, code: int, text: str, ctype: str) -> None:
        blob = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> Any:
        # Checked before reading: a negative length would read to EOF
        # (a client holding its socket open hangs the handler) and a
        # huge one would be read into memory whole.
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise ValueError(f"Content-Length must be a non-negative "
                             f"integer, got {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(f"request body of {length} bytes exceeds "
                                f"the {MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError:
            raise ValueError("request body is not valid JSON") from None

    # ------------------------------------------------------------------ #
    def do_POST(self) -> None:
        t0 = time.monotonic()
        path = urlparse(self.path).path
        try:
            if path == "/sweep":
                self._post_sweep()
            elif path.startswith("/jobs/") and path.endswith("/cancel"):
                self._post_cancel(path[len("/jobs/"):-len("/cancel")])
            else:
                self._send_json(404, {"error": f"no such route {path}"})
        except _BodyTooLarge as exc:
            self._send_json(413, {"error": str(exc)})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to answer
        finally:
            self.daemon.record_request(t0)

    def do_GET(self) -> None:
        t0 = time.monotonic()
        parsed = urlparse(self.path)
        path = parsed.path
        try:
            if path == "/metrics":
                self._send_json(200, self.daemon.metrics_payload())
            elif path == "/healthz":
                self._send_json(200, {"ok": True,
                                      "accepting": self.daemon.accepting})
            elif path.startswith("/jobs/"):
                self._get_job(path[len("/jobs/"):], parsed.query)
            elif path.startswith("/results/"):
                self._get_results(path[len("/results/"):], parsed.query)
            else:
                self._send_json(404, {"error": f"no such route {path}"})
        except (BrokenPipeError, ConnectionResetError):
            return  # a disconnected SSE client is routine, not an error
        finally:
            self.daemon.record_request(t0)

    # ------------------------------------------------------------------ #
    def _post_sweep(self) -> None:
        daemon = self.daemon
        if not daemon.accepting:
            self._send_json(503, {"error": "shutting down"})
            return
        body = self._read_body()
        label, points = points_from_request(body)
        daemon.counter("serve.request")
        job, how = daemon.manager.submit(label, points)
        if how == "cached":
            daemon.counter("serve.cache_hit")
        elif how == "dedup":
            daemon.counter("serve.dedup")
        self._send_json(202 if how == "queued" else 200, {
            **job.describe(), "source": how,
            "links": {"status": f"/jobs/{job.id}",
                      "events": f"/jobs/{job.id}?sse=1",
                      "results": f"/results/{job.id}"}})

    def _lookup(self, job_id: str) -> Optional[Job]:
        """The job *job_id* names, or ``None`` after answering 410 (it
        finished and was forgotten) or 404 (never issued)."""
        manager = self.daemon.manager
        job = manager.get(job_id)
        if job is not None:
            return job
        if manager.forgot(job_id):
            self._send_json(410, {"error": f"job {job_id!r} finished and "
                                           f"was forgotten; re-submit it"})
        else:
            self._send_json(404, {"error": f"no such job {job_id!r}"})
        return None

    def _post_cancel(self, job_id: str) -> None:
        job = self._lookup(job_id)
        if job is None:
            return
        job.cancel_requested = True
        self._send_json(200, {"job": job.id, "status": job.status,
                              "cancel_requested": True})

    def _get_job(self, job_id: str, query: str) -> None:
        job = self._lookup(job_id)
        if job is None:
            return
        wants_sse = (parse_qs(query).get("sse", ["0"])[0] not in
                     ("0", "", "false")) or \
            "text/event-stream" in (self.headers.get("Accept") or "")
        if wants_sse:
            self._stream_events(job)
        else:
            self._send_json(200, job.describe())

    def _stream_events(self, job: Job) -> None:
        """SSE: replay the trace backlog, then relay live events until
        the job settles.  ``event:`` carries the trace event type, the
        payload is the schema-v1 event verbatim."""
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        backlog, q = job.subscribe()
        try:
            for ev in backlog:
                self._sse_event(ev)
            self.wfile.flush()
            skip = len(backlog)
            while True:
                item = q.get()
                if item is None:
                    break
                idx, ev = item
                if idx < skip:
                    continue  # the backlog already carried this one
                self._sse_event(ev)
                self.wfile.flush()
            self.wfile.write(b"event: done\ndata: {}\n\n")
            self.wfile.flush()
        finally:
            job.unsubscribe(q)

    def _sse_event(self, event: Mapping[str, Any]) -> None:
        kind = str(event.get("type", "event"))
        data = json.dumps(event, sort_keys=True, default=str)
        self.wfile.write(f"event: {kind}\ndata: {data}\n\n"
                         .encode("utf-8"))

    def _get_results(self, job_id: str, query: str) -> None:
        job = self._lookup(job_id)
        if job is None:
            return
        if job.rows is None:
            self._send_json(409, {**job.describe(),
                                  "error": f"job is {job.status}; "
                                           f"no results to fetch"})
            return
        fmt = parse_qs(query).get("format", ["json"])[0]
        if fmt == "csv":
            self._send_text(200, job.rows.to_csv(), "text/csv")
        elif fmt == "json":
            self._send_text(200, job.rows.to_json(), "application/json")
        else:
            self._send_json(400, {"error": f"unknown format {fmt!r} "
                                           f"(json or csv)"})


# --------------------------------------------------------------------- #
# daemon
# --------------------------------------------------------------------- #
class ServeDaemon:
    """The serve front-end: HTTP server + job manager + server metrics.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound ``(host, port)``.  :meth:`serve_forever` runs in the
    calling thread (the CLI); :meth:`start` spawns a background thread
    instead.  Either way :meth:`shutdown` stops accepting, drains (or
    cancels) the job queue, closes the socket and sweeps half-written
    cache temporaries — the same exit path a CLI SIGINT takes.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8737,
                 jobs: int = 1,
                 cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
        #: the server's own counters and request spans, folded as they
        #: happen: the daemon keeps no per-request state.
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self.manager = JobManager(cache, jobs=jobs)
        self.accepting = True
        self._closed = False
        self.httpd = _ServeHTTPServer((host, port), _Handler)
        self.httpd.repro_daemon = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ServeDaemon":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-lab-serve-http",
                                        daemon=True)
        self._thread.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, settle the queue (*drain* runs queued jobs
        to completion; ``drain=False`` cancels at the next task
        boundary), close the socket, and reclaim stale cache
        temporaries.  Idempotent."""
        self.accepting = False
        self.manager.stop(drain=drain)
        if self._closed:
            return
        self._closed = True
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
        self.httpd.server_close()
        if self.cache is not None:
            self.cache.cleanup_tmp()

    # ------------------------------------------------------------------ #
    # server metrics (handler threads share one registry, so serialize).
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> None:
        with self._metrics_lock:
            self.metrics.count(name)

    def record_request(self, start_monotonic: float) -> None:
        """One ``http_request`` span, rounded as a trace event's."""
        seconds = round(time.monotonic() - start_monotonic, 6)
        with self._metrics_lock:
            self.metrics.observe_span("http_request", seconds)

    def metrics_payload(self) -> Dict[str, Any]:
        """``GET /metrics``: the server's own metrics plus every job
        trace's events, aggregated through the one true
        :class:`MetricsRegistry` (a settled job's events were folded
        once, when it settled)."""
        live, registry, by_status = self.manager.metrics_snapshot()
        registry.merge(MetricsRegistry.from_events(
            [ev for job in live for ev in list(job.trace.events)]))
        with self._metrics_lock:
            registry.merge(self.metrics)
        return {"schema_version": telemetry.SCHEMA_VERSION,
                "metrics": registry.as_dict(),
                "jobs": by_status,
                "executions": self.manager.executions}
