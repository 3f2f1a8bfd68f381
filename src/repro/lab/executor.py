"""Parallel scenario-point executor with cache-aware scheduling.

The executor resolves cache hits first (cheap, in-process), then fans only
the remaining points out over a supervised pool of worker processes — so a
warm sweep costs one JSON read per point regardless of ``jobs``, and a
cold sweep scales with cores.  All *result-cache* I/O happens in the
parent process; workers are deterministic functions from point payloads to
records.  A trace kernel's task holds every point of one trace, so each
distinct trace is built once per run, in-process or on a pool worker.

**Batching** (on by default): uncached points whose kernel declares a
:class:`~repro.lab.params.BatchKernel` entry and that share the
entry's group key are collapsed into one task that evaluates the whole
group at once and emits exact per-point records, which are then fanned
back out into the result cache under each point's own key.  Batching is
purely an execution strategy: reports, caching and record contents stay
bit-identical to the per-point path.  Two batch families exist today:

* **trace batches** — points of one line-trace kernel
  (:data:`repro.lab.registry.TRACE_KERNELS`) that replay the same trace
  share one task, which builds the trace once: its fully-associative
  LRU, Belady, clock and segmented-LRU points replay it through one
  fastsim sweep whatever their capacities, and its other points replay
  it once per distinct policy, capacity, associativity and seed through
  ``CacheSim``.  Energy-only variants and schemes that resolve to one
  task order (``wa2``/``ab-multilevel``) ride along
  (:func:`~repro.lab.registry.trace_group_payload`;
  ``multi_capacity=False`` / ``--no-multi-capacity`` opts out);
* **cost-grid batches** — points of one analytic ``cost-*`` family
  under the same ``HwParams`` evaluate as a single numpy-vectorized
  grid, infeasible points masked to ``feasible: False`` records
  (``batch=False`` / ``--no-batch`` opts out).

**Fault tolerance**: dispatch is a supervised completion loop, not a
bare ``pool.map``.  Each task gets a wall-clock ``timeout`` (the worker
is killed and respawned on expiry) and a per-task ``retries`` budget
with capped exponential backoff and deterministic jitter; a failed
*batch* falls back to per-point scalar tasks so one poisoned point
cannot sink its siblings; a worker that dies mid-task (SIGKILL,
``os._exit``) is detected, respawned (capped by
:attr:`RetryPolicy.max_respawns`) and its task requeued.  Every
successful point is cached *immediately on completion*, so an
interrupted or partially failed sweep resumes through the result cache
(re-run = retry only the failures).  With ``keep_going=True`` a point
that exhausts its retries produces a structured error record
(``failed``/``error``/``exc_type``/``remote_traceback``/``attempts``,
plus the scenario point identity) instead of aborting the sweep;
otherwise the first terminal failure raises
:class:`PointExecutionError` — completed siblings stay cached either
way.  A seeded :class:`~repro.lab.faults.FaultPlan` (``faults=``,
``--fault-plan``, ``$REPRO_LAB_FAULTS``) injects deterministic
raise/hang/die faults at the worker boundary so every recovery path is
testable.

**Cache identity**: records are keyed on
:meth:`~repro.lab.scenarios.ScenarioPoint.cache_payload` — the machine
spec projected to the fields the kernel declares it reads
(:attr:`repro.lab.params.Kernel.machine_fields`) — so same-params points
under differently named (or irrelevantly differing) machines share one
cache entry.  Error records are **never** cached.

**Telemetry** (:mod:`repro.lab.telemetry`): with a
:class:`~repro.lab.telemetry.RunTrace` active (``--trace`` or an
explicit ``trace=`` argument) the executor emits a ``sweep`` span, one
``task`` span per completed task attempt (tagged with its kind, venue —
``in_process`` or ``pool-worker-N`` — attempt number and
queue-vs-compute seconds), one ``point`` event per point tagged with
its execution path (``cache``/``batch``/``multi_capacity``/``scalar``/
``failed``), and ``task.retry`` / ``task.timeout`` /
``worker.respawn`` / ``point.failed`` counters for every recovery
action.  Pool workers capture their own events (fastsim phases)
into an in-memory subtrace that the parent splices back in; each
kernel's declared :attr:`~repro.lab.params.Kernel.metric_fields` fold
into trace metrics.  Tracing never changes records —
the untraced path pays one ``None`` check per site.
"""

from __future__ import annotations

import errno
import json
import math
import time
import traceback as tb
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro.lab import telemetry
from repro.lab.cache import ResultCache
from repro.lab.faults import FaultPlan, deterministic_unit, fault_key
from repro.lab.registry import KERNELS, run_batch
from repro.lab.scenarios import ScenarioPoint
from repro.util import json_number_default

__all__ = ["execute", "PointResult", "SweepReport", "MissingResultsError",
           "PointExecutionError", "RetryPolicy", "SweepCancelled"]


#: errno values that mean "the pipe's peer is gone" — the only class of
#: OSError a worker pipe send may swallow as worker/parent death.  An
#: EBADF, ENOMEM or EMSGSIZE there is *our* bug and must surface, not
#: silently count as a crash-respawn.
_PEER_GONE_ERRNOS = frozenset({errno.EPIPE, errno.ECONNRESET,
                               errno.ESHUTDOWN})


def _is_peer_gone(exc: OSError) -> bool:
    """Whether *exc* from a pipe send means the other end died (vs a
    genuine local error that must propagate)."""
    if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
        return True
    return exc.errno in _PEER_GONE_ERRNOS


class MissingResultsError(RuntimeError):
    """Raised by ``require_cached`` runs when points are absent from cache."""

    def __init__(self, missing: int, total: int):
        super().__init__(
            f"{missing} of {total} points are not in the result cache; "
            f"run the sweep first (repro-lab run ...)"
        )
        self.missing = missing
        self.total = total


class PointExecutionError(RuntimeError):
    """A task failed terminally while evaluating scenario points.

    ``multiprocessing`` re-raises worker exceptions after a round trip
    that can lose the original traceback (and always loses which point
    was being evaluated), so workers catch failures themselves and ship
    a structured error record home; the parent raises this with the
    worker-side traceback attached as :attr:`remote_traceback` and
    included in the message.  Completed sibling points are already in
    the result cache when this raises.
    """

    def __init__(self, message: str,
                 remote_traceback: Optional[str] = None):
        if remote_traceback:
            message = (f"{message}\n--- remote traceback ---\n"
                       f"{remote_traceback.rstrip()}")
        super().__init__(message)
        self.remote_traceback = remote_traceback


class SweepCancelled(RuntimeError):
    """The ``cancel`` hook asked the sweep to stop before completion.

    Raised from :func:`execute` when the caller-supplied ``cancel``
    callable returns True between tasks.  Every point that completed
    before the cancellation is already in the result cache (the same
    resume-by-re-running guarantee an interrupted sweep has), so a
    cancelled job costs only its in-flight task."""


#: retry backoff: the first delay and the cap of its doubling, seconds.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0
#: how long the supervisor waits on busy workers' pipes per loop pass.
_POLL_S = 0.05
#: how long a terminated worker gets to exit before it is killed.
_KILL_GRACE_S = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs for one :func:`execute` call.

    ``retries`` is the per-task retry budget *beyond* the first attempt;
    backoff before attempt *k* is
    ``min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**(k-1))`` scaled by a
    deterministic jitter factor in ``[0.5, 1.5)``.  ``timeout`` is the
    per-task wall-clock limit (pool execution only — an in-process task
    cannot be preempted).  ``max_respawns`` caps *unexpected* worker
    deaths (crashes, not deliberate timeout kills) before the sweep is
    declared unrecoverable.
    """

    retries: int = 0
    timeout: Optional[float] = None
    max_respawns: int = 8

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a positive, finite number "
                             f"of seconds, got {self.timeout}")

    def backoff(self, attempts: int, key: str) -> float:
        """Delay before re-dispatching a task that has made *attempts*
        attempts; jitter is a pure function of *key* so schedules are
        reproducible."""
        base = min(_BACKOFF_CAP_S,
                   _BACKOFF_BASE_S * (2 ** max(0, attempts - 1)))
        return base * (0.5 + deterministic_unit(f"backoff:{key}:{attempts}"))


@dataclass
class PointResult:
    """One executed (or cache-served) scenario point."""

    point: ScenarioPoint
    record: Dict[str, Any]
    cached: bool
    #: the record is a structured failure, not a kernel result.
    failed: bool = False


@dataclass
class SweepReport:
    """Results in point order plus cache/timing/fault accounting."""

    results: List[PointResult]
    hits: int = 0
    misses: int = 0
    elapsed: float = 0.0
    jobs: int = 1
    #: points computed through batched tasks / batch count.
    batched_points: int = 0
    batches: int = 0
    #: points that exhausted their retries (``keep_going`` error records).
    failed: int = 0
    #: task re-dispatches (error, timeout or worker-crash retries).
    retries: int = 0
    #: tasks killed for exceeding the per-task timeout.
    timeouts: int = 0
    #: worker processes respawned after dying or being killed.
    respawns: int = 0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 1.0

    def records(self) -> List[Dict[str, Any]]:
        return [r.record for r in self.results]

    def failures(self) -> List[PointResult]:
        """The failed points (empty unless ``keep_going`` was on)."""
        return [r for r in self.results if r.failed]

    def cache_line(self, cache: Optional[ResultCache]) -> str:
        """The one-line cache summary the CLIs print."""
        batched = (f", {self.batched_points} via {self.batches} "
                   f"batch(es)" if self.batches else "")
        faults = ""
        if self.failed or self.retries or self.timeouts or self.respawns:
            faults = (f"; faults: {self.failed} failed, "
                      f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
                      f"{self.timeouts} timeout(s), "
                      f"{self.respawns} respawn(s)")
        if cache is None or cache.disabled:
            return (f"[repro.lab] cache disabled; computed "
                    f"{self.total} points in {self.elapsed:.2f}s "
                    f"(jobs={self.jobs}{batched}){faults}")
        return (f"[repro.lab] {self.hits}/{self.total} points "
                f"({self.hit_rate:.0%}) served from cache at {cache.root}; "
                f"computed {self.misses} in {self.elapsed:.2f}s "
                f"(jobs={self.jobs}{batched}){faults}")


# --------------------------------------------------------------------- #
# batch grouping
# --------------------------------------------------------------------- #
def _batch_key(point: ScenarioPoint, *, multi_capacity: bool,
               batch: bool,
               memo: Optional[Dict[Any, Optional[str]]] = None
               ) -> Optional[str]:
    """A key shared exactly by points that may ride one batched task
    (``None`` marks a point that must run on its own).

    Grouping is driven by the kernel's batch entry
    (:attr:`repro.lab.params.Kernel.batch`); each entry's gate flag
    (``multi_capacity`` for trace batches, ``batch`` for grid
    batches) must be on.  The group identity is serialized with
    numpy-canonical JSON, so ``np.int64``/``np.float64`` grid values
    neither split nor duplicate batch groups.  Entries whose identity
    ignores params (``machine_only``) are memoized per (kernel,
    machine) in *memo* — a 10^4-point grid derives its key once.
    """
    kernel = KERNELS.get(point.kernel)
    bk = None if kernel is None else kernel.batch
    if bk is None:
        return None
    if not (multi_capacity if bk.toggle == "multi_capacity" else batch):
        return None
    memo_key = None
    if bk.machine_only and memo is not None:
        # id() is stable here: the planner's point list keeps every
        # machine object alive for the memo's whole lifetime, and the
        # memo never outlives the plan (it shapes task grouping only,
        # not cache keys).
        memo_key = (point.kernel, id(point.machine))  # lab-check: ignore[R3]
        try:
            return memo[memo_key]
        except KeyError:
            pass
    group = bk.group_key(point.machine, point.params)
    if group is None:
        key = None
    else:
        try:
            key = json.dumps({"kernel": point.kernel, "group": group},
                             sort_keys=True, default=json_number_default)
        except (TypeError, ValueError):
            key = None
    if memo_key is not None:
        memo[memo_key] = key
    return key


def _plan(points: Sequence[ScenarioPoint], pending: Sequence[int],
          multi_capacity: bool, batch: bool = True
          ) -> List[Tuple[List[int], Optional[str]]]:
    """Partition pending point indices into ``(indices, kind)`` tasks,
    preserving first-appearance order.  *kind* is the batch family's
    toggle name (``"multi_capacity"`` / ``"batch"``) for groups of two
    or more points, else ``None`` — which is also the telemetry notion
    of "batchable": a ``None``-kind point had no batch path (a group no
    other point joined runs as the scalar point it is)."""
    groups: Dict[str, List[int]] = {}
    tasks: List[Tuple[List[int], Optional[str]]] = []
    memo: Dict[Any, Optional[str]] = {}
    for i in pending:
        key = _batch_key(points[i], multi_capacity=multi_capacity,
                         batch=batch, memo=memo)
        if key is None:
            tasks.append(([i], None))
        elif key in groups:
            groups[key].append(i)
        else:
            group = [i]
            groups[key] = group
            bk = KERNELS[points[i].kernel].batch
            assert bk is not None  # a keyed point has a batch entry
            tasks.append((group, bk.toggle))
    return [(group, kind if len(group) > 1 else None)
            for group, kind in tasks]


def _run_points(pts: Sequence[ScenarioPoint]) -> List[Dict[str, Any]]:
    """Run one planned task — a single point or one batch — returning
    records in task order."""
    if len(pts) == 1:
        return [pts[0].run()]
    return run_batch(pts[0].kernel,
                     [(pt.machine, pt.params) for pt in pts])


# --------------------------------------------------------------------- #
# telemetry plumbing
# --------------------------------------------------------------------- #
@contextmanager
def _phase_capture(trace: Optional[telemetry.RunTrace]):
    """Route fastsim profiling phases into *trace* for the duration
    (no-op without a trace, so untraced runs keep the free fast path)."""
    if trace is None:
        yield
        return
    from repro.machine.fastsim import profile as fs_profile

    previous = fs_profile.set_phase_hook(trace.phase)
    try:
        yield
    finally:
        fs_profile.set_phase_hook(previous)


def _worker_venue(name: str) -> str:
    """``LabWorker-3`` → ``pool-worker-3`` (the trace's venue tag)."""
    digits = "".join(c for c in name if c.isdigit())
    return f"pool-worker-{digits}" if digits else "pool-worker"


def _fold_metrics(trace: telemetry.RunTrace, kernel: str,
                  record: Dict[str, Any]) -> None:
    """Fold the record fields *kernel* declares
    (:attr:`~repro.lab.params.Kernel.metric_fields`) into trace
    metrics."""
    for field in KERNELS[kernel].metric_fields:
        value = record.get(field)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        trace.metric(f"{kernel}.{field}", float(value))


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def _run_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker: :func:`_run_points` after payload-transport
    reconstruction (kernels are pure functions of the payload, so this
    is bit-identical to the in-process path).

    Returns ``{"records", "worker", "t0", "t1"}`` plus, when the parent
    is tracing (``task["telemetry"]``), the worker's captured
    ``"events"``/``"epoch"`` — or, on failure, a structured ``"error"``
    record carrying the worker-side traceback.  A fault plan riding the
    payload (``task["faults"]``) fires at this boundary, *before* any
    kernel runs."""
    import multiprocessing

    pts = [ScenarioPoint.from_payload(p) for p in task["points"]]
    out: Dict[str, Any] = {
        "worker": multiprocessing.current_process().name,
    }
    subtrace = telemetry.RunTrace() if task.get("telemetry") else None
    plan = FaultPlan.parse(task.get("faults"))
    out["t0"] = time.monotonic()
    try:
        if plan is not None:
            plan.maybe_fire(task.get("fault_keys") or (),
                            task.get("attempt", 1), in_worker=True)
        with telemetry.tracing(subtrace), _phase_capture(subtrace):
            out["records"] = _run_points(pts)
    except Exception as exc:  # shipped home; parent decides retry/fail
        out["error"] = {
            "exc_type": type(exc).__name__,
            "message": str(exc),
            "kernel": pts[0].kernel,
            "points": len(pts),
            "traceback": tb.format_exc(),
        }
    out["t1"] = time.monotonic()
    if subtrace is not None:
        out["events"] = subtrace.events
        out["epoch"] = subtrace.epoch
    return out


def _pool_worker_main(conn: Any) -> None:
    """Supervised-pool worker loop: run tasks off a dedicated duplex
    pipe until the ``None`` sentinel, EOF, or the parent terminates us.

    Each worker owns its own pipe — deliberately *not* a shared result
    queue: a queue's feeder thread can die (``os._exit``, SIGKILL)
    while holding the shared write lock, wedging every sibling's
    ``put`` forever.  With per-worker pipes a dying worker can only
    corrupt its own channel, which the supervisor detects and replaces.
    SIGINT is ignored so a Ctrl-C in the parent drives one orderly
    shutdown instead of racing tracebacks in every process."""
    try:
        import signal
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ImportError, ValueError, OSError):
        pass
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            conn.send((task["id"], _run_task(task)))
        except OSError as exc:
            # Only a dead peer (EPIPE/ECONNRESET class) means "the
            # parent went away; nothing left to report to".  Any other
            # OSError (EBADF, ENOMEM, ...) is a real local failure and
            # must crash loudly instead of masquerading as an orderly
            # exit the supervisor would misread as a worker crash.
            if _is_peer_gone(exc):
                return
            raise


# --------------------------------------------------------------------- #
# supervisor
# --------------------------------------------------------------------- #
@dataclass
class _Task:
    """One schedulable unit: a point or a batch, plus retry state."""

    tid: int
    indices: List[int]
    kind: Optional[str]
    attempts: int = 0        #: attempts already made
    ready_at: float = 0.0    #: monotonic time this becomes runnable
    queued_at: float = 0.0   #: for queue-vs-compute attribution


@dataclass
class _Worker:
    proc: Any
    conn: Any  #: parent end of the worker's dedicated duplex pipe
    task: Optional[_Task] = None
    deadline: Optional[float] = None


@dataclass
class _Counters:
    retries: int = 0
    timeouts: int = 0
    respawns: int = 0
    failed: int = 0


class _Supervisor:
    """Drives planned tasks to completion with retries, timeouts,
    worker-crash recovery and immediate per-point caching.

    One instance per :func:`execute` call; :meth:`run_inline` executes
    tasks in-process (``jobs=1`` or a single-task plan) and
    :meth:`run_pool` across worker processes.  Both share the same
    completion/failure bookkeeping, so records, cache contents and
    error semantics are identical either way.
    """

    def __init__(self, points: Sequence[ScenarioPoint],
                 results: List[Optional[PointResult]],
                 cache: Optional[ResultCache],
                 trace: Optional[telemetry.RunTrace],
                 sweep_span: Optional[telemetry.Span],
                 policy: RetryPolicy, keep_going: bool,
                 faults: Optional[FaultPlan],
                 cancel: Optional[Callable[[], bool]] = None):
        self.points = points
        self.results = results
        self.cache = cache
        self.trace = trace
        self.sweep_span = sweep_span
        self.policy = policy
        self.keep_going = keep_going
        self.faults = faults
        self.cancel = cancel
        self.counters = _Counters()
        self._next_tid = 0
        self._worker_seq = 0

    def _check_cancel(self) -> None:
        """Raise :class:`SweepCancelled` when the job-level cancel hook
        fires — checked between tasks, never mid-kernel, so completed
        points are always cached before the sweep unwinds."""
        if self.cancel is not None and self.cancel():
            raise SweepCancelled(
                "sweep cancelled by its cancel hook; completed points "
                "are cached — re-running resumes from them")

    # ------------------------------------------------------------------ #
    def make_tasks(self, plan: Sequence[Tuple[List[int], Optional[str]]]
                   ) -> List[_Task]:
        now = time.monotonic()
        tasks = []
        for indices, kind in plan:
            tasks.append(_Task(self._next_tid, list(indices), kind,
                               ready_at=now, queued_at=now))
            self._next_tid += 1
        return tasks

    def _fault_payload(self, task: _Task) -> Dict[str, Any]:
        if self.faults is None:
            return {}
        return {"faults": self.faults.spec(),
                "fault_keys": [fault_key(self.points[i].payload())
                               for i in task.indices]}

    def _kernel(self, task: _Task) -> str:
        return self.points[task.indices[0]].kernel

    # ------------------------------------------------------------------ #
    # completion / failure bookkeeping (shared by both paths)
    # ------------------------------------------------------------------ #
    def complete(self, task: _Task, records: List[Dict[str, Any]],
                 venue: str) -> None:
        """Fan a finished task's records out: validate, cache each
        point immediately, fill result slots, emit point telemetry."""
        if len(records) != len(task.indices):
            # A broken BatchKernel.run must fail attributably,
            # not silently drop points from the report.
            raise RuntimeError(
                f"batch evaluator for kernel {self._kernel(task)!r} "
                f"returned {len(records)} record(s) for "
                f"{len(task.indices)} points")
        path = task.kind if (task.kind is not None
                             and len(task.indices) > 1) else "scalar"
        for i, record in zip(task.indices, records):
            point = self.points[i]
            if self.cache is not None:
                self.cache.put(point.cache_payload(), record)
            self.results[i] = PointResult(point, record, cached=False)
            if self.trace is not None:
                tags: Dict[str, Any] = dict(
                    index=i, kernel=point.kernel, path=path,
                    venue=venue, cached=False,
                    batchable=task.kind is not None)
                if self.cache is not None:
                    tags["key"] = self.cache.key_for(point.cache_payload())
                self.trace.point(**tags)
                _fold_metrics(self.trace, point.kernel, record)

    def fail(self, task: _Task, err: Dict[str, Any], venue: str,
             reason: str) -> List[_Task]:
        """Handle one failed attempt: batch → scalar fallback, retry
        with backoff while budget remains, else terminal (error records
        under ``keep_going``, :class:`PointExecutionError` otherwise).
        Returns the replacement tasks to enqueue."""
        now = time.monotonic()
        if len(task.indices) > 1:
            # One poisoned point must not sink its batch: always fall
            # back to per-point scalar execution (children inherit the
            # attempt count, and are guaranteed at least one run).
            self.counters.retries += 1
            if self.trace is not None:
                self.trace.counter("task.retry", kernel=self._kernel(task),
                                   reason=reason, fallback="scalar")
            children = []
            for i in task.indices:
                delay = self.policy.backoff(
                    task.attempts, f"{self._kernel(task)}:{i}")
                children.append(_Task(
                    self._next_tid, [i], None,
                    attempts=task.attempts,
                    ready_at=now + delay, queued_at=now + delay))
                self._next_tid += 1
            return children
        if task.attempts <= self.policy.retries:
            self.counters.retries += 1
            if self.trace is not None:
                self.trace.counter("task.retry", kernel=self._kernel(task),
                                   reason=reason)
            delay = self.policy.backoff(
                task.attempts, f"{self._kernel(task)}:{task.indices[0]}")
            task.ready_at = task.queued_at = now + delay
            return [task]
        return self._terminal(task, err, venue)

    def _terminal(self, task: _Task, err: Dict[str, Any],
                  venue: str) -> List[_Task]:
        if not self.keep_going:
            raise PointExecutionError(
                f"worker {err.get('worker', venue)} failed on kernel "
                f"{self._kernel(task)!r} ({len(task.indices)} point "
                f"task, attempt {task.attempts}): "
                f"{err['exc_type']}: {err['message']}",
                remote_traceback=err.get("traceback"))
        for i in task.indices:
            point = self.points[i]
            record = {
                "failed": True,
                "error": f"{err['exc_type']}: {err['message']}",
                "exc_type": err["exc_type"],
                "remote_traceback": err.get("traceback") or "",
                "attempts": task.attempts,
                "point": {"kernel": point.kernel,
                          "machine": point.machine.name,
                          "params": dict(point.params)},
            }
            self.results[i] = PointResult(point, record, cached=False,
                                          failed=True)
            self.counters.failed += 1
            if self.trace is not None:
                self.trace.counter("point.failed", kernel=point.kernel,
                                   exc_type=err["exc_type"])
                self.trace.point(index=i, kernel=point.kernel,
                                 path="failed", venue=venue, cached=False,
                                 batchable=task.kind is not None,
                                 attempts=task.attempts)
        return []

    # ------------------------------------------------------------------ #
    # in-process execution
    # ------------------------------------------------------------------ #
    def run_inline(self, tasks: List[_Task]) -> None:
        """Execute tasks in this process.  Retries and ``keep_going``
        apply; per-task timeouts cannot (nothing can preempt us), and
        only ``raise`` faults fire (see :mod:`repro.lab.faults`)."""
        pending = deque(tasks)
        while pending:
            self._check_cancel()
            task = pending.popleft()
            delay = task.ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            task.attempts += 1
            pts = [self.points[i] for i in task.indices]
            try:
                if self.faults is not None:
                    self.faults.maybe_fire(
                        [fault_key(pt.payload()) for pt in pts],
                        task.attempts, in_worker=False)
                if self.trace is not None:
                    with self.trace.span(
                            "task", kernel=pts[0].kernel,
                            kind=task.kind or "scalar",
                            points=len(task.indices),
                            venue="in_process", queue_s=0.0,
                            attempt=task.attempts) as tspan:
                        tc0 = time.perf_counter()
                        recs = _run_points(pts)
                        tspan.tag(compute_s=round(
                            time.perf_counter() - tc0, 6))
                else:
                    recs = _run_points(pts)
            except Exception as exc:
                err = {"exc_type": type(exc).__name__,
                       "message": str(exc), "worker": "in_process",
                       "traceback": tb.format_exc()}
                pending.extend(self.fail(task, err, "in_process", "error"))
                continue
            self.complete(task, recs, "in_process")

    # ------------------------------------------------------------------ #
    # supervised pool execution
    # ------------------------------------------------------------------ #
    def _spawn(self) -> _Worker:
        # multiprocessing loads with the first pool: an in-process
        # (``--jobs 1``) run never imports it.
        import multiprocessing

        self._worker_seq += 1
        parent_conn, child_conn = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=_pool_worker_main, args=(child_conn,),
            name=f"LabWorker-{self._worker_seq}", daemon=True)
        proc.start()
        child_conn.close()  # the worker holds the only live child end
        return _Worker(proc=proc, conn=parent_conn)

    def _kill(self, worker: _Worker) -> None:
        proc = worker.proc
        proc.terminate()
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            kill = getattr(proc, "kill", proc.terminate)
            kill()
            proc.join(_KILL_GRACE_S)
        try:
            worker.conn.close()
        except (OSError, ValueError):
            pass

    def _respawn(self, workers: List[_Worker], slot: int,
                 *, reason: str, count_toward_cap: bool) -> None:
        self.counters.respawns += 1
        if self.trace is not None:
            self.trace.counter("worker.respawn", reason=reason)
        if count_toward_cap:
            self._crash_respawns = getattr(self, "_crash_respawns", 0) + 1
            if self._crash_respawns > self.policy.max_respawns:
                raise PointExecutionError(
                    f"worker pool unstable: {self._crash_respawns} "
                    f"unexpected worker deaths (respawn cap "
                    f"{self.policy.max_respawns}); aborting sweep — "
                    f"completed points are cached")
        workers[slot] = self._spawn()

    def _dispatch(self, worker: _Worker, task: _Task,
                  tracing: bool) -> bool:
        """Send *task* to *worker*; False if the pipe is already dead
        (the crash sweep will respawn and the task stays pending)."""
        payload = {
            "id": task.tid,
            "points": [self.points[i].payload() for i in task.indices],
            "telemetry": tracing,
            "attempt": task.attempts + 1,
            **self._fault_payload(task),
        }
        try:
            worker.conn.send(payload)
        except OSError as exc:
            # A dead peer is routine (the crash sweep respawns); any
            # other OSError is a parent-side bug and must propagate
            # instead of silently burning a crash-respawn.
            if not _is_peer_gone(exc):
                raise
            return False
        task.attempts += 1
        worker.task = task
        worker.deadline = (time.monotonic() + self.policy.timeout
                           if self.policy.timeout else None)
        return True

    def _pool_complete(self, task: _Task, out: Dict[str, Any]) -> None:
        venue = _worker_venue(out.get("worker", "?"))
        if self.trace is not None:
            compute_s = round(out["t1"] - out["t0"], 6)
            span_id = self.trace.emit_span(
                "task", start_monotonic=out["t0"],
                duration=out["t1"] - out["t0"],
                parent=self.sweep_span.id if self.sweep_span else None,
                kernel=self._kernel(task),
                kind=task.kind or "scalar", points=len(task.indices),
                venue=venue, attempt=task.attempts,
                queue_s=round(max(0.0, out["t0"] - task.queued_at), 6),
                compute_s=compute_s)
            if out.get("events"):
                self.trace.merge_subtrace(out["events"], out["epoch"],
                                          parent_id=span_id)
        self.complete(task, out["records"], venue)

    def run_pool(self, tasks: List[_Task], jobs: int) -> None:
        """The supervised completion loop: dispatch to idle workers,
        harvest results as they land, enforce deadlines, detect and
        respawn dead workers.  Any exception (terminal failure,
        KeyboardInterrupt, respawn-cap breach) terminates and joins the
        whole pool before propagating — completed points are already
        cached at that moment."""
        from multiprocessing import connection as mp_connection

        tracing = self.trace is not None
        workers = [self._spawn() for _ in range(min(jobs, len(tasks)))]
        pending: List[_Task] = list(tasks)
        known: Dict[int, _Task] = {t.tid: t for t in tasks}
        done: Set[int] = set()

        def settle(task: _Task, replacements: List[_Task]) -> None:
            """A failed attempt either spawned replacement tasks or
            went terminal (error records / raise happened in fail)."""
            if replacements:
                pending.extend(replacements)
                known.update({t.tid: t for t in replacements})
            else:
                done.add(task.tid)

        def harvest(worker: _Worker, tid: int, out: Dict[str, Any]
                    ) -> None:
            task = known.get(tid)
            if task is None or tid in done:
                return  # stale duplicate; first result won
            if task in pending:
                pending.remove(task)
            if "error" in out:
                err = dict(out["error"])
                err["worker"] = out.get("worker", "?")
                settle(task, self.fail(
                    task, err, _worker_venue(out.get("worker", "?")),
                    "error"))
            else:
                self._pool_complete(task, out)
                done.add(tid)

        try:
            while pending or any(w.task is not None for w in workers):
                self._check_cancel()
                now = time.monotonic()
                # 1. fill idle workers with runnable tasks
                for worker in workers:
                    if worker.task is not None:
                        continue
                    ready = [t for t in pending if t.ready_at <= now]
                    if not ready:
                        break
                    task = min(ready, key=lambda t: (t.ready_at, t.tid))
                    pending.remove(task)
                    if not self._dispatch(worker, task, tracing):
                        # dead pipe — the crash sweep below respawns;
                        # the task just stays runnable.
                        pending.append(task)
                # 2. harvest results from every readable pipe
                busy = [w for w in workers if w.task is not None]
                if busy:
                    ready_conns = mp_connection.wait(
                        [w.conn for w in busy],
                        timeout=_POLL_S)
                    for conn in ready_conns:
                        worker = next(w for w in busy if w.conn is conn)
                        try:
                            tid, out = conn.recv()
                        except (EOFError, OSError):
                            continue  # died mid-send; crash sweep below
                        worker.task = None
                        worker.deadline = None
                        harvest(worker, tid, out)
                else:
                    time.sleep(_POLL_S)  # backoff gap
                # 3. enforce per-task deadlines
                now = time.monotonic()
                for slot, worker in enumerate(workers):
                    if worker.task is None or worker.deadline is None \
                            or now <= worker.deadline:
                        continue
                    task = worker.task
                    worker.task = None
                    worker.deadline = None
                    name = worker.proc.name
                    self.counters.timeouts += 1
                    if self.trace is not None:
                        self.trace.counter("task.timeout",
                                           kernel=self._kernel(task))
                    self._kill(worker)
                    self._respawn(workers, slot, reason="timeout",
                                  count_toward_cap=False)
                    err = {"exc_type": "TaskTimeout",
                           "message": f"task exceeded the "
                                      f"{self.policy.timeout}s wall-clock "
                                      f"timeout (attempt {task.attempts})",
                           "worker": name, "traceback": None}
                    settle(task, self.fail(task, err,
                                           _worker_venue(name), "timeout"))
                # 4. detect workers that died under us
                for slot, worker in enumerate(workers):
                    if worker.proc.is_alive():
                        continue
                    task = worker.task
                    worker.task = None
                    worker.deadline = None
                    exitcode = worker.proc.exitcode
                    name = worker.proc.name
                    # A completed result may still sit in the pipe
                    # (death after send): drain it before declaring
                    # the task lost.
                    if task is not None and task.tid not in done:
                        try:
                            if worker.conn.poll(0):
                                tid, out = worker.conn.recv()
                                harvest(worker, tid, out)
                                task = None
                        except (EOFError, OSError):
                            pass
                    try:
                        worker.conn.close()
                    except (OSError, ValueError):
                        pass
                    self._respawn(workers, slot, reason="crash",
                                  count_toward_cap=True)
                    if task is None or task.tid in done:
                        continue
                    err = {"exc_type": "WorkerCrashed",
                           "message": f"worker died with exit code "
                                      f"{exitcode} mid-task (attempt "
                                      f"{task.attempts})",
                           "worker": name, "traceback": None}
                    settle(task, self.fail(task, err, _worker_venue(name),
                                           "worker-crash"))
        finally:
            for worker in workers:
                if worker.proc.is_alive():
                    worker.proc.terminate()
            for worker in workers:
                worker.proc.join(_KILL_GRACE_S)
                if worker.proc.is_alive():
                    kill = getattr(worker.proc, "kill",
                                   worker.proc.terminate)
                    kill()
                    worker.proc.join(1.0)
                try:
                    worker.conn.close()
                except (OSError, ValueError):
                    pass


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def execute(
    points: Sequence[ScenarioPoint],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    require_cached: bool = False,
    multi_capacity: bool = True,
    batch: bool = True,
    trace: Optional[telemetry.RunTrace] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
    keep_going: bool = False,
    faults: Optional[Union[FaultPlan, str]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> SweepReport:
    """Run every point, serving repeats from *cache* when provided.

    Parameters
    ----------
    points:
        Concrete scenario points (e.g. from :meth:`Scenario.points`).
    jobs:
        Worker processes for the uncached remainder; ``1`` runs in-process
        (bit-identical to the workers — kernels are deterministic pure
        functions of the payload).
    cache:
        A :class:`ResultCache`; hits skip simulation entirely.  Records
        key on the machine-projected :meth:`ScenarioPoint.cache_payload`
        and are written the moment each point completes, so interrupted
        sweeps resume for free.  Error records are never cached.
    require_cached:
        Report-only mode: raise :class:`MissingResultsError` instead of
        computing anything.
    multi_capacity:
        Collapse the trace-kernel points of one trace into one task
        that builds the trace once and replays each distinct simulation
        once (see the module docstring).  Purely an execution strategy:
        records and cache contents are identical either way.  ``False``
        runs every point on its own, each building its own trace: the
        per-point reference path.
    batch:
        Collapse same-machine analytic grids (the ``cost-*`` families)
        into vectorized batch evaluations — the grid analogue of
        ``multi_capacity``, with the same bit-identity guarantee.
    trace:
        A :class:`~repro.lab.telemetry.RunTrace` to record attribution
        events into; defaults to the process-wide
        :func:`~repro.lab.telemetry.active_trace` (usually ``None``).
        Tracing never changes records or cache contents.
    retries:
        Per-task retry budget beyond the first attempt (capped
        exponential backoff with deterministic jitter; a failed batch
        falls back to per-point scalar tasks first).
    timeout:
        Per-task wall-clock limit in seconds; an overdue worker is
        killed and respawned and the task retried.  Pool execution
        only — in-process tasks cannot be preempted.
    keep_going:
        Degrade gracefully: points that exhaust their retries produce
        structured error records (``failed``/``error``/``exc_type``/
        ``remote_traceback``/``attempts`` + the point identity) in the
        report instead of aborting the sweep.
    faults:
        A :class:`~repro.lab.faults.FaultPlan` (or its spec string)
        injecting deterministic raise/hang/die faults at the worker
        boundary — the chaos-test harness.
    retry_policy:
        Full :class:`RetryPolicy` override (adds the worker respawn
        cap); when given, *retries*/*timeout* are read from it and the
        bare arguments are ignored.
    cancel:
        Zero-argument callable polled between tasks; returning ``True``
        raises :class:`SweepCancelled`.  Points completed before the
        cancellation are already in *cache*, so a cancelled sweep can
        be resumed later at the cost of one in-flight task.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if trace is None:
        trace = telemetry.active_trace()
    if retry_policy is None:
        retry_policy = RetryPolicy(retries=retries, timeout=timeout)
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    with telemetry.tracing(trace), _phase_capture(trace):
        return _execute(points, jobs=jobs, cache=cache,
                        require_cached=require_cached,
                        multi_capacity=multi_capacity, batch=batch,
                        trace=trace, policy=retry_policy,
                        keep_going=keep_going, faults=faults,
                        cancel=cancel)


def _execute(
    points: Sequence[ScenarioPoint],
    *,
    jobs: int,
    cache: Optional[ResultCache],
    require_cached: bool,
    multi_capacity: bool,
    batch: bool,
    trace: Optional[telemetry.RunTrace],
    policy: RetryPolicy,
    keep_going: bool,
    faults: Optional[FaultPlan],
    cancel: Optional[Callable[[], bool]] = None,
) -> SweepReport:
    t0 = time.perf_counter()
    points = list(points)
    results: List[Optional[PointResult]] = [None] * len(points)
    pending: List[int] = []
    sweep_cm = (trace.span("sweep", points=len(points), jobs=jobs)
                if trace is not None else nullcontext())
    supervisor: Optional[_Supervisor] = None
    batches = batched_points = 0
    with sweep_cm as sweep_span:
        for i, pt in enumerate(points):
            payload = pt.cache_payload() if cache is not None else None
            record = cache.get(payload) if cache is not None else None
            if record is not None:
                results[i] = PointResult(pt, record, cached=True)
                if trace is not None:
                    trace.point(index=i, kernel=pt.kernel, path="cache",
                                venue="in_process", cached=True,
                                key=cache.key_for(payload))
            else:
                pending.append(i)

        if pending and require_cached:
            raise MissingResultsError(len(pending), len(points))

        if pending:
            plan = _plan(points, pending, multi_capacity, batch)
            for task, _kind in plan:
                if len(task) > 1:
                    batches += 1
                    batched_points += len(task)
            supervisor = _Supervisor(points, results, cache, trace,
                                     sweep_span if trace is not None
                                     else None,
                                     policy, keep_going, faults,
                                     cancel=cancel)
            tasks = supervisor.make_tasks(plan)
            if jobs > 1 and len(plan) > 1:
                supervisor.run_pool(tasks, jobs)
            else:
                supervisor.run_inline(tasks)

        if trace is not None:
            sweep_span.tag(hits=len(points) - len(pending),
                           misses=len(pending), batches=batches,
                           batched_points=batched_points)
            if supervisor is not None:
                c = supervisor.counters
                if c.retries or c.timeouts or c.respawns or c.failed:
                    sweep_span.tag(retries=c.retries, timeouts=c.timeouts,
                                   respawns=c.respawns, failed=c.failed)

    counters = supervisor.counters if supervisor is not None else _Counters()
    return SweepReport(
        results=[r for r in results if r is not None],
        hits=len(points) - len(pending),
        misses=len(pending),
        elapsed=time.perf_counter() - t0,
        jobs=jobs,
        batched_points=batched_points,
        batches=batches,
        failed=counters.failed,
        retries=counters.retries,
        timeouts=counters.timeouts,
        respawns=counters.respawns,
    )
