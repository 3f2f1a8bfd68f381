"""Chaos suite: worker-failure recovery under deterministic fault
injection.

Every test drives the real supervised pool (or the in-process path)
through a seeded :class:`FaultPlan` and asserts the ISSUE-7 contract:
structured error records naming the scenario point, completed siblings
landing in the cache regardless of failures, retry/timeout/respawn
accounting, and — when the plan's ``times`` is within the retry
budget — records bit-identical to a fault-free run.
"""

import pytest

from repro.experiments.sec6_lru import sec6_scenario
from repro.lab.cache import ResultCache
from repro.lab.executor import (
    PointExecutionError,
    RetryPolicy,
    execute,
)
from repro.lab.faults import FaultPlan, fault_key
from repro.lab.telemetry import RunTrace, render_attribution, summarize

ERROR_RECORD_KEYS = {"failed", "error", "exc_type", "remote_traceback",
                     "attempts", "point"}


@pytest.fixture(scope="module")
def points():
    # 2 schemes x 2 capacities x 2 policies = 8 cheap points.
    return sec6_scenario(n=16, middle=16, b3=8, b2=4,
                         policies=("lru", "fifo"),
                         schemes=("wa2", "co")).points()


@pytest.fixture(scope="module")
def baseline(points):
    """Fault-free records — the bit-identity reference."""
    return [r.record for r in execute(points, jobs=1).results]


def plan_with_victims(points, kinds, rate=0.4):
    """A seeded plan that deterministically hits at least one point of
    *points* and spares at least one (scalar-task view)."""
    keys = [fault_key(p.payload()) for p in points]
    for seed in range(200):
        plan = FaultPlan(seed=seed, rate=rate, kinds=kinds, times=99)
        decided = [plan.decide(k, 1) for k in keys]
        if any(decided) and not all(decided):
            victims = [i for i, d in enumerate(decided) if d]
            return plan, victims
    raise AssertionError("no seed produced a victim/survivor mix")


def check_error_record(res, exc_type):
    """The structured error record names its scenario point exactly."""
    rec = res.record
    assert ERROR_RECORD_KEYS <= set(rec)
    assert rec["failed"] is True
    assert rec["exc_type"] == exc_type
    assert rec["error"].startswith(f"{exc_type}:")
    assert rec["attempts"] >= 1
    assert rec["point"]["kernel"] == res.point.kernel
    assert rec["point"]["machine"] == res.point.machine.name
    assert rec["point"]["params"] == dict(res.point.params)


def check_siblings_cached(points, report, cache_dir, baseline):
    """Completed siblings are cached (bit-identical) even though other
    tasks failed — the regression the old pool.map discarded."""
    cache = ResultCache(cache_dir)
    survivors = [r for r in report.results if not r.failed]
    assert survivors, "fault plan left no survivors to check"
    by_pos = {id(p): i for i, p in enumerate(points)}
    for r in survivors:
        cached = cache.get(r.point.cache_payload())
        assert cached is not None, "completed sibling missing from cache"
        assert cached == baseline[by_pos[id(r.point)]]
    for r in report.failures():
        assert cache.get(r.point.cache_payload()) is None, \
            "error record leaked into the cache"


class TestWorkerFailureModes:
    """ISSUE-7 satellite: raise / os._exit / sleep-past-timeout."""

    def test_raising_worker(self, points, baseline, tmp_path):
        plan, victims = plan_with_victims(points, ("raise",))
        report = execute(points, jobs=2, cache=ResultCache(tmp_path),
                         keep_going=True, faults=plan,
                         multi_capacity=False)
        assert report.failed == len(victims)
        assert [i for i, r in enumerate(report.results)
                if r.failed] == victims
        for res in report.failures():
            check_error_record(res, "FaultInjected")
        check_siblings_cached(points, report, tmp_path, baseline)

    def test_dying_worker(self, points, baseline, tmp_path):
        plan, victims = plan_with_victims(points, ("die",))
        report = execute(points, jobs=2, cache=ResultCache(tmp_path),
                         keep_going=True, faults=plan,
                         multi_capacity=False,
                         retry_policy=RetryPolicy(max_respawns=100))
        assert report.failed == len(victims)
        assert report.respawns >= 1
        for res in report.failures():
            check_error_record(res, "WorkerCrashed")
        check_siblings_cached(points, report, tmp_path, baseline)

    def test_hung_worker_times_out(self, points, baseline, tmp_path):
        plan, victims = plan_with_victims(points, ("hang",), rate=0.3)
        plan = FaultPlan(seed=plan.seed, rate=plan.rate, kinds=("hang",),
                         times=99, hang_s=60.0)
        report = execute(points, jobs=2, cache=ResultCache(tmp_path),
                         keep_going=True, faults=plan, timeout=1.5,
                         multi_capacity=False)
        assert report.failed == len(victims)
        assert report.timeouts >= len(victims)
        for res in report.failures():
            check_error_record(res, "TaskTimeout")
        check_siblings_cached(points, report, tmp_path, baseline)

    def test_default_mode_aborts_with_remote_context(self, points,
                                                     tmp_path):
        # No keep_going: the first terminal failure aborts the sweep
        # with the worker-side traceback and kernel attached.  Run
        # in-process so task order is deterministic and points before
        # the victim are already cached when the abort fires.
        plan, victims = plan_with_victims(points, ("raise",))
        with pytest.raises(PointExecutionError) as exc:
            execute(points, jobs=1, cache=ResultCache(tmp_path),
                    faults=plan, multi_capacity=False)
        assert points[victims[0]].kernel in str(exc.value)
        assert "Traceback" in (exc.value.remote_traceback or "")
        cache = ResultCache(tmp_path)
        for i in range(victims[0]):
            assert cache.get(points[i].cache_payload()) is not None, \
                "pre-abort completions were discarded"


class TestRecovery:
    def test_retry_recovers_bit_identically(self, points, baseline,
                                            tmp_path):
        # times=1 <= retries: every injected failure must recover and
        # the records must match a fault-free run exactly.
        plan = FaultPlan(seed=11, rate=1.0, kinds=("raise",), times=1)
        report = execute(points, jobs=2, cache=ResultCache(tmp_path),
                         retries=1, faults=plan, multi_capacity=False)
        assert report.failed == 0
        assert report.retries >= 1
        assert [r.record for r in report.results] == baseline

    def test_crash_retry_recovers(self, points, baseline, tmp_path):
        plan = FaultPlan(seed=11, rate=0.5, kinds=("die",), times=1)
        report = execute(points, jobs=2, cache=ResultCache(tmp_path),
                         faults=plan, multi_capacity=False,
                         retry_policy=RetryPolicy(retries=1,
                                                  max_respawns=100))
        assert report.failed == 0
        assert [r.record for r in report.results] == baseline

    def test_poisoned_batch_falls_back_to_scalar(self, points, baseline,
                                                 tmp_path):
        # One faulting point inside a multi-capacity batch must not
        # sink its batch siblings: the batch splits into scalar tasks
        # (which inherit the attempt count, so a times=1 plan runs
        # them clean) and everything completes — even with retries=0.
        from repro.lab.executor import _plan
        tasks = _plan(points, list(range(len(points))),
                      multi_capacity=True, batch=True)
        in_batches = {i for idx, _kind in tasks if len(idx) > 1
                      for i in idx}
        assert in_batches, "fixture scenario no longer batches"
        keys = [fault_key(p.payload()) for p in points]
        plan = None
        for seed in range(500):
            cand = FaultPlan(seed=seed, rate=0.3, kinds=("raise",),
                             times=1)
            decided = {i for i, k in enumerate(keys)
                       if cand.decide(k, 1)}
            if decided and decided <= in_batches:
                plan = cand
                break
        assert plan is not None, "no seed hits only batched points"
        report = execute(points, jobs=2, cache=ResultCache(tmp_path),
                         retries=0, faults=plan, multi_capacity=True)
        assert report.failed == 0
        assert report.retries >= 1  # the batch->scalar fallback
        assert [r.record for r in report.results] == baseline

    def test_attempts_field_counts_all_tries(self, points):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("raise",), times=99)
        report = execute(points[:2], jobs=1, retries=2, keep_going=True,
                         faults=plan, multi_capacity=False)
        assert report.failed == 2
        for res in report.failures():
            assert res.record["attempts"] == 3  # retries + 1

    def test_in_process_keep_going(self, points, baseline):
        plan, victims = plan_with_victims(points, ("raise",))
        report = execute(points, jobs=1, keep_going=True, faults=plan,
                         multi_capacity=False)
        assert report.failed == len(victims)
        for res in report.failures():
            check_error_record(res, "FaultInjected")
        survivors = [r.record for r in report.results if not r.failed]
        expected = [rec for i, rec in enumerate(baseline)
                    if i not in victims]
        assert survivors == expected

    def test_respawn_cap_aborts_unstable_pool(self, points, tmp_path):
        plan = FaultPlan(seed=11, rate=1.0, kinds=("die",), times=99)
        with pytest.raises(PointExecutionError, match="respawn cap"):
            execute(points, jobs=2, keep_going=True, faults=plan,
                    multi_capacity=False,
                    retry_policy=RetryPolicy(max_respawns=2))


class TestFaultTelemetry:
    def test_counters_reach_the_trace(self, points, tmp_path):
        plan = FaultPlan(seed=11, rate=1.0, kinds=("raise",), times=1)
        trace = RunTrace()
        report = execute(points, jobs=2, cache=ResultCache(tmp_path),
                         retries=1, faults=plan, multi_capacity=False,
                         trace=trace)
        assert report.failed == 0
        s = summarize(trace)
        assert s["faults"]["retries"] >= 1
        assert s["faults"]["failed_points"] == 0
        assert "fault tolerance:" in render_attribution(trace)

    def test_failed_points_traced_with_failed_path(self, points):
        plan, victims = plan_with_victims(points, ("raise",))
        trace = RunTrace()
        execute(points, jobs=1, keep_going=True, faults=plan,
                multi_capacity=False, trace=trace)
        s = summarize(trace)
        assert s["paths"].get("failed") == len(victims)
        assert s["faults"]["failed_points"] == len(victims)

    def test_timeout_counters(self, points, tmp_path):
        plan, victims = plan_with_victims(points, ("hang",), rate=0.3)
        plan = FaultPlan(seed=plan.seed, rate=plan.rate, kinds=("hang",),
                         times=99, hang_s=60.0)
        trace = RunTrace()
        execute(points, jobs=2, keep_going=True, faults=plan,
                timeout=1.5, multi_capacity=False, trace=trace)
        s = summarize(trace)
        assert s["faults"]["timeouts"] >= len(victims)
        assert s["faults"]["respawns"] >= len(victims)

    def test_fault_free_run_has_silent_fault_section(self, points):
        trace = RunTrace()
        execute(points[:2], jobs=1, trace=trace, multi_capacity=False)
        s = summarize(trace)
        assert s["faults"] == {"retries": 0, "timeouts": 0,
                               "respawns": 0, "failed_points": 0,
                               "retry_reasons": {},
                               "respawn_reasons": {}}
        assert "fault tolerance:" not in render_attribution(trace)


class TestFaultFreeParity:
    def test_new_executor_is_bit_identical_without_faults(self, points,
                                                         baseline,
                                                         tmp_path):
        report = execute(points, jobs=3, cache=ResultCache(tmp_path),
                         retries=2, timeout=120.0)
        assert [r.record for r in report.results] == baseline
        assert (report.failed, report.retries, report.timeouts,
                report.respawns) == (0, 0, 0, 0)
