"""Executor semantics: parallel == serial, cache-aware scheduling, and the
results layer over the produced records."""

import json

import pytest

from repro.experiments.sec6_lru import sec6_scenario
from repro.lab.cache import ResultCache
from repro.lab.executor import MissingResultsError, execute
from repro.lab.results import ResultSet


@pytest.fixture(scope="module")
def tiny_scenario():
    # 2 schemes x 2 capacities x 2 policies = 8 cheap points.
    return sec6_scenario(n=16, middle=16, b3=8, b2=4,
                         policies=("lru", "fifo"),
                         schemes=("wa2", "co"))


class TestExecute:
    def test_parallel_equals_serial(self, tiny_scenario):
        pts = tiny_scenario.points()
        serial = execute(pts, jobs=1)
        parallel = execute(pts, jobs=2)
        assert serial.records() == parallel.records()
        assert serial.total == parallel.total == len(pts)

    def test_results_keep_point_order(self, tiny_scenario):
        pts = tiny_scenario.points()
        report = execute(pts, jobs=2)
        assert [r.point.params for r in report.results] == \
            [p.params for p in pts]

    def test_records_are_json_serializable(self, tiny_scenario):
        report = execute(tiny_scenario.points(), jobs=1)
        json.dumps(report.records())

    def test_second_run_is_fully_cached(self, tiny_scenario, tmp_path):
        pts = tiny_scenario.points()
        cold = execute(pts, jobs=1, cache=ResultCache(tmp_path))
        assert cold.hits == 0 and cold.misses == len(pts)
        warm = execute(pts, jobs=2, cache=ResultCache(tmp_path))
        assert warm.hits == len(pts) and warm.misses == 0
        assert warm.hit_rate == 1.0
        assert warm.records() == cold.records()

    def test_partial_cache_computes_only_the_gap(self, tiny_scenario,
                                                 tmp_path):
        pts = tiny_scenario.points()
        cache = ResultCache(tmp_path)
        execute(pts[:3], cache=cache)
        report = execute(pts, cache=ResultCache(tmp_path))
        assert report.hits == 3 and report.misses == len(pts) - 3

    def test_require_cached_raises_when_cold(self, tiny_scenario, tmp_path):
        with pytest.raises(MissingResultsError):
            execute(tiny_scenario.points(), cache=ResultCache(tmp_path),
                    require_cached=True)

    def test_cache_line_mentions_hit_count(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        execute(tiny_scenario.points(), cache=cache)
        report = execute(tiny_scenario.points(), cache=cache)
        line = report.cache_line(cache)
        assert f"{report.total}/{report.total}" in line
        assert "100%" in line


class TestResultSet:
    @pytest.fixture(scope="class")
    def rs(self, tiny_scenario):
        return ResultSet.from_report(execute(tiny_scenario.points()))

    def test_flat_rows_carry_params_and_counters(self, rs):
        row = rs.rows[0]
        for col in ("kernel", "policy", "scheme", "cache_blocks",
                    "writebacks", "fills", "cached"):
            assert col in row

    def test_csv_export(self, rs, tmp_path):
        text = rs.to_csv(tmp_path / "out.csv")
        lines = text.strip().splitlines()
        assert len(lines) == len(rs) + 1
        assert "writebacks" in lines[0]
        assert (tmp_path / "out.csv").exists()

    def test_json_export(self, rs):
        assert len(json.loads(rs.to_json())) == len(rs)

    def test_group_and_aggregate(self, rs):
        groups = rs.group_by("scheme")
        assert set(groups) == {("wa2",), ("co",)}
        agg = rs.aggregate(["scheme"], "writebacks", how="mean")
        assert len(agg) == 2
        assert all("mean_writebacks" in row for row in agg)

    def test_aggregate_rejects_unknown_how(self, rs):
        with pytest.raises(ValueError, match="unknown aggregator"):
            rs.aggregate(["scheme"], "writebacks", how="median")

    def test_compare_ratio(self, rs):
        cmp = rs.compare(rs, on=["scheme", "cache_blocks", "policy"],
                         value="writebacks")
        assert len(cmp) == len(rs)
        assert all(row["ratio"] == 1.0 for row in cmp)

    def test_format_renders_table(self, rs):
        out = rs.format(title="tiny")
        assert "tiny" in out and "writebacks" in out


class TestMonotonicDeadlines:
    """The supervised loop must be immune to wall-clock steps: every
    deadline and backoff computation derives from ``time.monotonic``."""

    def test_executor_never_reads_wall_clock(self):
        import inspect

        import repro.lab.executor as executor_module
        src = inspect.getsource(executor_module)
        assert "time.time(" not in src, (
            "executor deadlines/backoff must use time.monotonic(); a "
            "wall-clock read would let an NTP step fire spurious "
            "task.timeout kills")

    def test_clock_step_cannot_fire_spurious_timeout(self, tiny_scenario,
                                                     monkeypatch):
        # Model an NTP step: every wall-clock observation jumps an hour
        # forward.  A deadline computed from time.time() would expire
        # instantly; the monotonic implementation must finish the sweep
        # with zero timeout kills.
        import time as time_module
        state = {"now": time_module.time()}

        def jumping_wall_clock():
            state["now"] += 3600.0
            return state["now"]

        monkeypatch.setattr(time_module, "time", jumping_wall_clock)
        pts = tiny_scenario.points()[:4]
        report = execute(pts, jobs=2, timeout=60.0, retries=1)
        assert report.timeouts == 0
        assert report.respawns == 0
        assert report.failed == 0
        assert report.total == len(pts)


class TestPeerGoneNarrowing:
    """Only EPIPE/ECONNRESET-class errors mean "the worker died";
    anything else is a parent-side bug and must propagate instead of
    silently burning a crash-respawn."""

    def test_classification(self):
        import errno

        from repro.lab.executor import _is_peer_gone
        assert _is_peer_gone(BrokenPipeError("gone"))
        assert _is_peer_gone(ConnectionResetError("reset"))
        assert _is_peer_gone(OSError(errno.EPIPE, "pipe"))
        assert _is_peer_gone(OSError(errno.ECONNRESET, "reset"))
        assert _is_peer_gone(OSError(errno.ESHUTDOWN, "shutdown"))
        assert not _is_peer_gone(OSError(errno.EBADF, "bad fd"))
        assert not _is_peer_gone(OSError(errno.ENOSPC, "disk full"))
        assert not _is_peer_gone(OSError(errno.EMSGSIZE, "too big"))

    def _dispatch_to(self, exc, tiny_scenario):
        """Drive _Supervisor._dispatch at a worker whose pipe raises
        *exc* on send; returns what _dispatch did."""
        from repro.lab.executor import (RetryPolicy, _Supervisor, _Task,
                                        _Worker)
        pts = tiny_scenario.points()[:1]
        sup = _Supervisor(pts, [None], None, None, None,
                          RetryPolicy(), False, None)

        class _DeadPipe:
            def send(self, payload):
                raise exc

        worker = _Worker(proc=None, conn=_DeadPipe())
        task = _Task(tid=0, indices=[0], kind=None)
        return sup._dispatch(worker, task, tracing=False)

    def test_dispatch_peer_gone_is_routine(self, tiny_scenario):
        assert self._dispatch_to(BrokenPipeError("gone"),
                                 tiny_scenario) is False

    def test_dispatch_other_oserror_propagates(self, tiny_scenario):
        import errno
        with pytest.raises(OSError) as excinfo:
            self._dispatch_to(OSError(errno.EBADF, "bad fd"),
                              tiny_scenario)
        assert excinfo.value.errno == errno.EBADF


class TestCancelHook:
    """The job-level cancellation hook the serve daemon's shutdown
    rides: polled between tasks, never mid-kernel, so completed points
    are always cached."""

    def test_cancel_immediately_runs_nothing(self, tiny_scenario,
                                             tmp_path):
        from repro.lab.executor import SweepCancelled
        cache = ResultCache(tmp_path)
        with pytest.raises(SweepCancelled):
            execute(tiny_scenario.points(), cache=cache,
                    multi_capacity=False, cancel=lambda: True)
        assert len(cache) == 0

    def test_cancel_between_tasks_keeps_completed_points(
            self, tiny_scenario, tmp_path):
        from repro.lab.executor import SweepCancelled
        pts = tiny_scenario.points()
        cache = ResultCache(tmp_path)
        polls = {"n": 0}

        def cancel_after_two_tasks():
            polls["n"] += 1
            return polls["n"] > 2

        with pytest.raises(SweepCancelled):
            execute(pts, cache=cache, multi_capacity=False,
                    cancel=cancel_after_two_tasks)
        # Scalar tasks, checked before each: exactly two completed and
        # were cached before the hook fired.
        assert len(cache) == 2
        # The cancelled sweep resumes for free from those records.
        resumed = execute(pts, cache=ResultCache(tmp_path))
        assert resumed.hits == 2
        assert resumed.misses == len(pts) - 2
        assert resumed.failed == 0

    def test_pool_cancel_stops_sweep(self, tiny_scenario, tmp_path):
        from repro.lab.executor import SweepCancelled
        cache = ResultCache(tmp_path)
        with pytest.raises(SweepCancelled):
            execute(tiny_scenario.points(), jobs=2, cache=cache,
                    multi_capacity=False, cancel=lambda: True)
        assert len(cache) == 0

    def test_no_cancel_hook_is_free(self, tiny_scenario):
        report = execute(tiny_scenario.points(), cancel=None)
        assert report.total == len(tiny_scenario.points())
