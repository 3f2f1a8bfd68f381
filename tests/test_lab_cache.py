"""The content-addressed result cache: hits, misses, and invalidation."""

import pytest

from repro.lab.cache import ResultCache, code_fingerprint, point_key
from repro.lab.registry import MachineSpec
from repro.lab.scenarios import ScenarioPoint


@pytest.fixture
def point():
    return ScenarioPoint("matmul-cache", MachineSpec(),
                         {"n": 8, "middle": 8, "scheme": "co"})


class TestKeying:
    def test_key_is_deterministic(self, point):
        assert point_key(point.payload(), "v1") == \
            point_key(point.payload(), "v1")

    def test_key_changes_with_params(self, point):
        other = ScenarioPoint(point.kernel, point.machine,
                              {**point.params, "middle": 16})
        assert point_key(point.payload(), "v1") != \
            point_key(other.payload(), "v1")

    def test_key_changes_with_machine(self, point):
        other = ScenarioPoint(point.kernel,
                              point.machine.override(policy="clock"),
                              point.params)
        assert point_key(point.payload(), "v1") != \
            point_key(other.payload(), "v1")

    def test_key_changes_with_code_version(self, point):
        assert point_key(point.payload(), "v1") != \
            point_key(point.payload(), "v2")

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestResultCache:
    def test_roundtrip(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        assert cache.get(point.payload()) is None
        assert cache.put(point.payload(), {"writebacks": 42})
        assert cache.get(point.payload()) == {"writebacks": 42}
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_miss_on_code_change(self, tmp_path, point):
        old = ResultCache(tmp_path, code_version="v1")
        old.put(point.payload(), {"writebacks": 42})
        new = ResultCache(tmp_path, code_version="v2")
        assert new.get(point.payload()) is None  # invalidated
        new.put(point.payload(), {"writebacks": 43})
        # Both versions coexist; the old one is still served to old code.
        assert ResultCache(tmp_path, code_version="v1").get(
            point.payload()) == {"writebacks": 42}
        assert ResultCache(tmp_path, code_version="v2").get(
            point.payload()) == {"writebacks": 43}

    def test_non_serializable_record_is_not_stored(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        assert not cache.put(point.payload(), {"bad": object()})
        assert len(cache) == 0

    def test_corrupt_file_is_a_miss(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        cache.put(point.payload(), {"x": 1})
        path = cache._path(cache.key_for(point.payload()))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(point.payload()) is None

    def test_clear_and_entries(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        cache.put(point.payload(), {"x": 1})
        docs = list(cache.entries())
        assert len(docs) == 1
        assert docs[0]["record"] == {"x": 1}
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_unwritable_root_degrades_to_noop(self, tmp_path, point):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file where the dir should go
        cache = ResultCache(blocker / "sub")
        assert cache.disabled
        assert cache.get(point.payload()) is None
        assert not cache.put(point.payload(), {"x": 1})
        assert len(cache) == 0

    def test_describe(self, tmp_path):
        assert "0 records" in ResultCache(tmp_path).describe()


class TestCorruptEntryHygiene:
    """ISSUE-7 satellite: corrupt entries are named once per run and
    quarantined (deleted + counted) by gc."""

    def _corrupt(self, cache, point):
        cache.put(point.payload(), {"x": 1})
        path = cache._path(cache.key_for(point.payload()))
        path.write_text("{not json", encoding="utf-8")
        return path

    def test_unreadable_miss_warns_once_per_run(self, tmp_path, point,
                                                capsys):
        cache = ResultCache(tmp_path)
        path = self._corrupt(cache, point)
        assert cache.get(point.payload()) is None
        assert cache.get(point.payload()) is None
        err = capsys.readouterr().err
        assert err.count(str(path)) == 1
        assert "cache gc" in err
        # a fresh run (new instance) warns again
        assert ResultCache(tmp_path).get(point.payload()) is None
        assert str(path) in capsys.readouterr().err

    def test_gc_quarantines_corrupt_entries(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        path = self._corrupt(cache, point)
        other = ScenarioPoint(point.kernel, point.machine,
                              {**point.params, "n": 16})
        cache.put(other.payload(), {"x": 2})
        removed = cache.gc()
        assert removed == 1
        assert cache.quarantined == 1
        assert not path.exists()
        assert cache.get(other.payload()) == {"x": 2}  # healthy kept

    def test_gc_quarantined_resets_between_calls(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        self._corrupt(cache, point)
        cache.gc()
        assert cache.quarantined == 1
        cache.gc()
        assert cache.quarantined == 0


class TestTmpCleanup:
    def test_cleanup_tmp_removes_stale_spill_files(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        cache.put(point.payload(), {"x": 1})
        shard = cache._path(cache.key_for(point.payload())).parent
        stale = shard / "interrupted-write.tmp"
        stale.write_text("partial", encoding="utf-8")
        assert cache.cleanup_tmp() == 1
        assert not stale.exists()
        assert cache.get(point.payload()) == {"x": 1}

    def test_gc_sweeps_tmp_files_too(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        cache.put(point.payload(), {"x": 1})
        shard = cache._path(cache.key_for(point.payload())).parent
        (shard / "stale.tmp").write_text("partial", encoding="utf-8")
        cache.gc()
        assert not (shard / "stale.tmp").exists()

    def test_cleanup_tmp_on_disabled_cache_is_noop(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = ResultCache(blocker / "sub")
        assert cache.cleanup_tmp() == 0

    def test_cleanup_tmp_is_recursive(self, tmp_path, point):
        # A cache root can nest deeper than one shard level (older
        # versions kept `.npy` traces under `traces/<shard>/`).  An
        # interrupted sweep must get every temporary back, not just the
        # record-shard level.
        cache = ResultCache(tmp_path)
        cache.put(point.payload(), {"x": 1})
        shard = cache._path(cache.key_for(point.payload())).parent
        record_tmp = shard / "interrupted.json.tmp"
        record_tmp.write_text("partial", encoding="utf-8")
        trace_shard = tmp_path / "traces" / "ab"
        trace_shard.mkdir(parents=True)
        trace_tmp = trace_shard / "deadbeef.lines.npy.tmp"
        trace_tmp.write_bytes(b"\x93NUMPY partial")
        top_tmp = tmp_path / "toplevel.tmp"
        top_tmp.write_text("", encoding="utf-8")
        assert cache.cleanup_tmp() == 3
        assert not record_tmp.exists()
        assert not trace_tmp.exists()
        assert not top_tmp.exists()
        assert cache.get(point.payload()) == {"x": 1}

    def test_gc_reclaims_nested_tmp(self, tmp_path, point):
        # gc (the SIGINT cleanup path) rides cleanup_tmp, so a stray
        # nested temporary is reclaimed there too.
        cache = ResultCache(tmp_path)
        cache.put(point.payload(), {"x": 1})
        nested = tmp_path / "traces" / "cd"
        nested.mkdir(parents=True)
        stray = nested / "stray.npy.tmp"
        stray.write_bytes(b"partial")
        cache.gc()
        assert not stray.exists()
        assert cache.get(point.payload()) == {"x": 1}
