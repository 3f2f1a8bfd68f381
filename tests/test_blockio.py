"""Unit tests for the block-slot residency model."""

from repro.core.blockio import BlockSlot
from repro.machine import MemoryHierarchy, TwoLevel


class TestBlockSlot:
    def test_first_ensure_loads(self):
        h = TwoLevel(100)
        slot = BlockSlot(h)
        reused = slot.ensure("a", 10)
        assert not reused
        assert h.loads == 10
        assert h.writes_to_fast == 10

    def test_reuse_is_free(self):
        h = TwoLevel(100)
        slot = BlockSlot(h)
        slot.ensure("a", 10)
        assert slot.ensure("a", 10)
        assert h.loads == 10  # unchanged

    def test_clean_eviction_silent(self):
        h = TwoLevel(100)
        slot = BlockSlot(h)
        slot.ensure("a", 10)
        slot.ensure("b", 10)
        assert h.stores == 0  # read-only occupant discarded (D2)
        assert h.loads == 20

    def test_dirty_eviction_stores(self):
        h = TwoLevel(100)
        slot = BlockSlot(h, dirty_on_load=True)
        slot.ensure("a", 10)
        slot.ensure("b", 10)
        assert h.stores == 10  # R1/D1 residency

    def test_create_begins_r2_residency(self):
        h = TwoLevel(100)
        slot = BlockSlot(h)
        slot.ensure("acc", 10, create=True)
        assert h.loads == 0
        assert h.writes_to_fast == 10
        slot.flush()
        assert h.stores == 10  # R2/D1

    def test_mark_dirty_then_flush(self):
        h = TwoLevel(100)
        slot = BlockSlot(h)
        slot.ensure("a", 10)
        slot.mark_dirty()
        slot.flush()
        assert h.stores == 10

    def test_writeback_keeps_residency(self):
        h = TwoLevel(100)
        slot = BlockSlot(h, dirty_on_load=True)
        slot.ensure("a", 10)
        slot.writeback()
        assert h.stores == 10
        assert slot.key == "a"
        assert not slot.dirty
        slot.writeback()  # now clean: no-op
        assert h.stores == 10
        slot.flush()      # clean flush: no extra store
        assert h.stores == 10

    def test_discard_drops_dirty_data_silently(self):
        h = TwoLevel(100)
        slot = BlockSlot(h, dirty_on_load=True)
        slot.ensure("a", 10)
        slot.discard()
        assert h.stores == 0
        assert slot.key is None

    def test_none_hierarchy_is_pure_bookkeeping(self):
        slot = BlockSlot(None, dirty_on_load=True)
        assert not slot.ensure("a", 10)
        assert slot.ensure("a", 10)
        slot.flush()
        assert slot.key is None

    def test_multi_level_slot_targets_its_level(self):
        h = MemoryHierarchy([100, 1000])
        slot = BlockSlot(h, level=2, dirty_on_load=True)
        slot.ensure("a", 50)
        assert h.writes_at(2) == 50
        assert h.reads_at(3) == 50
        slot.flush()
        assert h.writes_at(3) == 50
