"""The Section-6.2 closing suggestion, verified: re-touching the C block
between block multiplications rescues the multi-level WA order under a
tight LRU cache."""

from repro.core import matmul_trace
from repro.machine import CacheSim

N, MID, B3, B2, BASE, LINE = 32, 64, 16, 8, 4, 4


def replay(buf, blocks):
    sim = CacheSim(blocks * B3 * B3 + LINE, line_size=LINE, policy="lru")
    lines, writes = buf.finalize()
    sim.run_lines(lines, writes)
    sim.flush()
    return sim.stats


def floor():
    return N * N // LINE


class TestCTouchHint:
    def test_unhinted_fails_at_three_blocks(self):
        buf = matmul_trace(N, MID, N, scheme="wa-multilevel", b3=B3,
                           b2=B2, base=BASE, line_size=LINE)
        assert replay(buf, 3).writebacks > 1.5 * floor()

    def test_hint_rescues_three_blocks(self):
        buf = matmul_trace(N, MID, N, scheme="wa-multilevel", b3=B3,
                           b2=B2, base=BASE, line_size=LINE,
                           c_touch_hint=True)
        assert replay(buf, 3).writebacks <= 1.1 * floor()

    def test_hint_costs_only_reads(self):
        """The hint adds read events, never write events."""
        plain = matmul_trace(N, MID, N, scheme="wa-multilevel", b3=B3,
                             b2=B2, base=BASE, line_size=LINE)
        hinted = matmul_trace(N, MID, N, scheme="wa-multilevel", b3=B3,
                              b2=B2, base=BASE, line_size=LINE,
                              c_touch_hint=True)
        assert hinted.n_write_events == plain.n_write_events
        assert hinted.n_read_events > plain.n_read_events

    def test_hint_harmless_at_five_blocks(self):
        hinted = matmul_trace(N, MID, N, scheme="wa-multilevel", b3=B3,
                              b2=B2, base=BASE, line_size=LINE,
                              c_touch_hint=True)
        assert replay(hinted, 5).writebacks == floor()
