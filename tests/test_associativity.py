"""Set-associativity effects (Section 6 attributes residual gaps to it).

The paper speculates the small gap between measured write-backs and the
floor comes from the replacement policy being "not fully associative".
The simulator lets us isolate exactly that variable: same trace, same
capacity, same LRU policy, varying associativity.
"""

import pytest

from repro.core import matmul_trace
from repro.machine import CacheSim


def run(buf, cap, line, assoc):
    sim = CacheSim(cap, line_size=line, policy="lru", associativity=assoc)
    lines, writes = buf.finalize()
    sim.run_lines(lines, writes)
    sim.flush()
    return sim.stats


N, MID, B3, B2, BASE, LINE = 64, 64, 16, 8, 4, 4


@pytest.fixture(scope="module")
def wa_trace():
    return matmul_trace(N, MID, N, scheme="wa2", b3=B3, b2=B2, base=BASE,
                        line_size=LINE)


class TestAssociativity:
    def test_full_associativity_attains_floor(self, wa_trace):
        cap = 5 * B3 * B3 + LINE
        st = run(wa_trace, cap, LINE, None)
        assert st.writebacks == N * N // LINE

    def test_limited_associativity_adds_writebacks(self, wa_trace):
        """Conflict misses evict dirty C lines early: write-backs rise
        above the floor as associativity drops — the paper's explanation
        for its residual gap."""
        # 336 lines: divisible by 2/4/8/16 ways.
        cap = 5 * B3 * B3 + 64
        floor = N * N // LINE
        full = run(wa_trace, cap, LINE, None).writebacks
        way4 = run(wa_trace, cap, LINE, 4).writebacks
        assert full <= way4
        assert way4 >= floor

    def test_writebacks_monotone_in_associativity(self, wa_trace):
        cap = 5 * B3 * B3 + 64
        results = [run(wa_trace, cap, LINE, a).writebacks
                   for a in (2, 8, None)]
        # Not strictly monotone in general, but the end points must order.
        assert results[-1] <= results[0]

    def test_direct_mapped_is_worst(self, wa_trace):
        cap = 5 * B3 * B3 + 64
        dm = run(wa_trace, cap, LINE, 1).writebacks
        full = run(wa_trace, cap, LINE, None).writebacks
        assert dm >= full

    def test_conservation_holds_at_any_associativity(self, wa_trace):
        """After a flush: every filled line left as a victim (M or E) or a
        flush write-back."""
        cap = 2 * B3 * B3
        for a in (1, 2, 8, None):
            st = run(wa_trace, cap, LINE, a)
            assert st.hits + st.misses == st.accesses
            assert st.fills == (st.victims_m + st.victims_e
                                + st.flush_writebacks)
