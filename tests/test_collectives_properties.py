"""Property-based tests for the distributed collectives' conservation laws."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed import DistMachine


@settings(max_examples=30, deadline=None)
@given(
    P=st.integers(min_value=2, max_value=16),
    words=st.integers(min_value=1, max_value=100),
    root=st.integers(min_value=0, max_value=15),
)
def test_property_bcast_conservation(P, words, root):
    """Broadcast: every non-root receives the payload exactly once;
    sent == received; delivery is complete."""
    root %= P
    m = DistMachine(P)
    payload = np.arange(float(words))
    m.put(root, "x", payload)
    m.bcast(root, list(range(P)), "x")
    assert m.total_over_ranks("nw_recv") == (P - 1) * words
    assert m.total_over_ranks("nw_sent") == (P - 1) * words
    assert m.counters[root].nw_recv == 0
    for r in range(P):
        np.testing.assert_array_equal(m.get(r, "x"), payload)
    # Binomial tree depth: no rank sends more than ceil(log2 P) times...
    # (the root relays at most that many messages).
    assert m.counters[root].nw_msgs_sent <= int(np.ceil(np.log2(P))) + 1


@settings(max_examples=30, deadline=None)
@given(
    P=st.integers(min_value=1, max_value=12),
    words=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=100),
)
# np.sum's pairwise order missed the tree's sum by a few ulps here, a
# relative error above 1e-12 where an element nearly cancels.
@example(P=3, words=39, seed=3)
@example(P=4, words=36, seed=28)
@example(P=5, words=39, seed=95)
def test_property_reduce_correct_and_conservative(P, words, seed):
    """Reduction: result = sum of contributions, added in the binomial
    tree's order; words sent == received."""
    rng = np.random.default_rng(seed)
    m = DistMachine(P)
    parts = [rng.standard_normal(words) for _ in range(P)]
    for r in range(P):
        m.put(r, "y", parts[r])
    out = m.reduce(0, list(range(P)), "y")
    np.testing.assert_array_equal(out, _tree_sum(parts))
    assert m.total_over_ranks("nw_sent") == m.total_over_ranks("nw_recv")
    # A tree reduction moves (P-1) payloads in total.
    assert m.total_over_ranks("nw_recv") == (P - 1) * words


def _tree_sum(parts):
    """The sum of *parts* in the binomial tree's order: each round, the
    second half of the live contributions adds into the first."""
    while len(parts) > 1:
        half = (len(parts) + 1) // 2
        parts = [parts[i] + parts[i + half] if i + half < len(parts)
                 else parts[i] for i in range(half)]
    return parts[0]


@settings(max_examples=20, deadline=None)
@given(
    P=st.integers(min_value=2, max_value=10),
    n_msgs=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=50),
)
def test_property_point_to_point_conservation(P, n_msgs, seed):
    """Random message pattern: global sent == global recv, per-message
    word counts exact."""
    rng = np.random.default_rng(seed)
    m = DistMachine(P)
    total = 0
    for i in range(n_msgs):
        src, dst = rng.choice(P, size=2, replace=False)
        w = int(rng.integers(1, 30))
        m.put(int(src), ("m", i), np.zeros(w))
        m.send(int(src), int(dst), ("m", i))
        total += w
    assert m.total_over_ranks("nw_sent") == total
    assert m.total_over_ranks("nw_recv") == total
    assert m.total_over_ranks("nw_msgs_sent") == n_msgs
