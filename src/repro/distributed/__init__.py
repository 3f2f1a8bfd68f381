"""Simulated distributed-memory machine and the paper's parallel algorithms.

The paper's Section 7 architecture (Figure 1): P homogeneous ranks, each
with a local hierarchy L1/L2/L3 (L3 = NVM), network attached to L2.  We
simulate it with real numpy blocks per rank and per-rank counters on every
channel (network, L2↔L3, L1↔L2), so algorithms are *executed* — results are
numerically checked — while their communication is *measured* and compared
against the analytic cost models of :mod:`repro.distributed.costmodel`.
"""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "machine": ("DistMachine", "RankCounters"),
    "summa": ("summa_2d", "summa_l3_ool2"),
    "mm25d": ("mm_25d",),
    "lu": ("lu_ll_nonpivot", "lu_rl_nonpivot"),
    "costmodel": ("HwParams", "dom_beta_cost_model21",
                  "dom_beta_cost_model22", "ll_lunp_beta_cost",
                  "rl_lunp_beta_cost", "table1_rows", "table2_rows"),
})
