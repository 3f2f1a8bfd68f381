"""Computation-DAG machinery for the Section-3 impossibility results.

A CDAG has a vertex per input or computed value and edges for direct
dependencies (paper Section 3).  Theorem 2 turns a *bounded out-degree* —
bounded reuse of every operand — into a write lower bound; the red-blue
pebbler in :mod:`repro.cdag.pebbler` executes a CDAG on a two-level memory
and measures actual loads/stores, letting us observe the bound empirically
for the FFT and Strassen and its *absence* for classical matmul.
"""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "graph": ("CDAG",),
    "builders": ("fft_cdag", "linear_chain_cdag", "matmul_cdag",
                 "reduction_tree_cdag", "strassen_cdag"),
    "pebbler": ("PebbleStats", "depth_first_schedule", "pebble"),
    "bounds": ("theorem2_write_lower_bound",),
})
