"""Sequential kernels: the paper's WA algorithms and their comparators."""

from repro.core.matmul import (
    LOOP_ORDERS,
    MatmulCounts,
    blocked_matmul,
    matmul_expected_counts,
    naive_matmul,
    wa_block_size,
)
from repro.core.multilevel import (
    ab_matmul_multilevel,
    multilevel_expected_writes,
    wa_matmul_multilevel,
)
from repro.core.trsm import blocked_trsm, trsm_expected_counts
from repro.core.cholesky import blocked_cholesky, cholesky_expected_counts
from repro.core.nbody import (
    gravity_phi2,
    nbody2,
    nbody_expected_counts,
    nbody_k,
    triple_phi3,
)
from repro.core.cache_oblivious import co_matmul, ideal_cache_misses
from repro.core.traces import (
    MATMUL_SCHEMES,
    cholesky_trace,
    hierarchical_task_order,
    matmul_trace,
    nbody_trace,
    trsm_trace,
)
from repro.core.multilevel_factor import cholesky_multilevel, trsm_multilevel

__all__ = [
    "LOOP_ORDERS",
    "MatmulCounts",
    "blocked_matmul",
    "matmul_expected_counts",
    "naive_matmul",
    "wa_block_size",
    "ab_matmul_multilevel",
    "multilevel_expected_writes",
    "wa_matmul_multilevel",
    "blocked_trsm",
    "trsm_expected_counts",
    "blocked_cholesky",
    "cholesky_expected_counts",
    "gravity_phi2",
    "nbody2",
    "nbody_expected_counts",
    "nbody_k",
    "triple_phi3",
    "co_matmul",
    "ideal_cache_misses",
    "MATMUL_SCHEMES",
    "cholesky_trace",
    "hierarchical_task_order",
    "matmul_trace",
    "nbody_trace",
    "trsm_trace",
    "cholesky_multilevel",
    "trsm_multilevel",
]
