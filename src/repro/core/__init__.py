"""Sequential kernels: the paper's WA algorithms and their comparators."""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "matmul": ("LOOP_ORDERS", "MatmulCounts", "blocked_matmul",
               "matmul_expected_counts", "naive_matmul", "wa_block_size"),
    "multilevel": ("ab_matmul_multilevel", "multilevel_expected_writes",
                   "wa_matmul_multilevel"),
    "trsm": ("blocked_trsm", "trsm_expected_counts"),
    "cholesky": ("blocked_cholesky", "cholesky_expected_counts"),
    "nbody": ("gravity_phi2", "nbody2", "nbody_expected_counts", "nbody_k",
              "triple_phi3"),
    "cache_oblivious": ("co_matmul", "ideal_cache_misses"),
    "traces": ("MATMUL_SCHEMES", "cholesky_trace", "hierarchical_task_order",
               "matmul_trace", "nbody_trace", "trsm_trace"),
    "multilevel_factor": ("cholesky_multilevel", "trsm_multilevel"),
})
