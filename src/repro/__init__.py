"""repro — a reproduction of *Write-Avoiding Algorithms* (Carson, Demmel,
Grigori, Knight, Koanantakool, Schwartz, Simhadri; IPDPS 2016 /
UCB/EECS-2015-163).

Subpackages
-----------
``repro.machine``
    Explicit memory hierarchies with read/write counters, and a
    cache simulator (LRU / 3-bit clock / Belady / …) standing in for the
    paper's hardware counters.
``repro.core``
    The paper's sequential WA kernels (blocked matmul, TRSM, Cholesky,
    N-body) and the non-WA cache-oblivious matmul, all numerically
    executable and traffic-instrumented.
``repro.cdag``
    Computation DAGs, Theorem-2 bounds, and a red-blue pebbler.
``repro.bounds``
    The lower-bound catalogue (Theorems 1, 3, 4; Corollaries 1, 4).
``repro.distributed``
    A simulated distributed machine with per-channel counters, SUMMA /
    2.5D matmul, parallel LU, and the Table-1/Table-2 cost models.
``repro.krylov``
    CG, s-step CA-CG, and the blocked/streaming matrix-powers kernels with
    write counting.
``repro.experiments``
    One module per table, figure or section of the paper: the
    ``repro.lab`` preset that computes it (``repro-lab run fig2``), the
    paper's claims on its records, and the layout that prints them.
``repro.names``
    The names a request may pass a kernel, declared once.
``repro.lab``
    The scenario-sweep engine: string-keyed registries of kernels, machine
    models (including NVM-style asymmetric read/write costs) and policies;
    declarative parameter grids and the table of named presets (each
    built in its ``repro.experiments`` module); a ``multiprocessing``
    executor; and a content-addressed on-disk result
    cache keyed by scenario point + code fingerprint, so repeated sweeps
    skip already-simulated points.  CLI: ``python -m repro.lab``.
"""

from repro.util import lazy_exports

__version__ = "1.0.0"

# Each name loads its subpackage on first access, so ``import repro``
# (which every ``repro.*`` import runs first) loads no kernel family.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "machine": ("CacheSim", "MemoryHierarchy", "TwoLevel"),
    "core": ("blocked_cholesky", "blocked_matmul", "blocked_trsm",
             "co_matmul", "nbody2", "nbody_k", "wa_block_size",
             "wa_matmul_multilevel"),
    "bounds": ("parallel_mm_bounds", "theorem1_holds"),
    "distributed": ("DistMachine", "HwParams", "mm_25d", "summa_2d"),
    "krylov": ("cacg", "cg", "spd_stencil_system"),
})
__all__.append("__version__")
