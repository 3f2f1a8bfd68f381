"""The names a request may pass a kernel, declared once.

The kernels check their own arguments against these tuples, and the
lab's parameter declarations (:attr:`repro.lab.params.Kernel.params`) offer
them as one-of values.  They live in this dependency-free module so the
lab can declare every kernel without importing its implementation.
"""

__all__ = ["LOOP_ORDERS", "MATMUL_SCHEMES", "POLICIES", "STORAGE_MODES",
           "SWEPT_POLICIES"]

#: the six permutations of the block loops of
#: :func:`repro.core.matmul.blocked_matmul`, each outer→inner.
LOOP_ORDERS = ("ijk", "jik", "ikj", "kij", "jki", "kji")

#: named instruction orders of Figures 2 and 5
#: (:func:`repro.core.traces.matmul_order`).
MATMUL_SCHEMES = ("co", "mkl-like", "wa2", "wa-multilevel", "ab-multilevel")

#: where :func:`repro.distributed.mm25d.mm_25d` keeps its replicas.
STORAGE_MODES = ("L2", "L3", "L3-ooL2")

#: the replacement policies a simulated cache may name: the online ones
#: of :data:`repro.machine.policies.POLICIES` and Belady's offline MIN.
POLICIES = ("lru", "fifo", "random", "clock", "segmented-lru", "belady")

#: the policies :func:`repro.machine.fastsim.sweep` folds over a whole
#: trace of a fully-associative cache; Belady is simulated nowhere else.
SWEPT_POLICIES = ("lru", "belady", "clock", "segmented-lru")
