"""2.5D matrix multiplication with optional NVM staging (Models 2.1/2.2).

One implementation covers the paper's three 2.5D variants through the
*storage* parameter:

* ``storage="L2"``  — **2.5DMML2**: the c-fold replicas live in DRAM;
  requires c·2n²/P ≤ M2 per rank.
* ``storage="L3"``  — **2.5DMML3** (Model 2.1): replicas are written to NVM
  on receipt (β23) and read back per use (β32), in messages of at most M2
  words; allows c up to the NVM capacity.
* ``storage="L3-ooL2"`` — **2.5DMML3ooL2** (Model 2.2): inputs *start* in
  NVM and everything is staged through M2-sized chunks; local multiplies
  charge the WA-matmul NVM read volume Θ((n/q)³/√M2) per step.  Attains the
  interprocessor bound W2 = n²/√(Pc) but writes Θ(n²/√(Pc)) ≫ n²/P words to
  NVM — the other side of the Theorem-4 trade-off.

The executed schedule: c layers of a q×q grid (q = √(P/c)); the top layer
holds the canonical input blocks; step 2 broadcasts them down the fibers;
step 3 runs 1/c of the SUMMA steps per layer; step 4 sum-reduces C to the
top layer.  (The paper's step-1 layout transformation from a √P×√P grid is
charged in the analytic cost model; the simulation starts in the 2.5D
layout, which changes only a lower-order gather term.)
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.distributed.machine import DistMachine
from repro.names import STORAGE_MODES
from repro.util import ceil_div, require

__all__ = ["mm_25d"]


def mm_25d(
    A: np.ndarray,
    B: np.ndarray,
    machine: DistMachine,
    *,
    c: int,
    storage: str = "L2",
    M2: float | None = None,
) -> np.ndarray:
    """2.5D matmul with replication factor *c* on P = c·q² ranks."""
    require(storage in STORAGE_MODES,
            f"storage must be one of {STORAGE_MODES}")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    require(A.shape == (n, n) and B.shape == (n, n),
            "mm_25d expects square matrices of equal size")
    require(c >= 1, f"replication factor must be >= 1, got {c}")
    require(machine.P % c == 0, f"P={machine.P} not divisible by c={c}")
    q2 = machine.P // c
    q = math.isqrt(q2)
    require(q * q == q2, f"P/c = {q2} must be a perfect square")
    require(c <= q, f"c={c} must be <= q={q} (c <= P^(1/3) regime)")
    require(q % c == 0 or c == 1,
            f"layer step-count q/c must be integral: q={q}, c={c}")
    require(n % q == 0, f"n={n} must be divisible by grid side {q}")
    if storage != "L2":
        require(M2 is not None and M2 > 0,
                "NVM-staged variants need M2 (DRAM size in words)")
    nb = n // q
    chunk = int(M2) if M2 is not None else nb * nb

    def rank(layer: int, r: int, col: int) -> int:
        return layer * q2 + (r % q) * q + (col % q)

    def nvm_msgs(words: int) -> int:
        return ceil_div(words, chunk)

    staged = storage in ("L3", "L3-ooL2")

    # ---------------- initial data placement (no traffic) --------------- #
    init_level = "L3" if storage == "L3-ooL2" else "L2"
    for r in range(q):
        for col in range(q):
            rk = rank(0, r, col)
            machine.put(rk, ("A", r, col),
                        A[r * nb:(r + 1) * nb, col * nb:(col + 1) * nb],
                        level=init_level)
            machine.put(rk, ("B", r, col),
                        B[r * nb:(r + 1) * nb, col * nb:(col + 1) * nb],
                        level=init_level)

    # ---------------- step 2: replicate down the fibers ----------------- #
    for r in range(q):
        for col in range(q):
            top = rank(0, r, col)
            if storage == "L3-ooL2":
                # Inputs live in NVM: read them up before sending (β32).
                for key in (("A", r, col), ("B", r, col)):
                    machine.load_nvm(top, key)
            fiber = [rank(t, r, col) for t in range(c)]
            if c > 1:
                machine.bcast(top, fiber, ("A", r, col))
                machine.bcast(top, fiber, ("B", r, col))
            if staged:
                # Replicas are parked in NVM on every layer (β23), in
                # chunks of at most M2 words.
                for t in range(c):
                    rk = rank(t, r, col)
                    if storage == "L3-ooL2" and t == 0:
                        continue  # already resident in L3 on the top layer
                    for key in (("A", r, col), ("B", r, col)):
                        arr = machine.get(rk, key, "L2")
                        machine.put(rk, key, arr, level="L3")
                        machine.charge_nvm_write(
                            rk, arr.size, msgs=nvm_msgs(arr.size))

    # ---------------- step 3: 1/c of SUMMA per layer -------------------- #
    steps_per_layer = q // c if c > 1 else q
    partials: Dict[Tuple[int, int, int], np.ndarray] = {}
    for t in range(c):
        for r in range(q):
            for col in range(q):
                partials[(t, r, col)] = np.zeros((nb, nb))
    for t in range(c):
        for s in range(steps_per_layer):
            k = t * steps_per_layer + s
            # A(r, k) broadcast along rows; B(k, col) along columns of
            # layer t.  Owner is the layer's replica of the block.
            for r in range(q):
                src = rank(t, r, k)
                if staged:
                    arr = machine.get(src, ("A", r, k), "L3")
                    machine.charge_nvm_read(src, arr.size,
                                            msgs=nvm_msgs(arr.size))
                    machine.put(src, ("A", r, k), arr, level="L2")
                machine.put(src, ("Ap", t, r),
                            machine.get(src, ("A", r, k), "L2"))
                machine.bcast(src, [rank(t, r, cc) for cc in range(q)],
                              ("Ap", t, r))
                if staged:
                    # Receivers park the panel in NVM (the β23 term of the
                    # paper's eq. (9)/(14) horizontal-communication cost).
                    for cc in range(q):
                        rkv = rank(t, r, cc)
                        if rkv != src:
                            w = machine.get(rkv, ("Ap", t, r)).size
                            machine.charge_nvm_write(rkv, w,
                                                     msgs=nvm_msgs(w))
            for col in range(q):
                src = rank(t, k, col)
                if staged:
                    arr = machine.get(src, ("B", k, col), "L3")
                    machine.charge_nvm_read(src, arr.size,
                                            msgs=nvm_msgs(arr.size))
                    machine.put(src, ("B", k, col), arr, level="L2")
                machine.put(src, ("Bp", t, col),
                            machine.get(src, ("B", k, col), "L2"))
                machine.bcast(src, [rank(t, rr, col) for rr in range(q)],
                              ("Bp", t, col))
                if staged:
                    for rr in range(q):
                        rkv = rank(t, rr, col)
                        if rkv != src:
                            w = machine.get(rkv, ("Bp", t, col)).size
                            machine.charge_nvm_write(rkv, w,
                                                     msgs=nvm_msgs(w))
            for r in range(q):
                for col in range(q):
                    rk = rank(t, r, col)
                    partials[(t, r, col)] += (
                        machine.get(rk, ("Ap", t, r))
                        @ machine.get(rk, ("Bp", t, col))
                    )
                    if storage == "L3-ooL2":
                        # Local multiply with operands in NVM: the WA local
                        # matmul reads Θ(2·nb³/√(M2/3)) words from NVM and
                        # re-writes the C tile once per step.
                        b2 = max(1, int(math.isqrt(int(M2 // 3))))
                        machine.charge_nvm_read(
                            rk, 2 * nb * nb * ceil_div(nb, b2),
                            msgs=max(1, 2 * ceil_div(nb, b2)))

    # ---------------- step 4: reduce partial C down the fibers ---------- #
    out = np.zeros((n, n))
    for r in range(q):
        for col in range(q):
            fiber = [rank(t, r, col) for t in range(c)]
            for t in range(c):
                machine.put(rank(t, r, col), ("Cp", r, col),
                            partials[(t, r, col)])
            if c > 1:
                total = machine.reduce(rank(0, r, col), fiber, ("Cp", r, col))
            else:
                total = partials[(0, r, col)]
            if storage == "L3-ooL2":
                # The output must land in NVM (it does not fit in DRAM).
                top = rank(0, r, col)
                machine.put(top, ("C", r, col), total, level="L3")
                machine.charge_nvm_write(top, total.size,
                                         msgs=nvm_msgs(total.size))
            out[r * nb:(r + 1) * nb, col * nb:(col + 1) * nb] = total
    return out
