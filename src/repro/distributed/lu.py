"""Parallel LU factorization without pivoting (paper Section 7.2).

Two algorithms with opposite positions in the Theorem-4-style trade-off:

* :func:`lu_ll_nonpivot` — **LL-LUNP** (paper Algorithm 5): left-looking by
  block columns.  Each output block is written to NVM at most twice
  (O(n²/P) β23 per rank), but the left-of-panel updates re-read L and U
  blocks across the network on every block column:
  O(n³·log²P/(P·√M2)) βNW — minimizes NVM writes, not network traffic.

* :func:`lu_rl_nonpivot` — **RL-LUNP** (right-looking, CALU-style): panel
  factor + broadcast + trailing update.  Interprocessor words are the CA
  optimum O(n²·log P/√P), but every trailing block round-trips through NVM
  on every step: O(n²·log²P/√P) β23 — minimizes network, not NVM writes.

Data distribution: b×b blocks on a √P×√P grid, block-cyclic
(owner of block (I, J) = rank (I mod √P, J mod √P)), matching the paper.
Both are executed numerically (no pivoting ⇒ caller supplies a matrix with
nonsingular leading minors, e.g. diagonally dominant) and validated as
L·U ≈ A in tests.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.grid import square_grid_side
from repro.distributed.machine import DistMachine
from repro.util import check_multiple, check_positive_int, require

__all__ = ["lu_ll_nonpivot", "lu_rl_nonpivot"]


def _factor_diag(blk: np.ndarray) -> tuple:
    """Unpivoted LU of a diagonal block: returns (L, U)."""
    n = blk.shape[0]
    L = np.eye(n)
    U = blk.copy()
    for k in range(n):
        require(abs(U[k, k]) > 1e-300,
                "zero pivot: LU without pivoting needs nonsingular minors")
        L[k + 1:, k] = U[k + 1:, k] / U[k, k]
        U[k + 1:, k:] -= np.outer(L[k + 1:, k], U[k, k:])
        U[k + 1:, k] = 0.0
    return L, U


def _setup(A: np.ndarray, machine: DistMachine, b: int):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    require(A.shape == (n, n), "A must be square")
    check_positive_int(b, "b")
    q = square_grid_side(machine.P)
    check_multiple(n, b, "n")
    nb = n // b
    require(nb >= 1, "need at least one block")

    def owner(I: int, J: int) -> int:
        return (I % q) * q + (J % q)

    # Initial layout: blocks in NVM (Model 2.2: data only fits in L3).
    for I in range(nb):
        for J in range(nb):
            machine.put(owner(I, J), ("A", I, J),
                        A[I * b:(I + 1) * b, J * b:(J + 1) * b].copy(),
                        level="L3")
    return A, n, q, nb, owner


def _collect(machine, nb, b, owner, key_l, key_u):
    n = nb * b
    L = np.zeros((n, n))
    U = np.zeros((n, n))
    for I in range(nb):
        for J in range(nb):
            if I >= J and machine.has(owner(I, J), (key_l, I, J), "L3"):
                L[I * b:(I + 1) * b, J * b:(J + 1) * b] = machine.get(
                    owner(I, J), (key_l, I, J), "L3")
            if I <= J and machine.has(owner(I, J), (key_u, I, J), "L3"):
                U[I * b:(I + 1) * b, J * b:(J + 1) * b] = machine.get(
                    owner(I, J), (key_u, I, J), "L3")
    return L, U


def lu_ll_nonpivot(
    A: np.ndarray, machine: DistMachine, *, b: int
) -> tuple:
    """Left-looking LU without pivoting (LL-LUNP, paper Algorithm 5).

    Returns (L, U) with unit-diagonal L.  NVM writes per rank stay
    O(n²/P): every finished L/U block is written once, plus one write of
    the updated block before panel factorization.
    """
    import scipy.linalg

    A, n, q, nb, owner = _setup(A, machine, b)

    for J in range(nb):
        Ud = None  # this column's diagonal U factor, set at I == J
        down = owner(J, J)
        # Process the column's blocks top to bottom, finalizing each row's
        # L/U block immediately (the paper's Algorithm 5 interleaving:
        # blocks above the diagonal become U(I,J) as soon as updated).
        for I in range(nb):
            own = owner(I, J)
            # ---- update with all finished contributions ----------------- #
            blk = machine.load_nvm(own, ("A", I, J)).copy()
            for K in range(min(I, J)):
                # L(I,K) travels along grid row I; U(K,J) along column J.
                lown = owner(I, K)
                lblk = machine.load_nvm(lown, ("L", I, K))
                if lown != own:
                    machine.send(lown, own, ("Lt", I, K), lblk)
                    lblk = machine.get(own, ("Lt", I, K))
                uown = owner(K, J)
                ublk = machine.load_nvm(uown, ("U", K, J))
                if uown != own:
                    machine.send(uown, own, ("Ut", K, J), ublk)
                    ublk = machine.get(own, ("Ut", K, J))
                blk -= lblk @ ublk

            # ---- finalize the block ------------------------------------- #
            if I < J:
                # Solve L(I,I) · U(I,J) = A(I,J).
                lown = owner(I, I)
                lblk = machine.load_nvm(lown, ("L", I, I))
                if lown != own:
                    machine.send(lown, own, ("Ldiag", I), lblk)
                    lblk = machine.get(own, ("Ldiag", I))
                ub = scipy.linalg.solve_triangular(
                    lblk, blk, lower=True, unit_diagonal=True)
                machine.put(own, ("U", I, J), ub, level="L2")
                machine.store_nvm(own, ("U", I, J))
            elif I == J:
                Ld, Ud = _factor_diag(blk)
                machine.put(down, ("L", J, J), Ld, level="L2")
                machine.put(down, ("U", J, J), Ud, level="L2")
                machine.store_nvm(down, ("L", J, J))
                machine.store_nvm(down, ("U", J, J))
            else:
                # L(I,J) = A(I,J) · U(J,J)^{-1}.
                if down != own:
                    machine.send(down, own, ("Udiag", J), Ud)
                    ud = machine.get(own, ("Udiag", J))
                else:
                    ud = Ud
                lb = scipy.linalg.solve_triangular(ud.T, blk.T,
                                                   lower=True).T
                machine.put(own, ("L", I, J), lb, level="L2")
                machine.store_nvm(own, ("L", I, J))

    return _collect(machine, nb, b, owner, "L", "U")


def lu_rl_nonpivot(
    A: np.ndarray, machine: DistMachine, *, b: int
) -> tuple:
    """Right-looking LU without pivoting (RL-LUNP).

    At each step K: factor the diagonal block, solve the panel row/column,
    broadcast them, and update every trailing block — each trailing block
    is read from NVM and written back (the Θ(n²·log²P/√P) β23 term).
    """
    import scipy.linalg

    A, n, q, nb, owner = _setup(A, machine, b)

    for K in range(nb):
        down = owner(K, K)
        blk = machine.load_nvm(down, ("A", K, K))
        Ld, Ud = _factor_diag(blk)
        machine.put(down, ("L", K, K), Ld, level="L2")
        machine.put(down, ("U", K, K), Ud, level="L2")
        machine.store_nvm(down, ("L", K, K))
        machine.store_nvm(down, ("U", K, K))
        # Broadcast the diagonal factors along row K and column K.
        row_ranks = sorted({owner(K, J) for J in range(K, nb)})
        col_ranks = sorted({owner(I, K) for I in range(K, nb)})
        if len(row_ranks) > 1:
            machine.bcast(down, row_ranks, ("L", K, K))
        if len(col_ranks) > 1:
            machine.bcast(down, col_ranks, ("U", K, K))

        # Panel: U(K, J) for J > K, L(I, K) for I > K.
        for J in range(K + 1, nb):
            own = owner(K, J)
            blk = machine.load_nvm(own, ("A", K, J))
            ub = scipy.linalg.solve_triangular(
                machine.get(own, ("L", K, K), "L2"), blk,
                lower=True, unit_diagonal=True)
            machine.put(own, ("U", K, J), ub, level="L2")
            machine.store_nvm(own, ("U", K, J))
        for I in range(K + 1, nb):
            own = owner(I, K)
            blk = machine.load_nvm(own, ("A", I, K))
            lb = scipy.linalg.solve_triangular(
                machine.get(own, ("U", K, K), "L2").T, blk.T, lower=True).T
            machine.put(own, ("L", I, K), lb, level="L2")
            machine.store_nvm(own, ("L", I, K))

        # Broadcast panel blocks along their rows/columns for the update.
        for I in range(K + 1, nb):
            grp = sorted({owner(I, J) for J in range(K + 1, nb)}
                         | {owner(I, K)})
            if len(grp) > 1:
                machine.bcast(owner(I, K), grp, ("L", I, K))
        for J in range(K + 1, nb):
            grp = sorted({owner(I, J) for I in range(K + 1, nb)}
                         | {owner(K, J)})
            if len(grp) > 1:
                machine.bcast(owner(K, J), grp, ("U", K, J))

        # Trailing update: every block round-trips through NVM.
        for I in range(K + 1, nb):
            for J in range(K + 1, nb):
                own = owner(I, J)
                blk = machine.load_nvm(own, ("A", I, J))
                blk = blk - (machine.get(own, ("L", I, K), "L2")
                             @ machine.get(own, ("U", K, J), "L2"))
                machine.put(own, ("A", I, J), blk, level="L2")
                machine.store_nvm(own, ("A", I, J))

    return _collect(machine, nb, b, owner, "L", "U")
