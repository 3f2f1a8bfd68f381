"""Cooley–Tukey FFT, built from scratch, with two-level traffic accounting.

The FFT is the paper's first impossibility example (Corollary 2): the
Cooley–Tukey CDAG has out-degree ≤ 2, so by Theorem 2 the number of writes
to slow memory is Ω(n·log n / log M) — the same order as all traffic.

Provided:

* :func:`fft` — an iterative radix-2 decimation-in-time FFT (no numpy.fft),
  validated against the direct DFT and numpy in tests.
* :func:`four_step_fft` — the blocked ("four-step") factorization
  n = n₁·n₂ that makes the FFT communication-*avoiding* for a fast memory
  of size M: column FFTs, twiddle scaling, row FFTs.  With an
  instrumented hierarchy it shows the CA-optimal traffic
  Θ(n·log n/log M) — and that **stores remain a constant fraction of it**,
  the impossibility in action.
* :func:`fft_traffic` — closed-form recursive accounting of the four-step
  execution's loads and stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.hierarchy import TwoLevel
from repro.util import is_power_of_two, require

__all__ = ["fft", "four_step_fft", "fft_traffic", "FFTTraffic", "dft_direct"]


def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def fft(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT (power-of-two length).

    Matches the DFT convention ``X[k] = sum_j x[j]·exp(-2πi jk/n)``.
    """
    x = np.asarray(x, dtype=complex)
    require(x.ndim == 1, f"x must be 1-D, got shape {x.shape}")
    n = len(x)
    require(is_power_of_two(n), f"length must be a power of two, got {n}")
    X = x[_bit_reverse_permutation(n)].copy()
    span = 1
    while span < n:
        w = np.exp(-1j * math.pi * np.arange(span) / span)
        X2 = X.reshape(-1, 2 * span)
        lo = X2[:, :span]
        hi = X2[:, span:] * w
        X2[:, :span], X2[:, span:] = lo + hi, lo - hi
        span *= 2
    return X


def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(n²) direct DFT (oracle for tests)."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    j = np.arange(n)
    W = np.exp(-2j * math.pi * np.outer(j, j) / n)
    return W @ x


def four_step_fft(
    x: np.ndarray,
    *,
    n1: Optional[int] = None,
    hier: Optional[TwoLevel] = None,
) -> np.ndarray:
    """Blocked "four-step" FFT: n = n₁·n₂ (both powers of two).

    1. view x as an n₁×n₂ matrix (row-major); FFT each **column** (length n₁);
    2. scale by twiddles ``exp(-2πi·j·k/n)``;
    3. FFT each **row** (length n₂);
    4. read out transposed.

    With *hier* given, each column/row FFT is charged a load and a store of
    its vector at the level where it fits (recursively re-blocking when a
    row/column still exceeds fast memory).  Every pass writes all n words to
    slow memory — stores ≈ reads/2 at every recursion level, demonstrating
    Corollary 2's conclusion empirically.
    """
    x = np.asarray(x, dtype=complex)
    n = len(x)
    require(is_power_of_two(n), f"length must be a power of two, got {n}")
    if n1 is None:
        n1 = 1 << (n.bit_length() // 2)
    require(is_power_of_two(n1) and 1 < n1 < n,
            f"n1 must be a power of two in (1, n), got {n1}")
    n2 = n // n1

    def transform(v: np.ndarray) -> np.ndarray:
        """FFT of one vector, re-blocking if it exceeds fast memory."""
        if hier is not None and 2 * len(v) > hier.M and len(v) > 2:
            m1 = 1 << (len(v).bit_length() // 2)
            return four_step_fft(v, n1=m1, hier=hier)
        if hier is not None:
            hier.load_fast(len(v), msgs=1)
            hier.store_slow(len(v), msgs=1)
        return fft(v)

    Xm = x.reshape(n1, n2).astype(complex)
    # Step 1: column FFTs (length n1).
    for c in range(n2):
        Xm[:, c] = transform(Xm[:, c].copy())
    # Step 2: twiddle factors  W^(j*k), j row index (output of col FFT),
    # k column index.  Streaming multiply: n loads + n stores.
    tw = np.exp(
        -2j * math.pi
        * np.outer(np.arange(n1), np.arange(n2))
        / n
    )
    if hier is not None:
        hier.load_fast(n, msgs=n2)
        hier.store_slow(n, msgs=n2)
    Xm *= tw
    # Step 3: row FFTs (length n2).
    for r in range(n1):
        Xm[r, :] = transform(Xm[r, :].copy())
    # Step 4: transpose read-out: X[k] laid out as column-major of Xm.
    return Xm.T.reshape(n)


@dataclass
class FFTTraffic:
    loads: int
    stores: int

    @property
    def total(self) -> int:
        return self.loads + self.stores

    @property
    def store_fraction(self) -> float:
        return self.stores / self.total if self.total else 0.0


def fft_traffic(n: int, M: int) -> FFTTraffic:
    """Closed-form traffic of the four-step execution with fast memory M.

    ``W(n) = n₁·W(n₂) + n₂·W(n₁) + 2n`` with base ``W(k) = 2k`` when
    ``2k ≤ M`` — total Θ(n·log n / log M), half of it stores.
    """
    require(is_power_of_two(n), f"n must be a power of two, got {n}")
    require(M >= 4, f"fast memory too small: {M}")

    def rec(k: int) -> FFTTraffic:
        if 2 * k <= M or k <= 2:
            return FFTTraffic(loads=k, stores=k)
        k1 = 1 << (k.bit_length() // 2)
        k2 = k // k1
        sub1 = rec(k1)
        sub2 = rec(k2)
        return FFTTraffic(
            loads=k1 * sub2.loads + k2 * sub1.loads + k,
            stores=k1 * sub2.stores + k2 * sub1.stores + k,
        )

    return rec(n)
