"""One holomorphic discrete series: disk model, Cayley coefficients,
correlation.

A series is held as its lowest K-type l alone, even and >= 2
(global_traces.check_weight).  The weighted Bergman basis is psi_k =
binom(l+k-1, k)^(1/2) w^k, k >= 0.  The algebraic Cayley transform
carries the circle-mode ladder into the resonance ladder -n - l/2; its
forward/backward coefficient tables are two-factor Taylor expansions
with explicit constants, so the correlation expansion needs no extra
renormalization.  The anti-holomorphic series is the entrywise complex
conjugate throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .global_traces import check_weight
from .spherical import KBandedOperator
from .specfun import recurrence_blocks, two_factor_columns


def build_disk_matrices(l, K):
    """Theta, N+, N-, X on the truncated disk basis 0 <= k <= K."""
    if K < 2:
        raise DomainError("build_disk_matrices: K must be >= 2")
    check_weight(l)
    ks = np.arange(K + 1, dtype=float)
    c = np.sqrt((l + ks) * (ks + 1.0)).astype(complex)  # N+ psi_k = c_k psi_{k+1}
    zero = np.zeros(K + 1, dtype=complex)
    n_plus = KBandedOperator(zero.copy(), c.copy(), zero.copy())
    # N- psi_0 = 0, N- psi_{k} = -c_{k-1} psi_{k-1}
    sub = np.zeros(K + 1, dtype=complex)
    sub[1:] = -c[:-1]
    n_minus = KBandedOperator(zero.copy(), zero.copy(), sub)
    theta = KBandedOperator((l + 2 * ks).astype(complex), zero.copy(),
                            zero.copy())
    x_op = KBandedOperator(zero.copy(), 0.5 * c, 0.5 * sub)
    return {"Theta": theta, "Nplus": n_plus, "Nminus": n_minus, "X": x_op}


def require_finite(table, where):
    """Raise AccuracyError naming `where` if table has inf/nan entries."""
    if not np.all(np.isfinite(table)):
        raise AccuracyError(
            f"{where} has non-finite entries (double precision overflow)")


@dataclass
class DiskCoeffTable:
    """Cayley coefficient tables for one holomorphic discrete series.

    forward[n, k]  : coefficient of psi_n in the inverse-Cayley image of psi_k,
                     0 <= n <= N, 0 <= k <= K.
    backward[k, n] : coefficient of psi_k in the forward-Cayley image of psi_n,
                     same index ranges transposed.
    """

    forward: np.ndarray
    backward: np.ndarray


def cayley_coeffs(l, N, K):
    """Forward and backward Cayley tables with all constants included."""
    check_weight(l)
    lb = np.array([math.lgamma(l + n) - math.lgamma(n + 1) - math.lgamma(l)
                   for n in range(max(N, K) + 1)])
    half = 0.5 * lb
    cay_f = (1.0 + 1j) ** l
    ks = np.arange(K + 1)
    ((_, fwd),) = recurrence_blocks(*two_factor_columns(-l - ks, ks), N,
                                    N + 1)
    const = np.array([cay_f * (-1.0) ** k * math.exp(half[k])
                      for k in range(K + 1)])
    np.multiply(const, fwd, out=fwd)
    fwd *= np.exp(-half[: N + 1])[:, None]
    cay_b = (1.0 - 1j) ** l
    im = np.array([(-1j) ** m for m in range(N + K + 2)])
    ns = np.arange(N + 1)
    ((_, bwd),) = recurrence_blocks(*two_factor_columns(ns, -l - ns), K,
                                    K + 1)
    const = np.array([cay_b * math.exp(half[n]) for n in range(N + 1)])
    np.multiply(const, bwd, out=bwd)
    bwd *= im[ks[:, None] + ns]           # (-i)^(n+k) at [k, n]
    bwd *= np.exp(-half[: K + 1])[:, None]
    for name, tab in (("forward", fwd), ("backward", bwd)):
        require_finite(tab, f"cayley {name} table at l = {l}, N = {N}, K = {K}")
    return DiskCoeffTable(fwd, bwd)


def correlation_ds(l, k_out, k_in, tau, N):
    """Resonance expansion of the disk matrix element of exp(tau X),
    truncated: the complex sum over n <= N of exp(-tau (n + l/2))
    backward[k_out, n] forward[n, k_in]; the anti-holomorphic (mirror)
    series value is its complex conjugate.
    """
    if not tau > 0:
        raise DomainError("correlation_ds: tau must be > 0")
    for name, k in (("k_out", k_out), ("k_in", k_in)):
        if k < 0:  # the disk basis has k >= 0 only
            raise DomainError(f"correlation_ds: {name} = {k} must be >= 0")
    tab = cayley_coeffs(l, N, max(k_out, k_in))
    n = np.arange(N + 1)
    prod = tab.backward[k_out, :] * tab.forward[:, k_in]
    return complex(np.sum(np.exp(-tau * (n + l / 2.0)) * prod))
