"""Harmonic-oscillator side: weak transforms on polynomial-times-Gaussian data.

Functions u(x) = P(x) exp(-w x^2 / 2) with Re w > 0 are closed under
multiplication by x, differentiation, and the Euler operator, so the two
weak transforms (derivatives at 0, and x-power moments) are evaluated by
exact coefficient recurrences; nothing here is a finite difference.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class GaussPolyFunction:
    """P(x) exp(-width x^2/2); width is the cot-beta parameter, Re width > 0."""

    poly: np.ndarray
    width: complex

    def __post_init__(self):
        self.poly = np.asarray(self.poly, dtype=complex)
        self.width = complex(self.width)
        if self.poly.ndim != 1 or self.poly.size == 0:
            raise DomainError("GaussPolyFunction: poly must be a 1-d nonempty array")
        if not np.all(np.isfinite(self.poly)):
            raise DomainError("GaussPolyFunction: poly coefficients must be "
                              "finite", self.poly)
        if not (self.width.real > 0 and cmath.isfinite(self.width)):
            raise DomainError(f"GaussPolyFunction: width = {self.width} must "
                              "be finite with Re(width) > 0")


def x_times(u):
    """x * u(x) as a GaussPolyFunction."""
    p = np.concatenate([[0.0 + 0.0j], u.poly])
    return GaussPolyFunction(p, u.width)


def ddx(u):
    """d/dx of u(x): (P' - w x P) exp(-w x^2/2)."""
    n = u.poly.size
    dp = u.poly[1:] * np.arange(1, n)
    p = np.zeros(n + 1, dtype=complex)
    p[: max(n - 1, 0)] = dp
    p[1:] -= u.width * u.poly
    return GaussPolyFunction(p, u.width)


def euler_half(u):
    """(x d/dx + 1/2) u."""
    v = x_times(ddx(u))
    n = max(v.poly.size, u.poly.size)
    p = np.zeros(n, dtype=complex)
    p[: v.poly.size] += v.poly
    p[: u.poly.size] += 0.5 * u.poly
    return GaussPolyFunction(p, u.width)


def _taylor_at_zero(u, n_top):
    # Taylor coefficients of u: convolution of P with the Gaussian series.
    c = np.zeros(n_top + 1, dtype=complex)
    g = np.zeros(n_top + 1, dtype=complex)
    half = -0.5 * u.width
    term = 1.0 + 0.0j
    for j in range(0, n_top + 1, 2):
        g[j] = term
        term *= half / (j // 2 + 1)
    for m, pm in enumerate(u.poly[: n_top + 1]):
        if pm != 0:
            c[m:] += pm * g[: n_top + 1 - m]
    return c


def t_plus(u, n_top):
    """Entries u^(n)(0)/sqrt(n!) for n = 0..n_top."""
    c = _taylor_at_zero(u, n_top)
    # u^(n)(0)/sqrt(n!) = sqrt(n!) * c_n
    fac = np.exp(0.5 * np.array([math.lgamma(n + 1) for n in range(n_top + 1)]))
    return fac * c


def t_minus(u, n_top):
    """Entries (1/sqrt(n!)) * integral of x^n u(x) dx for n = 0..n_top."""
    deg = u.poly.size - 1
    top = n_top + deg
    mom = np.zeros(top + 1, dtype=complex)
    mom[0] = cmath.sqrt(2.0 * math.pi / u.width)
    for j in range(0, top - 1, 2):
        mom[j + 2] = (j + 1) / u.width * mom[j]
    out = np.zeros(n_top + 1, dtype=complex)
    for n in range(n_top + 1):
        out[n] = np.dot(u.poly, mom[n : n + deg + 1])
        out[n] *= math.exp(-0.5 * math.lgamma(n + 1))
    return out
