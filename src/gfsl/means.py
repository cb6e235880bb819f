"""Spherical means per spectral mode: resonance expansion and wave residual.

The spherical function phi_lam(t) = P_{-1/2+i lam}(cosh t) is computed by
quadrature (specfun.legendre_conical) and compared against its large-time
expansion in decaying exponentials with explicit Gamma-ratio coefficients.
The renormalized mean e^{t/2} phi_lam satisfies the shifted wave equation
up to an e^{-2t} remainder; we fit that decay exponent per mode.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .specfun import is_gamma_pole, legendre_conical, log_gamma

_SQRT_PI = math.sqrt(math.pi)


def hc_coefficient(m, lam):
    """Even expansion coefficient (1/pi) G(m+1/2) G(i lam - m) / (m! G(1/2+i lam-m)).

    Odd-index coefficients vanish identically; lam = 0 is a pole.
    """
    if m < 0:
        raise DomainError("hc_coefficient: m must be >= 0")
    if is_gamma_pole(1j * lam - m):
        raise PoleError(f"hc_coefficient: pole at lam = {lam}")
    val = (math.lgamma(m + 0.5) - math.lgamma(m + 1)
           + log_gamma(1j * lam - m) - log_gamma(0.5 + 1j * lam - m))
    return cmath.exp(val) / math.pi


def hc_partial_sum(lam, t, M):
    """Partial resonance expansion of the spherical function at time t > 0.

    e^{-t(1/2 - i lam)} sum_{m<=M} e^{-2mt} W_{2m,lam} plus the conjugate
    branch (lam -> -lam); the imaginary residue is checked below 1e-12.
    """
    if t <= 0:
        raise DomainError("hc_partial_sum: t must be > 0")
    if M < 0:
        raise DomainError("hc_partial_sum: M must be >= 0")
    total = 0.0 + 0.0j
    for sign in (+1.0, -1.0):
        branch = 0.0 + 0.0j
        for m in range(M + 1):
            branch += math.exp(-2.0 * m * t) * hc_coefficient(m, sign * lam)
        total += cmath.exp(-t * (0.5 - 1j * sign * lam)) * branch
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise DomainError(
            f"hc_partial_sum: imaginary residue {total.imag:.3e} too large")
    return total.real


@dataclass
class WaveSlopeFit:
    slope: float
    intercept: float
    residuals: np.ndarray
    t_grid: np.ndarray
    floor_limited: bool


def wave_residual(lam, t_grid=None, h=1e-3, shift=None):
    """Fit the decay exponent of the shifted-wave-equation residual.

    E(t) = e^{t/2} phi_lam(t); the residual is the centered second
    difference plus shift * E with shift defaulting to lam^2 (the shifted
    wave multiplier).  The residual oscillates at frequency lam, so the
    fitted quantity is the phase-quadrature envelope
    hypot(r(t), e^{2q} r(t+q)), q = pi/(2 lam), which removes the phase
    nulls without touching the decay exponent.  Passing
    shift = lam^2 + 1/4 is the negative control: the unshifted equation
    leaves an O(1) defect and the slope collapses toward 0.
    """
    if h > 1e-3 or h <= 0:
        raise DomainError("wave_residual: require 0 < h <= 1e-3")
    if t_grid is None:
        t_grid = np.linspace(2.0, 6.0, 9)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.min() < 2.0 - 1e-12 or t_grid.max() > 6.0 + 1e-12:
        raise DomainError("wave_residual: t_grid must lie in [2, 6]")
    if shift is None:
        shift = lam * lam

    cache = {}

    def big_e(t):
        # each distinct t is evaluated once: the shift term and the noise
        # floor reuse the values the second differences computed
        key = float(t)
        if key not in cache:
            phi = legendre_conical(lam, t, tol=1e-14)
            cache[key] = math.exp(t / 2.0) * phi
        return cache[key]

    def residual_at(t):
        second = (big_e(t + h) - 2.0 * big_e(t) + big_e(t - h)) / (h * h)
        return second + shift * big_e(t)

    quarter = math.pi / (2.0 * lam) if lam > 0 else 0.0
    res = np.array([residual_at(t) for t in t_grid])
    res_q = np.array([residual_at(t + quarter) for t in t_grid])
    env = np.hypot(res, math.exp(2.0 * quarter) * res_q)
    # second-difference noise floor: eps |E| / h^2
    floor = 16.0 * 2.2e-16 * max(abs(big_e(t)) for t in t_grid) / (h * h)
    floor_limited = bool(np.max(env) < 10.0 * floor)
    slope, intercept = np.polyfit(t_grid, np.log(env), 1)
    return WaveSlopeFit(float(slope), float(intercept), res, t_grid,
                        floor_limited)


def w_symbol_defect(lam):
    """|sqrt(pi) e^{i pi/4} sqrt(lam) W_{0,lam} - 1|; O(1/(8 lam)) at large lam."""
    if lam <= 0:
        raise DomainError("w_symbol_defect: lam must be > 0")
    w0 = hc_coefficient(0, lam)
    return abs(_SQRT_PI * cmath.exp(1j * math.pi / 4.0) * math.sqrt(lam) * w0 - 1.0)
