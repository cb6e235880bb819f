"""Spherical means per spectral mode: resonance expansion and wave residual.

The spherical function phi_lam(t) = P_{-1/2+i lam}(cosh t) is computed by
quadrature (specfun.legendre_conical) and compared against its large-time
expansion in decaying exponentials with explicit Gamma-ratio coefficients:
one running sum of the lam branch, whose lam -> -lam image is its complex
conjugate, so the expansion is twice its real part.  The renormalized
mean e^{t/2} phi_lam satisfies the shifted wave equation up to an e^{-2t}
remainder; we fit that decay exponent per mode.
"""

import cmath
import math

import numpy as np

from .errors import AccuracyError, DomainError, PoleError, check_finite
from .specfun import is_gamma_pole, log_gamma, trapezoid_levels

_SQRT_PI = math.sqrt(math.pi)


def hc_coefficient(m, lam):
    """Even expansion coefficient (1/pi) G(m+1/2) G(i lam - m) / (m! G(1/2+i lam-m)).

    Odd-index coefficients vanish identically; lam = 0 is a pole.
    """
    if m < 0:
        raise DomainError("hc_coefficient: m must be >= 0")
    check_finite("hc_coefficient", lam=lam)
    if is_gamma_pole(1j * lam - m):
        raise PoleError(f"hc_coefficient: pole at lam = {lam}")
    val = (math.lgamma(m + 0.5) - math.lgamma(m + 1)
           + log_gamma(1j * lam - m) - log_gamma(0.5 + 1j * lam - m))
    return cmath.exp(val) / math.pi


def hc_partial_sum(lam, t, M):
    """Partial resonance expansions of the spherical function at time t > 0.

    The list of the M + 1 sums over m <= 0, 1, ..., M of e^{-t(1/2 - i lam)}
    e^{-2mt} W_{2m,lam} plus its lam -> -lam image, from one running sum.
    For real lam the image is the complex conjugate bit for bit
    (hc_coefficient and the prefactor are conjugate-symmetric), so each
    order is (0 + x) + x with x the real part of the one branch: what
    0j + P + conj(P) rounds to, the sign of zero included.
    """
    if not t > 0:
        raise DomainError("hc_partial_sum: t must be > 0")
    if M < 0:
        raise DomainError("hc_partial_sum: M must be >= 0")
    check_finite("hc_partial_sum", lam=lam, t=t)
    pre = cmath.exp(-t * (0.5 - 1j * lam))
    branch = 0.0 + 0.0j
    partial = []
    for m in range(M + 1):
        branch += math.exp(-2.0 * m * t) * hc_coefficient(m, lam)
        x = (pre * branch).real
        partial.append((0.0 + x) + x)
    return partial


# The time at which `gfsl means` compares the resonance expansion with the
# quadrature, and the last order it reports.
HC_T = 3.0
HC_M = 8

WAVE_T = np.linspace(2.0, 6.0, 9)

# The envelope of `gfsl means --lambda`.  Up to the last wave time
# 6 + pi/(2 lam) = WAVE_MAX_T the residual stays about 1000 times above
# its rounding scale (810 at lam = 0.2, t = 13.5); that scale grows like
# lam^2, the residual like sqrt(lam), and their least ratio is 60 at
# LAMBDA_MAX, 1 at 5000.  legendre_conical at HC_T takes 2^15 nodes there.
WAVE_MAX_T = 13.41
LAMBDA_MIN = math.pi / (2.0 * (WAVE_MAX_T - 6.0))
LAMBDA_MAX = 1000.0


def check_lambda(lam):
    """DomainError (carrying lam) unless LAMBDA_MIN <= lam <= LAMBDA_MAX."""
    if not LAMBDA_MIN <= lam <= LAMBDA_MAX:
        raise DomainError(
            f"expected numbers > 0 with 6 + pi/(2 lambda) <= {WAVE_MAX_T!r} "
            f"and lambda <= {LAMBDA_MAX!r}, the wave residual's envelope "
            f"({LAMBDA_MIN!r} <= lambda <= {LAMBDA_MAX!r}), got {lam!r}",
            value=lam)


def _wave_terms(b, t, shift, cos2):
    """e^{-t/2} r(t) per node psi_k, whose cos(psi_k/2)^2 is cos2.

    The warp tan(theta/2) = e^{t/2} tan(psi/2), periodic and analytic,
    keeps the trapezoid rule geometric (Trefethen & Weideman, SIAM Rev.
    56, 2014) and spreads the width-e^{-t} peak at theta = pi: C =
    cos(theta/2)^2 = cos2 / den, dtheta/dpsi = e^{t/2} / den.  B = e^{-t} +
    2 sinh t C has B'' = B, so f = B^b has f' = b g f, f'' = (b(b-1) g^2 +
    b) f with g = B'/B, and r = e^{t/2} (b(b-1) g^2 + b + b g + 1/4 +
    shift) f.
    """
    den = cos2 + math.exp(t) * (1.0 - cos2)
    c = cos2 / den
    base = math.exp(-t) + 2.0 * math.sinh(t) * c
    g = (2.0 * math.cosh(t) * c - math.exp(-t)) / base
    f = np.exp(b * np.log(base))
    return (((b * (b - 1.0) * g + b) * g + b + 0.25 + shift) * f
            * (math.exp(t / 2.0) / den))


def _wave_point(lam, t, shift):
    """(r(t), its rounding scale), doubling until two levels differ by at
    most that scale."""
    b = -0.5 + 1j * lam
    prev = None
    for val, terms in trapezoid_levels(
            lambda cos2: _wave_terms(b, t, shift, cos2)):
        # a node's relative rounding: a few eps, plus up to |b| t eps from
        # the phase lam log B of B^b
        scale = 1e-15 * (1.0 + abs(b) * t) * float(np.mean(np.abs(terms)))
        change = math.inf if prev is None else abs(val - prev)
        if change <= scale:
            return math.exp(t / 2.0) * np.array([val.real, scale])
        prev = val
    raise AccuracyError(f"wave_residual: no convergence for lam={lam}, t={t}",
                        achieved=change)


def wave_residual(lam, shift=None):
    """(slope, floor_limited): the fitted decay exponent of the
    shifted-wave-equation residual, and whether rounding limits it.

    E(t) = e^{t/2} phi_lam(t); the residual r = E'' + shift * E (shift
    defaults to lam^2, the shifted wave multiplier) is one quadrature per
    t of the integrand's exact t-derivatives (_wave_terms), never the
    Legendre ODE or the resonance expansion: every ODE solution has
    r = -2 e^{t/2} phi' / (e^{2t} - 1), and the check would be a
    tautology.  r oscillates at frequency lam, so the fitted quantity is
    the phase-quadrature envelope hypot(r(t), e^{2q} r(t+q)),
    q = pi/(2 lam), over WAVE_T; floor_limited means the whole envelope
    is below 10 times its rounding scale.  shift = lam^2 + 1/4 is the
    negative control: the unshifted equation leaves an O(1) defect and
    the slope collapses toward 0.
    """
    check_finite("wave_residual", lam=lam)
    check_lambda(lam)
    if shift is None:
        shift = lam * lam
    check_finite("wave_residual", shift=shift)
    quarter = math.pi / (2.0 * lam)
    res, floor = np.array([_wave_point(lam, t, shift) for t in WAVE_T]).T
    res_q, floor_q = math.exp(2.0 * quarter) * np.array(
        [_wave_point(lam, t + quarter, shift) for t in WAVE_T]).T
    env = np.hypot(res, res_q)
    floor_limited = bool(np.max(env) < 10.0 * np.max(np.hypot(floor, floor_q)))
    slope = float(np.polyfit(WAVE_T, np.log(env), 1)[0])
    return slope, floor_limited


def w_symbol_defect(lam):
    """|sqrt(pi) e^{i pi/4} sqrt(lam) W_{0,lam} - 1|; O(1/(8 lam)) at large lam."""
    if not lam > 0:
        raise DomainError("w_symbol_defect: lam must be > 0")
    check_finite("w_symbol_defect", lam=lam)
    w0 = hc_coefficient(0, lam)
    return abs(_SQRT_PI * cmath.exp(1j * math.pi / 4.0) * math.sqrt(lam) * w0 - 1.0)
