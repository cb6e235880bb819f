"""Complex special-function kernel.

The branch transforms, Harish-Chandra coefficients and trace identities
rest on the primitives implemented here: the principal-branch complex
log-Gamma, a column-vectorized three-term recurrence that yields the
Taylor coefficients of (1+ix)^a (1-ix)^b and the moment tables of the
branch transforms, the logarithm of the regularized line integral of the
same two-factor function, and the conical Legendre function by
periodic-trapezoid quadrature.  It also provides Gamma ratios with an
explicit pole-limit mode.
"""

import cmath
import math

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

# Lanczos, g = 7, 9 coefficients.  Standard double-precision set,
# ~13 significant digits on the right half-plane.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)


def is_gamma_pole(z, tol=0.0):
    """True if z is a non-positive integer (a pole of Gamma), within tol;
    DomainError if z is not finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Gamma argument must be finite, got {z}")
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def _log_gamma_right(z):
    # Lanczos on Re z >= 0.5; analytic there, hence the principal branch.
    w = z - 1.0
    series = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        series += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(series)


def _log_sin_pi_upper(z):
    # Continuous branch of log sin(pi z) for Im z >= 0; the combination
    # below keeps log Gamma principal across the reflection.
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}),  |e^{2 i pi z}| <= 1.
    return (-_LOG_2 + 1j * math.pi / 2.0) - 1j * math.pi * z \
        + cmath.log(1.0 - cmath.exp(2j * math.pi * z))


def log_gamma(z):
    """Principal-branch log Gamma(z); raises PoleError at non-positive integers."""
    z = complex(z)
    if is_gamma_pole(z):
        raise PoleError(f"log_gamma: pole at z = {z}")
    if z.real >= 0.5:
        return _log_gamma_right(z)
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    # Im z >= 0, Re z < 0.5: reflection with the continuous log-sin.
    return _LOG_PI - _log_sin_pi_upper(z) - _log_gamma_right(1.0 - z)


def gamma_ratio(z, w, pole_limit=False):
    """Gamma(z)/Gamma(w) via log differences.

    With pole_limit=True both arguments must be poles z = -m, w = -n and
    the limiting value (-1)^(m-n) n!/m! along a common approach is
    returned; this is the rule that turns Gamma(-n-2*i*lam)/Gamma(-2*i*lam)
    into (-1)^n/n! at lam = 0.
    """
    z = complex(z)
    w = complex(w)
    pz, pw = is_gamma_pole(z), is_gamma_pole(w)
    if pole_limit:
        if not (pz and pw):
            raise DomainError(
                "gamma_ratio: pole_limit requires both arguments at poles, "
                f"got z = {z}, w = {w}")
        m = -round(z.real)
        n = -round(w.real)
        sign = -1.0 if (m - n) % 2 else 1.0
        return complex(sign * math.exp(math.lgamma(n + 1) - math.lgamma(m + 1)))
    if z == w:
        return 1.0 + 0.0j
    if pz and pw:
        raise DomainError(
            "gamma_ratio: both arguments are poles; pass pole_limit=True "
            "to take the limit")
    if pz:
        raise PoleError(f"gamma_ratio: numerator pole at z = {z}")
    if pw:
        return 0.0 + 0.0j
    return cmath.exp(log_gamma(z) - log_gamma(w))


def recurrence_columns(a, s, e, x0, n_max):
    """Columns x[:, j] of the forward three-term recurrence

        (n+1+e) x_{n+1} = a x_n + (s-(n-1)) x_{n-1},   x_{-1} = 0,

    for n = 0..n_max, with a, s, e and the seed x0 given per column
    (scalars broadcast).  Every column advances together, one row per step.
    Products are formed from separately rounded real and imaginary parts,
    as in scalar complex arithmetic, so each column equals a one-column
    scalar run bit for bit; numpy's SIMD complex multiply fuses one
    product and would not.  Overflow gives inf/nan entries without a
    warning; callers check the finished table.
    """
    if n_max < 0:
        raise DomainError("recurrence_columns: n_max must be >= 0")
    a, s, e, x0 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=complex)) for v in (a, s, e, x0)))
    x = np.zeros((n_max + 1, a.size), dtype=complex)
    x[0] = x0
    xr, xi = x.real, x.imag
    ar, ai, sr, si = a.real, a.imag, s.real, s.imag
    zero = np.zeros(a.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max):
            qr, qi = xr[n], xi[n]
            pr, pi = (xr[n - 1], xi[n - 1]) if n else (zero, zero)
            cr = sr - (n - 1)
            xr[n + 1] = (ar * qr - ai * qi) + (cr * pr - si * pi)
            xi[n + 1] = (ar * qi + ai * qr) + (cr * pi + si * pr)
            np.divide(x[n + 1], (n + 1.0) + e, out=x[n + 1])
    return x


def taylor_two_factor(alpha, beta, n_max):
    """Taylor coefficients a_n of (1+ix)^alpha (1-ix)^beta, n = 0..n_max.

    alpha and beta are scalars, giving a 1-D result, or equal-length 1-D
    arrays, giving one column per (alpha, beta) pair.  Uses the exact
    two-term recurrence obtained from
    (1+x^2) f' = (i(alpha-beta) + (alpha+beta) x) f:
        (n+1) a_{n+1} = i(alpha-beta) a_n + (alpha+beta-(n-1)) a_{n-1}.
    Both fundamental solutions are polynomially bounded, so the forward
    recurrence is stable.
    """
    if n_max < 0:
        raise DomainError("taylor_two_factor: n_max must be >= 0")
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    if alpha.shape != beta.shape or alpha.ndim > 1:
        raise DomainError("taylor_two_factor: alpha and beta must be scalars "
                          "or equal-length 1-D arrays")
    a = recurrence_columns(1j * (alpha - beta), alpha + beta, 0.0, 1.0, n_max)
    return a[:, 0] if alpha.ndim == 0 else a


def log_beta_line(alpha, beta):
    """log of the regularized integral of (1+ix)^alpha (1-ix)^beta over R.

    Value: pi 2^(alpha+beta+2) Gamma(-alpha-beta-1) / (Gamma(-alpha) Gamma(-beta)).
    Raises PoleError when Gamma(-alpha-beta-1) has a pole, and DomainError
    when Gamma(-alpha) or Gamma(-beta) has one, where the value is zero and
    has no logarithm.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    c = -alpha - beta - 1.0
    if is_gamma_pole(c):
        raise PoleError(
            f"beta line integral: Gamma pole at -alpha-beta-1 = {c}")
    if is_gamma_pole(-alpha) or is_gamma_pole(-beta):
        raise DomainError("log_beta_line: value is zero (denominator pole)")
    return (_LOG_PI + (alpha + beta + 2.0) * _LOG_2 + log_gamma(c)
            - log_gamma(-alpha) - log_gamma(-beta))


# Nodes per block of the quadrature: every temporary array stays at
# 512 KiB or below however far the node count doubles.
_CONICAL_BLOCK = 1 << 15


def _conical_nodes(b, t, n, start, stop, stride):
    """(cosh t + sinh t cos theta_k)^b at theta_k = 2 pi k / n for k in
    range(start, stop, stride)."""
    theta = 2.0 * math.pi * np.arange(start, stop, stride) / n
    # cosh t + sinh t cos(theta), grouped to avoid the cancellation at
    # theta = pi that would cost a factor e^{2t} in precision
    base = math.exp(-t) + 2.0 * math.sinh(t) * np.cos(theta / 2.0) ** 2
    return np.exp(b * np.log(base))


def _exact_parts(x):
    """A few floats whose exact sum is the exact sum of the 1-D array x.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    2008): with 2^m >= n + 2, max|x| < 2^e and sigma = 2^(m+e), every
    q = (sigma + x) - sigma is a multiple of ulp(sigma)/2 and |sum q| <
    sigma, so np.sum(q) is exact in any order and x - q is exact.  Each
    pass strips at least 52 - m bits; two or three passes finish a block
    of quadrature nodes.  A block holding inf or nan, or one so large
    that sigma would overflow, goes to math.fsum whole, which keeps its
    inf, nan and ValueError behaviour.
    """
    m = (x.size + 1).bit_length()
    top = float(np.max(np.abs(x), initial=0.0))
    if not top < math.ldexp(1.0, 1023 - m):
        return [math.fsum(x.tolist())]
    parts = []
    while top > 0.0:
        sigma = math.ldexp(1.0, m + math.frexp(top)[1])
        q = (sigma + x) - sigma
        parts.append(float(np.sum(q)))
        x = x - q
        top = float(np.max(np.abs(x)))
    return parts


def legendre_conical(lam, t, tol=1e-12, max_nodes=1 << 21):
    """P_{-1/2 + i lam}(cosh t) for real lam and 0 <= t <= 709.78, where
    2 sinh t is still a finite float.

    Periodic-trapezoid quadrature of the circle integral with node doubling
    until two levels differ by at most tol * max(1, |value|), tol finite
    and > 0: relative for |P| >= 1, absolute below that.  The exact value
    is real; doubling continues until the imaginary residue is below 1e-12,
    after which it is discarded.  max_nodes must allow two levels (>= 32)
    so that convergence can be tested; AccuracyError if the level after
    the last one it allows is still unconverged.

    The nodes of level n are the even nodes of level 2n, bit for bit, so
    each doubling evaluates only its n new (odd) nodes.  Below 2^14 nodes
    they are interleaved into the previous level's array and averaged by
    np.mean.  From 2^14 nodes on the real and imaginary sums are kept as
    exact parts (_exact_parts), block by block, and one math.fsum over
    all parts gives the exactly rounded mean: plain summation wanders at
    the level of eps * e^{t/2}, above tight tolerances once t is large.
    """
    if not (math.isfinite(lam) and math.isfinite(t)):
        raise DomainError(
            f"legendre_conical: lam and t must be finite, got {lam}, {t}")
    if t < 0:
        raise DomainError("legendre_conical: t must be >= 0")
    try:
        # the quadrature's base reaches 2 sinh t at theta = 0
        finite = math.isfinite(2.0 * math.sinh(t))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"legendre_conical: 2 sinh t is not a finite float at t={t} "
            f"(lam={lam}); t must stay below about 709.78")
    if max_nodes < 32 or not (math.isfinite(tol) and tol > 0):
        raise DomainError(
            "legendre_conical: max_nodes must be >= 32 and tol finite and > 0, "
            f"got max_nodes={max_nodes}, tol={tol}")
    if t == 0.0:
        return 1.0
    b = -0.5 + 1j * lam
    n = 16
    nodes = _conical_nodes(b, t, n, 0, n, 1)
    re = im = prev = None
    while True:
        if re is None:
            val = complex(np.mean(nodes))
        else:
            val = complex(math.fsum(re) / n, math.fsum(im) / n)
        if (prev is not None
                and abs(val - prev) <= tol * max(1.0, abs(val))
                and abs(val.imag) <= 1e-12):
            break
        if 2 * n > max_nodes:
            raise AccuracyError(
                f"legendre_conical: no convergence for lam={lam}, "
                f"t={t} at tol={tol} with {max_nodes} nodes (last "
                f"change {abs(val - prev):.3g}, imaginary residue "
                f"{abs(val.imag):.3g})", achieved=abs(val - prev))
        prev = val
        n *= 2
        if re is None:
            # the new level's array holds the same values in the same order
            # as a whole-level evaluation, so np.mean sums it identically
            new = np.empty(n, dtype=complex)
            new[0::2] = nodes
            new[1::2] = _conical_nodes(b, t, n, 1, n, 2)
            nodes = new
            if n >= 1 << 14:
                re, im = _exact_parts(nodes.real), _exact_parts(nodes.imag)
                nodes = None
        else:
            for lo in range(1, n, 2 * _CONICAL_BLOCK):
                odd = _conical_nodes(b, t, n, lo,
                                     min(lo + 2 * _CONICAL_BLOCK, n), 2)
                re += _exact_parts(odd.real)
                im += _exact_parts(odd.imag)
    return val.real

