"""Complex special-function kernel.

The branch transforms, Harish-Chandra coefficients and trace identities
rest on the primitives implemented here: the principal-branch complex
log-Gamma, a three-term recurrence that advances any number of stacked
columns together and yields its rows block by block (the Taylor
coefficients of (1+ix)^a (1-ix)^b and the moment tables of the branch
transforms, one table or a whole sweep of them at once), the logarithm
of the regularized line integral of the same two-factor function, the
periodic-trapezoid levels of a function on the circle, the conical
Legendre function by that quadrature, and the traces' geometric series.
"""

import cmath
import math

import numpy as np

from .errors import AccuracyError, DomainError, PoleError, check_finite

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


def is_gamma_pole(z):
    """True if z is exactly a non-positive integer (a pole of Gamma);
    DomainError if z is not finite."""
    z = complex(z)
    check_finite("is_gamma_pole", z=z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


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
    check_finite("log_gamma", z=z)
    if is_gamma_pole(z):
        raise PoleError(f"log_gamma: pole at z = {z}")
    if z.real >= 0.5:
        return _log_gamma_right(z)
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    # Im z >= 0, Re z < 0.5: reflection with the continuous log-sin.
    return _LOG_PI - _log_sin_pi_upper(z) - _log_gamma_right(1.0 - z)


def recurrence_blocks(a, s, e, x0, n_top, rows):
    """Rows x_0..x_{n_top} of the forward three-term recurrence

        (n+1+e) x_{n+1} = a x_n + (s-(n-1)) x_{n-1},   x_{-1} = 0,

    one column per entry of a, s, e and the seed x0 (scalars broadcast),
    yielded as (n0, x[n0:n1]) in blocks of `rows` rows (the last may be
    shorter).  Every column advances together, one row per step.  Only the
    block and the two rows before it are held: the next block overwrites
    the yielded buffer, which the caller may change in place.  Products
    are formed from separately rounded real and imaginary parts, as in
    scalar complex arithmetic, so each column equals a one-column scalar
    run bit for bit, whatever the columns beside it and the block size;
    numpy's SIMD complex multiply fuses one product and would not.
    Overflow gives inf/nan entries without a warning; callers check them.
    """
    if n_top < 0:
        raise DomainError("recurrence_blocks: n_top must be >= 0")
    if rows < 1:
        raise DomainError("recurrence_blocks: rows must be >= 1")
    a, s, e, x0 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=complex)) for v in (a, s, e, x0)))
    rows = min(rows, n_top + 1)
    # rows 0 and 1 carry x_{n0-2} and x_{n0-1}; x_{-2} = x_{-1} = 0
    buf = np.zeros((rows + 2, a.size), dtype=complex)
    xr, xi = buf.real, buf.imag
    ar, ai, sr, si = np.array([a.real, a.imag, s.real, s.imag])
    cr, t1, t2, t3 = np.empty((4, a.size))
    d = np.empty(a.size, dtype=complex)
    for n0 in range(0, n_top + 1, rows):
        n1 = min(n0 + rows, n_top + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, n in enumerate(range(n0, n1), start=2):
                if n == 0:
                    buf[i] = x0
                    continue
                # step n - 1 -> n in the buffers: xr = (ar qr - ai qi) +
                # (cr pr - si pi), xi = (ar qi + ai qr) + (cr pi + si pr)
                qr, qi, pr, pi = xr[i - 1], xi[i - 1], xr[i - 2], xi[i - 2]
                np.subtract(sr, n - 2, out=cr)
                for x, op, u, v, w, z in ((xr[i], np.subtract, qr, qi, pr, pi),
                                          (xi[i], np.add, qi, qr, pi, pr)):
                    op(np.multiply(ar, u, t1), np.multiply(ai, v, t2), t1)
                    op(np.multiply(cr, w, t2), np.multiply(si, z, t3), t2)
                    np.add(t1, t2, x)
                np.divide(buf[i], np.add(float(n), e, out=d), out=buf[i])
        block = buf[2:n1 - n0 + 2]
        buf[:2] = buf[n1 - n0:n1 - n0 + 2]
        yield n0, block


def two_factor_columns(alpha, beta):
    """(a, s, e, x0) of recurrence_blocks whose columns are the Taylor
    coefficients a_n of (1+ix)^alpha (1-ix)^beta, exact by
    (1+x^2) f' = (i(alpha-beta) + (alpha+beta) x) f:
        (n+1) a_{n+1} = i(alpha-beta) a_n + (alpha+beta-(n-1)) a_{n-1}.
    Both fundamental solutions are polynomially bounded, so the forward
    recurrence is stable."""
    return 1j * (alpha - beta), alpha + beta, 0.0, 1.0


def log_beta_line(alpha, beta):
    """log of the regularized integral of (1+ix)^alpha (1-ix)^beta over R.

    Value: pi 2^(alpha+beta+2) Gamma(-alpha-beta-1) / (Gamma(-alpha) Gamma(-beta)).
    Raises PoleError when Gamma(-alpha-beta-1) has a pole, and DomainError
    when Gamma(-alpha) or Gamma(-beta) has one, where the value is zero and
    has no logarithm.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    check_finite("log_beta_line", alpha=alpha, beta=beta)
    c = -alpha - beta - 1.0
    if is_gamma_pole(c):
        raise PoleError(
            f"beta line integral: Gamma pole at -alpha-beta-1 = {c}")
    if is_gamma_pole(-alpha) or is_gamma_pole(-beta):
        raise DomainError("log_beta_line: value is zero (denominator pole)")
    return (_LOG_PI + (alpha + beta + 2.0) * _LOG_2 + log_gamma(c)
            - log_gamma(-alpha) - log_gamma(-beta))


_CONICAL_TOL = 1e-12

# Read-only half-angle tables, _half_cos2(n, 1) per level n, built once per
# process and shared by every quadrature (_odd_cos2): n/2 floats per
# level n, 16 MiB for all the levels up to the 2^21 cap.
_ODD_COS2 = {}

# Node cap of the trapezoid levels, and the largest t legendre_conical
# resolves: past ln(2^21/pi) ~ 13.41 its width-2e^{-t} peak at theta = pi
# is narrower than the finest grid's spacing, and every level agrees on a
# wrong value (1.2e-13 at lam = 1, t = 120, where P ~ e^{-60}).
_CONICAL_MAX_NODES = 1 << 21
_CONICAL_MAX_T = math.log(_CONICAL_MAX_NODES / math.pi)


def _half_cos2(n, start):
    """cos(theta_k / 2)^2 at theta_k = 2 pi k / n for k in range(start, n,
    start + 1): every node of level n from start = 0, its odd ones from 1."""
    theta = 2.0 * math.pi * np.arange(start, n, start + 1) / n
    return np.cos(theta / 2.0) ** 2


def _odd_cos2(n):
    if n not in _ODD_COS2:
        _ODD_COS2[n] = _half_cos2(n, 1)
        _ODD_COS2[n].flags.writeable = False
    return _ODD_COS2[n]


def _conical_nodes(b, t, cos2):
    """(cosh t + sinh t cos theta)^b at the nodes whose cos(theta/2)^2 is
    cos2, grouped to avoid the cancellation at theta = pi that would cost
    a factor e^{2t} in precision."""
    base = math.exp(-t) + 2.0 * math.sinh(t) * cos2
    return np.exp(b * np.log(base))


def trapezoid_levels(values_at):
    """Yield (mean, nodes) per periodic-trapezoid level n = 16, 32, ...,
    _CONICAL_MAX_NODES, where nodes = values_at(cos(theta_k/2)^2) at
    theta_k = 2 pi k / n.  Level n is the even nodes of level 2n bit for
    bit, so each doubling evaluates only its odd nodes (from _odd_cos2),
    interleaved into the previous array.  The mean is np.mean below 2^14
    nodes and the exactly rounded sum (math.fsum) over n from there on:
    plain summation wanders at eps times the largest node.
    """
    n = 16
    nodes = values_at(_half_cos2(n, 0))
    while True:
        if n < 1 << 14:
            mean = complex(np.mean(nodes))
        else:
            mean = complex(math.fsum(nodes.real) / n,
                           math.fsum(nodes.imag) / n)
        yield mean, nodes
        if 2 * n > _CONICAL_MAX_NODES:
            return
        n *= 2
        new = np.empty(n, dtype=nodes.dtype)
        new[0::2] = nodes
        new[1::2] = values_at(_odd_cos2(n))
        nodes = new


def legendre_conical(lam, t):
    """P_{-1/2 + i lam}(cosh t) for real lam and 0 <= t <= _CONICAL_MAX_T
    (~13.41); a larger t raises DomainError.

    Periodic-trapezoid quadrature of the circle integral, doubling until
    two levels differ by at most _CONICAL_TOL * max(1, |value|) and the
    imaginary residue (the exact value is real) is at most 1e-12;
    AccuracyError if _CONICAL_MAX_NODES nodes do not get there.
    """
    check_finite("legendre_conical", lam=lam, t=t)
    if t < 0:
        raise DomainError("legendre_conical: t must be >= 0")
    if t > _CONICAL_MAX_T:
        raise DomainError(
            f"legendre_conical: t={t} (lam={lam}) is past the quadrature's "
            f"envelope t <= {_CONICAL_MAX_T!r}, where its theta = pi peak "
            f"is narrower than the {_CONICAL_MAX_NODES}-node grid")
    if t == 0.0:
        return 1.0
    b = -0.5 + 1j * lam
    prev = change = None
    for val, _ in trapezoid_levels(lambda cos2: _conical_nodes(b, t, cos2)):
        if prev is not None:
            change = abs(val - prev)
            if (change <= _CONICAL_TOL * max(1.0, abs(val))
                    and abs(val.imag) <= 1e-12):
                return val.real
        prev = val
    raise AccuracyError(
        f"legendre_conical: no convergence for lam={lam}, t={t} at "
        f"tol={_CONICAL_TOL} with {_CONICAL_MAX_NODES} nodes (last change "
        f"{change:.3g}, imaginary residue {abs(prev.imag):.3g})",
        achieved=change)


# geometric_sum's term budget: t >= ~6.2e-4 at tol 1e-9 (README, --t)
_SERIES_MAX_TERMS = 1 << 16


def geometric_sum(t, p0, p1, c, tol):
    """(sum, tail): sum_{n<N} (p0 + p1 n) x^(n+c), x = e^-t, t > 0, for
    the least N whose closed-form tail |x^(N+c) ((p0 + p1 N)/(1 - x) +
    p1 x/(1 - x)^2)| is at most tol/2, with 1 - x = -expm1(-t) and the
    terms summed exactly rounded; DomainError naming t past
    _SERIES_MAX_TERMS terms (or when the tail is not finite)."""
    if not t > 0:
        raise DomainError(f"geometric_sum: t must be > 0, got {t!r}", value=t)
    check_finite("geometric_sum", t=t, p0=p0, p1=p1, c=c, tol=tol)
    gap = -math.expm1(-t)
    a, b, lag = p0 / gap, p1 / gap, math.exp(-t) / gap
    terms = []
    for n in range(_SERIES_MAX_TERMS + 1):
        xn = math.exp(-t * (n + c))
        tail = abs(xn * (a + b * (n + lag)))
        if tail <= tol / 2.0:
            return math.fsum(terms), tail
        terms.append((p0 + p1 * n) * xn)
    raise DomainError(f"geometric_sum: tail above tol/2 = {tol / 2.0!r} "
                      f"after {_SERIES_MAX_TERMS} terms at t={t!r}", value=t)
