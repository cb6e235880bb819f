"""Independent oracles used by the test suite.

Each oracle follows a different computational route from the library code
it checks: arbitrary-precision special functions (mpmath), brute-force
series products, adaptive quadrature, characteristics ODE integration, and
dense matrix exponentials.  The row-at-a-time intertwining audits, the
scalar global-trace loop and the whole-array conical quadrature are the
exception: they are the references the blocked library audit, the
vectorized global trace and the block-wise quadrature must match exactly.
"""

import cmath
import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gfsl.discrete import rr_multiplicity
from gfsl.global_traces import POST_RR, PRE_RR, sqrt_shifted
from gfsl.spherical import KBandedOperator

mp.mp.dps = 30


def loggamma_oracle(z):
    return complex(mp.loggamma(complex(z)))


def legendre_oracle(lam, t):
    """P_{-1/2+i lam}(cosh t) in high precision (hypergeometric route)."""
    val = mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(t))
    return complex(val)


def cauchy_two_factor(alpha, beta, n_max):
    """[x^n](1+ix)^alpha (1-ix)^beta by brute-force binomial convolution."""

    def binom_series(expo, sign):
        c = np.zeros(n_max + 1, dtype=complex)
        c[0] = 1.0
        for n in range(n_max):
            c[n + 1] = c[n] * (expo - n) / (n + 1) * (sign * 1j)
        return c

    c1 = binom_series(complex(alpha), +1)
    c2 = binom_series(complex(beta), -1)
    return np.convolve(c1, c2)[: n_max + 1]


def recurrence_scalar(a, s, e, x0, n_max):
    """One column of (n+1+e) x_{n+1} = a x_n + (s-(n-1)) x_{n-1}, scalar loop."""
    x = np.zeros(n_max + 1, dtype=complex)
    x[0] = x0
    for n in range(n_max):
        prev = x[n - 1] if n else 0.0
        x[n + 1] = (a * x[n] + (s - (n - 1)) * prev) / (n + 1.0 + e)
    return x


def beta_line_quad(alpha, beta):
    """Adaptive quadrature of the line integral (needs Re(alpha+beta) < -1)."""
    a, b = complex(alpha), complex(beta)
    f = lambda x: (1 + 1j * x) ** a * (1 - 1j * x) ** b
    return complex(mp.quad(f, [-mp.inf, 0, mp.inf]))


def _mp_gausspoly(poly, width):
    coeffs = [mp.mpc(c) for c in poly]
    w = mp.mpc(width)

    def fn(x):
        acc = mp.mpc(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc * mp.exp(-w * x * x / 2)

    return fn


def derivative_oracle(poly, width, n):
    """n-th derivative at 0 of P(x) exp(-w x^2/2), high-precision differences."""
    return complex(mp.diff(_mp_gausspoly(poly, width), 0, n))


def moment_quad_oracle(poly, width, n):
    """Integral of x^n P(x) exp(-w x^2/2) over R by mpmath quadrature."""
    fn = _mp_gausspoly(poly, width)
    return complex(mp.quad(lambda x: x ** n * fn(x), [-mp.inf, 0, mp.inf]))


def characteristics_correlation(lam, k_out, k_in, tau, nodes=1024):
    """<psi_kout | exp(tau X) psi_kin> by flowing characteristics.

    Integrates theta' = cos(theta) and the accumulated weight
    w' = sin(theta) with a tight adaptive Runge-Kutta, then evaluates the
    matrix element by periodic-trapezoid quadrature.  lam may be complex
    (complementary regime via lam = i nu).
    """
    b = -0.5 + 1j * complex(lam)
    theta0 = 2.0 * math.pi * np.arange(nodes) / nodes

    def rhs(_t, y):
        theta = y[:nodes]
        return np.concatenate([np.cos(theta), np.sin(theta)])

    y0 = np.concatenate([theta0, np.zeros(nodes)])
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853",
                    rtol=1e-12, atol=1e-13)
    theta_t = sol.y[:nodes, -1]
    w = sol.y[nodes:, -1]
    integrand = (np.exp(-1j * k_out * theta0) * np.exp(b * w)
                 * np.exp(1j * k_in * theta_t) / (2.0 * math.pi))
    return complex(np.mean(integrand) * 2.0 * math.pi)


def galerkin_exp_oracle(x_op_dense, tau):
    """Dense matrix exponential (scaling and squaring) of the truncated generator."""
    return expm(tau * x_op_dense)


def hc_residual_analytic(lam, t, m_top=30):
    """(d^2/dt^2 + lam^2) of the renormalized spherical mean, termwise.

    Differentiates the resonance expansion of e^{t/2} phi_lam term by term:
    the (m, branch) term picks up the multiplier ((-2m + s i lam)^2 + lam^2)
    = 4m^2 - 4 s i m lam.
    """
    total = 0.0 + 0.0j
    for sign in (+1.0, -1.0):
        for m in range(1, m_top + 1):
            w = _hc_w(m, sign * lam)
            mult = 4.0 * m * m - 4j * m * sign * lam
            total += mult * w * np.exp((-2.0 * m + 1j * sign * lam) * t)
    return total.real


def _hc_w(m, lam):
    return complex(mp.gamma(m + 0.5) * mp.gamma(1j * lam - m)
                   / (mp.pi * mp.factorial(m) * mp.gamma(0.5 + 1j * lam - m)))


def i_nk_reference(lam, k, n):
    """Regularized moment integral by the binomial/beta closed form, mpmath.

    I_{n,k} = pi 2^(n+1+2 i lam) (2i)^(-n) Gamma(-n-2 i lam)
              * sum_j (-1)^(n-j) C(n,j) /
                (Gamma(1/2 - i lam - k - j) Gamma(1/2 - i lam + k - n + j)).
    """
    il = mp.mpc(0, 1) * mp.mpf(lam)
    total = mp.mpc(0)
    for j in range(n + 1):
        term = mp.binomial(n, j) / (mp.gamma(mp.mpf(0.5) - il - k - j)
                                    * mp.gamma(mp.mpf(0.5) - il + k - n + j))
        total += (-1) ** (n - j) * term
    pref = (mp.pi * mp.mpf(2) ** (n + 1 + 2 * il) / (2j) ** n
            * mp.gamma(-n - 2 * il))
    return complex(pref * total)


def _banded_row(op, row):
    """Interior column action of a tridiagonal KBandedOperator on one row."""
    return (op.diag[1:-1] * row[1:-1] + op.sup[1:-1] * row[2:]
            + op.sub[1:-1] * row[:-2])


def _row_loop_audit(rows, relations):
    """Intertwining residuals one coefficient row at a time.

    relations: name -> (op, coef(n), shift), stating
    coef(n) * rows[n + shift] = op applied to rows[n] on interior columns.
    """
    res = dict.fromkeys(relations, 0.0)
    n_rows = len(rows)
    for n in range(n_rows):
        for name, (op, coef, shift) in relations.items():
            if not 0 <= n + shift < n_rows:
                continue
            lhs = (coef(n) * rows[n + shift])[1:-1]
            rhs = _banded_row(op, rows[n])
            scale = max(float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))), 1e-300)
            res[name] = max(res[name],
                            float(np.max(np.abs(lhs - rhs))) / scale)
    return res


def intertwine_residual_rows(p, table, ops):
    """Row-loop reference for spherical.intertwine_residual."""
    plus = table.branch == "plus"
    b = p.b_plus if plus else p.b_minus
    usign = -1.0 if plus else 1.0
    ssign = 1.0 if plus else -1.0
    if table.branch == "minus_renormalized":
        usign, ssign = -usign, -ssign
    return _row_loop_audit(table.s, {
        "X": (ops["X"], lambda n: -n + b, 0),
        "U": (ops["U"],
              lambda n: usign * math.sqrt(n) * cmath.sqrt(n - 1 - 2 * b), -1),
        "S": (ops["S"],
              lambda n: ssign * cmath.sqrt(n - 2 * b) * math.sqrt(n + 1), 1),
    })


def intertwine_residual_ds_rows(l, table, ops):
    """Row-loop reference for discrete.intertwine_residual_ds."""
    npl, nmi, th = ops["Nplus"], ops["Nminus"], ops["Theta"]
    u_op = KBandedOperator(0, table.k_max, -0.5j * th.diag,
                           -0.5j * npl.sup, 0.5j * nmi.sub)
    s_op = KBandedOperator(0, table.k_max, 0.5j * th.diag,
                           -0.5j * npl.sup, 0.5j * nmi.sub)
    return _row_loop_audit(table.forward, {
        "X": (ops["X"], lambda n: -(n + l / 2.0), 0),
        "U": (u_op, lambda n: math.sqrt(n) * math.sqrt(n - 1 + l), -1),
        "S": (s_op, lambda n: -math.sqrt(n + l) * math.sqrt(n + 1), 1),
    })


def global_trace_loop(spec, t, form, q_max=200):
    """Scalar-loop reference for global_traces.global_trace."""
    x = math.exp(-t)
    sph = 0.0
    for mu, d in spec.entries:
        r = sqrt_shifted(mu)
        sph += d * (cmath.cos(t * r)).real
    base = 1.0 + 2.0 * math.exp(-t / 2.0) / (1.0 - x) * sph
    if form == PRE_RR:
        ds = 0.0
        for q in range(1, q_max + 1):
            ds += rr_multiplicity(spec.genus, 2 * q) * x ** q
        return base + 2.0 / (1.0 - x) * ds
    assert form == POST_RR
    chi = abs(2 - 2 * spec.genus)
    return base + 2.0 * x / (1.0 - x) + chi * x * (1.0 + x) / (1.0 - x) ** 3


def legendre_conical_whole(lam, t, tol=1e-12, max_nodes=1 << 21):
    """Whole-array reference for specfun.legendre_conical: every doubling
    evaluates all n nodes in one array and fsums its real and imaginary
    parts."""
    if t == 0.0:
        return 1.0
    b = -0.5 + 1j * lam
    n, prev = 16, None
    while n <= max_nodes:
        theta = 2.0 * math.pi * np.arange(n) / n
        base = math.exp(-t) + 2.0 * math.sinh(t) * np.cos(theta / 2.0) ** 2
        nodes = np.exp(b * np.log(base))
        if n >= 1 << 14:
            val = complex(math.fsum(nodes.real) / n, math.fsum(nodes.imag) / n)
        else:
            val = complex(np.mean(nodes))
        if (prev is not None
                and abs(val - prev) <= tol * max(1.0, abs(val))
                and abs(val.imag) <= 1e-12):
            return val.real
        prev = val
        n *= 2
    raise AssertionError("legendre_conical_whole: no convergence")


def bolza_words_oracle(max_letters=2):
    """Brute-force lengths from all reduced words of length <= max_letters."""
    s2 = math.sqrt(2.0)
    t = np.array([[1 + s2, math.sqrt(2 + 2 * s2)],
                  [math.sqrt(2 + 2 * s2), 1 + s2]])

    def rot(phi):
        return np.array([[math.cos(phi), -math.sin(phi)],
                         [math.sin(phi), math.cos(phi)]])

    gens = [rot(k * math.pi / 8) @ t @ rot(-k * math.pi / 8) for k in range(4)]
    letters = gens + [np.linalg.inv(g) for g in gens]
    lengths = set()
    frontier = [(np.eye(2), None)]
    for _ in range(max_letters):
        nxt = []
        for m, last in frontier:
            for i, a in enumerate(letters):
                if last is not None and (last + 4) % 8 == i:
                    continue
                mm = m @ a
                tr = abs(mm[0, 0] + mm[1, 1])
                if tr > 2 + 1e-12:
                    lengths.add(round(2 * math.acosh(tr / 2), 9))
                nxt.append((mm, i))
        frontier = nxt
    return sorted(lengths)
