"""Independent oracles used by the test suite.

Each oracle follows a different computational route from the library code
it checks: arbitrary-precision special functions (mpmath), brute-force
series products, adaptive quadrature, characteristics ODE integration, and
dense matrix exponentials.  The row-at-a-time intertwining audit, the
scalar global-trace loop and the whole-array conical quadrature are the
exception: they are the references the blocked library audit, the
vectorized global trace, the level-by-level quadrature and the shared
Selberg orbit sum of `heat_pair` (`heat_pair_loop`) must match
exactly.  So are the
row-by-row `csv`-module Laplace loader (`laplace_csv_rows`), the
reference for the bulk `LaplaceSpectrum.from_csv`, and the
per-matrix Selberg class keyer (`ring_mul_one`, `psl_key_one`,
`ball_one`, `ClassKeyerOne`, `length_spectrum_one`), which writes the
exact ring product out as scalar integer formulas and keys each class by
a search over minimal-norm conjugates: the reference for the batched
ball, conjugates and powers, and for the classes, primitive lengths and
side-line pairs the library's octagon walk finds, and the order-by-order
resonance sums
(`hc_partial_sums_one`), the reference for the running sums of
`means.hc_partial_sum`, and the full-width table build
(`coeff_table_full_width`), the reference for the mirrored k < 0 half of
`spherical.coeff_table`.
"""

import cmath
import csv
import heapq
import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gfsl.errors import AccuracyError, DomainError
from gfsl.global_traces import rr_multiplicity
from gfsl.means import hc_coefficient
from gfsl.selberg import GaussianTestFn, identity_term
from gfsl.specfun import geometric_sum, recurrence_blocks

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


def hc_partial_sums_one(lam, t, M):
    """The partial resonance expansions for m_max = 0..M, each summed from
    scratch over m <= m_max: one branch sum per sign of lam, then the two
    branches into a complex zero.  The library's one-branch running sum
    must round to exactly these.  Each coefficient is computed once, so
    the whole list costs 2 (M + 1) coefficients."""
    coeff = {(m, sign): hc_coefficient(m, sign * lam)
             for m in range(M + 1) for sign in (+1.0, -1.0)}
    sums = []
    for m_max in range(M + 1):
        total = 0.0 + 0.0j
        for sign in (+1.0, -1.0):
            branch = 0.0 + 0.0j
            for m in range(m_max + 1):
                branch += math.exp(-2.0 * m * t) * coeff[m, sign]
            total += cmath.exp(-t * (0.5 - 1j * sign * lam)) * branch
        sums.append(total.real)
    return sums


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


def moment_seeds_mp(lam, K, renormalized=False):
    """M_0 of each moment column |k| <= K at 40 digits, each column from
    its own Gamma values: pi 2^(2b+2) Gamma(-2b-1) / (Gamma(-b-k)
    Gamma(-b+k)) with b = -1/2 + i lam, or renormalized Gamma(-b)^2 /
    (Gamma(-b-k) Gamma(-b+k)).  lam may be complex: i nu, or -lam for the
    tables the dual rows are taken from."""
    with mp.workdps(40):
        b = mp.mpf(-0.5) + mp.mpc(0, 1) * mp.mpc(lam)
        top = (mp.gamma(-b) ** 2 if renormalized
               else mp.pi * mp.mpf(2) ** (2 * b + 2) * mp.gamma(-2 * b - 1))
        return np.array([complex(top / (mp.gamma(-b - k) * mp.gamma(-b + k)))
                         for k in range(-K, K + 1)])


def coeff_table_full_width(spec):
    """One table of spherical._table_spec built over all its columns
    |k| <= K, as every table was built before the sweep went half-width:
    the columns k < 0 made from the description of k = 0..K (a odd in k;
    s, e and x0 even; phase(-k) = (-1)^k phase(k)), then one
    recurrence_blocks run over the 2K + 1 columns, scaled as
    np.multiply(pre, x) and then * phase."""
    n_top, K = spec.pre.size - 1, spec.phase.size - 1
    a, s, e, x0, phase = np.broadcast_arrays(*spec.columns, spec.phase)

    def full(col, sign=1.0):  # columns -K..K from k = 0..K
        return np.concatenate((sign * col[:0:-1], col))

    columns = full(a, -1.0), full(s), full(e), full(x0)
    phase = full(phase, (-1.0) ** np.arange(K, 0, -1))
    ((_, x),) = recurrence_blocks(*columns, n_top, n_top + 1)
    out = np.empty_like(x)
    out[...] = spec.pre[:, None]
    np.multiply(out, x, out=out)
    out *= phase
    return out


def gauge_log_mp(lam, branch, n_top):
    """spherical.gauge_log at 40 digits: L_n = sum_{j<n} (log(j + 1) -
    log(-2b + j)) / 2, n <= n_top, each log principal, b = b_+ for the
    plus branch and b_- for any other; lam may be i nu."""
    with mp.workdps(40):
        sign = 1 if branch == "plus" else -1
        c = 1 - 2 * sign * mp.mpc(0, 1) * mp.mpc(lam)
        out, acc = [], mp.mpc(0)
        for j in range(n_top + 1):
            out.append(complex(acc))
            acc += (mp.log(j + 1) - mp.log(c + j)) / 2
        return np.array(out)


def _branch_column_mp(lam, branch, N, k):
    """Column k of a branch table (plus, minus or minus_renormalized) as mpc
    values at the working precision, from its own recurrence run at column
    k itself (a negative k included): plus, t_n^+ sqrt(n!) e^{ik pi/2}
    [x^n] (1+ix)^(b+k) (1-ix)^(b-k); minus, t_n^- / sqrt(n!) e^{-ik pi/2}
    times the moments M_n = int x^n (1+ix)^(b_+ +k) (1-ix)^(b_+ -k) dx,
    renormalized by Gamma(1/2 - i lam) / (sqrt(pi) Gamma(-i lam)) and
    signed (-1)^n for minus_renormalized; each / sqrt(pi), with t_n =
    prod_{j<n} (-2b + j)^(-+1/2) and b = b_+ or b_-.  lam may be i nu, or
    real and negative."""
    lam = mp.mpc(lam)
    plus = branch == "plus"
    b = mp.mpf(-0.5) + (1 if plus else -1) * mp.mpc(0, 1) * lam
    if plus:
        a, s, e = 2 * mp.mpc(0, 1) * k, 2 * b, 0
        x = [mp.mpc(1)]
    else:
        a, s, e = -2 * mp.mpc(0, 1) * k, -1, 2 * mp.mpc(0, 1) * lam
        bm = mp.mpf(-0.5) + mp.mpc(0, 1) * lam
        top = (mp.gamma(-bm) ** 2 if branch == "minus_renormalized"
               else mp.pi * mp.mpf(2) ** (2 * bm + 2) * mp.gamma(-2 * bm - 1))
        x = [top / (mp.gamma(-bm - k) * mp.gamma(-bm + k))]
    for n in range(N):
        prev = x[n - 1] if n else 0
        x.append((a * x[n] + (s - (n - 1)) * prev) / (n + 1 + e))
    sign = 1 if plus else -1
    phase = mp.expjpi(sign * mp.mpf(k) / 2) / mp.sqrt(mp.pi)
    out, log_t, log_f = [], mp.mpc(0), mp.mpf(0)
    for n in range(N + 1):
        parity = -1 if branch == "minus_renormalized" and n % 2 else 1
        out.append(parity * mp.exp(log_t + sign * log_f / 2) * x[n] * phase)
        log_t += -sign * mp.log(-2 * b + n) / 2
        log_f += mp.log(n + 1)
    return out


def branch_table_mp(lam, branch, N, k):
    """Column k of spherical.coeff_table(lam, N, K, branch), |k| <= K, at 40
    digits (_branch_column_mp)."""
    with mp.workdps(40):
        column = _branch_column_mp(lam, branch, N, k)
        return np.array([complex(v) for v in column])


def threshold_derivative_mp(N, K, h):
    """D of spherical.threshold_tables(N, K) at 40 digits, by a central
    difference: (G(h) - G(-h)) / 2h with G(lam) = (plus - minus_renormalized)
    / 2i, both tables from _branch_column_mp at lam = +-h, never from the
    derivative recurrences.  Its error is O(h^2) relative, plus the 40-digit
    rounding of the tables over h: with h = 1e-16, about 1e-24 of the
    largest table entry."""
    with mp.workdps(40):
        h = mp.mpf(h)
        out = np.zeros((N + 1, 2 * K + 1), dtype=complex)
        for k in range(-K, K + 1):
            g_plus, g_minus = ([(p - m) / mp.mpc(0, 2) for p, m in zip(
                _branch_column_mp(lam, "plus", N, k),
                _branch_column_mp(lam, "minus_renormalized", N, k))]
                for lam in (h, -h))
            out[:, k + K] = [complex((a - b) / (2 * h))
                             for a, b in zip(g_plus, g_minus)]
        return out


def _row_loop_audit(rows, relations, first):
    """Intertwining residuals one coefficient row at a time.

    relations: name -> (op, coef(n), shift), stating
    coef(n) * rows[n + shift] = op applied to rows[n] on interior columns.
    Each interior entry scores |lhs - rhs| / (((|S| + |L|) + |D|) + |lhs|)
    with rhs = (S + D) + L, S, D, L the sup, diag and sub products (0/0
    scores 0), summed as the sweep sums them; a relation reports its
    worst entry over the interior columns from index `first` on.
    """
    res = dict.fromkeys(relations, 0.0)
    n_rows = len(rows)
    for n in range(n_rows):
        row = rows[n]
        for name, (op, coef, shift) in relations.items():
            if not 0 <= n + shift < n_rows:
                continue
            lhs = (coef(n) * rows[n + shift])[1:-1]
            up = op.sup[1:-1] * row[2:]
            dc = op.diag[1:-1] * row[1:-1]
            down = op.sub[1:-1] * row[:-2]
            den = ((np.abs(up) + np.abs(down)) + np.abs(dc)) + np.abs(lhs)
            score = np.abs(lhs - ((up + dc) + down)) / np.maximum(den, 5e-324)
            res[name] = max(res[name], float(np.max(score[first:])))
    return res


def ladder_coefficients(lam, branch):
    """{relation: (coef(n), shift)} of the X / U / S ladder relations of
    one branch table, each coefficient from its own per-n formula."""
    plus = branch == "plus"
    b = -0.5 + 1j * lam if plus else -0.5 - 1j * lam
    usign = -1.0 if plus else 1.0
    ssign = 1.0 if plus else -1.0
    if branch == "minus_renormalized":
        usign, ssign = -usign, -ssign
    return {
        "X": (lambda n: -n + b, 0),
        "U": (lambda n: usign * math.sqrt(n) * cmath.sqrt(n - 1 - 2 * b), -1),
        "S": (lambda n: ssign * cmath.sqrt(n - 2 * b) * math.sqrt(n + 1), 1),
    }


def intertwine_residual_rows(lam, table, branch, ops, full_width=False):
    """Row-loop reference for one table of spherical.intertwine_sweep:
    `table` is spherical.coeff_table(lam, N, K, branch), ops the
    build_k_matrices(lam, K) operators.  It scores the sweep's columns
    k = 0..K-1, or with full_width=True every interior column, the
    mirrored k < 0 ones included."""
    K = table.shape[1] // 2
    return _row_loop_audit(table, {
        name: (ops[name], coef, shift)
        for name, (coef, shift) in ladder_coefficients(lam, branch).items()},
        0 if full_width else K - 1)


def global_trace_loop(spec, t, tol):
    """Scalar-loop reference for global_traces.global_trace: the triple
    (pre_rr, post_rr, tail), its spherical sum a scalar loop and its
    pre-RR series the kernel's, truncated as global_trace truncates it."""
    x, gap = math.exp(-t), -math.expm1(-t)
    sph = 0.0
    for mu, d in spec.entries:
        # sqrt(mu - 1/4), with i sqrt(1/4 - mu) below the threshold
        r = (complex(math.sqrt(mu - 0.25)) if mu >= 0.25
             else 1j * math.sqrt(0.25 - mu))
        sph += d * (cmath.cos(t * r)).real
    base = 1.0 + 2.0 * math.exp(-t / 2.0) / gap * sph
    m2, m4, m6 = (rr_multiplicity(spec.genus, l) for l in (2, 4, 6))
    x2 = 2.0 * x * x / gap
    ds, tail = geometric_sum(t, m4 * x2, (m6 - m4) * x2, 0.0, tol)
    chi = abs(2 - 2 * spec.genus)
    return (base + 2.0 * m2 * x / gap + ds,
            base + 2.0 * x / gap + chi * x * (1.0 + x) / gap / gap / gap,
            tail)


def laplace_csv_rows(path):
    """Row-by-row reference for LaplaceSpectrum.from_csv's parse: the
    (mu, mult) arrays of a `mu,multiplicity` CSV read through the `csv`
    module, or DomainError naming the file and the line of a bad row.
    mult is int64 unless a multiplicity does not fit, as it once could."""
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or \
                [f.strip() for f in header] != ["mu", "multiplicity"]:
            raise DomainError(
                f"laplace file {path}: header must be 'mu,multiplicity'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise DomainError(
                    f"laplace file {path}, line {reader.line_num}: "
                    f"expected 2 fields, got {len(row)}")
            try:
                entries.append((float(row[0]), int(row[1])))
            except ValueError as exc:
                raise DomainError(
                    f"laplace file {path}, line {reader.line_num}: {exc}") from exc
    return (np.array([m for m, _ in entries], dtype=float),
            np.array([d for _, d in entries], dtype=np.int64
                     if all(d < 2 ** 63 for _, d in entries) else object))


def legendre_conical_whole(lam, t, tol=1e-12, max_nodes=1 << 21):
    """Whole-array reference for specfun.legendre_conical: every doubling
    evaluates all n nodes in one array and fsums its real and imaginary
    parts.  Past max_nodes it raises AccuracyError carrying the change
    between the last two levels."""
    if t == 0.0:
        return 1.0
    b = -0.5 + 1j * lam
    n, prev, change = 16, None, None
    while n <= max_nodes:
        theta = 2.0 * math.pi * np.arange(n) / n
        base = math.exp(-t) + 2.0 * math.sinh(t) * np.cos(theta / 2.0) ** 2
        nodes = np.exp(b * np.log(base))
        if n >= 1 << 14:
            val = complex(math.fsum(nodes.real) / n, math.fsum(nodes.imag) / n)
        else:
            val = complex(np.mean(nodes))
        if prev is not None:
            change = abs(val - prev)
            if change <= tol * max(1.0, abs(val)) and abs(val.imag) <= 1e-12:
                return val.real
        prev = val
        n *= 2
    raise AccuracyError("legendre_conical_whole: no convergence",
                        achieved=change)


def bolza_float_one():
    """The Bolza generators in float64, the reference for the library's
    exact table: the translation T of trace 2(1 + sqrt 2) conjugated by
    the rotation matrix of angle k pi/8 (turning the plane by k pi/4),
    k = 0..3, followed by their inverses."""
    s2 = math.sqrt(2.0)
    t = np.array([[1 + s2, math.sqrt(2 + 2 * s2)],
                  [math.sqrt(2 + 2 * s2), 1 + s2]])

    def rot(phi):
        return np.array([[math.cos(phi), -math.sin(phi)],
                         [math.sin(phi), math.cos(phi)]])

    gens = [rot(k * math.pi / 8) @ t @ rot(-k * math.pi / 8) for k in range(4)]
    return gens + [np.linalg.inv(g) for g in gens]


def bolza_words_oracle(max_letters=2):
    """Brute-force lengths from all reduced words of length <= max_letters."""
    letters = bolza_float_one()
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


def identity_term_mp(center, sigma, amplitude=1.0, chi_abs=2):
    """|chi| int hat g(r) r tanh(pi r) dr by mpmath Gauss-Legendre panels.

    Integrates the real part amplitude sigma sqrt(2 pi) e^{-sigma^2 r^2/2}
    cos(center r) of the Gaussian's transform over [0, max(8/sigma, 40)],
    the range the library truncates to, in panels no wider than 2 (at most
    two periods of the cosine for |center| <= 6.5) or 1/sigma (the
    envelope's width).
    """
    with mp.workdps(20):
        c, s = mp.mpf(center), mp.mpf(sigma)
        top = max(8.0 / sigma, 40.0)
        panels = math.ceil(top / min(2.0, 1.0 / sigma))
        pts = [mp.mpf(top) * k / panels for k in range(panels + 1)]
        val = mp.quad(lambda r: mp.exp(-(s * r) ** 2 / 2) * mp.cos(c * r)
                      * r * mp.tanh(mp.pi * r), pts, method="gauss-legendre")
        return float(2 * chi_abs * mp.mpf(amplitude) * s
                     * mp.sqrt(2 * mp.pi) * val)


def heat_pair_loop(ls, s):
    """Reference for selberg.heat_pair by its own orbit loop: (identity +
    sum ell mult g(m ell) / sinh(m ell / 2)) / 2 for the heat Gaussian g
    of s, on the library's identity term."""
    amp = math.exp(-s / 4.0) / (2.0 * math.sqrt(math.pi * s))
    g = GaussianTestFn(0.0, math.sqrt(2.0 * s), amp)
    orbit = 0.0
    for period, mult, m, ell in ls.orbits():
        orbit += ell * mult * float(g(period)) / math.sinh(period / 2.0)
    return 0.5 * (identity_term(g) + orbit)


# Exact Bolza arithmetic one matrix at a time, in Python ints.  An entry
# a + b sqrt2 + r (c + d sqrt2), r = sqrt(1 + sqrt2), is the tuple
# (a, b, c, d); a matrix [[x, y], [z, w]] is the tuple (x, y, z, w).

def ring_mul_one(p, q):
    """Product of two entries, from sqrt2^2 = 2 and r^2 = 1 + sqrt2."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 + 2 * b1 * b2 + c1 * c2 + 2 * (c1 * d2 + d1 * c2)
            + 2 * d1 * d2,
            a1 * b2 + b1 * a2 + c1 * c2 + c1 * d2 + d1 * c2 + 2 * d1 * d2,
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _ring_add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def mat_mul_one(m, n):
    (x, y, z, w), (p, q, s, t) = m, n
    return (_ring_add(ring_mul_one(x, p), ring_mul_one(y, s)),
            _ring_add(ring_mul_one(x, q), ring_mul_one(y, t)),
            _ring_add(ring_mul_one(z, p), ring_mul_one(w, s)),
            _ring_add(ring_mul_one(z, q), ring_mul_one(w, t)))


def mat_inv_one(m):
    """Inverse of a det-1 matrix: [[w, -y], [-z, x]]."""
    x, y, z, w = m
    return (w, tuple(-v for v in y), tuple(-v for v in z), x)


def exact_one(row):
    """A 16-integer row (x, y, z, w coefficients) as a matrix tuple."""
    row = [int(v) for v in row]
    return tuple(tuple(row[i:i + 4]) for i in range(0, 16, 4))


def flat_one(m):
    return tuple(v for e in m for v in e)


def value_one(e):
    a, b, c, d = e
    s2 = math.sqrt(2.0)
    return a + b * s2 + math.sqrt(1.0 + s2) * (c + d * s2)


def frob_one(m):
    return sum(value_one(e) ** 2 for e in m)


def psl_key_one(m):
    """The 16 integers of m, negated when the first nonzero one is
    negative."""
    flat = flat_one(m)
    lead = next(v for v in flat if v != 0)
    return tuple(-v for v in flat) if lead < 0 else flat


def exact_letters_one(group):
    gens = [exact_one(row) for row in group.exact]
    return gens + [mat_inv_one(g) for g in gens]


def ball_one(group, max_cosh):
    """Breadth-first ball enumeration keying one exact matrix at a time.

    Returns the float matrices, products of the float Bolza letters of
    bolza_float_one (so `group` must be the Bolza group), and the exact
    matrices as tuples."""
    xletters = exact_letters_one(group)
    eye, xeye = np.eye(2), exact_one([1] + [0] * 11 + [1, 0, 0, 0])
    seen = {psl_key_one(xeye)}
    mats, exact = [eye], [xeye]
    frontier = [(eye, xeye)]
    larr = np.array(bolza_float_one())
    while frontier:
        prod = np.einsum("fij,ljk->flik", np.array([m for m, _ in frontier]),
                         larr).reshape(-1, 2, 2)
        fr = (prod ** 2).sum(axis=(1, 2)) / 2.0
        fresh = []
        for j, m in enumerate(prod):
            if fr[j] > max_cosh:
                continue
            x = mat_mul_one(frontier[j // len(xletters)][1],
                            xletters[j % len(xletters)])
            key = psl_key_one(x)
            if key not in seen:
                seen.add(key)
                mats.append(m)
                exact.append(x)
                fresh.append((m, x))
        frontier = fresh
    return mats, exact


class ClassKeyerOne:
    """Best-first class-key search conjugating and keying one exact matrix
    at a time (slack 40 above the running minimum of the squared norm).
    The class key is the least key, as a tuple of ints, among the members
    of least norm."""

    def __init__(self, group):
        self.letters = exact_letters_one(group)
        self.inv = [mat_inv_one(a) for a in self.letters]
        self.cache = {}

    def conjugate(self, m, i):
        return mat_mul_one(mat_mul_one(self.inv[i], m), self.letters[i])

    def key(self, m):
        k0 = psl_key_one(m)
        hit = self.cache.get(k0)
        if hit is not None:
            return hit
        best = frob_one(m)
        nodes = {k0: m}
        heap = [(best, k0)]
        while heap:
            f, kk = heapq.heappop(heap)
            if f > best * 40.0:
                continue
            mm = nodes[kk]
            for i in range(len(self.letters)):
                c = self.conjugate(mm, i)
                ck = psl_key_one(c)
                if ck in nodes:
                    continue
                known = self.cache.get(ck)
                if known is not None:
                    for seen_key in nodes:
                        self.cache[seen_key] = known
                    return known
                fc = frob_one(c)
                if fc > best * 40.0:
                    continue
                nodes[ck] = c
                heapq.heappush(heap, (fc, ck))
                if fc < best:
                    best = fc
        members = [kk for kk, mm in nodes.items()
                   if frob_one(mm) <= best * (1.0 + 1e-9)]
        ckey = min(members)
        for kk in nodes:
            self.cache[kk] = ckey
        return ckey


def trace_length_mp(a, b):
    """2 acosh(|a + b sqrt2| / 2) to 40 digits, rounded to a double; None
    when |a + b sqrt2| <= 2 (not hyperbolic)."""
    with mp.workdps(40):
        tr = abs(a + b * mp.sqrt(2))
        return float(2 * mp.acosh(tr / 2)) if tr > 2 else None


def length_spectrum_one(group, l_max):
    """(primitives, {class key: length}) by the per-matrix keyer, with
    lengths from the exact traces by trace_length_mp, bucketed by length
    and roots matched by length rounded to 9 decimals."""
    cosh_r = 1.0 + math.sqrt(2.0)
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * cosh_r)
    _, exact = ball_one(group, math.cosh(disp) * (1.0 + 1e-9))
    keyer = ClassKeyerOne(group)
    classes = {}
    for x in exact:
        (a, b, _, _), (p, q, _, _) = x[0], x[3]
        ell = trace_length_mp(a + p, b + q)
        if ell is None or ell > l_max:
            continue
        ck = keyer.key(x)
        if ck not in classes:
            classes[ck] = (ell, x)
    by_len = {}
    for ck, (ell, x) in classes.items():
        by_len.setdefault(round(ell, 9), []).append(ck)
    primitive = {ck: True for ck in classes}
    min_len = min(v[0] for v in classes.values())
    for ck, (ell, x) in classes.items():
        mm = 2
        while primitive[ck] and ell / mm >= min_len - 1e-9:
            for rk in by_len.get(round(ell / mm, 9), ()):
                if keyer.key(power_one(classes[rk][1], mm)) == ck:
                    primitive[ck] = False
                    break
            mm += 1
    buckets = {}  # one trace, one correctly rounded length
    for ck, (ell, x) in classes.items():
        if primitive[ck]:
            buckets[ell] = buckets.get(ell, 0) + 1
    return sorted(buckets.items()), {k: v[0] for k, v in classes.items()}


def power_one(m, n):
    """m^n, n >= 1, by n - 1 products."""
    out = m
    for _ in range(n - 1):
        out = mat_mul_one(out, m)
    return out
