"""Independent oracles used by the test suite.

Each oracle follows a different computational route from the library code
it checks: arbitrary-precision special functions (mpmath), brute-force
series products, adaptive quadrature, characteristics ODE integration, and
dense matrix exponentials.  The row-at-a-time intertwining audit, the
scalar global-trace loop and the whole-array conical quadrature are the
exception: they are the references the blocked library audit, the
vectorized global trace and the level-by-level quadrature must match
exactly.  So are the
row-by-row `csv`-module Laplace loader (`laplace_csv_rows`), the
reference for the bulk `LaplaceSpectrum.from_csv`, and the
per-matrix Selberg class keyer (`psl_key_one`, `ball_one`,
`ClassKeyerOne`, `length_spectrum_one`), the reference for the batched
keyer and the trace-pair buckets.
"""

import cmath
import csv
import heapq
import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gfsl.discrete import rr_multiplicity
from gfsl.errors import AccuracyError, DomainError

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


def moment_seeds_mp(lam, K, renormalized=False):
    """M_0 of each moment column |k| <= K at 40 digits, each column from
    its own Gamma values: pi 2^(2b+2) Gamma(-2b-1) / (Gamma(-b-k)
    Gamma(-b+k)) with b = -1/2 + i lam, or renormalized Gamma(-b)^2 /
    (Gamma(-b-k) Gamma(-b+k)).  lam may be complex: i nu, or -lam for the
    dual rows."""
    with mp.workdps(40):
        b = mp.mpf(-0.5) + mp.mpc(0, 1) * mp.mpc(lam)
        top = (mp.gamma(-b) ** 2 if renormalized
               else mp.pi * mp.mpf(2) ** (2 * b + 2) * mp.gamma(-2 * b - 1))
        return np.array([complex(top / (mp.gamma(-b - k) * mp.gamma(-b + k)))
                         for k in range(-K, K + 1)])


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


def intertwine_residual_rows(p, table, branch, ops):
    """Row-loop reference for one table of spherical.intertwine_sweep:
    `table` is spherical.coeff_table(p, N, K, branch), ops the
    build_k_matrices(p, K) operators."""
    plus = branch == "plus"
    b = p.b_plus if plus else p.b_minus
    usign = -1.0 if plus else 1.0
    ssign = 1.0 if plus else -1.0
    if branch == "minus_renormalized":
        usign, ssign = -usign, -ssign
    return _row_loop_audit(table, {
        "X": (ops["X"], lambda n: -n + b, 0),
        "U": (ops["U"],
              lambda n: usign * math.sqrt(n) * cmath.sqrt(n - 1 - 2 * b), -1),
        "S": (ops["S"],
              lambda n: ssign * cmath.sqrt(n - 2 * b) * math.sqrt(n + 1), 1),
    })


def global_trace_loop(spec, t, q_max=200):
    """Scalar-loop reference for global_traces.global_trace: the pair
    (pre_rr, post_rr)."""
    x = math.exp(-t)
    sph = 0.0
    for mu, d in spec.entries:
        # sqrt(mu - 1/4), with i sqrt(1/4 - mu) below the threshold
        r = (complex(math.sqrt(mu - 0.25)) if mu >= 0.25
             else 1j * math.sqrt(0.25 - mu))
        sph += d * (cmath.cos(t * r)).real
    base = 1.0 + 2.0 * math.exp(-t / 2.0) / (1.0 - x) * sph
    ds = 0.0
    for q in range(1, q_max + 1):
        ds += rr_multiplicity(spec.genus, 2 * q) * x ** q
    chi = abs(2 - 2 * spec.genus)
    return (base + 2.0 / (1.0 - x) * ds,
            base + 2.0 * x / (1.0 - x) + chi * x * (1.0 + x) / (1.0 - x) ** 3)


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


def psl_key_one(m):
    """Key of one 2x2 matrix up to sign: negate when the first entry with
    |x| > 1e-8 is negative, round to 7 decimals."""
    flat = m.reshape(-1)
    for x in flat:
        if abs(x) > 1e-8:
            if x < 0:
                m = -m
            break
    return tuple(np.round(m.reshape(-1), 7))


def ball_one(letters, max_cosh):
    """Breadth-first ball enumeration keying one matrix at a time."""
    eye = np.eye(2)
    seen = {psl_key_one(eye)}
    mats = [eye]
    frontier = np.array([eye])
    larr = np.array(letters)
    while len(frontier):
        prod = np.einsum("fij,ljk->flik", frontier, larr).reshape(-1, 2, 2)
        fr = (prod ** 2).sum(axis=(1, 2)) / 2.0
        fresh = []
        for m in prod[fr <= max_cosh]:
            key = psl_key_one(m)
            if key not in seen:
                seen.add(key)
                mats.append(m)
                fresh.append(m)
        frontier = np.array(fresh) if fresh else np.empty((0, 2, 2))
    return mats


def _frob_one(m):
    return float((m * m).sum())


class ClassKeyerOne:
    """Best-first class-key search conjugating and keying one matrix at a
    time (slack 40 above the running minimum of the squared norm)."""

    def __init__(self, letters):
        self.letters = letters
        self.inv = [np.linalg.inv(a) for a in letters]
        self.cache = {}

    def key(self, m):
        k0 = psl_key_one(m)
        hit = self.cache.get(k0)
        if hit is not None:
            return hit
        best = _frob_one(m)
        nodes = {k0: m}
        heap = [(best, k0)]
        while heap:
            f, kk = heapq.heappop(heap)
            if f > best * 40.0:
                continue
            mm = nodes[kk]
            for a, ai in zip(self.letters, self.inv):
                c = ai @ mm @ a
                ck = psl_key_one(c)
                if ck in nodes:
                    continue
                known = self.cache.get(ck)
                if known is not None:
                    for seen_key in nodes:
                        self.cache[seen_key] = known
                    return known
                fc = _frob_one(c)
                if fc > best * 40.0:
                    continue
                nodes[ck] = c
                heapq.heappush(heap, (fc, ck))
                if fc < best:
                    best = fc
        members = [kk for kk, mm in nodes.items()
                   if _frob_one(mm) <= best * (1.0 + 1e-9)]
        ckey = min(members)
        for kk in nodes:
            self.cache[kk] = ckey
        return ckey


def length_spectrum_one(group, l_max):
    """(primitives, {class key: length}) by the per-matrix keyer, with
    lengths bucketed and roots matched by length rounded to 9 decimals."""
    letters = group.letters()
    cosh_r = 1.0 + math.sqrt(2.0)
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * cosh_r)
    mats = ball_one(letters, math.cosh(disp) * (1.0 + 1e-9))
    keyer = ClassKeyerOne(letters)
    classes = {}
    for m in mats:
        tr = abs(m[0, 0] + m[1, 1])
        if tr <= 2.0 + 1e-12:
            continue
        ell = 2.0 * math.asinh(math.sqrt((tr - 2.0) * (tr + 2.0)) / 2.0) \
            if tr < 2.5 else 2.0 * math.acosh(tr / 2.0)
        if ell > l_max + 1e-9:
            continue
        ck = keyer.key(m)
        if ck not in classes:
            classes[ck] = (ell, m)
    by_len = {}
    for ck, (ell, m) in classes.items():
        by_len.setdefault(round(ell, 9), []).append(ck)
    primitive = {ck: True for ck in classes}
    min_len = min(v[0] for v in classes.values())
    for ck, (ell, m) in classes.items():
        mm = 2
        while primitive[ck] and ell / mm >= min_len - 1e-9:
            for rk in by_len.get(round(ell / mm, 9), ()):
                root = classes[rk][1]
                if keyer.key(np.linalg.matrix_power(root, mm)) == ck:
                    primitive[ck] = False
                    break
            mm += 1
    buckets = {}
    for ck, (ell, m) in classes.items():
        if primitive[ck]:
            buckets.setdefault(round(ell, 9), []).append(ell)
    prims = sorted((float(np.mean(v)), len(v)) for v in buckets.values())
    return prims, {k: v[0] for k, v in classes.items()}
