"""One spherical irreducible component at finite truncation.

Builds the tridiagonal generator matrices on the circle-mode basis, the
two branch-transform coefficient tables with their diagonal gauges, the
dual (inverse-transform) rows, the per-coefficient intertwining audits,
the threshold coalescence data with its 2x2 Jordan model, the correlation
expansion and the flat-vs-spectral trace identity.

Conventions.  The spectral parameter is lam with mu = lam^2 + 1/4 and
b_pm = -1/2 +- i lam; the complementary regime is the substitution
lam = i nu, 0 < nu < 1/2, everywhere in the same algebraic formulas.
Coefficient tables are indexed [n, k+K] for 0 <= n <= N, |k| <= K.
The dual table stores v[n, k] = <psi_k | T_branch^{-1} e_n>, which for
real lam is the complex conjugate of the weak dual coefficient; the
correlation expansion is sum over n, branch of
exp(tau z) * v[n, k_out] * s[n, k_in].
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AccuracyError, ConsistencyError, DomainError, PoleError
from .specfun import (is_gamma_pole, log_beta_line, log_gamma,
                      recurrence_columns, taylor_two_factor)

_SQRT_PI = math.sqrt(math.pi)

# Rows per block in the intertwining audit.  Its temporaries then grow
# with K only, not with N; 16 rows was also the fastest block size at
# (N, K) = (1000, 100).
AUDIT_BLOCK_ROWS = 16

PRINCIPAL = "principal"
COMPLEMENTARY = "complementary"
THRESHOLD = "threshold"

BRANCH_PLUS = "plus"
BRANCH_MINUS = "minus"
BRANCH_MINUS_RENORMALIZED = "minus_renormalized"


@dataclass
class SpectralParam:
    """Parameters of one spherical irreducible: mu, lam, branch exponents, regime."""

    mu: float
    lam: complex
    b_plus: complex
    b_minus: complex
    regime: str

    @classmethod
    def principal(cls, lam):
        if lam < 0:
            raise DomainError("principal: lam must be >= 0")
        lam = float(lam)
        return cls(lam * lam + 0.25, complex(lam),
                   -0.5 + 1j * lam, -0.5 - 1j * lam,
                   THRESHOLD if lam == 0.0 else PRINCIPAL)

    @classmethod
    def complementary(cls, nu):
        if not 0.0 < nu < 0.5:
            raise DomainError("complementary: nu must lie in (0, 1/2)")
        lam = 1j * nu
        return cls(0.25 - nu * nu, lam, -0.5 - nu, -0.5 + nu, COMPLEMENTARY)

    @classmethod
    def threshold(cls):
        return cls(0.25, 0.0 + 0.0j, -0.5 + 0.0j, -0.5 + 0.0j, THRESHOLD)

    def __post_init__(self):
        self.lam = complex(self.lam)
        if abs(self.b_plus * self.b_minus - self.mu) > 1e-14 * max(1.0, abs(self.mu)):
            raise ConsistencyError("SpectralParam: b+ * b- != mu")
        want = THRESHOLD if self.mu == 0.25 else (
            PRINCIPAL if self.mu > 0.25 else COMPLEMENTARY)
        if self.regime != want:
            raise ConsistencyError(
                f"SpectralParam: regime {self.regime} inconsistent with mu = {self.mu}")

    def branch_b(self, branch):
        return self.b_plus if branch == BRANCH_PLUS else self.b_minus


@dataclass
class KBandedOperator:
    """Tridiagonal operator on circle modes psi_k, k_min <= k <= k_max.

    diag[i], sup[i], sub[i] are the amplitudes coupling psi_k (k = k_min+i)
    to psi_k, psi_{k+1}, psi_{k-1} respectively.
    """

    k_min: int
    k_max: int
    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray

    def apply_interior(self, rows):
        """Given rows[r, i] = c_{n_r, k_min+i}, return sum_j O_{jk} c_{n_r,j}.

        Only interior columns k_min < k < k_max are returned, since the
        truncation corrupts the boundary ones.
        """
        return (self.diag[1:-1] * rows[:, 1:-1]
                + self.sup[1:-1] * rows[:, 2:]
                + self.sub[1:-1] * rows[:, :-2])

    def as_dense(self):
        """Matrix M[j, k] acting on coefficient vectors of functions."""
        m = self.k_max - self.k_min + 1
        out = np.zeros((m, m), dtype=complex)
        idx = np.arange(m)
        out[idx, idx] = self.diag
        out[idx[1:], idx[:-1]] = self.sup[:-1]
        out[idx[:-1], idx[1:]] = self.sub[1:]
        return out


def build_k_matrices(p, K):
    """Tridiagonal matrices of X, U, S, Theta, N+, N- on |k| <= K."""
    if K < 2:
        raise DomainError("build_k_matrices: K must be >= 2")
    lam = p.lam
    ks = np.arange(-K, K + 1, dtype=float)
    zero = np.zeros_like(ks, dtype=complex)
    # raising/lowering amplitudes of N+ and N-
    np_raise = 1j * (ks + 0.5 - 1j * lam)
    nm_lower = 1j * (ks - 0.5 + 1j * lam)
    # U = (i/2)(N- - N+ - Theta), S = (i/2)(N- - N+ + Theta)
    us_raise = -0.5j * np_raise
    us_lower = 0.5j * nm_lower
    return {
        "X": KBandedOperator(-K, K, zero.copy(), 0.5 * np_raise, 0.5 * nm_lower),
        "U": KBandedOperator(-K, K, -1j * ks, us_raise.copy(), us_lower.copy()),
        "S": KBandedOperator(-K, K, 1j * ks, us_raise.copy(), us_lower.copy()),
        "Theta": KBandedOperator(-K, K, (2 * ks).astype(complex), zero.copy(),
                                 zero.copy()),
        "Nplus": KBandedOperator(-K, K, zero.copy(), np_raise, zero.copy()),
        "Nminus": KBandedOperator(-K, K, zero.copy(), zero.copy(), nm_lower),
    }


def gauge_log(p, branch, n_max):
    """log t_n for t_n = prod_{j<n} (-2 b_branch + j)^{-+1/2}, principal factors.

    The factors -2b +- j all have real part >= 1 (- 2 nu > 0 in the
    complementary regime), so per-factor principal powers give the
    continuous branch with t_0 = 1.
    """
    b = p.branch_b(branch if branch != BRANCH_MINUS_RENORMALIZED else BRANCH_MINUS)
    c = -2.0 * b
    if is_gamma_pole(c):
        raise DomainError(f"gauge: -2b = {c} hits a branch point")
    expo = -0.5 if branch == BRANCH_PLUS else 0.5
    logs = np.zeros(n_max + 1, dtype=complex)
    acc = 0.0 + 0.0j
    for n in range(n_max):
        acc += expo * cmath.log(c + n)
        logs[n + 1] = acc
    return logs


@dataclass
class CoeffTable:
    """Branch-transform coefficients s[n, k+K] with their gauge, plus dual rows."""

    branch: str
    n_max: int
    k_max: int
    s: np.ndarray
    gauge_log: np.ndarray
    dual: np.ndarray | None = None


def _moments(lam, K, n_max, renormalized=False):
    """Regularized moments M_n = int x^n (1+ix)^(b+k) (1-ix)^(b-k) dx, |k| <= K.

    Column k+K holds M_n for n = 0..n_max.  Each column is seeded by the
    beta line integral and advanced by the three-term recurrence
    (n+1+2 i lam) M_{n+1} = -2 i k M_n - n M_{n-1}, the moment form of
    (1+x^2) f' = (2ik + (2b) x) f.  Both fundamental solutions stay
    polynomially bounded, so forward recursion is stable.

    renormalized=True returns rho(lam) * M_n, with the threshold
    renormalizer rho(lam) = Gamma(1/2 - i lam) / (sqrt(pi) Gamma(-i lam)):
    the pole of Gamma(-2 i lam) in M_0 is cancelled exactly, rho(lam) M_0 = Gamma(1/2 - i lam)^2 /
    (Gamma(1/2-i lam-k) Gamma(1/2-i lam+k)), finite for all real lam
    including 0; the recurrence is unchanged.
    """
    ks = range(-K, K + 1)
    if renormalized:
        lhalf = log_gamma(0.5 - 1j * lam)
        seeds = [cmath.exp(2.0 * lhalf - log_gamma(0.5 - 1j * lam - k)
                           - log_gamma(0.5 - 1j * lam + k)) for k in ks]
    else:
        b = -0.5 + 1j * lam
        seeds = [cmath.exp(log_beta_line(b + k, b - k)) for k in ks]
    return recurrence_columns(-2j * np.arange(-K, K + 1), -1.0, 2j * lam,
                              seeds, n_max)


def _phase(k, sign):
    # exp(sign * i k pi / 2) exactly on the 4th roots of unity
    r = (sign * k) % 4
    return (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)[r]


def _phases(K, sign):
    """Row of exp(sign * i k pi / 2) / sqrt(pi) over |k| <= K."""
    return np.array([_phase(k, sign) / _SQRT_PI for k in range(-K, K + 1)])


def _scaled(pre, cols, row):
    """(pre[n] * cols[n, j]) * row[j], multiplied in place in that order.

    The order is kept fixed because numpy's fused complex multiply is not
    bitwise commutative.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(pre[:, None], cols, out=cols)
        cols *= row
    return cols


def require_finite(table, where):
    """Return table, or raise AccuracyError naming `where` if it has inf/nan."""
    if not np.all(np.isfinite(table)):
        raise AccuracyError(
            f"{where} has non-finite entries (double precision overflow)")
    return table


def _table_name(branch, p, N, K):
    par = f"lam = {p.lam.real!r}" if p.lam.imag == 0 else f"nu = {p.lam.imag!r}"
    return f"{branch} table at {par}, N = {N}, K = {K}"


def coeffs_plus(p, N, K):
    """Plus-branch table s+[n,k] = t_n^+ sqrt(n!) phase_k [x^n] two-factor."""
    glog = gauge_log(p, BRANCH_PLUS, N)
    half_lf = 0.5 * np.array([math.lgamma(n + 1) for n in range(N + 1)])
    pre = np.exp(glog + half_lf)
    ks = np.arange(-K, K + 1)
    a = taylor_two_factor(p.b_plus + ks, p.b_plus - ks, N)
    s = _scaled(pre, a, _phases(K, +1))
    require_finite(s, _table_name("plus-branch", p, N, K))
    return CoeffTable(BRANCH_PLUS, N, K, s, glog)


def coeffs_minus(p, N, K, renormalized=False):
    """Minus-branch table; renormalized applies the parity-rho rescaling.

    Raw mode has a Gamma pole at lam = 0; renormalized mode is finite there
    and coalesces entrywise with the plus branch.
    """
    lam = p.lam
    glog = gauge_log(p, BRANCH_MINUS, N)
    half_lf = 0.5 * np.array([math.lgamma(n + 1) for n in range(N + 1)])
    pre = np.exp(glog - half_lf)
    if renormalized:
        parity = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
        m = _moments(lam, K, N, renormalized=True)
        s = _scaled(parity * pre, m, _phases(K, -1))
        require_finite(s, _table_name("renormalized minus-branch", p, N, K))
        return CoeffTable(BRANCH_MINUS_RENORMALIZED, N, K, s, glog)
    if lam == 0:
        raise PoleError("coeffs_minus: raw branch has a pole at lam = 0; "
                        "use renormalized=True")
    s = _scaled(pre, _moments(lam, K, N), _phases(K, -1))
    require_finite(s, _table_name("minus-branch", p, N, K))
    return CoeffTable(BRANCH_MINUS, N, K, s, glog)


def dual_coeffs(p, N, K, branch):
    """Dual rows v[n,k] = <psi_k | T_branch^{-1} e_n> (inverse-gauge weighting).

    For real lam these are the conjugates of the weak dual coefficients
    u[n,k] = <e_n | (T^{-1})^dagger psi_k>; written analytically in lam they
    remain valid verbatim in the complementary regime.
    """
    lam = p.lam
    glog = gauge_log(p, branch, N)
    half_lf = 0.5 * np.array([math.lgamma(n + 1) for n in range(N + 1)])
    parity = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    if branch == BRANCH_PLUS:
        pre = parity * np.exp(-glog - half_lf)
        v = _scaled(pre, _moments(-lam, K, N), _phases(K, -1))
    elif branch == BRANCH_MINUS:
        pre = parity * np.exp(half_lf - glog)
        ks = np.arange(-K, K + 1)
        a = taylor_two_factor(p.b_minus + ks, p.b_minus - ks, N)
        v = _scaled(pre, a, _phases(K, +1))
    else:
        raise DomainError(f"dual_coeffs: unsupported branch {branch}")
    return require_finite(v, _table_name(f"{branch}-branch dual", p, N, K))


def full_table(p, N, K, branch):
    """Coefficient table of the plus or (raw) minus branch with dual rows."""
    build = coeffs_plus if branch == BRANCH_PLUS else coeffs_minus
    tab = build(p, N, K)
    tab.dual = dual_coeffs(p, N, K, branch)
    return tab


def ladder_residual(table, relations):
    """Max relative residual of ladder identities checked row by row.

    relations maps a name to (op, coef, shift) and states, for every row n
    with 0 <= n + shift < len(table),
        coef[n] * table[n + shift, k] = sum_j O_{jk} table[n, j]
    on the interior columns k, with O the KBandedOperator op.  Each row
    scores max|lhs - rhs| / max(max|lhs|, max|rhs|, 1e-300) and the
    relation reports its worst row.  Rows go through in blocks of
    AUDIT_BLOCK_ROWS to keep the temporaries small.  A non-finite residual
    raises AccuracyError instead of being dropped.
    """
    n_rows = table.shape[0]
    res = {}
    for name, (op, coef, shift) in relations.items():
        coef = np.asarray(coef, dtype=complex)
        first, stop = max(0, -shift), min(n_rows, n_rows - shift)
        worst = 0.0
        for n0 in range(first, stop, AUDIT_BLOCK_ROWS):
            n1 = min(n0 + AUDIT_BLOCK_ROWS, stop)
            lhs = coef[n0:n1, None] * table[n0 + shift:n1 + shift, 1:-1]
            rhs = op.apply_interior(table[n0:n1])
            scale = np.maximum(np.maximum(np.abs(lhs).max(axis=1),
                                          np.abs(rhs).max(axis=1)), 1e-300)
            block = float(np.max(np.abs(lhs - rhs).max(axis=1) / scale))
            if not math.isfinite(block):
                raise AccuracyError(
                    f"intertwining audit: {name} residual is not finite in "
                    f"rows {n0}..{n1 - 1}")
            worst = max(worst, block)
        res[name] = worst
    return res


def intertwine_residual(p, table, ops):
    """Max relative residual of the X / U / S intertwining identities.

    The model actions are
        X:  (-n + b) s_{n,k}
        U:  usign * sqrt(n) (n-1-2b)^(1/2) s_{n-1,k}
        S:  ssign * (n-2b)^(1/2) sqrt(n+1) s_{n+1,k}
    against the column action of the tridiagonal matrices; asserted on
    interior indices only.  Square roots are per-factor principal, matching
    the gauge branch.
    """
    N, K = table.n_max, table.k_max
    if ops["X"].k_max != K:
        raise DomainError("intertwine_residual: table and operators disagree in K")
    plus = table.branch == BRANCH_PLUS
    b = p.b_plus if plus else p.b_minus
    usign = -1.0 if plus else 1.0
    ssign = 1.0 if plus else -1.0
    if table.branch == BRANCH_MINUS_RENORMALIZED:
        usign, ssign = -usign, -ssign
    ns = range(N + 1)
    return ladder_residual(table.s, {
        "X": (ops["X"], [-n + b for n in ns], 0),
        "U": (ops["U"], [usign * math.sqrt(n) * cmath.sqrt(n - 1 - 2 * b)
                         for n in ns], -1),
        "S": (ops["S"], [ssign * cmath.sqrt(n - 2 * b) * math.sqrt(n + 1)
                         for n in ns], 1),
    })


def _threshold_rationals(k, n_max):
    """Exact lam = 0 data: both branch recurrences in rational arithmetic.

    Plus branch (Taylor route): a_n = i^n r_n with
        r_{n+1} = (2 k r_n + n r_{n-1}) / (n+1),  r_0 = 1, r_1 = 2k.
    Renormalized minus branch (moment route): M_n = (-i)^n q_n with the same
    recurrence and q_0 = (-1)^k.  Coalescence is the exact identity
    q_n = (-1)^k r_n; we run both and insist on it.
    """
    r = [Fraction(1), Fraction(2 * k)]
    q0 = Fraction((-1) ** (k % 2))
    q = [q0, Fraction(2 * k) * q0]
    for n in range(1, n_max):
        r.append((2 * k * r[n] + n * r[n - 1]) / Fraction(n + 1))
        q.append((2 * k * q[n] + n * q[n - 1]) / Fraction(n + 1))
    return r[: n_max + 1], q[: n_max + 1]


def threshold_tables(N, K, h=1e-4):
    """Common threshold table S and divided-difference table D at mu = 1/4.

    S is the lam = 0 value computed independently from both branch closed
    forms in exact rational arithmetic (they must agree identically).
    D is the divided difference (s+(h) - s^-(h)) / (2 i h) with one
    Richardson step h -> h/2; the extrapolation error estimate is recorded.
    """
    if not 0.0 < h <= 1e-3:
        raise DomainError("threshold_tables: require 0 < h <= 1e-3")
    s_plus = np.zeros((N + 1, 2 * K + 1), dtype=complex)
    s_minus = np.zeros((N + 1, 2 * K + 1), dtype=complex)
    for k in range(-K, K + 1):
        r, q = _threshold_rationals(k, N)
        for n in range(N + 1):
            # plus route: e^{ik pi/2} [x^n] = i^k i^n r_n
            s_plus[n, k + K] = _phase(n + k, +1) * float(r[n]) / _SQRT_PI
            # minus route: (-1)^n e^{-ik pi/2} M_n, M_n = (-i)^n q_n
            ph = _phase(k, -1) * _phase(n, -1) * (1.0 if n % 2 == 0 else -1.0)
            s_minus[n, k + K] = ph * float(q[n]) / _SQRT_PI
    gap = float(np.max(np.abs(s_plus - s_minus)))
    scale = max(1.0, float(np.max(np.abs(s_plus))))
    if gap > 1e-9 * scale:
        raise ConsistencyError(
            f"threshold branches disagree at lam = 0: {gap:.3e} (scale {scale:.3e})")
    s_tab = s_plus
    # double-precision pipelines should tell the same story
    p0 = SpectralParam.threshold()
    sp = coeffs_plus(p0, N, K).s
    sm = coeffs_minus(p0, N, K, renormalized=True).s
    float_gap = float(np.max(np.abs(sp - sm)))
    if float_gap > 1e-9 * scale:
        raise ConsistencyError(
            f"threshold float pipelines disagree: {float_gap:.3e} (scale {scale:.3e})")

    def divided(hh):
        pp = SpectralParam.principal(hh)
        a = coeffs_plus(pp, N, K).s
        bren = coeffs_minus(pp, N, K, renormalized=True).s
        return (a - bren) / (2j * hh)

    d_coarse = divided(h)
    d_fine = divided(h / 2.0)
    d_extrap = 2.0 * d_fine - d_coarse
    err = np.abs(d_fine - d_coarse)
    return {
        "S": s_tab,
        "S_plus": s_plus,
        "S_minus": s_minus,
        "D": d_extrap,
        "D_coarse": d_coarse,
        "D_fine": d_fine,
        "richardson_error": err,
        "float_gap": float_gap,
    }


@dataclass
class JordanBlockModel:
    """Size-2 Jordan ladder at the threshold: eigenvalues z_n = -n - 1/2."""

    n_max: int

    @property
    def l_diag(self):
        return -(np.arange(self.n_max + 1) + 0.5)


def jordan_semigroup(model, tau):
    """Per-n blocks of exp(tau J): [[e, tau e], [0, e]], e = exp(tau z_n)."""
    if tau < 0:
        raise DomainError("jordan_semigroup: tau must be >= 0")
    e = np.exp(tau * model.l_diag)
    out = np.zeros((model.n_max + 1, 2, 2))
    out[:, 0, 0] = e
    out[:, 1, 1] = e
    out[:, 0, 1] = tau * e
    return out


@dataclass
class CorrelationResult:
    value: complex
    tail_bound: float
    n_max: int


def correlation(p, k_out, k_in, tau, N):
    """Resonance expansion of <psi_kout | exp(tau X) psi_kin>.

    Sums exp(tau z_{n,branch}) v[n,k_out] s[n,k_in] over n <= N and both
    branches, and reports a tail bound of the form
    C exp(-tau (N+1)) <N>^(|k_in|+|k_out|-1) calibrated on the last terms.
    """
    if tau <= 0:
        raise DomainError("correlation: tau must be > 0")
    if p.regime == THRESHOLD:
        raise DomainError("correlation: defined for principal/complementary only")
    K = max(abs(k_out), abs(k_in))
    tp = full_table(p, N, K, BRANCH_PLUS)
    tm = full_table(p, N, K, BRANCH_MINUS)
    n = np.arange(N + 1)
    ep = np.exp(tau * (-n - 0.5 + 1j * p.lam))
    em = np.exp(tau * (-n - 0.5 - 1j * p.lam))
    prod_p = tp.dual[:, k_out + K] * tp.s[:, k_in + K]
    prod_m = tm.dual[:, k_out + K] * tm.s[:, k_in + K]
    value = complex(np.sum(ep * prod_p) + np.sum(em * prod_m))
    power = abs(k_in) + abs(k_out) - 1
    last = slice(max(0, N - 4), N + 1)
    weights = (1.0 + n[last] ** 2) ** (power / 2.0)
    c_est = float(np.max(
        (np.abs(prod_p[last]) + np.abs(prod_m[last])) / weights))
    tail = (2.0 * c_est * math.exp(-tau * (N + 1.5))
            * (1.0 + (N + 1.0) ** 2) ** (power / 2.0)
            / (1.0 - math.exp(-tau)))
    return CorrelationResult(value, tail, N)


def trace_spherical(p, t, n_max=60):
    """Flat trace of exp(tX) on one spherical irreducible, plus partial sums.

    flat = 2 cos(t lam) e^{-t/2} / (1 - e^{-t}); in the complementary regime
    cos(t i nu) = cosh(t nu), at threshold lam = 0.  spectral_partial[N] is
    the resonance sum to order N; tail_exact[N] is the closed geometric tail
    so that flat = spectral_partial + tail_exact identically.
    """
    if t <= 0:
        raise DomainError("trace_spherical: t must be > 0")
    lam = p.lam
    flat = complex(2.0 * np.cos(t * lam)) * math.exp(-t / 2.0) / (1.0 - math.exp(-t))
    n = np.arange(n_max + 1)
    terms = np.exp(t * (-n - 0.5 + 1j * lam)) + np.exp(t * (-n - 0.5 - 1j * lam))
    partial = np.cumsum(terms)
    zp = np.exp(t * (-(n + 1) - 0.5 + 1j * lam))
    zm = np.exp(t * (-(n + 1) - 0.5 - 1j * lam))
    tail_exact = (zp + zm) / (1.0 - math.exp(-t))
    return {
        "flat": flat.real,
        "spectral_partial": partial.real,
        "tail_exact": tail_exact.real,
        "tail_bound": 2.0 * np.exp(-t * (n + 1.5)) / (1.0 - math.exp(-t)),
    }
