"""One spherical irreducible component at finite truncation.

Builds the tridiagonal generator matrices on the circle-mode basis, the
two branch-transform coefficient tables with their diagonal gauges, the
per-coefficient intertwining audit, the threshold data (the common table
S of both branches at lam = 0 and their exact lam-derivative D, a Jordan
chain of X) and the truncated correlation expansion.

One kernel builds every table: a recurrence over the stacked columns
k = 0..K of one or several tables (x -> -x maps mode k to -k, so the
k < 0 half is the mirror entry[n, -k] = (-1)^(n+k) entry[n, k]), scaled
and checked block by block of rows, audited as they come.

Conventions.  An irreducible is held as its spectral parameter lam
alone, a complex number (principal, complementary): mu = lam^2 + 1/4 and
the branch exponents b_pm = -1/2 +- i lam are formed from it where they
are used; the complementary regime is the substitution lam = i nu,
0 < nu < 1/2, everywhere in the same algebraic formulas.
Coefficient tables are indexed [n, k+K] for 0 <= n <= N, |k| <= K.
The dual rows v[n, k] = <psi_k | T_branch^{-1} e_n> of a branch are no
table of their own: since b_plus(lam) = b_minus(-lam), they are (-1)^n
times the other branch's table at -lam (for real lam, the complex
conjugate of the weak dual coefficient).  The correlation expansion is
the sum over n, branch of exp(tau z) * v[n, k_out] * s[n, k_in].
"""

import cmath
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (AccuracyError, ConsistencyError, DomainError, PoleError,
                     check_finite)
from .specfun import (is_gamma_pole, log_beta_line, recurrence_blocks,
                      two_factor_columns)

_SQRT_PI = math.sqrt(math.pi)

# Entries (rows x tables x 2K + 1 columns) per block of a stacked build
# and audit; its buffers, over the k >= 0 half, hold about half as many
# however large N is and however many tables are stacked.  The 12-table
# ladder sweep, (N, K) = (1000, 100), took 0.161, 0.139, 0.136, 0.155 s at
# 2^13..2^16 (medians of 31 alternating runs in process, quartiles overlap;
# 2-core x86-64, numpy 2.4), the CLI peaking at 31.6, 32.5, 34.7, 39.3 MiB.
BLOCK_ELEMENTS = 1 << 14

# The largest N and K a sweep takes, a memory budget.  Besides its blocks,
# each table holds about 8 complex values per row n <= N (prefactors and
# X / U / S coefficients, each also stacked) and 27 per column |k| <= K
# (operator bands, moment columns, phases); the CLI's peak RSS grew by
# 130 B per row and 430 B per column of a table.  SWEEP_N_MAX keeps the
# row state of a table to 2^6 BLOCK_ELEMENTS values (16 MiB); SWEEP_K_MAX
# keeps a table's row, 2K + 1 entries, within a block, past which the
# blocks no longer bound the audit's buffers.
SWEEP_N_MAX = (BLOCK_ELEMENTS << 6) // 8 - 1
SWEEP_K_MAX = (BLOCK_ELEMENTS - 1) // 2

BRANCH_PLUS = "plus"
BRANCH_MINUS = "minus"
BRANCH_MINUS_RENORMALIZED = "minus_renormalized"


def principal(lam):
    """The principal-series irreducible lam >= 0, as the complex lam."""
    if lam < 0:
        raise DomainError("principal: lam must be >= 0")
    check_finite("principal", lam=lam)
    lam = float(lam)
    if not math.isfinite(2.0 * lam):
        raise DomainError(
            "principal: expected lam <= DBL_MAX / 2, where the gauge "
            f"base -2b = 1 - 2i lam is finite, got {lam!r}")
    if lam > 0.0 and lam * lam + 0.25 == 0.25:
        raise DomainError(
            "principal: expected lam = 0 or mu = lam^2 + 1/4 above 1/4 in "
            f"double precision (lam >= about 5.3e-9), got {lam!r}")
    return complex(lam)


def complementary(nu):
    """The complementary-series irreducible 0 < nu < 1/2, as lam = i nu."""
    if not 0.0 < nu < 0.5:
        raise DomainError("complementary: nu must lie in (0, 1/2)")
    if 0.25 - nu * nu == 0.25:
        raise DomainError(
            "complementary: expected mu = 1/4 - nu^2 below 1/4 in double "
            f"precision (nu >= about 3.7e-9), got {nu!r}")
    return complex(1j * nu)


def _b(lam, branch):
    # the branch exponent b = -1/2 + i lam of plus, -1/2 - i lam otherwise
    return -0.5 + 1j * lam if branch == BRANCH_PLUS else -0.5 - 1j * lam


@dataclass
class KBandedOperator:
    """Tridiagonal operator on a run of consecutive circle modes.

    diag[i], sup[i], sub[i] are the amplitudes coupling the run's i-th mode
    psi_k to psi_k, psi_{k+1}, psi_{k-1} respectively.
    """

    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray

    def as_dense(self):
        """Matrix M[j, k] acting on coefficient vectors of functions."""
        m = self.diag.size
        out = np.zeros((m, m), dtype=complex)
        idx = np.arange(m)
        out[idx, idx] = self.diag
        out[idx[1:], idx[:-1]] = self.sup[:-1]
        out[idx[:-1], idx[1:]] = self.sub[1:]
        return out


def build_k_matrices(lam, K):
    """Tridiagonal matrices of X, U, S, Theta, N+, N- on |k| <= K."""
    if K < 2:
        raise DomainError("build_k_matrices: K must be >= 2")
    check_finite("build_k_matrices", lam=lam)
    ks = np.arange(-K, K + 1, dtype=float)
    zero = np.zeros_like(ks, dtype=complex)
    # raising/lowering amplitudes of N+ and N-
    np_raise = 1j * (ks + 0.5 - 1j * lam)
    nm_lower = 1j * (ks - 0.5 + 1j * lam)
    # U = (i/2)(N- - N+ - Theta), S = (i/2)(N- - N+ + Theta)
    us_raise = -0.5j * np_raise
    us_lower = 0.5j * nm_lower
    return {
        "X": KBandedOperator(zero.copy(), 0.5 * np_raise, 0.5 * nm_lower),
        "U": KBandedOperator(-1j * ks, us_raise.copy(), us_lower.copy()),
        "S": KBandedOperator(1j * ks, us_raise.copy(), us_lower.copy()),
        "Theta": KBandedOperator((2 * ks).astype(complex), zero.copy(),
                                 zero.copy()),
        "Nplus": KBandedOperator(zero.copy(), np_raise, zero.copy()),
        "Nminus": KBandedOperator(zero.copy(), zero.copy(), nm_lower),
    }


def gauge_log(lam, branch, n_top):
    """L_n = sum_{j<n} 1/2 log((j + 1) / (-2b + j)), n <= n_top, b = b_branch:
    log(t_n sqrt(n!)) for the gauge t_n = prod_{j<n} (-2b + j)^(-1/2).

    One running sum of ratios near 1, not the difference of two rounded
    n-term sums of size ~1e4 (off by up to 8e-12 at n = 2000).  The
    factors -2b + j all have real part >= 1, or >= 1 - 2 nu > 0 in the
    complementary regime, so each ratio's principal log is the
    difference of per-factor principal logs: the gauge's continuous
    branch, with L_0 = 0.  Each part of the steps keeps one sign and
    shrinks, so a partial sum is at least the next step and (total - new)
    + step is the addition's rounding exactly (Fast2Sum); carried along,
    it keeps L_n within 3e-14 of its 40-digit value for n <= 2000 (the
    plain sum drifts to 4.0e-13 at lam = 20).
    """
    check_finite("gauge_log", lam=lam)
    c = -2.0 * _b(lam, branch)
    if is_gamma_pole(c):
        raise DomainError(f"gauge: -2b = {c} hits a branch point")
    logs, total, comp = [0j], 0j, 0j
    for j in range(n_top):
        step = 0.5 * cmath.log((j + 1) / (c + j))
        new = total + step
        comp += (total - new) + step
        total = new
        logs.append(total + comp)
    return np.array(logs)


def block_rows(n_cols):
    """Rows per block when n_cols columns (over all tables) are stacked."""
    return max(1, BLOCK_ELEMENTS // n_cols)


def _moment_seeds(lam, K, renormalized):
    """M_0 of each moment column k = 0..K; every moment seed is made here.

    M_0 is even in k and M_0(k+1) / M_0(k) = (a-k-1) / (a+k), a = -b =
    1/2 - i lam (DLMF 5.5.1): one product from M_0(0), raw the beta line
    integral exp(log_beta_line(b, b)), renormalized rho(lam) M_0(0) = 1.
    A zero seed (Gamma(-b-k) or Gamma(-b+k) on a pole, tested for k = 0..K,
    as k and -k test the same pair; a zero factor a-k-1 is column k+1's
    pole) raises DomainError with lam, naming the least such k >= 0.
    """
    b = _b(lam, BRANCH_PLUS)
    for k in range(K + 1):
        if is_gamma_pole(-(b + k)) or is_gamma_pole(-(b - k)):
            raise DomainError(
                f"moment seeds at {_param_label(lam)}, K = {K}: M_0 of column "
                f"k = {k} is zero, as b + k or b - k (b = -1/2 + i lam) rounds "
                "onto an integer >= 0 in double precision; b must lie further "
                f"than about {math.ulp(K) / 2.0:.2g} from an integer",
                lam)
    j = np.arange(K)
    return np.cumprod(np.concatenate((
        [1.0 if renormalized else cmath.exp(log_beta_line(b, b))],
        (-b - (j + 1.0)) / (-b + j))))


def _moment_columns(lam, K, renormalized=False):
    """(a, s, e, x0) of recurrence_blocks for the regularized moments
    M_n = int x^n (1+ix)^(b+k) (1-ix)^(b-k) dx, one column per k = 0..K.

    The recurrence (n+1+2 i lam) M_{n+1} = -2 i k M_n - n M_{n-1} is the
    moment form of (1+x^2) f' = (2ik + (2b) x) f.  Both fundamental
    solutions stay polynomially bounded, so forward recursion is stable.
    renormalized=True gives rho(lam) * M_n, with the threshold
    renormalizer rho(lam) = Gamma(1/2 - i lam) / (sqrt(pi) Gamma(-i lam)),
    which cancels the pole of Gamma(-2 i lam) in M_0 exactly.
    """
    return (-2j * np.arange(K + 1), -1.0, 2j * lam,
            _moment_seeds(lam, K, renormalized))


def _phase(k, sign):
    # exp(sign * i k pi / 2) exactly on the 4th roots of unity
    r = (sign * k) % 4
    return (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)[r]


def _phases(K, sign):
    """Row of exp(sign * i k pi / 2) / sqrt(pi) over k = 0..K."""
    return np.array([_phase(k, sign) / _SQRT_PI for k in range(K + 1)])


def _param_label(lam):
    return f"lam = {lam.real!r}" if lam.imag == 0 else f"nu = {lam.imag!r}"


def _table_name(branch, lam, N, K):
    return f"{branch} table at {_param_label(lam)}, N = {N}, K = {K}"


class _TableSpec:
    """One table as a recurrence over k = 0..K (scalars or K + 1 values):
    entry [n, k] is pre[n] * x[n, k] * phase[k], x the rows of
    recurrence_blocks(*columns).  a is odd in k, s, e and x0 even and
    phase(-k) = (-1)^k phase(k), so entry[n, -k] is (-1)^(n+k) entry[n, k]."""

    def __init__(self, name, lam, columns, pre, phase):
        self.name, self.lam, self.columns = name, lam, columns
        self.pre, self.phase = pre, phase


def _table_spec(lam, N, K, branch):
    """One branch table.  Plus: t_n^+ sqrt(n!) = exp(L_n) (gauge_log) times
    phase_k [x^n] two-factor; minus: moments with t_n^- / sqrt(n!) =
    exp(-L_n), a Gamma pole at lam = 0 (PoleError); minus_renormalized:
    the rho-rescaled moments times (-1)^n exp(-L_n), finite at lam = 0,
    where they coalesce with plus."""
    logs = gauge_log(lam, branch, N)
    # a prefactor may overflow to inf: _table_blocks names the table and
    # rows of every non-finite entry
    with np.errstate(over="ignore"):
        if branch == BRANCH_PLUS:
            name, sign = "plus-branch", +1
            b, ks = _b(lam, BRANCH_PLUS), np.arange(K + 1)
            columns = two_factor_columns(b + ks, b - ks)
        elif branch == BRANCH_MINUS_RENORMALIZED:
            name, sign = "renormalized minus-branch", -1
            columns = _moment_columns(lam, K, renormalized=True)
        elif lam == 0:
            raise PoleError(f"{_table_name('minus-branch', lam, N, K)}: raw "
                            "branch has a pole at lam = 0; use "
                            f"{BRANCH_MINUS_RENORMALIZED}", lam)
        else:
            name, sign = "minus-branch", -1
            columns = _moment_columns(lam, K)
        # exp(L_n) with the phase i^k / sqrt(pi), exp(-L_n) with (-i)^k
        pre = np.exp(logs if sign > 0 else -logs)
        if branch == BRANCH_MINUS_RENORMALIZED:
            pre *= (-1.0) ** np.arange(N + 1)
    return _TableSpec(_table_name(name, lam, N, K), lam, columns, pre,
                      _phases(K, sign))


def _first_non_finite(values, n0):
    """None if values[row, table, ...] (rows from n0) is all finite, else
    the first table with a non-finite value and its first and last rows
    holding one."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    finite = finite.reshape(values.shape[0], values.shape[1], -1).all(axis=2)
    t = int(np.argmin(finite.all(axis=0)))
    bad = np.flatnonzero(~finite[:, t])
    return t, n0 + int(bad[0]), n0 + int(bad[-1])


def _table_blocks(specs, rows):
    """Scaled rows of the stacked tables `specs` (common N and K), by block.

    One recurrence advances the columns k = 0..K of every table, as
    _TableSpec describes them; the one k < 0 column kept, k = -1, is the
    mirror (-1)^(n+1) entry[n, 1].  A block of `rows` rows is
    scaled as np.multiply(pre, x), then * phase (numpy's complex multiply
    is not bitwise commutative), and checked finite: AccuracyError names
    the first table with a non-finite entry in the first block holding
    one, and its rows.  Yields (w0, n0, win), win[i, t, k + 1] being row
    w0 + i of table t, k = -1..K (0 at -1 if K = 0): rows n0.., after row
    n0 - 1 if n0 > 0, which U and S pair with row n0.  The next block
    overwrites win.
    """
    n_rows, K = specs[0].pre.size, specs[0].phase.size - 1
    cols = np.array([np.broadcast_arrays(*spec.columns, spec.phase)
                     for spec in specs], dtype=complex).transpose(1, 0, 2)
    phase, cols = cols[4].copy(), cols[:4].reshape(4, -1)
    pre = np.stack([spec.pre for spec in specs], axis=1)
    odd = np.where(np.arange(n_rows) % 2, 1.0, -1.0)
    rows = min(rows, n_rows)
    win = np.zeros((rows + 1, len(specs), K + 2), dtype=complex)
    half = np.empty((rows, len(specs), K + 1), dtype=complex)
    for n0, x in recurrence_blocks(*cols, n_rows - 1, rows):
        r = x.shape[0]
        if n0:
            win[0] = win[rows]
        new, scaled = win[1:r + 1], half[:r]
        with np.errstate(over="ignore", invalid="ignore"):
            scaled[...] = pre[n0:n0 + r, :, None]
            np.multiply(scaled, x.reshape(scaled.shape), out=scaled)
            scaled *= phase
        bad = _first_non_finite(scaled, n0)
        if bad:
            raise AccuracyError(
                f"{specs[bad[0]].name} has non-finite entries in rows "
                f"{bad[1]}..{bad[2]} (double precision overflow)",
                value=specs[bad[0]].lam)
        new[..., 1:] = scaled
        if K:  # entry[n, -1] = (-1)^(n+1) entry[n, 1]
            np.multiply(new[..., 2], odd[n0:n0 + r, None], out=new[..., 0])
        yield (n0 - 1, n0, win[:r + 1]) if n0 else (0, 0, new)


def coeff_table(lam, N, K, branch):
    """Entries [n, k+K] of one branch table (plus, minus or
    minus_renormalized; see _table_spec): the one-table, one-block case
    of _table_blocks."""
    check_finite("coeff_table", lam=lam)
    spec = _table_spec(lam, N, K, branch)
    ((_, _, win),) = _table_blocks([spec], spec.pre.size)
    half = win[:, 0, 1:]
    sign = (-1.0) ** np.add.outer(np.arange(N + 1), np.arange(K, 0, -1))
    return np.concatenate((half[:, :0:-1] * sign, half), axis=1)


def _stack_relations(per_table, specs, rows):
    """The relations {name: (op, coef, shift)} of _ladder_relations, one
    per table, stacked for _audit: ({name: (diag, group, coef, shift)},
    bands), each band laid out as the windows' rows (columns k = 0..K-1,
    0 at k = -1, K) tiled over rows + 1 rows, diag None if all zero,
    coef[n, table], bands[group] the (sup, sub) of all relations whose
    pairs are equal.  Each operator must be mirrored as its table: for
    shift s, sup(-k) = -(-1)^s sub(k), diag(-k) = (-1)^s diag(k).
    """
    K, stacked, bands = specs[0].phase.size - 1, {}, []
    for name, (_, _, shift) in per_table[0].items():
        ops = np.array([astuple(rels[name][0]) for rels in per_table])
        sign = np.array([[1.0], [-1.0], [-1.0]]) * (-1.0) ** shift
        mirrored = ops[..., ::-1] == sign * ops[:, [0, 2, 1]]
        bad = np.flatnonzero(~mirrored.reshape(len(ops), -1).all(1))
        if bad.size:
            raise ConsistencyError(
                f"ladder relation {name} of {specs[bad[0]].name} is not "
                "mirrored in k", specs[bad[0]].lam)
        laid = np.pad(ops[..., K:-1], [(0, 0), (0, 0), (1, 1)])
        diag, *pair = np.tile(laid.transpose(1, 0, 2).reshape(3, -1), rows + 1)
        if not any(np.array_equal(p, pair) for p in bands):
            bands.append(np.array(pair))
        group = next(g for g, p in enumerate(bands) if np.array_equal(p, pair))
        stacked[name] = (diag.copy() if diag.any() else None, group,
                         np.stack([r[name][1] for r in per_table], 1), shift)
    return stacked, bands


def _audit(windows, relations, bands, specs, rows):
    """Worst residuals of stacked ladder relations (_stack_relations) over
    stacked tables: the audit loop of intertwine_sweep.

    windows yields (w0, n0, win) as _table_blocks does, win holding at
    most rows + 1 rows; every row pair (n, n + shift) inside win that
    reaches a row from n0 on is scored.  Each entry of the columns
    k = 0..K-1 scores its componentwise backward error (Oettli and
    Prager, Numer. Math. 6, 1964), |lhs - rhs| / (((|S| + |L|) + |D|) +
    |lhs|) with rhs = (S + D) + L, S = sup*c_{k+1}, D = diag*c_k and
    L = sub*c_{k-1} (0/0 scores 0): the error against the size of the
    entry's own terms, which does not grow with their cancellation as K
    does.  The mirrored columns -k sum the same products in another order
    and score the same up to rounding.  Relations with equal bands share
    S, L and |S| + |L|.  Returns {name: worst score of each table}; a
    non-finite score raises AccuracyError naming the table of `specs` and
    carrying its lam.
    """
    n_tab, K = len(specs), specs[0].phase.size - 1
    width, size = n_tab * (K + 2), (rows + 1) * n_tab * (K + 2)
    worst = {name: np.zeros(n_tab) for name in relations}
    prods = np.zeros((len(bands), 2, size), dtype=complex)
    band_abs = np.zeros((len(bands), size))  # |S| + |L| per band pair
    terms, mags = np.empty((2, size), dtype=complex), np.empty((2, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for w0, n0, win in windows:
            c, m = win.reshape(-1), win.size
            for (sup, sub), (up, down), both in zip(bands, prods, band_abs):
                np.multiply(sup[1:m - 1], c[2:], out=up[1:m - 1])
                np.multiply(sub[1:m - 1], c[:-2], out=down[1:m - 1])
                np.add(np.abs(up[:m], out=mags[0, :m]),
                       np.abs(down[:m], out=mags[1, :m]), out=both[:m])
            for name, (diag, group, coef, shift) in relations.items():
                lo = max(w0, w0 - shift, n0 - max(shift, 0))
                hi = min(w0 + len(win), w0 + len(win) - shift)
                if lo >= hi:
                    continue
                i, j, h = (lo - w0) * width, (hi - w0) * width, hi - lo
                up, down = prods[group, :, i:j]
                (lhs, rhs), (den, mag) = terms[:, :j - i], mags[:, :j - i]
                # lhs = coef[n] * c[n + shift], coef spread over its table
                lhs.reshape(h, n_tab, K + 2)[...] = coef[lo:hi, :, None]
                np.multiply(lhs, c[i + shift * width:j + shift * width],
                            out=lhs)
                np.abs(lhs, out=mag)
                if diag is None:
                    np.add(up, down, out=rhs)
                    np.add(band_abs[group, i:j], mag, out=den)
                else:
                    np.multiply(diag[:j - i], c[i:j], out=rhs)
                    np.add(band_abs[group, i:j], np.abs(rhs, out=den), out=den)
                    np.add(den, mag, out=den)
                    np.add(np.add(up, rhs, out=rhs), down, out=rhs)
                np.abs(np.subtract(lhs, rhs, out=rhs), out=mag)
                np.divide(mag, np.maximum(den, 5e-324, out=den), out=mag)
                # worst over columns k = 0..K-1 of each row and table
                score = mag.reshape(h, n_tab, K + 2)[..., 1:-1].max(axis=2)
                bad = _first_non_finite(score, lo)
                if bad:
                    raise AccuracyError(
                        f"intertwining audit: {name} residual of "
                        f"{specs[bad[0]].name} is not finite in rows "
                        f"{bad[1]}..{bad[2]}", value=specs[bad[0]].lam)
                np.maximum(worst[name], score.max(axis=0), out=worst[name])
    return worst


def _ladder_relations(lam, branch, N, ops):
    """The X / U / S relations of one branch table, for intertwine_sweep.

    The model actions are
        X:  (-n + b) s_{n,k}
        U:  sign * sqrt(n) (n-1-2b)^(1/2) s_{n-1,k}
        S:  -sign * (n-2b)^(1/2) sqrt(n+1) s_{n+1,k}
    against the column action of the tridiagonal matrices, sign = 1 on
    the raw minus branch and -1 on the others.  Square roots are
    per-factor principal, matching the gauge branch.
    """
    b = _b(lam, branch)
    sign = 1.0 if branch == BRANCH_MINUS else -1.0
    sqrt_n = [math.sqrt(n) for n in range(N + 2)]
    # (m - 2b)^(1/2), m = -1..N: U's factor at n = m + 1, S's at n = m
    roots = [cmath.sqrt(m - 2 * b) for m in range(-1, N + 1)]
    return {
        "X": (ops["X"], np.array([-n + b for n in range(N + 1)]), 0),
        "U": (ops["U"], np.array([sign * r * q
                                  for r, q in zip(sqrt_n, roots[:-1])]), -1),
        "S": (ops["S"], np.array([-sign * q * r for q, r
                                  in zip(roots[1:], sqrt_n[1:])]), 1),
    }


def intertwine_sweep(tables, N, K):
    """Worst residual of the X / U / S intertwining identities of each
    (lam, branch) table of `tables`, one {relation: residual} per table.

    Relation (op, coef, shift) of _ladder_relations states, for every row
    n with 0 <= n + shift <= N,
        coef[n] * table[n + shift, k] = sum_j O_{jk} table[n, j]
    on the interior columns k, with O the KBandedOperator op.  Each entry
    of the columns k = 0..K-1 scores |lhs - rhs| / (|lhs| + |sup c_{k+1}|
    + |diag c_k| + |sub c_{k-1}|), c = table[n], its componentwise
    backward error (_audit), and the relation reports its worst entry; a
    non-finite score raises AccuracyError naming the table and the rows.
    An error about one table carries its lam as GfslError.value.  The
    tables are built and audited together, block_rows rows at a time: no
    whole table is held.  Every table is set up before any recurrence
    runs, so a raw minus table at lam = 0 raises its PoleError first.
    """
    for lam, _ in tables:
        check_finite("intertwine_sweep", lam=lam)
    specs = [_table_spec(lam, N, K, branch) for lam, branch in tables]
    rows = min(block_rows(len(specs) * (2 * K + 1)), N + 1)
    relations, bands = _stack_relations(
        [_ladder_relations(lam, branch, N, build_k_matrices(lam, K))
         for lam, branch in tables], specs, rows)
    worst = _audit(_table_blocks(specs, rows), relations, bands, specs, rows)
    return [{rel: float(w[t]) for rel, w in worst.items()}
            for t in range(len(specs))]


def _threshold_rationals(k, n_top):
    """Exact lam = 0 data of column k, n <= n_top, and its first lam-derivative:
    both branch recurrences in rational arithmetic, at lam = eps, eps^2 = 0.

    Plus branch (Taylor route): a_n = i^n (r_n + i eps rho_n) with
        (n+1) r_{n+1} = 2 k r_n + n r_{n-1},                    r_0 = 1,
        (n+1) rho_{n+1} = 2 k rho_n + n rho_{n-1} - 2 r_{n-1},  rho_0 = 0.
    Renormalized minus branch (moment route): M_n = (-i)^n (q_n + i eps mu_n)
    with q_n = (-1)^k r_n, the coalescence of the branches (q obeys r's
    recurrence from q_0 = (-1)^k), and
        (n+1) mu_{n+1} = 2 k mu_n + n mu_{n-1} - 2 q_{n+1},
    mu_0 = (-1)^k sum_{j<|k|} 4/(2j+1), as each seed ratio (-b-j-1)/(-b+j)
    is -1 at lam = 0 with log-derivative 4i/(2j+1); r, rho, mu vanish at
    n = -1.  Returns the lists (r, rho, mu).
    """
    from fractions import Fraction  # no CLI run reaches this

    sign = (-1) ** (k % 2)
    # position n + 1 holds the n-th value, position 0 the zero at n = -1
    r, rho = [0, Fraction(1)], [0, Fraction(0)]
    mu = [0, sign * sum(Fraction(4, 2 * j + 1) for j in range(abs(k)))]
    for n in range(n_top):
        r.append((2 * k * r[n + 1] + n * r[n]) / (n + 1))
        rho.append((2 * k * rho[n + 1] + n * rho[n] - 2 * r[n]) / (n + 1))
        mu.append((2 * k * mu[n + 1] + n * mu[n] - 2 * sign * r[n + 2])
                  / (n + 1))
    return r[1:], rho[1:], mu[1:]


def threshold_tables(N, K):
    """(S, D): the common threshold table S at mu = 1/4 and the threshold
    derivative D.

    S is the lam = 0 value of both branch tables, rounded once from its
    exact rational value.  D is d/d lam of (s+ - s^-) / 2i at lam = 0,
    from the exact lam-derivatives of both routes (_threshold_rationals).
    Both gauges, exp(L+_n) and exp(-L-_n), are 1 + i lam H_n to first
    order and cancel in the difference, so D[n, k] = i^(n+k) (rho_n -
    (-1)^k mu_n) / (2 sqrt(pi)), rounded once from its exact value.  The
    two X relations of the branch tables then give the Jordan chain
    (X(0) + n + 1/2) D_n = S_n.
    """
    s_tab, d_tab = (np.zeros((N + 1, 2 * K + 1), dtype=complex)
                    for _ in range(2))
    for k in range(-K, K + 1):
        r, rho, mu = _threshold_rationals(k, N)
        sign = (-1) ** (k % 2)
        for n in range(N + 1):
            # e^{ik pi/2} [x^n] = i^k i^n r_n
            s_tab[n, k + K] = _phase(n + k, +1) * float(r[n]) / _SQRT_PI
            d_tab[n, k + K] = (_phase(n + k, +1) * float(rho[n] - sign * mu[n])
                               / (2.0 * _SQRT_PI))
    return s_tab, d_tab


def correlation(lam, k_out, k_in, tau, N):
    """Resonance expansion of <psi_kout | exp(tau X) psi_kin>, truncated:
    the complex sum of exp(tau z_{n,branch}) v[n,k_out] s[n,k_in] over
    n <= N and both branches."""
    if not tau > 0:
        raise DomainError("correlation: tau must be > 0")
    check_finite("correlation", lam=lam, tau=tau)
    if (lam * lam + 0.25).real == 0.25:
        raise DomainError("correlation: defined for principal/complementary only")
    K = max(abs(k_out), abs(k_in))
    n = np.arange(N + 1)
    # the dual rows of each branch: (-1)^n times the other branch at -lam
    odd = (-1.0) ** n[:, None]
    sp = coeff_table(lam, N, K, BRANCH_PLUS)
    vp = odd * coeff_table(-lam, N, K, BRANCH_MINUS)
    sm = coeff_table(lam, N, K, BRANCH_MINUS)
    vm = odd * coeff_table(-lam, N, K, BRANCH_PLUS)
    ep = np.exp(tau * (-n - 0.5 + 1j * lam))
    em = np.exp(tau * (-n - 0.5 - 1j * lam))
    prod_p = vp[:, k_out + K] * sp[:, k_in + K]
    prod_m = vm[:, k_out + K] * sm[:, k_in + K]
    return complex(np.sum(ep * prod_p) + np.sum(em * prod_m))
