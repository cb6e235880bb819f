import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfsl import means, spherical
from gfsl.errors import (AccuracyError, ConsistencyError, DomainError,
                         GfslError, PoleError)
from gfsl.specfun import legendre_conical, log_beta_line

from oracles import (branch_table_mp, characteristics_correlation,
                     coeff_table_full_width, gauge_log_mp, i_nk_reference,
                     intertwine_residual_rows, ladder_coefficients,
                     moment_seeds_mp, threshold_derivative_mp)

SQRT_PI = math.sqrt(math.pi)

P1 = spherical.principal(1.0)
PC = spherical.complementary(0.3)
DBL_MAX = sys.float_info.max


def _b_pm(lam):
    # (b_plus, b_minus) through the one helper that forms them
    return (spherical._b(lam, spherical.BRANCH_PLUS),
            spherical._b(lam, spherical.BRANCH_MINUS))


class TestParams:
    def test_principal(self):
        b_plus, b_minus = _b_pm(P1)
        mu = (P1 * P1 + 0.25).real
        assert mu == 1.25
        assert b_plus == -0.5 + 1j
        assert abs(b_plus * b_minus - mu) < 1e-15

    def test_complementary(self):
        b_plus, b_minus = _b_pm(PC)
        assert abs((PC * PC + 0.25).real - 0.16) < 1e-15
        assert b_plus == -0.8
        assert b_minus == -0.2

    @pytest.mark.parametrize("lam,want,mu,b_plus,b_minus", [
        (P1, complex(1.0, 0.0), 1.0 * 1.0 + 0.25, -0.5 + 1j * 1.0,
         -0.5 - 1j * 1.0),
        (spherical.principal(12.3), complex(12.3, 0.0), 12.3 * 12.3 + 0.25,
         -0.5 + 1j * 12.3, -0.5 - 1j * 12.3),
        (PC, complex(0.0, 0.3), 0.25 - 0.3 * 0.3, -0.5 - 0.3, -0.5 + 0.3),
        (spherical.complementary(0.4999), complex(0.0, 0.4999),
         0.25 - 0.4999 * 0.4999, -0.5 - 0.4999, -0.5 + 0.4999),
        (0j, complex(0.0, 0.0), 0.25, -0.5, -0.5),
        (spherical.principal(0.0), complex(0.0, 0.0), 0.25, -0.5, -0.5),
    ], ids=["principal", "principal-large", "complementary",
            "complementary-edge", "threshold", "principal-zero"])
    def test_lam_and_closed_forms_exact(self, lam, want, mu, b_plus,
                                        b_minus):
        # each constructor returns the complex lam (i nu), zeros' signs
        # included; mu = lam^2 + 1/4 (1/4 - nu^2) and b_pm = -1/2 +- i lam
        # (-1/2 -+ nu) are its closed forms to the bit
        assert type(lam) is complex and repr(lam) == repr(want)
        assert (lam * lam + 0.25).real == mu
        assert _b_pm(lam) == (b_plus, b_minus)

    @pytest.mark.parametrize("make,val,text", [
        # mu would round to 1/4, the threshold, in a non-threshold regime
        (spherical.principal, 5.26e-9,
         "principal: expected lam = 0 or mu = lam^2 + 1/4 above 1/4 in "
         "double precision (lam >= about 5.3e-9), got 5.26e-09"),
        (spherical.complementary, 3.72e-9,
         "complementary: expected mu = 1/4 - nu^2 below 1/4 in double "
         "precision (nu >= about 3.7e-9), got 3.72e-09"),
        # the gauge base -2b = 1 - 2i lam overflows
        (spherical.principal, math.nextafter(DBL_MAX / 2, math.inf),
         "principal: expected lam <= DBL_MAX / 2, where the gauge base "
         "-2b = 1 - 2i lam is finite, got 8.98846567431158e+307"),
        (spherical.principal, -1.0, "principal: lam must be >= 0"),
        (spherical.complementary, 0.5,
         "complementary: nu must lie in (0, 1/2)"),
    ], ids=["principal-mu", "complementary-mu", "principal-gauge",
            "principal-negative", "complementary-half"])
    def test_rejections_name_their_envelope(self, make, val, text):
        with pytest.raises(DomainError) as exc:
            make(val)
        assert str(exc.value) == text

    @pytest.mark.parametrize("make,val", [
        (spherical.principal, 5.27e-9), (spherical.complementary, 3.73e-9),
        (spherical.principal, DBL_MAX / 2)])
    def test_envelope_edges_accepted(self, make, val):
        lam = make(val)
        assert abs(lam) == val and (lam * lam + 0.25).real != 0.25

    @pytest.mark.parametrize("nu,k_max,k", [(0.49999999999999994, 2, 1),
                                            (0.4999999999999998, 8, 3)])
    def test_moment_seed_on_pole_names_parameter(self, nu, k_max, k):
        # 1/2 + nu - k rounds onto a pole: the seed is zero, before any row;
        # the error names the least such column k >= 0
        lam = spherical.complementary(nu)
        with pytest.raises(DomainError, match=f"at nu = {nu!r}, K = {k_max}:"
                           f" M_0 of column k = {k} is zero") as exc:
            spherical.coeff_table(lam, 4, k_max, spherical.BRANCH_MINUS)
        assert exc.value.value == lam

    def test_interlacing_complementary(self):
        n = np.arange(4)
        z = np.stack([-n - 0.5 + 1j * PC, -n - 0.5 - 1j * PC],
                     axis=1).real
        flat = sorted(np.concatenate([z[:, 0], z[:, 1]]), reverse=True)
        # z_{0,-} > z_{0,+} > z_{1,-} > z_{1,+} > ...
        want = [z[0, 1], z[0, 0], z[1, 1], z[1, 0], z[2, 1], z[2, 0]]
        assert np.allclose(flat[:6], want)
        assert all(a > b for a, b in zip(flat, flat[1:]))


class TestMomentSeeds:
    @pytest.mark.parametrize("K", [8, 100, 150])
    @pytest.mark.parametrize("lam", [
        *map(spherical.principal, (0.3, 2.0, 20.0)),
        *map(spherical.complementary, (0.1, 0.46, 0.499))],
        ids=["lam0.3", "lam2", "lam20", "nu0.1", "nu0.46", "nu0.499"])
    def test_seeds_match_mpmath(self, lam, K):
        # raw seeds, the seeds at -lam (of the minus table that gives
        # correlation the plus branch's dual rows) and, for
        # real lam, the renormalized seeds; per-column log-Gamma seeds
        # were off by 9.8e-12 in the column ratio at nu = 0.499, K = 100.
        # The seeds cover k = 0..K; column -k takes column k's, which the
        # 40-digit seeds, each from its own Gamma values, bear out exactly
        cases = [(lam, False), (-lam, False)]
        if lam.imag == 0:  # principal
            cases.append((lam, True))
        for arg, renormalized in cases:
            got = np.asarray(spherical._moment_seeds(arg, K, renormalized))
            full = moment_seeds_mp(arg, K, renormalized)
            assert np.array_equal(full[:K], full[:K:-1])
            want = full[K:]
            assert got.shape == want.shape
            assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
            ratio = want / want[0]
            err = np.max(np.abs(got / got[0] - ratio) / np.abs(ratio))
            assert err <= 1e-13, (lam, renormalized, err)


class TestKMatrices:
    def test_x_super_entry(self):
        K = 4
        ops = spherical.build_k_matrices(P1, K)
        got = ops["X"].sup[0 + K]
        assert abs(got - (0.5 + 0.25j)) < 1e-15

    def test_theta_diagonal(self):
        K = 4
        ops = spherical.build_k_matrices(P1, K)
        assert ops["Theta"].diag[3 + K] == 6.0

    def test_np_nm_product_identity(self):
        # interior rows: N+ N- = -mu Id - Theta(Theta-2)/4
        for lam in (P1, spherical.principal(5.0)):
            ops = spherical.build_k_matrices(lam, 6)
            npl = ops["Nplus"].as_dense()
            nmi = ops["Nminus"].as_dense()
            th = ops["Theta"].as_dense()
            lhs = npl @ nmi
            mu = (lam * lam + 0.25).real
            rhs = -mu * np.eye(13) - 0.25 * th @ (th - 2 * np.eye(13))
            assert np.max(np.abs((lhs - rhs)[1:-1, 1:-1])) < 1e-12

    def test_skew_adjointness(self):
        ops = spherical.build_k_matrices(P1, 5)
        x = ops["X"]
        for i in range(10):
            assert abs(x.sup[i] + np.conj(x.sub[i + 1])) < 1e-14

    def test_ladder_norm_identity(self):
        # squared N+ column norm at K-type 2k is mu + 2k(2k+2)/4, exactly
        for val in (0.0, 0.7, 5.0):
            lam = spherical.principal(val)
            K = 8
            ops = spherical.build_k_matrices(lam, K)
            for k in range(-7, 8):
                col = abs(ops["Nplus"].sup[k + K]) ** 2
                want = (lam * lam + 0.25).real + 0.25 * (2 * k) * (2 * k + 2)
                assert abs(col - want) <= 1e-12 * max(1.0, want)


class TestGauge:
    def test_t0_is_one(self):
        for branch in (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS):
            assert np.exp(spherical.gauge_log(P1, branch, 5))[0] == 1.0

    def test_complementary_real_positive(self):
        for branch in (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS):
            t = np.exp(spherical.gauge_log(PC, branch, 20))
            assert np.max(np.abs(t.imag)) == 0.0
            assert np.all(t.real > 0)

    def test_plus_gauge_cancels_factorial(self):
        # |t_n^+| sqrt(n!) = exp(Re L_n) falls, from above, to
        # prod_{j>=1} (1 + 4 lam^2 / j^2)^(-1/4) = (sinh(2 pi lam) /
        # (2 pi lam))^(-1/4), within lam^2 / n of it at row n
        n = np.array([1, 20, 219, 2000])
        logs = spherical.gauge_log(P1, spherical.BRANCH_PLUS, 2000)
        limit = -0.25 * math.log(math.sinh(2.0 * math.pi) / (2.0 * math.pi))
        gap = logs[n].real - limit
        assert np.all(gap > 0) and np.all(gap <= 1.0 / n), gap

    @pytest.mark.parametrize("branch", [spherical.BRANCH_PLUS,
                                        spherical.BRANCH_MINUS])
    @pytest.mark.parametrize("lam", [
        *map(spherical.principal, (1e-7, 1.0, 17.0, 20.0)),
        *map(spherical.complementary, (1e-7, 0.3, 0.4999))],
        ids=["lam1e-7", "lam1", "lam17", "lam20", "nu1e-7", "nu0.3",
             "nu0.4999"])
    def test_running_sum_equals_40_digits(self, lam, branch):
        # one compensated running sum: the plain sum drifted to 4.0e-13 at
        # lam = 20 (the phase), and exp(log t_n -+ log sqrt(n!)), the
        # difference of two sums of size ~1e4, to 8e-12; 2.8e-14 seen
        got = spherical.gauge_log(lam, branch, 2000)
        want = gauge_log_mp(lam, branch, 2000)
        assert np.max(np.abs(got - want)) <= 5e-14

    def test_branch_point_rejected(self):
        lam = spherical.complementary(0.499999999)
        # fine here; the excluded point nu = 1/2 cannot be constructed at all
        np.exp(spherical.gauge_log(lam, spherical.BRANCH_MINUS, 3))
        with pytest.raises(DomainError):
            spherical.complementary(0.5)


class TestCoeffTables:
    def test_plus_origin_value(self):
        tab = spherical.coeff_table(P1, 6, 3, spherical.BRANCH_PLUS)
        assert abs(tab[0, 0 + 3] - 1.0 / SQRT_PI) < 1e-14

    def test_plus_decay_bound(self):
        tab = spherical.coeff_table(P1, 400, 4, spherical.BRANCH_PLUS)
        n = np.arange(1, 401)
        for k in (0, 2, 4):
            vals = np.abs(tab[1:, k + 4])
            bound = 40.0 * (1 + n ** 2) ** ((abs(k) - 0.5) / 2.0)
            assert np.all(vals <= bound)

    def test_k_reflection_parity(self):
        # generating-function substitution x -> -x gives
        # s_{n,-k} = (-1)^(n+k) s_{n,k}
        tab = spherical.coeff_table(P1, 12, 5, spherical.BRANCH_PLUS)
        for k in range(1, 6):
            for n in range(13):
                lhs = tab[n, -k + 5]
                rhs = (-1.0) ** (n + k) * tab[n, k + 5]
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_minus_raw_parity_zeros(self):
        tab = spherical.coeff_table(P1, 11, 2, spherical.BRANCH_MINUS)
        for n in range(1, 12, 2):
            assert abs(tab[n, 0 + 2]) < 1e-13

    def test_minus_raw_pole_at_threshold(self):
        with pytest.raises(PoleError):
            spherical.coeff_table(0j, 4, 2, spherical.BRANCH_MINUS)

    def test_minus_vs_binomial_reference(self):
        # recurrence route against the explicit binomial/beta closed form
        for lam in (0.7, 1.0):
            tab = spherical.coeff_table(spherical.principal(lam), 25, 3,
                                        spherical.BRANCH_MINUS)
            # t_n^- / sqrt(n!) = exp(-L_n), L_n at 40 digits
            logs = gauge_log_mp(lam, spherical.BRANCH_MINUS, 25)
            for k in (-3, 0, 2):
                for n in (0, 1, 5, 12, 25):
                    pre = cmath.exp(-logs[n])
                    phase = cmath.exp(-1j * k * math.pi / 2.0) / SQRT_PI
                    want = pre * phase * i_nk_reference(lam, k, n)
                    got = tab[n, k + 3]
                    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_threshold_renormalized_equals_plus(self):
        sp = spherical.coeff_table(0j, 12, 4, spherical.BRANCH_PLUS)
        sm = spherical.coeff_table(0j, 12, 4,
                                   spherical.BRANCH_MINUS_RENORMALIZED)
        assert np.max(np.abs(sp - sm)) <= 1e-12 * max(1.0, np.max(np.abs(sp)))


    @pytest.mark.parametrize("K", [0, 1, 2, 9, 64])
    @pytest.mark.parametrize("lam,branch", [
        (lam, branch)
        for lam in (P1, PC, spherical.principal(5.0))
        for branch in (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS,
                       spherical.BRANCH_MINUS_RENORMALIZED)] + [
        # the tables at -lam that correlation takes its dual rows from
        (-lam, branch)
        for lam in (P1, PC, spherical.principal(5.0))
        for branch in (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS)] + [
        # at lam = 0 the raw moments (minus branch) have a pole
        (0j, branch)
        for branch in (spherical.BRANCH_PLUS,
                       spherical.BRANCH_MINUS_RENORMALIZED)])
    def test_half_width_equals_full_width_recurrence(self, lam, branch, K):
        # the k < 0 half is the mirror of the k >= 0 half: value for value
        # the table of one recurrence over all 2K + 1 columns
        want = coeff_table_full_width(
            spherical._table_spec(lam, 40, K, branch))
        got = spherical.coeff_table(lam, 40, K, branch)
        assert got.shape == want.shape and np.array_equal(got, want)

    @settings(max_examples=10)
    @given(lam=st.one_of(
        st.floats(1e-7, 20.0).map(spherical.principal),
        st.floats(1e-7, 0.4999).map(spherical.complementary)),
        branch=st.sampled_from([spherical.BRANCH_PLUS,
                                spherical.BRANCH_MINUS]),
        N=st.integers(0, 2000), K=st.integers(2, 150), data=st.data())
    @example(lam=P1, branch=spherical.BRANCH_MINUS, N=2,
             K=spherical.SWEEP_K_MAX, data=None)
    @example(lam=PC, branch=spherical.BRANCH_PLUS, N=3,
             K=spherical.SWEEP_K_MAX, data=None)
    @example(lam=spherical.principal(1e-7),
             branch=spherical.BRANCH_MINUS, N=2000, K=150, data=None)
    @example(lam=spherical.complementary(0.4999),
             branch=spherical.BRANCH_PLUS, N=2000, K=150, data=None)
    @example(lam=spherical.complementary(0.2664865771756157),
             branch=spherical.BRANCH_PLUS, N=2000, K=56, data=None)
    @example(lam=-spherical.principal(20.0),
             branch=spherical.BRANCH_PLUS, N=600, K=150, data=None)
    @example(lam=-spherical.principal(20.0),
             branch=spherical.BRANCH_MINUS, N=600, K=150, data=None)
    def test_tables_equal_40_digit_recurrence(self, lam, branch, N, K, data):
        # Taylor (plus) and moment (minus) tables against each column's
        # own 40-digit recurrence, run at a negative k, so the mirror is
        # checked against an independent reference.  The worst relative
        # errors seen are 7.4e-14 (plus at nu = 0.2665, N = 2000, K = 56,
        # the worst of 150 draws over the envelope) and 4.0e-11 (raw minus
        # at lam = 1e-7, N = 2000), the moment recurrence's near the
        # lam = 0 pole.  The prefactor exp(+-L_n), one compensated running
        # sum, is within 3e-14 (2.9e-14 of the 7.4e-14); exp(log t_n -+
        # log sqrt(n!)), two rounded N-term sums of size ~1e4, was off by
        # up to 8e-12.  At -lam, the tables correlation takes its dual
        # rows from, lam = -20 and N = 600 read 8.1e-15 (plus) and
        # 3.6e-13 (minus).
        k = -K if data is None else data.draw(st.integers(-K, -1))
        tab = spherical.coeff_table(lam, N, K, branch)
        bound = 1e-10 if branch == spherical.BRANCH_MINUS else 1e-13
        for col in {k, -K}:
            want = branch_table_mp(lam, branch, N, col)
            got = tab[:, col + K]
            err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
            assert err.max() <= bound, (lam, branch, N, K, col, err.max())

    @pytest.mark.parametrize("lam", [complex(math.nan), complex(0.0, math.inf)])
    def test_non_finite_lam_rejected(self, lam):
        # named here, not by the Gamma function the seeds would reach
        with pytest.raises(DomainError) as exc:
            spherical.coeff_table(lam, 10, 3, spherical.BRANCH_PLUS)
        assert str(exc.value) == f"coeff_table: lam must be finite, got {lam!r}"


class TestOverflow:
    def test_large_tables_rejected(self):
        # the plus table overflows near (N, K) = (2000, 250) at lam = 5
        lam = spherical.principal(5.0)
        with pytest.raises(AccuracyError) as info:
            spherical.coeff_table(lam, 2000, 250, spherical.BRANCH_PLUS)
        msg = str(info.value)
        assert "plus-branch" in msg and "lam = 5.0" in msg
        assert "N = 2000" in msg and "K = 250" in msg

    def test_nan_moment_seeds_are_an_overflow(self):
        # at lam = 8.9e307 the minus table's moment seeds are NaN: an
        # overflow from row 0, not a recurrence that fails its mirror
        lam = spherical.principal(8.9e307)
        with pytest.raises(AccuracyError) as info:
            spherical.coeff_table(lam, 40, 8, spherical.BRANCH_MINUS)
        assert str(info.value) == (
            "minus-branch table at lam = 8.9e+307, N = 40, K = 8 has "
            "non-finite entries in rows 0..40 (double precision overflow)")
        assert info.value.value == lam


def _dual_rows(lam, N, K, branch):
    # v[n, k] = <psi_k | T_branch^{-1} e_n>: (-1)^n times the other raw
    # branch at -lam, as correlation builds them
    other = (spherical.BRANCH_MINUS if branch == spherical.BRANCH_PLUS
             else spherical.BRANCH_PLUS)
    return ((-1.0) ** np.arange(N + 1)[:, None]
            * spherical.coeff_table(-lam, N, K, other))


class TestDualCoeffs:
    @pytest.mark.parametrize("lam", [P1, PC, spherical.principal(5.0),
                                     spherical.complementary(0.49)])
    def test_branch_exponents_swap_at_minus_lam(self, lam):
        # b_plus(lam) = b_minus(-lam) and b_minus(lam) = b_plus(-lam), bit
        # for bit (zeros' signs included): the identity the dual rows
        # rest on
        plus, minus = spherical.BRANCH_PLUS, spherical.BRANCH_MINUS
        for one, other in ((plus, minus), (minus, plus)):
            assert repr(spherical._b(lam, one)) == \
                repr(spherical._b(-lam, other))

    def test_dual_plus_origin(self):
        v = _dual_rows(P1, 4, 2, spherical.BRANCH_PLUS)
        b = spherical._b(P1, spherical.BRANCH_MINUS)
        want = cmath.exp(log_beta_line(b, b)) / SQRT_PI
        assert abs(v[0, 2] - want) < 1e-13

    def test_growth_in_k(self):
        # |v_{n,k}| = O(|k|^n): log-log slope about n at fixed n
        n_fix = 2
        ks = np.arange(8, 65)
        v = _dual_rows(P1, n_fix, 64, spherical.BRANCH_PLUS)
        vals = np.abs(v[n_fix, 64 + ks])
        slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
        assert abs(slope - n_fix) < 0.3

    @pytest.mark.parametrize("branch,sign", [(spherical.BRANCH_PLUS, 1.0),
                                             (spherical.BRANCH_MINUS, -1.0)])
    def test_pairing_reproduces_hc_coefficients(self, branch, sign):
        # v_{2m,0} s_{2m,0} equals the Harish-Chandra coefficient
        # W_{2m,lam} on the plus branch, W_{2m,-lam} on the minus branch
        s = spherical.coeff_table(P1, 12, 0, branch)
        v = _dual_rows(P1, 12, 0, branch)
        for m in range(5):
            got = v[2 * m, 0] * s[2 * m, 0]
            want = means.hc_coefficient(m, sign * 1.0)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


ALL_REGIMES = [
    spherical.principal(0.3),
    spherical.principal(1.0),
    spherical.principal(5.0),
    spherical.complementary(0.1),
    spherical.complementary(0.3),
    spherical.complementary(0.49),
]


BRANCHES = (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS,
            spherical.BRANCH_MINUS_RENORMALIZED)


def _per_table(tables, N, K, full_width=False):
    """The row-loop audit of the oracle on each whole table, over the
    sweep's columns k = 0..K-1, or with full_width=True over every
    interior column."""
    return [intertwine_residual_rows(
        lam, spherical.coeff_table(lam, N, K, branch), branch,
        spherical.build_k_matrices(lam, K), full_width)
        for lam, branch in tables]


class TestIntertwining:
    @pytest.mark.parametrize("lam", ALL_REGIMES)
    def test_residuals_all_regimes(self, lam):
        residuals = spherical.intertwine_sweep(
            [(lam, branch) for branch in BRANCHES], 40, 8)
        for branch, res in zip(BRANCHES, residuals):
            for rel, val in res.items():
                assert val < 1e-10, (branch, rel, val)

    @pytest.mark.parametrize("lam", ALL_REGIMES)
    def test_blocked_audit_equals_row_loop(self, lam):
        # (40, 8) is one audit block; at K = 100 the tables end one row
        # before, at and after a block boundary
        b = spherical.block_rows(201)
        for N, K in [(40, 8), (b - 1, 100), (b, 100), (b + 1, 100)]:
            for branch in BRANCHES:
                got = spherical.intertwine_sweep([(lam, branch)], N, K)
                assert got == _per_table([(lam, branch)], N, K), (branch, N)

    @settings(max_examples=20)
    @given(lam=st.one_of(
        st.floats(1e-7, 20.0).map(spherical.principal),
        st.floats(1e-7, 0.4999).map(spherical.complementary)),
        N=st.integers(0, 2000), K=st.integers(2, 150))
    @example(lam=P1, N=2, K=spherical.SWEEP_K_MAX)
    @example(lam=spherical.complementary(0.4999), N=3,
             K=spherical.SWEEP_K_MAX)
    def test_residuals_within_gate_over_envelope(self, lam, N, K):
        # plus and raw minus tables, as spherical-check builds them; at
        # lam = 1, N = 2 a row-wise score, |lhs - rhs| against the row's
        # largest term, grew like K^2 to 2.7e-8 at K_MAX
        residuals = spherical.intertwine_sweep(
            [(lam, spherical.BRANCH_PLUS), (lam, spherical.BRANCH_MINUS)],
            N, K)
        for res in residuals:
            for rel, val in res.items():
                assert val < 1e-9, (lam, N, K, rel, val)

    @staticmethod
    def _x_with_diagonal(monkeypatch, diag):
        # give X the diagonal diag(ks) in P1's tables only
        build = spherical.build_k_matrices

        def x_with_diagonal(lam, K):
            ops = build(lam, K)
            if lam is P1:
                ops["X"].diag = diag(np.arange(-K, K + 1))
            return ops

        monkeypatch.setattr(spherical, "build_k_matrices", x_with_diagonal)
        return [(lam, branch) for lam in (P1, PC) for branch in BRANCHES]

    def test_zero_band_skip_reads_values_not_names(self, monkeypatch):
        # the audit leaves out a diagonal that is zero in every stacked
        # table; give X a nonzero one, even in k as X's shift 0 needs, in
        # P1's tables only, and the sweep must still score it there, where
        # the stray term D = diag c_k scores |D| / (|S| + |L| + |D| + |lhs|)
        # (0.18), while PC's X relation holds to rounding
        tables = self._x_with_diagonal(monkeypatch, lambda k: 0.25j * abs(k))
        N = spherical.block_rows(len(tables) * 17) + 3
        got = spherical.intertwine_sweep(tables, N, 8)
        assert got == _per_table(tables, N, 8)
        assert [res["X"] > 0.1 for res in got[:3]] == [True] * 3
        assert max(res["X"] for res in got[3:]) < 1e-14

    def test_odd_diagonal_breaks_the_mirror(self, monkeypatch):
        # an X diagonal odd in k is not mirrored as the tables are, so the
        # half-width audit cannot score its k < 0 columns: it refuses
        tables = self._x_with_diagonal(monkeypatch, lambda k: 0.25j * k)
        with pytest.raises(ConsistencyError, match=(
                r"^ladder relation X of plus-branch table at lam = 1\.0, "
                r"N = 20, K = 8 is not mirrored in k$")):
            spherical.intertwine_sweep(tables, 20, 8)

    def test_band_sharing_reads_values_not_names(self, monkeypatch):
        # U and S share their sup and sub products, and |S| + |L|, only
        # while the bands are equal in every stacked table; doubling S's
        # in P1's tables only leaves S + L over, which scores about 1/3
        # there, while PC's S relation holds to rounding
        build = spherical.build_k_matrices

        def s_scaled(lam, K):
            ops = build(lam, K)
            if lam is P1:
                ops["S"].sup, ops["S"].sub = 2 * ops["S"].sup, 2 * ops["S"].sub
            return ops

        monkeypatch.setattr(spherical, "build_k_matrices", s_scaled)
        tables = [(lam, branch) for lam in (PC, P1) for branch in BRANCHES]
        N = spherical.block_rows(len(tables) * 17) + 3
        got = spherical.intertwine_sweep(tables, N, 8)
        assert got == _per_table(tables, N, 8)
        assert max(res["S"] for res in got[:3]) < 1e-14
        assert [res["S"] > 0.1 for res in got[3:]] == [True] * 3

    @pytest.mark.parametrize("K", [8, spherical.SWEEP_K_MAX])
    @pytest.mark.parametrize("branch", [spherical.BRANCH_PLUS,
                                        spherical.BRANCH_MINUS])
    def test_one_entry_off_by_ten_tol_fails(self, monkeypatch, branch, K):
        # entry [1, 3] off by 1e-8 relative, 10 x the default --tol: X, U
        # and S each score it at 4.5e-9..4.9e-9, in the columns whose S,
        # D or L term it is.  Against the row's largest term, X and S saw
        # it at K = 8191 as 3.7e-12
        blocks = spherical._table_blocks

        def off_by_ten_tol(specs, rows):
            for w0, n0, win in blocks(specs, rows):
                if n0 <= 1 < w0 + len(win):
                    win[1 - w0, 0, 3 + 1] *= 1.0 + 1e-8
                yield w0, n0, win

        monkeypatch.setattr(spherical, "_table_blocks", off_by_ten_tol)
        (res,) = spherical.intertwine_sweep([(P1, branch)], 2, K)
        assert min(res.values()) > 1e-9, res

    def test_non_finite_residual_raises(self, monkeypatch):
        # a NaN that reaches the audit past the tables' finiteness check
        blocks = spherical._table_blocks

        def poisoned(specs, rows):
            for w0, n0, win in blocks(specs, rows):
                if w0 <= 10 < w0 + len(win):
                    win[10 - w0, 0, 6] = np.nan
                yield w0, n0, win

        monkeypatch.setattr(spherical, "_table_blocks", poisoned)
        with pytest.raises(AccuracyError, match=(
                r"intertwining audit: X residual of plus-branch table at "
                r"lam = 1\.0, N = 20, K = 6 is not finite in rows 10\.\.10")):
            spherical.intertwine_sweep([(P1, spherical.BRANCH_PLUS)], 20, 6)


def _outcome(f, *args):
    # within an ulp of nu = 1/2 the minus seeds meet a Gamma pole, on
    # either path
    try:
        return f(*args)
    except GfslError as exc:
        return type(exc), str(exc)


# Below lam, nu ~ 5e-9 the point itself is rejected: mu rounds to 1/4.
_PARAMS = st.one_of(
    st.floats(1e-7, 20.0).map(spherical.principal),
    st.floats(1e-7, 0.5, exclude_max=True).map(
        spherical.complementary))
_BRANCHES = st.sampled_from([spherical.BRANCH_PLUS, spherical.BRANCH_MINUS,
                             spherical.BRANCH_MINUS_RENORMALIZED])
_TABLES = st.lists(st.tuples(_PARAMS, _BRANCHES), min_size=1, max_size=3)


class TestSweep:
    @pytest.mark.parametrize("K", [2, 3, 100])
    @pytest.mark.parametrize("at", ["0", "1", "b-1", "b", "b+1"])
    @settings(max_examples=3, deadline=None)
    @given(tables=_TABLES, mixed=st.booleans())
    def test_sweep_equals_per_table_bitwise(self, K, at, tables, mixed):
        # one parameter point with one or more branches, or a mixed sweep;
        # N = 0, 1, or b - 1, b, b + 1 around the sweep's block size b
        if not mixed:
            tables = [(tables[0][0], branch) for _, branch in tables]
        b = spherical.block_rows(len(tables) * (2 * K + 1))
        N = {"0": 0, "1": 1, "b-1": b - 1, "b": b, "b+1": b + 1}[at]
        assert _outcome(spherical.intertwine_sweep, tables, N, K) == \
            _outcome(_per_table, tables, N, K)

    @settings(max_examples=30)
    @given(lam=st.one_of(_PARAMS, st.just(0j)),
           branch=_BRANCHES, N=st.integers(0, 4000))
    @example(lam=PC, branch=spherical.BRANCH_MINUS_RENORMALIZED, N=4000)
    @example(lam=spherical.principal(19.5),
             branch=spherical.BRANCH_MINUS, N=4000)
    def test_ladder_coefficients_equal_per_n_formulas(self, lam, branch, N):
        # the sweep's X / U / S coefficients, to the bit, against each
        # coefficient from its own per-n formula
        rels = spherical._ladder_relations(lam, branch, N,
                                           spherical.build_k_matrices(lam, 2))
        for name, (coef, shift) in ladder_coefficients(lam, branch).items():
            want = np.array([coef(n) for n in range(N + 1)], dtype=complex)
            assert rels[name][2] == shift
            assert rels[name][1].tobytes() == want.tobytes(), (name, N)

    def test_cli_sweep_equals_per_table(self):
        # the shape of a spherical-check sweep: several points, plus and
        # raw minus each, three full blocks and a partial one
        params = [spherical.principal(lam)
                  for lam in (2.170264, 17.491455)]
        params.append(spherical.complementary(0.479578))
        tables = [(lam, branch) for lam in params
                  for branch in (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS)]
        N = 3 * spherical.block_rows(len(tables) * 201) + 5
        assert spherical.intertwine_sweep(tables, N, 100) == \
            _per_table(tables, N, 100)

    @pytest.mark.parametrize("branch", [spherical.BRANCH_PLUS,
                                        spherical.BRANCH_MINUS_RENORMALIZED])
    def test_blocks_equal_whole_tables_bitwise(self, branch):
        # stacked blocks of 7 rows against each table built whole
        tables = [(lam, br) for lam in (P1, PC, spherical.principal(5.0))
                  for br in (branch, spherical.BRANCH_MINUS)]
        specs = [spherical._table_spec(lam, 30, 4, br) for lam, br in tables]
        rows = [win[n0 - w0:].copy()
                for w0, n0, win in spherical._table_blocks(specs, 7)]
        assert [len(r) for r in rows] == [7, 7, 7, 7, 3]
        stacked = np.concatenate(rows)
        for t, (lam, br) in enumerate(tables):
            # a window holds the columns k = -1..K of each table
            whole = spherical.coeff_table(lam, 30, 4, br)
            assert np.array_equal(stacked[:, t], whole[:, 3:]), (t, br)

    @settings(max_examples=12)
    @given(tables=st.one_of(
        st.just([(0j, spherical.BRANCH_PLUS)]),
        st.lists(st.tuples(st.one_of(
            st.floats(1e-7, 20.0).map(spherical.principal),
            st.floats(1e-7, 0.4999).map(
                spherical.complementary)), _BRANCHES),
            min_size=1, max_size=2)),
        N=st.integers(0, 2000), K=st.integers(2, 150))
    @example(tables=[(P1, spherical.BRANCH_PLUS), (PC, spherical.BRANCH_MINUS)],
             N=0, K=spherical.SWEEP_K_MAX)
    @example(tables=[(0j, spherical.BRANCH_MINUS_RENORMALIZED)],
             N=1, K=spherical.SWEEP_K_MAX)
    @example(tables=[(P1, spherical.BRANCH_MINUS)], N=3,
             K=spherical.SWEEP_K_MAX)
    @example(tables=[(spherical.principal(20.0),
                      spherical.BRANCH_PLUS), (PC, spherical.BRANCH_MINUS)],
             N=2000, K=150)
    def test_half_width_sweep_equals_full_width_row_loop(self, tables, N,
                                                          K):
        # the half-width audit against the row-loop audit of each whole
        # table, bit for bit over the columns k = 0..K-1, and within
        # rounding over all of them: the mirrored columns -k sum the same
        # products in another order (6.7e-17 apart at most seen).  An
        # overflowing table raises on both paths (the sweep names the rows
        # of its first block holding one)
        got = _outcome(spherical.intertwine_sweep, tables, N, K)
        want = _outcome(_per_table, tables, N, K)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got[0] is want[0]
            return
        assert got == want
        full = _per_table(tables, N, K, full_width=True)
        gap = max(abs(f[rel] - g[rel]) for f, g in zip(full, got) for rel in g)
        assert gap <= 1e-16, gap

    @pytest.mark.parametrize("branch", [spherical.BRANCH_PLUS,
                                        spherical.BRANCH_MINUS])
    @pytest.mark.parametrize("which", ["a", "s", "e", "x0", "phase"])
    def test_column_off_at_one_k_fails_the_audit(self, monkeypatch, branch,
                                                 which):
        # one recurrence parameter (or the phase) off at k = 2 only: the
        # audit scores that table's relations far above round-off, the
        # other table's to the bit as before, and coeff_table carries the
        # change to k = -2 alone, still mirrored
        make, K = spherical._table_spec, 6
        clean = spherical.intertwine_sweep([(PC, branch), (P1, branch)], 20, K)
        whole = spherical.coeff_table(P1, 20, K, branch)

        def off_at_two(lam, N, K, br):
            spec = make(lam, N, K, br)
            if lam is not P1:
                return spec
            cols = [np.array(np.broadcast_to(c, (K + 1,)), dtype=complex)
                    for c in (*spec.columns, spec.phase)]
            i = ("a", "s", "e", "x0", "phase").index(which)
            cols[i][2] += 1e-9 * (1.0 + abs(cols[i][2]))
            spec.columns, spec.phase = tuple(cols[:4]), cols[4]
            return spec

        monkeypatch.setattr(spherical, "_table_spec", off_at_two)
        got = spherical.intertwine_sweep([(PC, branch), (P1, branch)], 20, K)
        assert got[0] == clean[0]
        assert max(clean[1].values()) < 1e-15
        assert max(got[1].values()) > 1e-10, got[1]
        table = spherical.coeff_table(P1, 20, K, branch)
        assert np.flatnonzero((table != whole).any(0)).tolist() == \
            [K - 2, K + 2]
        sign = (-1.0) ** np.arange(21)
        assert np.array_equal(table[:, K - 2], sign * table[:, K + 2])

    def test_raw_minus_pole_before_any_recurrence(self, monkeypatch):
        monkeypatch.setattr(spherical, "recurrence_blocks", None)
        tables = [(P1, spherical.BRANCH_PLUS), (0j, spherical.BRANCH_PLUS),
                  (0j, spherical.BRANCH_MINUS)]
        with pytest.raises(PoleError, match="raw branch has a pole at lam = 0"):
            spherical.intertwine_sweep(tables, 10, 3)

    def test_overflow_names_first_block_not_first_table(self, monkeypatch):
        # the plus table at lam = 5 overflows from row 774, the minus
        # table at nu = 0.2 from row 768; with twelve stacked tables a
        # block holds two rows, and the recurrence stops at that block
        steps = []
        blocks = spherical.recurrence_blocks

        def counting(*args):
            for n0, x in blocks(*args):
                steps.append(n0)
                yield n0, x

        monkeypatch.setattr(spherical, "recurrence_blocks", counting)
        p5 = spherical.principal(5.0)
        nu = spherical.complementary(0.2)
        tables = [(p5, spherical.BRANCH_PLUS), (nu, spherical.BRANCH_MINUS)]
        tables += [(p5, spherical.BRANCH_PLUS)] * 10
        assert spherical.block_rows(12 * 501) == 2
        with pytest.raises(AccuracyError) as info:
            spherical.intertwine_sweep(tables, 2000, 250)
        assert str(info.value) == (
            "minus-branch table at nu = 0.2, N = 2000, K = 250 has non-finite "
            "entries in rows 768..769 (double precision overflow)")
        assert steps[-1] == 768


class TestThreshold:
    def test_common_table_origin(self):
        s_tab, _ = spherical.threshold_tables(8, 3)
        assert abs(s_tab[0, 3] - 1.0 / SQRT_PI) < 1e-15

    def test_parity_zeros(self):
        s_tab, _ = spherical.threshold_tables(9, 2)
        for n in range(1, 10, 2):
            assert s_tab[n, 2] == 0

    @staticmethod
    def _check_derivative_oracle(N, K):
        # each entry of D is its exact value rounded, so it meets the
        # 40-digit central difference entrywise; the parity zeros of
        # column k = 0 are exact zeros of both
        _, got = spherical.threshold_tables(N, K)
        want = threshold_derivative_mp(N, K, 1e-16)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_derivative_vs_central_difference_oracle(self):
        self._check_derivative_oracle(30, 6)

    @settings(max_examples=15)
    @given(st.integers(0, 12), st.integers(0, 4))
    def test_derivative_oracle_sweep(self, N, K):
        self._check_derivative_oracle(N, K)

    def test_divided_difference_matches_derivative(self):
        # D is d/d lam of (s+ - s^-)/2i at 0: cross-check by a wider
        # centered difference of the double-precision plus/minus gap
        _, d_tab = spherical.threshold_tables(6, 2)
        h = 1e-3
        lam = spherical.principal(h)
        num = (spherical.coeff_table(lam, 6, 2, spherical.BRANCH_PLUS)
               - spherical.coeff_table(lam, 6, 2,
                                       spherical.BRANCH_MINUS_RENORMALIZED)
               ) / (2j * h)
        assert np.max(np.abs(num - d_tab)) <= 1e-2 * max(
            1.0, float(np.max(np.abs(d_tab))))


class TestCorrelation:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_vs_characteristics_oracle(self, tau):
        # N = 50 truncates |k| = 2 at tau = 0.5 by 5.4e-9 (2, 1) and
        # 2.4e-8 (-2, 1); every other case is at round-off
        for (ko, ki) in [(0, 0), (1, 0), (2, 1), (-2, 1)]:
            got = spherical.correlation(P1, ko, ki, tau, 50)
            want = characteristics_correlation(1.0, ko, ki, tau)
            tol = 1e-7 if tau == 0.5 and abs(ko) == 2 else 1e-8
            assert abs(got - want) <= tol

    def test_complementary_vs_oracle(self):
        got = spherical.correlation(PC, 1, 1, 1.0, 50)
        want = characteristics_correlation(PC, 1, 1, 1.0)
        assert abs(got - want) < 1e-10

    def test_diagonal_equals_legendre(self):
        for tau in (0.5, 1.0, 2.0):
            got = spherical.correlation(P1, 0, 0, tau, 60)
            assert abs(got - legendre_conical(1.0, tau)) < 1e-10

    def test_large_time_decay(self):
        got = spherical.correlation(P1, 0, 0, 30.0, 10)
        assert abs(got) < 1e-6

    def test_threshold_rejected(self):
        with pytest.raises(DomainError):
            spherical.correlation(0j, 0, 0, 1.0, 10)

    @pytest.mark.parametrize("tau", [math.nan, 0.0, -1.0])
    def test_tau_not_positive_rejected(self, tau):
        # NaN fails the guard as 0 and negatives do, not a NaN result
        with pytest.raises(DomainError,
                           match=r"^correlation: tau must be > 0$"):
            spherical.correlation(P1, 0, 0, tau, 10)


class TestGrowthLaws:
    def test_branch_table_slopes(self):
        lam = spherical.principal(1.0)
        for branch in (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS):
            tab = spherical.coeff_table(lam, 400, 4, branch)
            for k in (0, 2, 4, -2, -4):
                n = np.arange(50, 401)
                if k == 0:
                    n = n[n % 2 == 0]
                vals = np.abs(tab[n, k + 4])
                slope = np.polyfit(np.log(n), np.log(vals), 1)[0]
                assert abs(slope - (abs(k) - 0.5)) < 0.1, (branch, k, slope)
