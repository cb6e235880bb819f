import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfsl import cli, global_traces, means, specfun, spherical
from gfsl.errors import AccuracyError, DomainError, PoleError

from oracles import (beta_line_quad, cauchy_two_factor,
                     legendre_conical_whole, legendre_oracle,
                     loggamma_oracle, recurrence_scalar)


class TestLogGamma:
    def test_at_one(self):
        assert abs(specfun.log_gamma(1.0)) < 1e-15

    def test_at_half(self):
        # Gamma(1/2) = sqrt(pi), forced by the reflection formula
        assert abs(specfun.log_gamma(0.5) - 0.5723649429247001) < 1e-14

    def test_complex_point_vs_oracle(self):
        # frozen from the arbitrary-precision oracle
        want = -2.0928517530927333 + 2.3023965434668676j
        got = specfun.log_gamma(2 + 3j)
        assert abs(got - want) < 1e-13
        assert abs(got - loggamma_oracle(2 + 3j)) < 1e-13

    @pytest.mark.parametrize("z", [
        3.7, 1e-3, 250.0, 999.5,
        -4.5, -0.5, -12.5 + 0j,
        2 + 3j, -3.3 + 0.1j, -3.3 - 0.1j, 0.25 + 100j, -7.2 - 55j,
        600 + 800j, -600 + 800j, -600 - 800j, 1j, -0.5 + 1e-4j,
    ])
    def test_twelve_digits_vs_oracle(self, z):
        got = specfun.log_gamma(z)
        want = loggamma_oracle(z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            specfun.log_gamma(z)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf,
                                   complex(1.0, math.nan),
                                   complex(-2.5, math.inf)])
    def test_non_finite_rejected(self, z):
        # round() in the pole test used to raise a bare ValueError here
        with pytest.raises(DomainError, match="must be finite"):
            specfun.log_gamma(z)
        with pytest.raises(DomainError, match="must be finite"):
            specfun.log_beta_line(z, -0.75)

    def test_reflection_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if min(abs(z - round(z.real)), abs(1 - z - round(1 - z.real))) < 0.05:
                continue
            lhs = cmath.exp(specfun.log_gamma(z) + specfun.log_gamma(1 - z))
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_conjugate_symmetry(self):
        z = -2.3 + 4.1j
        assert abs(specfun.log_gamma(z.conjugate())
                   - specfun.log_gamma(z).conjugate()) < 1e-13


def _two_factor(alpha, beta, n_top):
    # Taylor coefficients of (1+ix)^alpha (1-ix)^beta, n = 0..n_top, one
    # column per entry of alpha and beta
    return _whole_table(*specfun.two_factor_columns(alpha, beta), n_top)


class TestTwoFactorColumns:
    def test_trivial_cases(self):
        a = _two_factor(0.0, 0.0, 5)[:, 0]
        assert np.allclose(a, [1, 0, 0, 0, 0, 0])
        a = _two_factor(1.0, 0.0, 4)[:, 0]
        assert np.allclose(a, [1, 1j, 0, 0, 0])

    def test_vs_cauchy_product(self):
        b = -0.5 + 1j
        a = _two_factor(b + 1, b - 1, 20)[:, 0]
        want = cauchy_two_factor(b + 1, b - 1, 20)
        assert np.max(np.abs(a - want) / np.maximum(np.abs(want), 1e-30)) < 1e-12

    def test_column_batched(self):
        b = -0.5 + 1.3j
        ks = np.arange(-4, 5)
        table = _two_factor(b + ks, b - ks, 30)
        assert table.shape == (31, ks.size)
        for j, k in enumerate(ks):
            col = table[:, j]
            want = cauchy_two_factor(b + k, b - k, 30)
            # parity zeros at k = 0 make entrywise relative errors meaningless
            assert np.max(np.abs(col - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.array_equal(col, _two_factor(b + k, b - k, 30)[:, 0])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def test_conjugate_swap_symmetry(self, ar, ai, br, bi):
        alpha = complex(ar, ai)
        beta = complex(br, bi)
        a = _two_factor(alpha, beta, 12)[:, 0]
        swapped = _two_factor(beta.conjugate(), alpha.conjugate(), 12)[:, 0]
        assert np.max(np.abs(swapped - np.conj(a))) <= 1e-12 * max(
            1.0, float(np.max(np.abs(a))))


def _whole_table(a, s, e, x0, n_max):
    """Rows 0..n_max of recurrence_blocks: its one-block case."""
    ((_, x),) = specfun.recurrence_blocks(a, s, e, x0, n_max, n_max + 1)
    return x


class TestRecurrenceColumns:
    def test_columns_equal_scalar_loop_bitwise(self):
        # the tables must not change in the last bit when columns are
        # batched, since the reports print residuals at full precision
        rng = np.random.default_rng(11)
        m = 24
        a = rng.uniform(-20, 20, m) + 1j * rng.uniform(-20, 20, m)
        s = rng.uniform(-20, 20, m) + 1j * rng.uniform(-20, 20, m)
        e = np.where(np.arange(m) % 2, 0.0, 2j * rng.uniform(0, 10, m))
        x0 = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
        table = _whole_table(a, s, e, x0, 80)
        for j in range(m):
            want = recurrence_scalar(a[j], s[j], e[j], x0[j], 80)
            assert np.array_equal(table[:, j], want), j

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 70), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    def test_blocks_equal_whole_table_bitwise(self, n_max, rows, m, seed):
        # any block size, across every block boundary, and whatever the
        # caller does to a yielded block in place
        rng = np.random.default_rng(seed)
        a, s, x0 = (rng.uniform(-20, 20, m) + 1j * rng.uniform(-20, 20, m)
                    for _ in range(3))
        e = np.where(np.arange(m) % 2, 0.0, 2j * rng.uniform(0, 10, m))
        whole = _whole_table(a, s, e, x0, n_max)
        got, starts = [], []
        for n0, block in specfun.recurrence_blocks(a, s, e, x0, n_max, rows):
            starts.append(n0)
            got.append(block.copy())
            assert block.shape[0] == min(rows, n_max + 1 - n0)
            block[:] = np.nan
        assert starts == list(range(0, n_max + 1, rows))
        assert np.array_equal(np.concatenate(got), whole)

    @pytest.mark.parametrize("n_max,rows", [(-1, 1), (3, 0)])
    def test_bad_sizes_rejected(self, n_max, rows):
        with pytest.raises(DomainError):
            next(specfun.recurrence_blocks(1.0, 1.0, 0.0, 1.0, n_max, rows))


class TestBetaLineIntegral:
    """log_beta_line, the log of the regularized line integral."""

    def test_cauchy_weight(self):
        # integral of (1+x^2)^(-1) is pi
        got = cmath.exp(specfun.log_beta_line(-1.0, -1.0))
        assert abs(got - math.pi) < 1e-13

    def test_vs_quadrature(self):
        want = 5.2441151085842396  # pi 2^(1/2) Gamma(1/2)/Gamma(3/4)^2
        got = cmath.exp(specfun.log_beta_line(-0.75, -0.75))
        assert abs(got - want) < 1e-12
        assert abs(got - beta_line_quad(-0.75, -0.75)) < 1e-10
        alpha = -0.75 + 0.3j
        beta = -0.9 - 0.2j
        got = cmath.exp(specfun.log_beta_line(alpha, beta))
        assert abs(got - beta_line_quad(alpha, beta)) < 1e-10

    def test_denominator_pole_gives_zero(self):
        # (1+ix)^2 polynomial factor: 1/Gamma(-2) = 0, which has no log
        with pytest.raises(DomainError, match="value is zero"):
            specfun.log_beta_line(2.0, -4.0)

    def test_noncontinuable_pole(self):
        with pytest.raises(PoleError):
            specfun.log_beta_line(-0.5, -0.5)


class TestLegendreConical:
    def test_at_zero(self):
        assert specfun.legendre_conical(3.3, 0.0) == 1.0

    def test_vs_hypergeometric_oracle(self):
        want = 0.19728188012250963  # frozen from the oracle at lam=1, t=2
        got = specfun.legendre_conical(1.0, 2.0)
        assert abs(got - want) < 1e-12
        for lam, t in [(0.5, 1.0), (2.0, 3.5), (5.0, 6.0)]:
            assert abs(specfun.legendre_conical(lam, t)
                       - legendre_oracle(lam, t).real) < 1e-11

    def test_lambda_sign_symmetry(self):
        for t in (0.7, 2.0, 4.0):
            assert abs(specfun.legendre_conical(1.3, t)
                       - specfun.legendre_conical(-1.3, t)) < 1e-13

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            specfun.legendre_conical(1.0, -0.1)

    @pytest.mark.parametrize("lam,t", [(math.nan, 2.0), (math.inf, 2.0),
                                       (1.0, math.nan), (1.0, math.inf),
                                       (-math.inf, 0.0)])
    def test_non_finite_rejected(self, lam, t):
        with pytest.raises(DomainError, match="finite"):
            specfun.legendre_conical(lam, t)

    def test_blocks_match_whole_array_exactly(self, monkeypatch):
        for lam, t, tol in CONICAL_CASES:
            monkeypatch.setattr(specfun, "_CONICAL_TOL", tol)
            assert (specfun.legendre_conical(lam, t)
                    == legendre_conical_whole(lam, t, tol=tol))
        # capped node counts, on either side of the exact-sum threshold and
        # between two levels; those that stop short raise with the change
        # between the last two levels
        for lam, t, tol in [(0.5979, 8.63, 1e-14), (1.0, 2.0, 1e-12),
                            (13.0, 9.0, 1e-13), (0.58, 7.0, 1e-14)]:
            monkeypatch.setattr(specfun, "_CONICAL_TOL", tol)
            for max_nodes in (32, 64, 100, 1 << 14, 3 << 14, 1 << 15, 1 << 17):
                monkeypatch.setattr(specfun, "_CONICAL_MAX_NODES", max_nodes)
                assert (_conical_outcome(specfun.legendre_conical, lam, t)
                        == _conical_outcome(legendre_conical_whole, lam, t,
                                            tol=tol, max_nodes=max_nodes))

    @pytest.mark.parametrize("lam,t,value", [
        (500.0, 3.0, "-0x1.207c7da34f430p-7"),
        (1000.0, 3.0, "-0x1.1767e5083608ep-8"),
        (0.58, 8.71, "-0x1.957ace0fd98c1p-7"),
        (1.0, 10.0, "-0x1.d640e78644754p-8")])
    def test_exactly_rounded_levels_pinned(self, lam, t, value):
        # the levels from 2^14 nodes on are exactly rounded sums, so these
        # bits, taken from an earlier block-wise exact summation, hold for
        # any summation that rounds exactly
        assert specfun.legendre_conical(lam, t).hex() == value

    @settings(max_examples=40)
    @given(st.floats(means.LAMBDA_MIN, means.LAMBDA_MAX))
    def test_matches_mpmath_over_means_envelope(self, lam):
        # at t = HC_T, where `gfsl means` compares the resonance expansion
        # with the quadrature; measured worst 5.4e-15, at lam = 1000
        want = mpmath.legenp(mpmath.mpc(-0.5, lam), 0,
                             mpmath.cosh(means.HC_T), type=3)
        assert abs(specfun.legendre_conical(lam, means.HC_T) - want) < 1e-13

    def test_cold_and_warm_tables_agree_exactly(self, monkeypatch):
        # cold: every level's half-angle table is built inside the call;
        # warm: calls at other lam and t have built all of them first
        cold = []
        for lam, t, tol in CONICAL_CASES:
            monkeypatch.setattr(specfun, "_ODD_COS2", {})
            monkeypatch.setattr(specfun, "_CONICAL_TOL", tol)
            cold.append(specfun.legendre_conical(lam, t))
        monkeypatch.setattr(specfun, "_ODD_COS2", {})
        monkeypatch.setattr(specfun, "_CONICAL_TOL", 1e-14)
        for lam, t in ((0.57, 8.8), (2.5, 1.0), (7.0, 4.0)):
            specfun.legendre_conical(lam, t)
        assert max(specfun._ODD_COS2) == 1 << 18
        warm = []
        for lam, t, tol in CONICAL_CASES:
            monkeypatch.setattr(specfun, "_CONICAL_TOL", tol)
            warm.append(specfun.legendre_conical(lam, t))
        assert warm == cold

    def test_tables_read_only(self, monkeypatch):
        monkeypatch.setattr(specfun, "_ODD_COS2", {})
        monkeypatch.setattr(specfun, "_CONICAL_TOL", 1e-14)
        specfun.legendre_conical(0.5979, 8.63)
        assert sorted(specfun._ODD_COS2) == [1 << j for j in range(5, 19)]
        for n, table in specfun._ODD_COS2.items():
            assert table.size == n // 2 and not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                table[-8:] *= 2.0

    def test_means_run_builds_each_table_once(self, tmp_path, monkeypatch):
        built = []
        half_cos2 = specfun._half_cos2

        def counting(n, start):
            if start == 1:
                built.append(n)
            return half_cos2(n, start)

        monkeypatch.setattr(specfun, "_ODD_COS2", {})
        monkeypatch.setattr(specfun, "_half_cos2", counting)
        assert cli.main(["means", "--out", str(tmp_path)]) == cli.EXIT_OK
        assert sorted(built) == [1 << j for j in range(5, len(built) + 5)]
        assert sorted(specfun._ODD_COS2) == sorted(built)

    @pytest.mark.parametrize("lam,t,tol,final", [
        (0.5979, 8.63, 1e-14, 1 << 18), (12.875992, 6.8, 1e-14, 1 << 16),
        (1.345, 6.0, 1e-14, 1 << 14), (1.0, 2.0, 1e-12, 256)])
    def test_each_node_evaluated_once(self, monkeypatch, lam, t, tol, final):
        # a converged call evaluates exactly its final level's nodes: each
        # doubling adds only the odd nodes of the new level
        sizes = []
        nodes = specfun._conical_nodes

        def counting(*args):
            out = nodes(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(specfun, "_conical_nodes", counting)
        monkeypatch.setattr(specfun, "_CONICAL_TOL", tol)
        specfun.legendre_conical(lam, t)
        assert sum(sizes) == final

    def test_overflowing_t_rejected(self, monkeypatch):
        # the quadrature's base reaches 2 sinh t, which overflows just
        # above t = 709.78; wave_residual's quarter-period shift at
        # lam = 1e-4 lands at t = 15710.  All of these are past the
        # quadrature's envelope (t = 709.78 once returned a finite, wrong
        # value), which rejects them before any node is evaluated
        monkeypatch.setattr(specfun, "_conical_nodes", None)
        with pytest.raises(DomainError, match=r"t=709\.78 \(lam=1\.0\) is past "
                                              "the quadrature's envelope"):
            specfun.legendre_conical(1.0, 709.78)
        for t in (709.79, 710.48, 15709.964267948964):
            with pytest.raises(DomainError,
                               match=f"t={t} \\(lam=0\\.0001\\) is past "
                                     "the quadrature's envelope"):
                specfun.legendre_conical(1e-4, t)

    @pytest.mark.parametrize("lam,t", [(1.0, 120.0), (0.01, 159.0),
                                       (1.0, 13.412), (5.0, 50.0)])
    def test_past_envelope_rejected(self, monkeypatch, lam, t):
        # every level agreed on a wrong value here: 1.2e-13 at
        # (1, 120), where P is ~e^-60
        monkeypatch.setattr(specfun, "_conical_nodes", None)
        with pytest.raises(DomainError, match=f"t={t} \\(lam={lam}\\) is past "
                                              r"the quadrature's envelope t <= "
                                              r"13\.41136"):
            specfun.legendre_conical(lam, t)

    def test_envelope_edge(self):
        # ln(2^21 / pi); just inside, the quadrature still runs (and here
        # fails to converge, loudly)
        assert specfun._CONICAL_MAX_T == math.log(2.0 ** 21 / math.pi)
        with pytest.raises(AccuracyError):
            specfun.legendre_conical(1.0, 13.41)

    def test_no_convergence_names_inputs(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CONICAL_MAX_NODES", 64)
        with pytest.raises(AccuracyError) as exc:
            specfun.legendre_conical(1.0, 2.0)
        msg = str(exc.value)
        assert msg.startswith("legendre_conical: no convergence for lam=1.0, "
                              "t=2.0 at tol=1e-12 with 64 nodes (last change ")
        assert f"last change {exc.value.achieved:.3g}, imaginary residue " \
            in msg
        assert exc.value.achieved > 1e-12


EPS = 2.0 ** -52


def _mp_tail(t, p0, p1, c, n):
    """The rest of the series sum (p0 + p1 k) e^{-t(k + c)} over k >= n,
    in closed form at 40 digits (at n = 0, the whole sum)."""
    with mpmath.workdps(40):
        x = mpmath.exp(-mpmath.mpf(t))
        return x ** (n + c) * ((p0 + p1 * n) / (1 - x)
                               + p1 * x / (1 - x) ** 2)


def _least_order(t, p0, p1, c, tol):
    """The least n whose 40-digit tail is at most tol/2."""
    n = 0
    while abs(_mp_tail(t, p0, p1, c, n)) > tol / 2.0:
        n += 1
    return n


class TestGeometricSum:
    @settings(max_examples=60)
    @given(st.floats(0.02, 30.0), st.floats(-50.0, 50.0),
           st.floats(-50.0, 50.0), st.floats(0.0, 3.0),
           st.floats(1e-14, 1e-3))
    def test_least_order_vs_mpmath(self, t, p0, p1, c, tol):
        # the sum to the least order whose tail is at most tol/2, and that
        # tail, against 40-digit closed forms; each term is off by at most
        # (4 + t (k + c)) eps of its coefficients' size, and fsum by half
        # an ulp
        got, tail = specfun.geometric_sum(t, p0, p1, c, tol)
        n = _least_order(t, p0, p1, c, tol)
        want = _mp_tail(t, p0, p1, c, 0) - _mp_tail(t, p0, p1, c, n)
        k = np.arange(n)
        size = (abs(p0) + abs(p1) * k) * np.exp(-t * (k + c))
        rounding = EPS * (float(np.sum(size * (4.0 + t * (k + c))))
                          + abs(got))
        assert tail <= tol / 2.0
        assert abs(tail - abs(_mp_tail(t, p0, p1, c, n))) <= 1e-12 * tail
        assert abs(got - want) <= 2.0 * rounding + 1e-300

    # at t = 0.15 the fixed counts this kernel replaced left tails of 1.6e-3
    # (60 ladder terms) and 2.7 (50 tanh terms)
    @settings(max_examples=40)
    @example(0.15, 1e-9, 0.0, 0.3, 2)
    @given(st.floats(0.02, 30.0), st.floats(1e-13, 1e-5), st.floats(1e-3, 5.0),
           st.floats(0.01, 0.49), st.integers(1, 10).map(lambda k: 2 * k))
    def test_trace_series_vs_mpmath(self, t, tol, lam, nu, l):
        # each closed form and each series, to within its tail (at most
        # tol/2), of the 40-digit sum of the whole series; the series'
        # terms are off by (4 + t (k + c)) eps relative, and cos(t lam)
        # by t lam eps
        with mpmath.workdps(40):
            mt = mpmath.mpf(t)
            x = mpmath.exp(-mt)
            gap = 1 - x
            ladder = 2 * mpmath.exp(-mt / 2) / gap
            cases = [
                (global_traces.trace_spherical(
                    spherical.principal(lam), t, tol),
                 mpmath.cos(mt * lam) * ladder, ladder * (1.0 + t * lam)),
                (global_traces.trace_spherical(
                    spherical.complementary(nu), t, tol),
                 mpmath.cosh(mt * nu) * ladder,
                 mpmath.cosh(mt * nu) * ladder),
                (global_traces.trace_ds(l, t, tol), x ** (l / 2) / gap,
                 x ** (l / 2) / gap)]
            tanh = -mpmath.sqrt(x) * (1 + x) / gap ** 2
        th = global_traces.tanh_transform(t, tol)
        cases.append(({"flat": th["closed_form"], "spectral": th["pole_sum"],
                       "tail_bound": th["tail_bound"]}, tanh, abs(tanh)))
        for got, want, size in cases:
            slack = 64.0 * EPS * (1.0 + t) * float(size)
            assert got["tail_bound"] <= tol / 2.0
            assert abs(got["flat"] - want) <= slack
            assert abs(got["spectral"] - want) <= got["tail_bound"] + slack

    def test_budget_names_t(self):
        with pytest.raises(DomainError, match=(
                r"geometric_sum: tail above tol/2 = 5e-10 after 65536 "
                r"terms at t=1e-05")) as exc_info:
            specfun.geometric_sum(1e-5, 1.0, 0.0, 0.5, 1e-9)
        assert exc_info.value.value == 1e-5


# legendre_conical cases: (0.575, 8.73) and (12.9, 6.8) double to 2^18
# and 2^16 nodes, past the first exactly rounded level, 2^14, where
# t = 6 stops; (1, 2), (3, 5.5) and (-1.3, 4) stay below it
CONICAL_CASES = [(1.0, 2.0, 1e-12), (3.0, 5.5, 1e-13),
                 (0.575379, 8.731020259333233, 1e-14),
                 (12.875992, 6.8, 1e-14), (-1.3, 4.0, 1e-12)] + [
    (lam, t, 1e-14) for lam in (0.5979, 1.345) for t in (6.0, 8.63)] + [
    (lam, t, tol) for lam in (0.5, 0.58, 1.345, 5.0, 13.0)
    for t in (0.5, 3.0, 7.0, 9.0) for tol in (1e-12, 1e-13, 1e-14)]


def _conical_outcome(f, *args, **kwargs):
    """The value, or the AccuracyError and its achieved bound."""
    try:
        return f(*args, **kwargs)
    except AccuracyError as exc:
        return ("AccuracyError", exc.achieved)


