import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import specfun
from gfsl.errors import DomainError, PoleError

from oracles import (beta_line_quad, cauchy_two_factor, legendre_oracle,
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


class TestGammaRatio:
    def test_equal_arguments(self):
        assert specfun.gamma_ratio(0.3 + 2j, 0.3 + 2j) == 1.0

    def test_recurrence_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(rng.uniform(0.1, 30), rng.uniform(-30, 30))
            assert abs(specfun.gamma_ratio(z + 1, z) - z) <= 1e-12 * abs(z)

    def test_half_integer_chain(self):
        # Gamma(5.5)/Gamma(2.5) = 4.5 * 3.5 * 2.5
        assert abs(specfun.gamma_ratio(5.5, 2.5) - 39.375) < 1e-12 * 39.375

    def test_pole_limit_rule(self):
        # limit of Gamma(-n - 2 i lam)/Gamma(-2 i lam) as lam -> 0, n = 3
        got = specfun.gamma_ratio(-3.0, 0.0, pole_limit=True)
        assert abs(got - (-1.0 / 6.0)) < 1e-15

    def test_pole_signals(self):
        with pytest.raises(PoleError):
            specfun.gamma_ratio(-2.0, 1.0)
        assert specfun.gamma_ratio(1.5, -4.0) == 0.0
        with pytest.raises(DomainError):
            specfun.gamma_ratio(-2.0, -3.0)
        with pytest.raises(DomainError):
            specfun.gamma_ratio(-2.0, 0.7, pole_limit=True)


class TestTaylorTwoFactor:
    def test_trivial_cases(self):
        a = specfun.taylor_two_factor(0.0, 0.0, 5)
        assert np.allclose(a, [1, 0, 0, 0, 0, 0])
        a = specfun.taylor_two_factor(1.0, 0.0, 4)
        assert np.allclose(a, [1, 1j, 0, 0, 0])

    def test_vs_cauchy_product(self):
        b = -0.5 + 1j
        a = specfun.taylor_two_factor(b + 1, b - 1, 20)
        want = cauchy_two_factor(b + 1, b - 1, 20)
        assert np.max(np.abs(a - want) / np.maximum(np.abs(want), 1e-30)) < 1e-12

    def test_column_batched(self):
        b = -0.5 + 1.3j
        ks = np.arange(-4, 5)
        table = specfun.taylor_two_factor(b + ks, b - ks, 30)
        assert table.shape == (31, ks.size)
        for j, k in enumerate(ks):
            col = table[:, j]
            want = cauchy_two_factor(b + k, b - k, 30)
            # parity zeros at k = 0 make entrywise relative errors meaningless
            assert np.max(np.abs(col - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.array_equal(col, specfun.taylor_two_factor(b + k, b - k, 30))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DomainError):
            specfun.taylor_two_factor([1.0, 2.0], [1.0], 5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def test_conjugate_swap_symmetry(self, ar, ai, br, bi):
        alpha = complex(ar, ai)
        beta = complex(br, bi)
        a = specfun.taylor_two_factor(alpha, beta, 12)
        swapped = specfun.taylor_two_factor(beta.conjugate(), alpha.conjugate(), 12)
        assert np.max(np.abs(swapped - np.conj(a))) <= 1e-12 * max(
            1.0, float(np.max(np.abs(a))))


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
        table = specfun.recurrence_columns(a, s, e, x0, 80)
        for j in range(m):
            want = recurrence_scalar(a[j], s[j], e[j], x0[j], 80)
            assert np.array_equal(table[:, j], want), j


class TestBetaLineIntegral:
    def test_cauchy_weight(self):
        # integral of (1+x^2)^(-1) is pi
        assert abs(specfun.beta_line_integral(-1.0, -1.0) - math.pi) < 1e-13

    def test_vs_quadrature(self):
        want = 5.2441151085842396  # pi 2^(1/2) Gamma(1/2)/Gamma(3/4)^2
        got = specfun.beta_line_integral(-0.75, -0.75)
        assert abs(got - want) < 1e-12
        assert abs(got - beta_line_quad(-0.75, -0.75)) < 1e-10
        alpha = -0.75 + 0.3j
        beta = -0.9 - 0.2j
        got = specfun.beta_line_integral(alpha, beta)
        assert abs(got - beta_line_quad(alpha, beta)) < 1e-10

    def test_denominator_pole_gives_zero(self):
        # (1+ix)^2 polynomial factor: 1/Gamma(-2) = 0
        assert specfun.beta_line_integral(2.0, -4.0) == 0.0

    def test_noncontinuable_pole(self):
        with pytest.raises(PoleError):
            specfun.beta_line_integral(-0.5, -0.5)

    def test_cancelled_pole_limit(self):
        # alpha in N makes both Gamma(-alpha-beta-1) and Gamma(-alpha) poles
        got = specfun.beta_line_integral(1.0, -2.5)
        # continuation in alpha: value at alpha = 1 + eps
        eps = 1e-7
        approx = specfun.beta_line_integral(1.0 + eps, -2.5)
        assert abs(got - approx) < 1e-5 * max(1.0, abs(got))


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
