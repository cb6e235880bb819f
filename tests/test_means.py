import cmath
import math

import numpy as np
import pytest

from gfsl import means
from gfsl.errors import DomainError, PoleError
from gfsl.specfun import legendre_conical, log_gamma

from oracles import hc_residual_analytic, wave_residual_uncached

SQRT_PI = math.sqrt(math.pi)


class TestHcCoefficient:
    def test_leading_formula(self):
        for lam in (0.7, 1.0, 4.0):
            want = cmath.exp(log_gamma(1j * lam)
                             - log_gamma(0.5 + 1j * lam)) / SQRT_PI
            assert abs(means.hc_coefficient(0, lam) - want) < 1e-14

    def test_modulus_symbol_at_ten(self):
        w0 = means.hc_coefficient(0, 10.0)
        assert abs(abs(w0) * math.sqrt(10.0) * SQRT_PI - 1.0) < 0.015

    def test_conjugation(self):
        for m in (0, 1, 3):
            a = means.hc_coefficient(m, 2.2)
            b = means.hc_coefficient(m, -2.2)
            assert abs(b - a.conjugate()) < 1e-12 * max(1.0, abs(a))

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            means.hc_coefficient(0, 0.0)


class TestHcPartialSum:
    def test_matches_legendre(self):
        got = means.hc_partial_sum(1.0, 3.0, 8)
        want = legendre_conical(1.0, 3.0)
        assert abs(got - want) < 1e-10

    def test_m_zero_term_algebra(self):
        lam, t = 1.3, 2.0
        w0 = means.hc_coefficient(0, lam)
        want = 2.0 * math.exp(-t / 2.0) * (cmath.exp(1j * t * lam) * w0).real
        assert abs(means.hc_partial_sum(lam, t, 0) - want) < 1e-14

    def test_error_monotone_in_m(self):
        lam, t = 1.0, 1.0
        target = legendre_conical(lam, t)
        errs = [abs(means.hc_partial_sum(lam, t, m) - target) for m in range(9)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_tail_majorized_by_first_omitted_term(self):
        lam = 1.5
        for t in (1.0, 2.0):
            target = legendre_conical(lam, t)
            for m in range(1, 6):
                err = abs(means.hc_partial_sum(lam, t, m) - target)
                omitted = 2.0 * math.exp(-t * (0.5 + 2 * (m + 1))) * abs(
                    means.hc_coefficient(m + 1, lam))
                assert err <= 2.0 * omitted

    def test_resonance_expansion_tail_at_large_t(self):
        # quadrature route agrees with the expansion within the first
        # omitted exponential for t >= 2
        for lam, t in ((1.0, 2.0), (2.0, 4.0)):
            got = means.hc_partial_sum(lam, t, 6)
            want = legendre_conical(lam, t)
            # expansion tail plus the quadrature tolerance of the oracle side
            assert abs(got - want) <= 10.0 * math.exp(-(2 * 7 + 0.5) * t) + 1e-12


class TestWaveResidual:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 5.0])
    def test_shifted_slope(self, lam):
        fit = means.wave_residual(lam)
        assert not fit.floor_limited
        assert abs(fit.slope + 2.0) < 0.1

    def test_negative_control_unshifted(self):
        lam = 2.0
        fit = means.wave_residual(lam, shift=lam * lam + 0.25)
        assert abs(fit.slope + 2.0) > 0.1  # fails the shifted-wave slope test
        assert fit.slope > -0.5

    def test_matches_termwise_derivative_oracle(self):
        lam = 2.0
        h = 1e-3
        fit = means.wave_residual(lam, t_grid=[2.0, 3.0, 4.0], h=h)
        for t, r_fd in zip(fit.t_grid, fit.residuals):
            r_exact = hc_residual_analytic(lam, t)
            # centered second difference carries an O(h^2 E'''') error
            assert abs(r_fd - r_exact) < 5e-3 * max(1.0, abs(r_exact))

    @pytest.mark.parametrize("lam", [0.5979, 2.0, 12.875992])
    def test_each_t_evaluated_once(self, monkeypatch, lam):
        # 9 grid points and their quarter shifts, each with t - h, t, t + h
        calls = []

        def counting(lam_, t, tol=1e-12):
            calls.append(float(t))
            return legendre_conical(lam_, t, tol=tol)

        monkeypatch.setattr(means, "legendre_conical", counting)
        fit = means.wave_residual(lam)
        assert len(calls) == 54 and len(set(calls)) == 54
        slope, residuals, floor_limited = wave_residual_uncached(lam)
        assert fit.slope == slope
        assert np.array_equal(fit.residuals, residuals)
        assert fit.floor_limited == floor_limited

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            means.wave_residual(1.0, t_grid=[1.0, 2.0])


class TestWSymbol:
    def test_defect_bound(self):
        for lam in np.linspace(5.0, 100.0, 20):
            assert means.w_symbol_defect(float(lam)) <= 0.2 / lam

    def test_normalization_at_origin(self):
        # phi_lam(0) = 1 for all lam
        for lam in (0.5, 1.0, 7.0):
            assert legendre_conical(lam, 0.0) == 1.0
