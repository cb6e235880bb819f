import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import means, specfun
from gfsl.errors import AccuracyError, DomainError, PoleError
from gfsl.specfun import legendre_conical, log_gamma

from oracles import _hc_w, hc_residual_analytic

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

    @settings(max_examples=60)
    @given(st.integers(0, means.HC_M_MAX),
           st.floats(means.LAMBDA_MIN, means.LAMBDA_MAX))
    def test_matches_gamma_ratio_over_envelope(self, m, lam):
        # the Gamma-ratio formula at 30 digits; the error grows with lam,
        # measured up to 1.7e-12 at lam = 977, m = 20
        want = _hc_w(m, lam)
        assert abs(means.hc_coefficient(m, lam) - want) <= 1e-11 * abs(want)


class TestHcPartialSum:
    def test_matches_legendre(self):
        got = means.hc_partial_sum(1.0, 3.0, 8)
        want = legendre_conical(1.0, 3.0)
        assert abs(got - want) < 1e-10

    def test_orders_past_the_bound_repeat(self):
        # e^{-2 m t} at HC_T is still subnormal (1e-323) at HC_M_MAX and
        # 0.0 one order later, whose partial sum repeats the one before
        assert math.exp(-2.0 * means.HC_M_MAX * means.HC_T) > 0.0
        assert math.exp(-2.0 * (means.HC_M_MAX + 1) * means.HC_T) == 0.0
        for lam in (means.LAMBDA_MIN, 2.0):
            assert (means.hc_partial_sum(lam, means.HC_T, means.HC_M_MAX + 1)
                    == means.hc_partial_sum(lam, means.HC_T, means.HC_M_MAX))

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
        # the quadrature of the exact t-derivatives against the resonance
        # expansion differentiated term by term; measured worst 2.3e-13,
        # at lam = 12, t = 6
        for lam in (0.3, 2.0, 12.0):
            fit = means.wave_residual(lam)
            for t, r in zip(means.WAVE_T, fit.residuals):
                assert abs(r - hc_residual_analytic(lam, t)) < 3e-13

    @pytest.mark.parametrize("lam", [means.LAMBDA_MIN, means.LAMBDA_MAX])
    def test_slope_at_envelope_ends(self, lam):
        fit = means.wave_residual(lam)
        assert not fit.floor_limited
        assert abs(fit.slope + 2.0) < 0.1

    @pytest.mark.parametrize("lam", [
        math.nextafter(means.LAMBDA_MIN, 0.0),
        math.nextafter(means.LAMBDA_MAX, math.inf), 0.0, -2.0, math.nan])
    def test_outside_envelope_rejected(self, monkeypatch, lam):
        monkeypatch.setattr(means, "trapezoid_levels", None)
        with pytest.raises(DomainError, match="the wave residual's envelope"
                           ) as exc:
            means.wave_residual(lam)
        assert exc.value.value is lam

    def test_no_convergence_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CONICAL_MAX_NODES", 64)
        with pytest.raises(AccuracyError, match="wave_residual: no "
                           "convergence for lam=2.0, t=2.0") as exc:
            means.wave_residual(2.0)
        assert exc.value.achieved > 0.0


class TestWSymbol:
    def test_defect_bound(self):
        for lam in np.linspace(5.0, 100.0, 20):
            assert means.w_symbol_defect(float(lam)) <= 0.2 / lam

    def test_normalization_at_origin(self):
        # phi_lam(0) = 1 for all lam
        for lam in (0.5, 1.0, 7.0):
            assert legendre_conical(lam, 0.0) == 1.0
