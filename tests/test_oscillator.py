import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import oscillator as osc
from gfsl.errors import DomainError

from oracles import derivative_oracle, moment_quad_oracle

SQRT_2PI = math.sqrt(2.0 * math.pi)


def random_gausspoly(rng, deg=4):
    poly = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    width = complex(rng.uniform(0.4, 2.5), rng.uniform(-0.8, 0.8))
    return osc.GaussPolyFunction(poly, width)


class TestTPlus:
    def test_plain_gaussian(self):
        u = osc.GaussPolyFunction([1.0], 1.0)
        got = osc.t_plus(u, 4)
        want = [1.0, 0.0, -1.0 / math.sqrt(2.0), 0.0, 0.6123724356957945]
        assert np.allclose(got, want, atol=1e-14)

    def test_odd_function(self):
        u = osc.GaussPolyFunction([0.0, 1.0], 1.0)
        got = osc.t_plus(u, 3)
        assert got[0] == 0
        assert abs(got[1] - 1.0) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(0)
        u = random_gausspoly(rng)
        c = 2.3 - 0.7j
        scaled = osc.GaussPolyFunction(c * u.poly, u.width)
        assert np.allclose(osc.t_plus(scaled, 8), c * osc.t_plus(u, 8))

    def test_vs_derivative_oracle(self):
        rng = np.random.default_rng(1)
        u = random_gausspoly(rng, deg=3)
        got = osc.t_plus(u, 6)
        for n in range(7):
            want = derivative_oracle(u.poly, u.width, n)
            want /= math.sqrt(math.factorial(n))
            assert abs(got[n] - want) < 1e-9 * max(1.0, abs(want))


class TestTMinus:
    def test_gaussian_mass(self):
        u = osc.GaussPolyFunction([1.0], 1.0)
        got = osc.t_minus(u, 3)
        assert abs(got[0] - SQRT_2PI) < 1e-14
        assert got[1] == 0

    def test_x_squared_moments(self):
        u = osc.GaussPolyFunction([0.0, 0.0, 1.0], 1.0)
        got = osc.t_minus(u, 2)
        assert abs(got[0] - SQRT_2PI) < 1e-14
        assert abs(got[2] - 3.0 * SQRT_2PI / math.sqrt(2.0)) < 1e-13

    def test_vs_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        u = random_gausspoly(rng, deg=3)
        got = osc.t_minus(u, 5)
        for n in range(6):
            want = moment_quad_oracle(u.poly, u.width, n)
            want /= math.sqrt(math.factorial(n))
            assert abs(got[n] - want) < 1e-9 * max(1.0, abs(want))


class TestIntertwining:
    """Ladder and generator relations, exact up to roundoff."""

    def _check(self, u, n_max=12, tol=1e-12):
        n = np.arange(n_max + 1)
        tp = osc.t_plus(u, n_max + 1)
        tm = osc.t_minus(u, n_max + 1)
        scale_p = max(1.0, float(np.max(np.abs(tp))))
        scale_m = max(1.0, float(np.max(np.abs(tm))))
        # multiplication by x
        xp = osc.t_plus(osc.x_times(u), n_max)
        want = np.concatenate([[0.0], np.sqrt(n[1:]) * tp[: n_max]])
        assert np.max(np.abs(xp - want)) <= tol * scale_p
        xm = osc.t_minus(osc.x_times(u), n_max)
        want = np.sqrt(n + 1.0) * tm[1:]
        assert np.max(np.abs(xm - want)) <= tol * scale_m
        # differentiation
        dp = osc.t_plus(osc.ddx(u), n_max)
        want = np.sqrt(n + 1.0) * tp[1:]
        assert np.max(np.abs(dp - want)) <= tol * scale_p
        dm = osc.t_minus(osc.ddx(u), n_max)
        want = -np.concatenate([[0.0], np.sqrt(n[1:]) * tm[: n_max]])
        assert np.max(np.abs(dm - want)) <= tol * scale_m
        # Euler generator
        bp = osc.t_plus(osc.euler_half(u), n_max)
        assert np.max(np.abs(bp - (n + 0.5) * tp[: n_max + 1])) <= tol * scale_p
        bm = osc.t_minus(osc.euler_half(u), n_max)
        assert np.max(np.abs(bm + (n + 0.5) * tm[: n_max + 1])) <= tol * scale_m

    def test_random_functions(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            self._check(random_gausspoly(rng, deg=int(rng.integers(0, 6))))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=5),
           st.floats(0.3, 2.5), st.floats(-0.8, 0.8))
    def test_property_arbitrary_data(self, poly, w_re, w_im):
        self._check(osc.GaussPolyFunction(np.array(poly), complex(w_re, w_im)))


class TestInvariants:
    @pytest.mark.parametrize("width", [-0.5 + 1j, complex(math.nan, 0.0),
                                       complex(1.0, math.nan),
                                       complex(math.inf, 0.5)])
    def test_width_domain(self, width):
        # a NaN real part fails as a real part <= 0 does, not silently
        with pytest.raises(DomainError) as exc:
            osc.GaussPolyFunction([1.0], width)
        assert str(exc.value) == (f"GaussPolyFunction: width = {width} must "
                                  "be finite with Re(width) > 0")
