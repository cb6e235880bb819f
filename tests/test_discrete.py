import math

import numpy as np
import pytest

from gfsl import discrete
from gfsl.errors import AccuracyError, DomainError

from oracles import galerkin_exp_oracle


class TestDiskMatrices:
    def test_raising_entry(self):
        ops = discrete.build_disk_matrices(2, 5)
        assert abs(ops["Nplus"].sup[0] - math.sqrt(2.0)) < 1e-15

    def test_lowest_weight_killed(self):
        ops = discrete.build_disk_matrices(4, 5)
        assert ops["Nminus"].sub[0] == 0.0

    def test_casimir(self):
        for l in (2, 6):
            K = 8
            ops = discrete.build_disk_matrices(l, K)
            th = ops["Theta"].as_dense()
            npl = ops["Nplus"].as_dense()
            nmi = ops["Nminus"].as_dense()
            omega = -0.25 * th @ th - 0.5 * (npl @ nmi + nmi @ npl)
            mu = -l * (l - 2) / 4
            assert np.max(np.abs((omega - mu * np.eye(K + 1))[1:-1, 1:-1])) < 1e-12

    def test_odd_l_rejected(self):
        with pytest.raises(DomainError):
            discrete.build_disk_matrices(3, 5)


class TestCayleyCoeffs:
    def test_origin_constant(self):
        # direct expansion of (w+i)^0/(w-i)^l at w = 0 gives (1-i)^l (-i)^-l
        for l in (2, 4, 8):
            tab = discrete.cayley_coeffs(l, 4, 2)
            want = (1 + 1j) ** l
            assert abs(tab.forward[0, 0] - want) < 1e-12 * abs(want)

    def test_zero_column_all_nonzero(self):
        tab = discrete.cayley_coeffs(2, 60, 2)
        assert np.all(np.abs(tab.forward[:, 0]) > 0)

    def test_growth_slope(self):
        tab = discrete.cayley_coeffs(2, 400, 1)
        n = np.arange(50, 401)
        slope = np.polyfit(np.log(n), np.log(np.abs(tab.forward[n, 1])), 1)[0]
        assert abs(slope - 1.5) < 0.1

    def test_growth_bound(self):
        l = 4
        tab = discrete.cayley_coeffs(l, 300, 3)
        n = np.arange(301)
        for k in range(4):
            bound = 30.0 * (1.0 + n) ** (k + (l - 1) / 2.0)
            assert np.all(np.abs(tab.forward[:, k]) <= bound)


    def test_overflow_rejected(self):
        with pytest.raises(AccuracyError) as info:
            discrete.cayley_coeffs(2, 2000, 200)
        msg = str(info.value)
        assert "l = 2" in msg and "N = 2000" in msg and "K = 200" in msg


class TestCorrelation:
    def test_vs_matrix_exponential_oracle(self):
        l, tau = 2, 1.0
        for K in (200, 400):
            x_dense = discrete.build_disk_matrices(l, K)["X"].as_dense()
            e_big = galerkin_exp_oracle(x_dense, tau)
            for (ko, ki) in [(0, 0), (1, 0), (2, 2), (3, 1)]:
                got = discrete.correlation_ds(l, ko, ki, tau, 120)
                assert abs(got - e_big[ko, ki]) < 1e-8

    def test_closed_form_diagonal(self):
        # l = 2 diagonal matrix element is 1/cosh^2(tau/2)
        got = discrete.correlation_ds(2, 0, 0, 1.0, 200)
        assert abs(got - 0.7864477329659274) < 1e-12

    def test_decay_rate(self):
        taus = np.linspace(4.0, 8.0, 5)
        vals = [abs(discrete.correlation_ds(2, 0, 0, t, 80)) for t in taus]
        slope = np.polyfit(taus, np.log(vals), 1)[0]
        assert abs(slope - (-1.0)) < 0.05  # leading resonance -l/2 = -1

    def test_unitarity_limit(self):
        got = discrete.correlation_ds(2, 0, 0, 0.1, 4000)
        assert abs(got - 1.0) < 1e-2

    def test_antiholomorphic_conjugation(self):
        mirror = discrete.correlation_ds(2, 2, 1, 1.0, 100).conjugate()
        # mirror series matches the exponential of the conjugated generator
        x_dense = discrete.build_disk_matrices(2, 200)["X"].as_dense()
        e_conj = galerkin_exp_oracle(np.conj(x_dense), 1.0)
        assert abs(mirror - e_conj[2, 1]) < 1e-8

    @pytest.mark.parametrize("k_out,k_in,name", [(-1, 0, "k_out = -1"),
                                                  (0, -2, "k_in = -2")])
    def test_negative_mode_rejected(self, k_out, k_in, name):
        # the disk basis has k >= 0 only: a negative index would read the
        # tables' last row (k_out = -1 gave the k_out = 0 value at l = 4)
        with pytest.raises(DomainError) as exc:
            discrete.correlation_ds(4, k_out, k_in, 1.0, 10)
        assert str(exc.value) == f"correlation_ds: {name} must be >= 0"

    @pytest.mark.parametrize("tau", [math.nan, 0.0, -1.0])
    def test_tau_not_positive_rejected(self, tau):
        with pytest.raises(DomainError,
                           match=r"^correlation_ds: tau must be > 0$"):
            discrete.correlation_ds(2, 0, 0, tau, 10)
