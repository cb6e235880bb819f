import math

import numpy as np
import pytest

from gfsl import discrete, spherical
from gfsl.errors import AccuracyError, DomainError

from oracles import galerkin_exp_oracle, intertwine_residual_ds_rows


class TestDiskBasis:
    def test_lowest(self):
        assert discrete.disk_basis(2, 0) == 1.0

    def test_known_value(self):
        # binom(4,3) = 4
        assert abs(discrete.disk_basis(2, 3) - 2.0) < 1e-14

    def test_asymptotic_slope(self):
        # binom(l+n-1, n) grows like (1+n)^(l-1); the product of the l-1
        # factors is centered at n + l/2, which removes the 1/n drift
        for l in (2, 4, 6):
            n = np.arange(50, 400)
            vals = np.array([discrete.disk_basis(l, int(m)) ** 2 for m in n])
            slope = np.polyfit(np.log(n + l / 2.0), np.log(vals), 1)[0]
            assert abs(slope - (l - 1)) < 0.05


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


class TestDiskBasisOrthonormality:
    def test_two_dimensional_quadrature_spot_check(self):
        # closed-form moment normalization checked once against the actual
        # weighted area integral on the disk
        from scipy.integrate import quad
        l = 4
        for j, k in ((0, 0), (2, 2), (3, 3), (1, 3)):
            # angular integration is exact: 2 pi delta_{jk}
            if j != k:
                continue
            cjk = discrete.disk_basis(l, j) * discrete.disk_basis(l, k)
            radial, _ = quad(
                lambda r: r ** (j + k + 1) * (1.0 - r * r) ** (l - 2), 0.0, 1.0)
            inner = (l - 1) / math.pi * cjk * 2.0 * math.pi * radial
            assert abs(inner - 1.0) < 1e-10


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


class TestIntertwining:
    @pytest.mark.parametrize("l", [2, 8])
    def test_residuals(self, l):
        ops = discrete.build_disk_matrices(l, 40)
        tab = discrete.cayley_coeffs(l, 40, 40)
        res = discrete.intertwine_residual_ds(l, tab, ops)
        for rel, val in res.items():
            assert val < 1e-10, (l, rel, val)

    @pytest.mark.parametrize("l", [2, 8])
    def test_blocked_audit_equals_row_loop(self, l):
        # (40, 40) is one audit block; at K = 100 the tables end one row
        # before, at and after a block boundary
        b = spherical.block_rows(101)
        for N, K in [(40, 40), (b - 1, 100), (b, 100), (b + 1, 100)]:
            ops = discrete.build_disk_matrices(l, K)
            tab = discrete.cayley_coeffs(l, N, K)
            got = discrete.intertwine_residual_ds(l, tab, ops)
            assert got == intertwine_residual_ds_rows(l, tab, ops), N

    def test_non_finite_residual_names_table(self):
        ops = discrete.build_disk_matrices(2, 6)
        tab = discrete.cayley_coeffs(2, 20, 6)
        tab.forward[10, 3] = np.inf
        with pytest.raises(AccuracyError, match=(
                r"intertwining audit: X residual of cayley forward table at "
                r"l = 2, N = 20, K = 6 is not finite in rows 10\.\.10")):
            discrete.intertwine_residual_ds(2, tab, ops)


class TestCorrelation:
    def test_vs_matrix_exponential_oracle(self):
        l, tau = 2, 1.0
        for K in (200, 400):
            x_dense = discrete.build_disk_matrices(l, K)["X"].as_dense()
            e_big = galerkin_exp_oracle(x_dense, tau)
            for (ko, ki) in [(0, 0), (1, 0), (2, 2), (3, 1)]:
                got = discrete.correlation_ds(l, ko, ki, tau, 120)
                assert abs(got.value - e_big[ko, ki]) < 1e-8

    def test_closed_form_diagonal(self):
        # l = 2 diagonal matrix element is 1/cosh^2(tau/2)
        got = discrete.correlation_ds(2, 0, 0, 1.0, 200)
        assert abs(got.value - 0.7864477329659274) < 1e-12

    def test_decay_rate(self):
        taus = np.linspace(4.0, 8.0, 5)
        vals = [abs(discrete.correlation_ds(2, 0, 0, t, 80).value) for t in taus]
        slope = np.polyfit(taus, np.log(vals), 1)[0]
        assert abs(slope - (-1.0)) < 0.05  # leading resonance -l/2 = -1

    def test_unitarity_limit(self):
        got = discrete.correlation_ds(2, 0, 0, 0.1, 4000)
        assert abs(got.value - 1.0) < 1e-2

    def test_antiholomorphic_conjugation(self):
        mirror = discrete.correlation_ds(2, 2, 1, 1.0, 100).value.conjugate()
        # mirror series matches the exponential of the conjugated generator
        x_dense = discrete.build_disk_matrices(2, 200)["X"].as_dense()
        e_conj = galerkin_exp_oracle(np.conj(x_dense), 1.0)
        assert abs(mirror - e_conj[2, 1]) < 1e-8


class TestTrace:
    def test_worked_value(self):
        tr = discrete.trace_ds(2, math.log(2.0))
        assert abs(tr["flat"] - 1.0) < 1e-15

    def test_flat_equals_partial_plus_tail(self):
        for l in (2, 4):
            for t in (0.5, 1.0, 2.0):
                tr = discrete.trace_ds(l, t, n_max=60)
                recon = tr["spectral_partial"] + tr["tail_exact"]
                assert np.max(np.abs(recon - tr["flat"])) < 1e-13

    def test_large_weight_vanishes(self):
        assert discrete.trace_ds(40, 1.0)["flat"] < 1e-8


class TestRiemannRoch:
    @pytest.mark.parametrize("l,want", [(2, 2), (4, 3), (6, 5)])
    def test_genus_two(self, l, want):
        assert discrete.rr_multiplicity(2, l) == want

    def test_general(self):
        assert discrete.rr_multiplicity(3, 2) == 3
        assert discrete.rr_multiplicity(3, 10) == 18

    def test_domain(self):
        with pytest.raises(DomainError):
            discrete.rr_multiplicity(1, 2)
        with pytest.raises(DomainError):
            discrete.rr_multiplicity(2, 3)
