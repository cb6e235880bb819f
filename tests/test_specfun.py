import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import specfun
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

    @pytest.mark.parametrize("max_nodes", [0, 8, 16, 31])
    def test_too_few_nodes_rejected(self, max_nodes):
        # below 32 nodes there is no second level to test convergence on
        with pytest.raises(DomainError, match="max_nodes"):
            specfun.legendre_conical(1.0, 2.0, max_nodes=max_nodes)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_bad_tol_rejected_before_quadrature(self, monkeypatch, tol):
        # a nan tol used to double to the 2^21-node cap, then raise
        # AccuracyError
        monkeypatch.setattr(specfun, "_conical_nodes", None)
        with pytest.raises(DomainError, match="tol finite and > 0, got max_nodes=2097152, "):
            specfun.legendre_conical(1.0, 3.0, tol=tol)

    def test_blocks_match_whole_array_exactly(self):
        # (0.575, 8.73) and (12.9, 6.8) double to 2^18 and 2^16 nodes, whose
        # new nodes span four blocks and one; (1, 2), (3, 5.5) and (-1.3, 4)
        # stay below the exact-sum threshold.
        # The means hot path: t = 8.63 doubles to 2^18 nodes, t = 6 stops
        # at the first exact level, 2^14
        hot = [(lam, t, 1e-14) for lam in (0.5979, 1.345) for t in (6.0, 8.63)]
        grid = [(lam, t, tol) for lam in (0.5, 0.58, 1.345, 5.0, 13.0)
                for t in (0.5, 3.0, 7.0, 9.0) for tol in (1e-12, 1e-13, 1e-14)]
        for lam, t, tol in [(1.0, 2.0, 1e-12), (3.0, 5.5, 1e-13),
                            (0.575379, 8.731020259333233, 1e-14),
                            (12.875992, 6.8, 1e-14), (-1.3, 4.0, 1e-12)
                            ] + hot + grid:
            assert (specfun.legendre_conical(lam, t, tol=tol)
                    == legendre_conical_whole(lam, t, tol=tol))
        # capped node counts, on either side of the exact-sum threshold and
        # between two levels; those that stop short raise with the change
        # between the last two levels
        for lam, t, tol in [(0.5979, 8.63, 1e-14), (1.0, 2.0, 1e-12),
                            (13.0, 9.0, 1e-13), (0.58, 7.0, 1e-14)]:
            for max_nodes in (32, 64, 100, 1 << 14, 3 << 14, 1 << 15, 1 << 17):
                assert (_conical_outcome(specfun.legendre_conical, lam, t,
                                         tol, max_nodes)
                        == _conical_outcome(legendre_conical_whole, lam, t,
                                            tol, max_nodes))

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
        specfun.legendre_conical(lam, t, tol=tol)
        assert sum(sizes) == final
        assert max(sizes) <= specfun._CONICAL_BLOCK

    def test_overflowing_t_rejected(self):
        # the quadrature's base reaches 2 sinh t, which overflows just
        # above t = 709.78; wave_residual's quarter-period shift at
        # lam = 1e-4 lands at t = 15710
        assert math.isfinite(specfun.legendre_conical(1.0, 709.78))
        for t in (709.79, 710.48, 15709.964267948964):
            with pytest.raises(DomainError,
                               match=f"not a finite float at t={t} "
                                     r"\(lam=0\.0001\)"):
                specfun.legendre_conical(1e-4, t)

    def test_no_convergence_names_inputs(self):
        with pytest.raises(AccuracyError) as exc:
            specfun.legendre_conical(1.0, 2.0, max_nodes=64)
        msg = str(exc.value)
        assert msg.startswith("legendre_conical: no convergence for lam=1.0, "
                              "t=2.0 at tol=1e-12 with 64 nodes (last change ")
        assert f"last change {exc.value.achieved:.3g}, imaginary residue " \
            in msg
        assert exc.value.achieved > 1e-12


def _conical_outcome(f, lam, t, tol, max_nodes):
    """The value, or the AccuracyError and its achieved bound."""
    try:
        return f(lam, t, tol=tol, max_nodes=max_nodes)
    except AccuracyError as exc:
        return ("AccuracyError", exc.achieved)


def _fsum_outcome(values):
    """repr of math.fsum over the values, or the ValueError raised."""
    try:
        return repr(math.fsum(values()))
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def float_blocks(draw):
    n = draw(st.integers(1, 1 << 15))
    kind = draw(st.sampled_from(["mixed", "wide", "subnormal", "near_top",
                                 "cancel", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sign = rng.choice([-1.0, 1.0], n)
    m = (n + 1).bit_length()
    if kind == "mixed":
        x = sign * np.exp(rng.uniform(-10.0, 10.0, n))
    elif kind == "wide":
        x = np.ldexp(sign * rng.uniform(0.5, 1.0, n), rng.integers(-600, 600, n))
    elif kind == "subnormal":
        # subnormals, with a few of the smallest normals mixed in
        x = sign * rng.integers(0, 1 << 52, n) * 2.0 ** -1074
        x[rng.random(n) < 0.05] *= 4.0
    elif kind == "near_top":
        # just below 2^(1023-m), where sigma reaches 2^1023; every other
        # draw puts one value at 2^(1023-m), which takes the fsum fallback
        x = sign * rng.uniform(0.5, 1.0, n) * 2.0 ** (1022 - m)
        x[: draw(st.integers(0, 1))] = 2.0 ** (1023 - m)
    elif kind == "cancel":
        half = np.exp(rng.uniform(-10.0, 10.0, (n + 1) // 2))
        x = np.concatenate([half, -half])[:n]
        x[::7] += rng.uniform(-1e-300, 1e-300, x[::7].size)
        rng.shuffle(x)
    else:
        x = sign * 0.0
    return x


class TestExactParts:
    @settings(max_examples=80, deadline=None)
    @given(float_blocks())
    def test_sum_of_parts_is_fsum(self, x):
        parts = specfun._exact_parts(x)
        assert repr(math.fsum(parts)) == repr(math.fsum(x.tolist()))
        # each pass strips 52 - m bits of the 2098 between 2^1024 and 2^-1074
        assert len(parts) <= 2 + 2098 // (52 - (x.size + 1).bit_length())

    def test_strided_view(self):
        # the quadrature passes the real and imaginary views of a complex block
        rng = np.random.default_rng(4)
        z = np.exp(rng.uniform(-9, 9, 5000) + 1j * rng.uniform(-4, 4, 5000))
        for x in (z.real, z.imag):
            assert math.fsum(specfun._exact_parts(x)) == math.fsum(x.tolist())

    def test_empty_block(self):
        assert specfun._exact_parts(np.zeros(0)) == []

    @pytest.mark.parametrize("specials", [
        [math.nan], [math.inf], [-math.inf], [math.inf, -math.inf],
        [math.nan, math.inf], [math.inf, math.inf], [math.nan, -math.inf]])
    def test_non_finite_blocks_match_fsum(self, specials):
        x = np.linspace(-3.0, 5.0, 100)
        x[[7, 60][:len(specials)]] = specials
        assert (_fsum_outcome(lambda: specfun._exact_parts(x))
                == _fsum_outcome(x.tolist))

    def test_non_finite_parts_combine_like_fsum(self):
        # infinities of both signs in different blocks meet in the final fsum
        a, b = np.ones(10), np.ones(10)
        a[3], b[5] = math.inf, -math.inf
        assert (_fsum_outcome(lambda: specfun._exact_parts(a)
                              + specfun._exact_parts(b))
                == _fsum_outcome(lambda: a.tolist() + b.tolist()))
