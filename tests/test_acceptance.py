"""Acceptance suite: one test per criterion, every tolerance pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Each test prints its line only after all of its assertions
have held, so a printed line is a passed criterion.
"""

import math
import time

import numpy as np

from gfsl import discrete, global_traces as gt, means, oscillator as osc
from gfsl import selberg, spherical
from gfsl.specfun import legendre_conical

from oracles import bolza_words_oracle, characteristics_correlation, \
    galerkin_exp_oracle


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_spherical_intertwining():
    t0 = time.monotonic()
    lams = [spherical.principal(lam) for lam in (0.3, 1.0, 5.0)]
    lams += [spherical.complementary(nu) for nu in (0.1, 0.3, 0.49)]
    tables = [(lam, branch) for lam in lams for branch in ("plus", "minus")]
    worst = max(max(res.values())
                for res in spherical.intertwine_sweep(tables, 40, 8))
    elapsed = time.monotonic() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    _report(1, f"X/U/S residuals < 1e-9 across regimes "
               f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_oscillator_identities():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 6))
        poly = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        width = complex(rng.uniform(0.4, 2.5), rng.uniform(-0.9, 0.9))
        u = osc.GaussPolyFunction(poly, width)
        n_max = 12
        n = np.arange(n_max + 1)
        tp = osc.t_plus(u, n_max + 1)
        tm = osc.t_minus(u, n_max + 1)
        sp = max(1.0, float(np.max(np.abs(tp))))
        sm = max(1.0, float(np.max(np.abs(tm))))
        checks = [
            (osc.t_plus(osc.x_times(u), n_max)
             - np.concatenate([[0.0], np.sqrt(n[1:]) * tp[:n_max]]), sp),
            (osc.t_plus(osc.ddx(u), n_max) - np.sqrt(n + 1.0) * tp[1:], sp),
            (osc.t_minus(osc.x_times(u), n_max) - np.sqrt(n + 1.0) * tm[1:], sm),
            (osc.t_minus(osc.ddx(u), n_max)
             + np.concatenate([[0.0], np.sqrt(n[1:]) * tm[:n_max]]), sm),
            (osc.t_plus(osc.euler_half(u), n_max)
             - (n + 0.5) * tp[:n_max + 1], sp),
            (osc.t_minus(osc.euler_half(u), n_max)
             + (n + 0.5) * tm[:n_max + 1], sm),
        ]
        for diff, scale in checks:
            worst = max(worst, float(np.max(np.abs(diff))) / scale)
    assert worst < 1e-11
    _report(2, f"ladder/generator relations on 100 random functions "
               f"(worst residual {worst:.2e})")


def test_criterion_03_threshold_coalescence():
    N, K = 30, 6
    s_tab, d_tab = spherical.threshold_tables(N, K)
    # both double-precision branch pipelines at lam = 0 meet the exact
    # common table S on the scale of the entries (which reach ~1e7 at
    # n = 30, |k| = 6)
    sp = spherical.coeff_table(0j, N, K, "plus")
    sm = spherical.coeff_table(0j, N, K, "minus_renormalized")
    scale = float(np.max(np.abs(sp)))
    gap_plus = float(np.max(np.abs(s_tab - sp)))
    gap_minus = float(np.max(np.abs(s_tab - sm)))
    assert gap_plus <= 1e-12 * max(1.0, scale)
    assert gap_minus <= 1e-12 * max(1.0, scale)
    # The Jordan chain (X(0) + n + 1/2) D_n = S_n on the interior columns,
    # scored entry by entry as the intertwining audit is: |lhs - S| over
    # the sum of its terms' magnitudes.  Each term is one entry of D or S,
    # rounded from its exact value with relative error <= 3u (u = eps / 2),
    # times an exact band entry or n + 1/2 (one rounding, u); each entry
    # and so each term is real or imaginary, and summing four of them adds
    # at most 3u of the terms' magnitudes.  So a correct D scores at most
    # 7u = 3.5 eps, to first order; 4 eps allows for the second.
    x_op = spherical.build_k_matrices(0j, K)["X"]
    s_int = s_tab[:, 1:-1]
    terms = (x_op.sup[1:-1] * d_tab[:, 2:], x_op.sub[1:-1] * d_tab[:, :-2],
             (np.arange(N + 1)[:, None] + 0.5) * d_tab[:, 1:-1])
    lhs = sum(terms)
    size = sum(np.abs(t) for t in terms) + np.abs(s_int)
    chain = float(np.max(np.abs(lhs - s_int) / np.maximum(size, 5e-324)))
    assert chain <= 4.0 * np.finfo(float).eps
    # The block is nontrivial: (X(0) + n + 1/2) D is not zero, so D is no
    # eigenvector.  An eigenvector would leave round-off, about 1e-15 of
    # the table; the margin 1e-2 of the largest |S| sits far above that.
    margin = float(np.max(np.abs(lhs)) / np.max(np.abs(s_tab)))
    assert margin >= 1e-2
    _report(3, f"s+(0) = s^-(0) = exact S (plus within {gap_plus:.1e}, "
               f"renormalized minus within {gap_minus:.1e} on scale "
               f"{scale:.1e}); Jordan chain (X(0) + n + 1/2) D = S to "
               f"{chain:.2e}, max |(X(0) + n + 1/2) D| / max |S| = "
               f"{margin:.4f}")


def test_criterion_04_per_irrep_traces():
    worst = 0.0
    for lam in (0j, spherical.principal(1.0)):
        for t in (0.5, 1.0, 2.0):
            tr = gt.trace_spherical(lam, t, 1e-12)
            worst = max(worst, abs(tr["flat"] - tr["spectral"]))
    for l in (2, 4):
        for t in (0.5, 1.0, 2.0):
            tr = gt.trace_ds(l, t, 1e-12)
            worst = max(worst, abs(tr["flat"] - tr["spectral"]))
    assert worst < 1e-12
    _report(4, f"flat traces equal resonance sums, tails at most 5e-13 "
               f"(worst {worst:.2e})")


def test_criterion_05_correlations_vs_oracles():
    t0 = time.monotonic()
    lam = spherical.principal(1.0)
    worst_sph = 0.0
    for ko in range(4):
        for ki in range(4):
            got = spherical.correlation(lam, ko, ki, 1.0, 50)
            want = characteristics_correlation(1.0, ko, ki, 1.0)
            worst_sph = max(worst_sph, abs(got - want))
    x_dense = discrete.build_disk_matrices(2, 200)["X"].as_dense()
    e_oracle = galerkin_exp_oracle(x_dense, 1.0)
    e_check = galerkin_exp_oracle(
        discrete.build_disk_matrices(2, 400)["X"].as_dense(), 1.0)
    worst_ds = 0.0
    for ko in range(4):
        for ki in range(4):
            assert abs(e_oracle[ko, ki] - e_check[ko, ki]) < 1e-10
            got = discrete.correlation_ds(2, ko, ki, 1.0, 120)
            worst_ds = max(worst_ds, abs(got - e_oracle[ko, ki]))
    elapsed = time.monotonic() - t0
    assert worst_sph < 1e-6
    assert worst_ds < 1e-6
    assert elapsed < 60.0
    _report(5, f"correlations vs ODE/expm oracles "
               f"(spherical {worst_sph:.2e}, discrete {worst_ds:.2e}, "
               f"{elapsed:.1f}s)")


def test_criterion_06_correlation_equals_spherical_function():
    worst = 0.0
    for lam, tau in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        got = spherical.correlation(spherical.principal(lam), 0, 0, tau, 60)
        worst = max(worst, abs(got - legendre_conical(lam, tau)))
    assert worst < 1e-8
    _report(6, f"k=0 correlation equals the conical Legendre value "
               f"(worst {worst:.2e})")


def test_criterion_07_global_trace_algebra():
    worst = 0.0
    for genus in (2, 3):
        spec = gt.LaplaceSpectrum([0.16, 2.0], [1, 2], genus)
        for t in (0.5, 0.7, 1.0, 2.0, 5.0):
            pre, post, _ = gt.global_trace(spec, t, 1e-12)
            worst = max(worst, abs(pre - post))
    assert worst < 1e-10
    empty = gt.LaplaceSpectrum([], [], 2)
    _, worked, _ = gt.global_trace(empty, math.log(2.0), 1e-9)
    assert abs(worked - 15.0) < 1e-12
    _report(7, f"pre/post Riemann-Roch forms agree (worst {worst:.2e}); "
               f"worked value 15 reproduced")


def test_criterion_08_tanh_identity():
    th2 = gt.tanh_transform(2.0, 1e-10)
    assert abs(th2["pole_sum"] - th2["closed_form"]) < 1e-10
    worst = 0.0
    for t in np.linspace(0.5, 5.0, 19):
        th = gt.tanh_transform(float(t), 1e-12)
        gap = abs(th["pole_sum"] - th["closed_form"])
        assert gap < 1e-10
        worst = max(worst, gap)
        th9 = gt.tanh_transform(float(t), 1e-9)
        assert th9["tail_bound"] <= 5e-10
        assert (abs(th9["pole_sum"] - th9["closed_form"])
                <= th9["tail_bound"] + 1e-10)
    _report(8, f"tanh Fourier identity pointwise on [0.5, 5] "
               f"(worst converged gap {worst:.2e}; tails at tol 1e-9 "
               f"majorized)")


def test_criterion_09_hc_convergence():
    gap = abs(means.hc_partial_sum(1.0, 3.0, 8)[-1]
              - legendre_conical(1.0, 3.0))
    assert gap < 1e-10
    for t in (1.0, 2.0):
        target = legendre_conical(1.0, t)
        errs = [abs(val - target) for val in means.hc_partial_sum(1.0, t, 8)]
        # strictly decreasing until the error reaches the double-precision
        # floor (at t = 2 it bottoms out below 1e-14 by M = 6)
        assert all(b < a for a, b in zip(errs, errs[1:]) if a > 1e-13)
    _report(9, f"resonance expansion converges to the spherical function "
               f"(gap at M=8 {gap:.2e}; error monotone in M)")


def test_criterion_10_wave_emergence():
    slopes = {}
    for lam in (1.0, 2.0, 5.0):
        fit = means.wave_residual(lam)
        assert not fit.floor_limited
        assert abs(fit.slope + 2.0) < 0.1
        slopes[lam] = fit.slope
    control = means.wave_residual(2.0, shift=2.0 ** 2 + 0.25)
    assert abs(control.slope + 2.0) > 0.1
    _report(10, "wave residual decays like e^{-2t} "
                + ", ".join(f"lam={k}: {v:+.3f}" for k, v in slopes.items())
                + f"; unshifted control slope {control.slope:+.2f} fails")


def test_criterion_11_w_symbol():
    # the whole --lambda envelope's low end, where `means` gates it too
    worst_margin = 0.0
    for lam in np.concatenate([np.geomspace(means.LAMBDA_MIN, 5.0, 40,
                                            endpoint=False),
                               np.linspace(5.0, 100.0, 39)]):
        defect = means.w_symbol_defect(float(lam))
        assert defect <= 0.2 / lam
        worst_margin = max(worst_margin, defect * lam)
    _report(11, f"principal symbol defect <= 0.2/lam on "
                f"[{means.LAMBDA_MIN:.4f}, 100] "
                f"(max lam*defect {worst_margin:.3f})")


def test_criterion_12_bolza_harness():
    t0 = time.monotonic()
    group = selberg.bolza_group()
    assert group.relator_residual() < 1e-9
    ls = selberg.length_spectrum(group, 8.0)
    want_systole = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
    assert abs(ls.systole - want_systole) < 1e-9
    assert abs(min(bolza_words_oracle(2)) - ls.systole) < 1e-9
    g = selberg.GaussianTestFn(5.5, 0.5, 1.0)
    discs = []
    for lm in (5.0, 6.0, 7.0, 8.0):
        sub = selberg.LengthSpectrum(
            [(e, m) for e, m in ls.primitives if e <= lm + 1e-12], lm)
        rep = selberg.wave_trace_pair(sub, g, laplace=[(0.0, 1)])
        discs.append(rep.discrepancy)
    assert all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))
    weyl = selberg.weyl_consistency(ls)
    assert weyl["ok"]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(12, f"Bolza: relator {group.relator_residual():.1e}, systole ok, "
                f"discrepancy monotone {[round(d, 3) for d in discs]}, "
                f"Weyl within 15% ({elapsed:.1f}s)")


def test_criterion_13_growth_laws():
    lam = spherical.principal(1.0)
    tabs = {name: spherical.coeff_table(lam, 400, 4, name)
            for name in ("plus", "minus")}
    worst = 0.0
    for name, tab in tabs.items():
        for k in (0, 2, 4, -2, -4):
            n = np.arange(50, 401)
            if k == 0:
                n = n[n % 2 == 0]
            slope = np.polyfit(np.log(n), np.log(np.abs(tab[n, k + 4])), 1)[0]
            dev = abs(slope - (abs(k) - 0.5))
            assert dev < 0.1, (name, k, slope)
            worst = max(worst, dev)
    dtab = discrete.cayley_coeffs(2, 400, 1)
    n = np.arange(50, 401)
    slope = np.polyfit(np.log(n), np.log(np.abs(dtab.forward[n, 1])), 1)[0]
    assert abs(slope - 1.5) < 0.1
    worst = max(worst, abs(slope - 1.5))
    _report(13, f"branch and Cayley coefficient growth exponents within 0.1 "
                f"(worst deviation {worst:.3f})")
