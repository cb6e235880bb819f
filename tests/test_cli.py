import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfsl import cli, global_traces, means, selberg, specfun, spherical

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv):
    return cli.main(argv)


# the --sigma envelope at the default --center 5.5, and the --center edge
LO_55, HI_55 = 0.00016878156349009287, 74.88832821706646
CENTER_MAX = 1407.565425786768


class TestSphericalCheck:
    def test_default_sweep_passes(self, tmp_path):
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--n", "30", "--k", "6"])
        assert code == cli.EXIT_OK
        text = (tmp_path / "spherical_residuals.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "regime,lambda,relation,max_residual"
        assert len(lines) == 1 + 5 * 6  # 5 parameter points x 6 relations
        assert "\r" not in text

    def test_machine_floor_fails(self, tmp_path):
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--n", "25", "--k", "5", "--tol", "1e-16"])
        assert code == cli.EXIT_VERIFY

    def test_overflowing_tables_fail_loudly(self, tmp_path, capsys):
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--lambda", "5", "--nu", "0.3", "--n", "2000", "--k", "250"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "plus-branch" in err and "non-finite" in err
        assert not (tmp_path / "spherical_residuals.csv").exists()

    @pytest.mark.parametrize("lams", ["0", "1,0"])
    def test_raw_minus_pole_before_any_table(self, tmp_path, capsys,
                                             monkeypatch, lams):
        # the plus table at lam = 0 used to be built (and overflow at
        # large N) before the minus pole was seen
        monkeypatch.setattr(spherical, "recurrence_blocks", None)
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--lambda", lams, "--n", "2000", "--k", "250"])
        assert code == cli.EXIT_CONFIG
        assert ("error: --lambda: minus-branch table at lam = 0.0, N = 2000, "
                "K = 250: raw branch has a pole at lam = 0; use "
                "minus_renormalized") in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_overflow_stops_at_first_block(self, tmp_path, capsys,
                                           monkeypatch):
        starts = []
        blocks = spherical.recurrence_blocks

        def recording(*args):
            for n0, x in blocks(*args):
                starts.append(n0)
                yield n0, x

        monkeypatch.setattr(spherical, "recurrence_blocks", recording)
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--lambda", "1", "--nu", "0.2", "--n", "2000",
                    "--k", "250"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --lambda: plus-branch table at lam = 1.0, N = 2000, "
            "K = 250 has non-finite entries in rows 774..775 (double "
            "precision overflow)\n")
        assert starts[-1] == 768 and len(starts) == 97
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,flag,bad", [
        # mu = lambda^2 + 1/4 or 1/4 - nu^2 rounds to 1/4
        (["--lambda", "1e-9"], "--lambda: principal", "got 1e-09"),
        (["--lambda", "1,5e-9"], "--lambda: principal", "got 5e-09"),
        (["--nu", "1e-9"], "--nu: complementary", "got 1e-09"),
        (["--nu", "3.7e-9"], "--nu: complementary", "got 3.7e-09"),
        # 1/2 + nu rounds to 1: Gamma(1/2 + nu - k) sits on a pole
        (["--nu", "0.49999999999999994"], "--nu: moment seeds",
         "at nu = 0.49999999999999994, K = 8"),
        # at K = 8 a pole is met within about 4.4e-16 of 1/2
        (["--nu", "0.3,0.4999999999999998"], "--nu: moment seeds",
         "at nu = 0.4999999999999998, K = 8"),
    ], ids=["lambda_mu_quarter", "lambda_in_list", "nu_mu_quarter",
            "nu_below_edge", "nu_half", "nu_near_half"])
    def test_envelope_before_any_table(self, tmp_path, capsys, monkeypatch,
                                       argv, flag, bad):
        monkeypatch.setattr(spherical, "recurrence_blocks", None)
        code = run(["spherical-check", "--out", str(tmp_path)] + argv)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and bad in err
        assert "double precision" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--lambda", "5.268356063861754e-09"],
        ["--nu", "3.725290298461915e-09"],
        ["--nu", "0.4999999999999995", "--k", "2"],
    ], ids=["lambda_edge", "nu_edge", "nu_near_half_small_k"])
    def test_envelope_edge_accepted(self, monkeypatch, argv):
        # the smallest lambda and nu, and at --k 2 a nu within 5e-16 of
        # 1/2, pass the envelope: every table is set up and the
        # recurrence is reached
        def stop(*args, **kwargs):
            raise cli.GfslError("reached the recurrence")

        monkeypatch.setattr(spherical, "recurrence_blocks", stop)
        with pytest.raises(cli.GfslError, match="reached the recurrence"):
            cli.cmd_spherical_check(cli.build_parser().parse_args(
                ["spherical-check", "--lambda", "", "--nu", ""] + argv))

    def test_large_lambda_minus_rows_pass(self, tmp_path):
        # per-column log-Gamma seeds left minus:S at 2.0e-4 here (exit 2)
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--lambda", "1e6"])
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in (
            tmp_path / "spherical_residuals.csv").read_text().splitlines()[1:]]
        minus = [float(r[3]) for r in rows if r[2].startswith("minus:")]
        assert len(minus) == 9 and max(minus) < 1e-9

    @pytest.mark.parametrize("argv,lam,rows", [
        (["--lambda", "1e300"], "1e+300", "4..40"),
        (["--lambda", "8.9e307", "--nu", ""], "8.9e+307", "3..40"),
    ], ids=["1e300", "8.9e307"])
    def test_huge_lambda_overflows_without_warning(self, tmp_path, capsys,
                                                   argv, lam, rows):
        # the prefactors overflow to inf quietly; the sweep names the table
        # and rows (pytest turns any numpy warning into an error).  At
        # 8.9e307 the minus table's moment seeds are NaN as well, which an
        # overflow must report as one, not as a broken recurrence
        code = run(["spherical-check", "--out", str(tmp_path)] + argv)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --lambda: plus-branch table at lam = {lam}, N = 40, "
            f"K = 8 has non-finite entries in rows {rows} (double precision "
            "overflow)\n")
        assert not list(tmp_path.iterdir())


class TestTraces:
    def test_identities_pass(self, tmp_path):
        # each series is summed until its tail is at most tol/2
        code = run(["traces", "--out", str(tmp_path), "--genus", "2",
                    "--tol", "1e-10"])
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "traces.json").read_text())
        rows = payload["identities"]
        by_name = {}
        for row in rows:
            by_name.setdefault(row["identity"], []).append(row)
        ln2 = math.log(2.0)
        sph = [r for r in by_name["spherical_flat_vs_spectral"]
               if abs(r["t"] - ln2) < 1e-12][0]
        assert abs(sph["lhs"] - 2.8284271247461903) < 1e-12
        ds = [r for r in by_name["discrete_flat_vs_spectral"]
              if abs(r["t"] - ln2) < 1e-12][0]
        assert abs(ds["lhs"] - 1.0) < 1e-14
        for r in by_name["pre_rr_vs_post_rr"]:
            assert r["abs_err"] < 1e-10

    def test_nan_error_fails(self, tmp_path, capsys):
        code = run(["traces", "--out", str(tmp_path), "--t", "nan"])
        assert code == cli.EXIT_CONFIG
        assert "--t: expected a finite number, got 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "traces.json").exists()

    @pytest.mark.parametrize("t,message", [
        # past the series' term budget (once 1 - e^{-t} rounding to 0, and
        # before that a ZeroDivisionError traceback)
        ("1e-300", "--t: geometric_sum: tail above tol/2 = 5e-10 after "
                   "65536 terms at t=1e-300"),
        # (once an OverflowError traceback)
        ("800", "--t: tanh_transform: sinh(t/2)^2 overflows at t=800.0; "
                "t must stay below about 711.17")], ids=["tiny", "overflow"])
    def test_t_out_of_range_is_typed(self, tmp_path, capsys, t, message):
        code = run(["traces", "--out", str(tmp_path), "--t", t])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_nan_trace_error_fails_verification(self, tmp_path, monkeypatch):
        monkeypatch.setattr(global_traces, "global_trace",
                            lambda *args, **kwargs: (math.nan,) * 3)
        code = run(["traces", "--out", str(tmp_path), "--t", "1"])
        assert code == cli.EXIT_VERIFY
        rows = json.loads((tmp_path / "traces.json").read_text())["identities"]
        assert any(math.isnan(r["abs_err"]) for r in rows)

    @pytest.mark.parametrize("row,match", [
        ("nan,1", "eigenvalues must be finite"),
        ("1.5", "line 3: expected 2 fields, got 1"),
        ("0.5,1,7", "line 3: expected 2 fields, got 3"),
    ])
    def test_bad_laplace_row(self, tmp_path, capsys, row, match):
        path = tmp_path / "laplace.csv"
        path.write_text(f"mu,multiplicity\n0.3,1\n{row}\n")
        code = run(["traces", "--out", str(tmp_path),
                    "--laplace-file", str(path)])
        assert code == cli.EXIT_CONFIG
        assert match in capsys.readouterr().err
        assert not (tmp_path / "traces.json").exists()


    def test_non_utf8_laplace_file(self, tmp_path, capsys):
        path = tmp_path / "laplace.csv"
        path.write_bytes(b"mu,multiplicity\n0.3,1\n0.5,\xff\n")
        code = run(["traces", "--out", str(tmp_path),
                    "--laplace-file", str(path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: laplace file {path}, line 3: not UTF-8 text, byte 0xff "
            "at column 5 (invalid start byte)\n")
        assert not (tmp_path / "traces.json").exists()

    @pytest.mark.parametrize("name,reason", [
        ("missing.csv", "No such file or directory"),
        (".", "Is a directory")])
    def test_unopenable_laplace_file(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        code = run(["traces", "--out", str(tmp_path / "out"),
                    "--laplace-file", str(path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: laplace file {path}: {reason}\n")
        assert not (tmp_path / "out").exists()

    def test_errno_less_oserror_named(self, tmp_path, capsys, monkeypatch):
        # numpy's reader raises OSErrors with no strerror, such as
        # "... not found." for a file gone before it opens it
        def disk_gone(*args, **kwargs):
            raise OSError("disk gone")
        monkeypatch.setattr(np, "loadtxt", disk_gone)
        path = tmp_path / "laplace.csv"
        path.write_text("mu,multiplicity\n0.3,1\n")
        code = run(["traces", "--out", str(tmp_path / "out"),
                    "--laplace-file", str(path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: laplace file {path}: disk gone\n")
        assert not (tmp_path / "out").exists()


class TestSelberg:
    def test_harness_small_cutoff(self, tmp_path):
        code = run(["selberg", "--out", str(tmp_path), "--lmax", "6"])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "length_spectrum.csv").read_text().splitlines()
        assert lines[0] == "length,multiplicity,is_primitive"
        assert len(lines) > 2
        report = json.loads((tmp_path / "selberg_report.json").read_text())
        assert report["checks"]["relator_residual"] < 1e-9
        assert abs(report["checks"]["systole"] - 3.0571418389619963) < 1e-9

    def test_identity_term_computed_once(self, tmp_path):
        # one quadrature for the run's test function, reused by its four
        # wave-trace pairs, and one for each heat Gaussian of the Weyl check
        selberg.identity_term.cache_clear()
        assert run(["selberg", "--out", str(tmp_path)]) == cli.EXIT_OK
        info = selberg.identity_term.cache_info()
        assert (info.misses, info.hits) == (1 + 3, 4)

    @pytest.mark.parametrize("lmax,cutoffs", [
        ("8", [5.0, 6.0, 7.0, 8.0]), ("7.5", [5.0, 6.0, 7.0, 7.5]),
        ("4", [4.0])])
    def test_report_pair_reuses_last_cutoff(self, tmp_path, monkeypatch,
                                            lmax, cutoffs):
        # the report pairs the whole spectrum; when the cutoff grid ends
        # at --lmax, its last pair is that one, and is not paired again
        pair, seen = selberg.wave_trace_pair, []

        def counting(ls, g, laplace):
            seen.append(ls.cutoff)
            return pair(ls, g, laplace)

        monkeypatch.setattr(selberg, "wave_trace_pair", counting)
        assert run(["selberg", "--out", str(tmp_path), "--lmax", lmax]) \
            == cli.EXIT_OK
        assert seen == cutoffs
        report = json.loads((tmp_path / "selberg_report.json").read_text())
        assert report["cutoff"] == cutoffs[-1]
        if lmax == "8":
            assert report["checks"]["discrepancies"][-1] == \
                report["discrepancy"]

    def test_unconverged_identity_term_fails_loudly(self, tmp_path, capsys):
        # quad used to warn, return a wrong value and exit 0 here; the
        # trapezoid rule would not converge within its node cap, so the
        # --sigma envelope rejects sigma = 1e-5 up front
        code = run(["selberg", "--out", str(tmp_path), "--lmax", "5",
                    "--sigma", "1e-5"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: --sigma: expected a number in [{LO_55!r}, "
                       f"{HI_55!r}] at --center 5.5 (low end 8 (|center| + "
                       "64) / (pi 2^20), from the identity term's 2^20-node "
                       "cap; high end sqrt(8 (ln DBL_MAX - 6 - |center|/2)), "
                       "where the spectral term stays finite), got "
                       "'1e-5'\n")
        assert not (tmp_path / "selberg_report.json").exists()

    @pytest.mark.parametrize("flag,value,match", [
        ("--lmax", "-1", "--lmax: expected a number >= the systole "
                         "3.057141838961996, got '-1'"),
        ("--lmax", "0.5", "--lmax: expected a number >= the systole "
                          "3.057141838961996, got '0.5'"),
        ("--sigma", "-1", "--sigma: expected a number in ["),
        ("--sigma", "1e-5", "--sigma: expected a number in ["),
    ], ids=["lmax_negative", "lmax_below_systole", "sigma_negative",
            "sigma_unconverged"])
    def test_bad_input_rejected_before_enumerating(self, tmp_path, capsys,
                                                   monkeypatch, flag, value,
                                                   match):
        def enumerated(*args, **kwargs):
            raise AssertionError("length_spectrum called")

        monkeypatch.setattr(selberg, "length_spectrum", enumerated)
        code = run(["selberg", "--out", str(tmp_path), flag, value])
        assert code == cli.EXIT_CONFIG
        assert match in capsys.readouterr().err
        assert not (tmp_path / "length_spectrum.csv").exists()
        assert not (tmp_path / "selberg_report.json").exists()

    @pytest.mark.parametrize("argv,flag,bad", [
        (["--sigma", "1e300"], "--sigma", "'1e300'"),
        (["--sigma", "100"], "--sigma", "'100'"),
        (["--sigma", "0"], "--sigma", "'0'"),
        (["--sigma", "5e-324"], "--sigma", "'5e-324'"),
        (["--sigma", repr(math.nextafter(LO_55, 0.0))], "--sigma",
         repr(repr(math.nextafter(LO_55, 0.0)))),
        (["--sigma", repr(math.nextafter(HI_55, math.inf))], "--sigma",
         repr(repr(math.nextafter(HI_55, math.inf)))),
        (["--center", "1e300"], "--center", "'1e300'"),
        (["--center=-1e4"], "--center", "'-1e4'"),
        (["--center", repr(math.nextafter(CENTER_MAX, math.inf))], "--center",
         repr(repr(math.nextafter(CENTER_MAX, math.inf)))),
        # the centre's own edge leaves no sigma
        (["--center", repr(CENTER_MAX), "--sigma", "0.1"], "--sigma", "'0.1'"),
    ], ids=["sigma_huge", "sigma_spectral_overflow", "sigma_zero",
            "sigma_subnormal", "sigma_below_low_end", "sigma_above_high_end",
            "center_huge", "center_negative", "center_above_edge",
            "center_at_edge"])
    def test_test_fn_envelope_before_any_work(self, tmp_path, capsys,
                                              monkeypatch, argv, flag, bad):
        # one line naming the flag and the value, no numpy warning, no
        # quadrature, no enumeration and no report
        monkeypatch.setattr(selberg, "identity_term", None)
        monkeypatch.setattr(selberg, "length_spectrum", None)
        code = run(["selberg", "--out", str(tmp_path)] + argv)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: expected ")
        assert err.endswith(f", got {bad}\n") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("center", [5.5, -1400.0])
    @pytest.mark.parametrize("end", ["low", "high"])
    def test_test_fn_envelope_edges_run(self, tmp_path, capsys, center, end):
        # at either end of the --sigma range the identity term converges
        # and every report value is finite
        lo, hi = selberg._sigma_range(center)
        sigma = lo if end == "low" else hi
        code = run(["selberg", "--out", str(tmp_path), "--lmax", "5",
                    f"--center={center!r}", "--sigma", repr(sigma)])
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY)
        assert capsys.readouterr().err == ""
        text = (tmp_path / "selberg_report.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text)["spectral_side"] > 0.0

    def test_sigma_range_values(self):
        # the ends stated in README
        assert selberg._sigma_range(5.5) == (LO_55, HI_55)
        assert CENTER_MAX == 2.0 * (math.log(sys.float_info.max) - 6.0)
        assert selberg._sigma_range(CENTER_MAX)[1] == 0.0

    def test_weyl_rows_gated(self, tmp_path, monkeypatch, capsys):
        # an identity term 1.5 times too large moves every Weyl ratio past
        # 15 %, while the discrepancies stay monotone: exit 2 from the Weyl
        # rows alone, with the reports written
        raw = selberg.identity_term
        monkeypatch.setattr(selberg, "identity_term", lambda g: 1.5 * raw(g))
        code = run(["selberg", "--out", str(tmp_path), "--lmax", "5"])
        assert code == cli.EXIT_VERIFY
        assert "monotone=True" in capsys.readouterr().out
        report = json.loads((tmp_path / "selberg_report.json").read_text())
        assert all(abs(row["ratio"] - 1.0) > 0.15
                   for row in report["checks"]["weyl"])


class TestMeans:
    def test_reports(self, tmp_path):
        code = run(["means", "--out", str(tmp_path), "--lambda", "2", "--m", "8"])
        assert code == cli.EXIT_OK
        conv = (tmp_path / "hc_convergence.csv").read_text().splitlines()
        assert conv[0] == "lambda,t,m_max,partial_sum,abs_err"
        slopes = (tmp_path / "wave_slopes.csv").read_text().splitlines()
        assert slopes[0] == ("lambda,slope,floor_limited,phi_at_zero,"
                             "w_symbol_defect,w_symbol_bound")
        row = slopes[1].split(",")
        assert abs(float(row[1]) + 2.0) < 0.1
        assert float(row[3]) == 1.0

    def test_w_symbol_gated_below_five(self, tmp_path, monkeypatch):
        # W_0 off by 0.3/lam fails the W-symbol gate 0.2/lam at lam = 1,
        # where the bound was once inf; --tol 1 keeps the terminal HC
        # error, which the same coefficient moves, from failing the run
        raw = means.hc_coefficient
        monkeypatch.setattr(means, "hc_coefficient", lambda m, lam: (
            raw(m, lam) + (0.3 / lam if m == 0 else 0.0)))
        code = run(["means", "--out", str(tmp_path), "--lambda", "1",
                    "--tol", "1"])
        assert code == cli.EXIT_VERIFY
        row = (tmp_path / "wave_slopes.csv").read_text().splitlines()[1]
        defect, bound = map(float, row.split(",")[4:])
        assert bound == 0.2 and defect > bound

    @pytest.mark.parametrize("tol,expected", [("1e-11", cli.EXIT_OK),
                                              ("1e-14", cli.EXIT_VERIFY)])
    def test_terminal_error_gated_on_tol(self, tmp_path, capsys, tol,
                                         expected):
        # the worst terminal HC error at m = 2 is 5.17e-12, between the two
        code = run(["means", "--out", str(tmp_path), "--lambda", "2",
                    "--m", "2", "--tol", tol])
        assert code == expected
        assert "worst terminal HC error 5.169e-12" in capsys.readouterr().out

    @pytest.mark.parametrize("lam,message", [
        # the quarter-period shift pi/(2 lam) of wave_residual would
        # overflow 2 sinh t; the --lambda envelope rejects it up front
        ("1e-4", "--lambda: expected numbers > 0 with 6 + pi/(2 lambda) <= "
                 "13.41 and lambda <= 1000.0, the wave residual's envelope "
                 "(0.21198330995882544 <= lambda <= 1000.0), got 0.0001"),
        # it used to fail late, in legendre_conical at t = 3
        ("1e6", "--lambda: expected numbers > 0 with 6 + pi/(2 lambda) <= "
                "13.41 and lambda <= 1000.0, the wave residual's envelope "
                "(0.21198330995882544 <= lambda <= 1000.0), got 1000000.0"),
        # it used to write slope -0.026 from wrong quadratures and exit 2
        ("0.01", "--lambda: expected numbers > 0 with 6 + pi/(2 lambda) <= "
                 "13.41 and lambda <= 1000.0, the wave residual's envelope "
                 "(0.21198330995882544 <= lambda <= 1000.0), got 0.01")],
        ids=["overflow", "unconverged", "envelope"])
    def test_quadrature_failure_fails_loudly(self, tmp_path, capsys, lam,
                                             message):
        code = run(["means", "--out", str(tmp_path), "--lambda", lam])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("lam", ["0.212", "0.25", "100", "1000"])
    def test_envelope_passes(self, tmp_path, lam):
        # these exited 1 late (0.212, 0.25) or 2 on the slope (100, 1000)
        # before the residual came from exact t-derivatives
        code = run(["means", "--out", str(tmp_path), "--lambda", lam])
        assert code == cli.EXIT_OK

    def test_m_bound_before_any_work(self, tmp_path, capsys, monkeypatch):
        # --m 100000 used to run past 20 s, every row from m = 125 on a
        # copy of the one before
        monkeypatch.setattr(specfun, "legendre_conical", None)
        monkeypatch.setattr(means, "hc_partial_sum", None)
        code = run(["means", "--out", str(tmp_path), "--m", "125"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --m: expected an integer <= 124, past which e^(-2 m t) "
            "at t = 3.0 underflows to 0, got '125'\n")
        assert not list(tmp_path.iterdir())

    def test_m_bound_accepted(self, tmp_path):
        code = run(["means", "--out", str(tmp_path), "--lambda", "2",
                    "--m", "124"])
        assert code == cli.EXIT_OK
        rows = (tmp_path / "hc_convergence.csv").read_text().splitlines()
        assert rows[-1].split(",")[2] == "124"

    @pytest.mark.parametrize("lams,bad", [
        ("-1", "-1.0"), ("0", "0.0"), ("1e-300", "1e-300"),
        ("1e-9", "1e-09"), ("5e-324", "5e-324"),
        # 6 + pi/(2 lam) is 13.4129 here, just past 13.41
        ("0.2119", "0.2119"),
        # a bad value anywhere in the list stops the run before any work
        ("2,0.01", "0.01")])
    def test_lambda_envelope_before_any_work(self, tmp_path, capsys,
                                             monkeypatch, lams, bad):
        monkeypatch.setattr(specfun, "legendre_conical", None)
        monkeypatch.setattr(means, "hc_partial_sum", None)
        code = run(["means", "--out", str(tmp_path), "--lambda", lams])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --lambda: expected numbers > 0 ")
        assert err.endswith(f", got {bad}\n") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_lambda_envelope_edge_accepted(self, monkeypatch):
        # the smallest lambda in the envelope passes the check and reaches
        # the quadrature
        lam = means.LAMBDA_MIN
        assert 6.0 + math.pi / (2.0 * lam) <= means.WAVE_MAX_T

        def stop(*args, **kwargs):
            raise cli.GfslError("reached the quadrature")

        monkeypatch.setattr(specfun, "legendre_conical", stop)
        with pytest.raises(cli.GfslError, match="reached the quadrature"):
            cli.cmd_means(cli.build_parser().parse_args(
                ["means", "--lambda", repr(lam)]))


# Values of the means flags, valid and not: each end of the --lambda
# envelope and the value just past it, zero, the smallest subnormal,
# huge, negative and non-finite numbers.
MEANS_LAMBDAS = (
    ["2", repr(means.LAMBDA_MIN), repr(means.LAMBDA_MAX)],
    ["0", "5e-324", "-5e-324", "-1", "1e308", "nan", "inf", "-inf",
     repr(math.nextafter(means.LAMBDA_MIN, 0.0)),
     repr(math.nextafter(means.LAMBDA_MAX, math.inf))])
MEANS_MS = (["0", "3", str(means.HC_M_MAX)],
            [str(means.HC_M_MAX + 1), "-1", "1e308", "nan", "2.5"])
MEANS_TOLS = (["1e-9", "5e-324", "1e308"], ["0", "-1", "nan", "inf"])


def _valid_or_not(values):
    valid, invalid = values
    return st.sampled_from(valid) | st.sampled_from(invalid)


def _means_flag_at_fault(lams, m, tol):
    """The flag cmd_means rejects first, or None if all are valid."""
    tol_val = float(tol)
    if not (math.isfinite(tol_val) and tol_val > 0.0):
        return "--tol"
    if not all(means.LAMBDA_MIN <= float(x) <= means.LAMBDA_MAX for x in lams):
        return "--lambda"
    if not (m.isdigit() and int(m) <= means.HC_M_MAX):
        return "--m"
    return None


def _check_fuzz_run(argv, flag, reports, certain=True):
    """Run argv in-process: no exception (a traceback from the console
    script) and no warning may escape.  With no flag at fault, or one
    whose rejection is not certain (certain=False) and was not made, the
    run exits 0 or 2 and writes `reports`; otherwise it exits 1 with one
    line `error: <flag>: ...` and writes no report."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv + ["--out", out])
        written = sorted(os.listdir(out))
    text = err.getvalue()
    assert not caught
    assert "Traceback" not in text and "Warning" not in text
    if flag is not None and (certain or code == cli.EXIT_CONFIG):
        assert code == cli.EXIT_CONFIG
        assert text.startswith(f"error: {flag}: ")
        assert text.count("\n") == 1 and text.endswith("\n")
        assert written == []
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY)
        assert written == reports


class TestMeansFuzz:
    @settings(max_examples=60)
    @given(st.lists(_valid_or_not(MEANS_LAMBDAS), min_size=1, max_size=2),
           _valid_or_not(MEANS_MS), _valid_or_not(MEANS_TOLS))
    def test_flags(self, lams, m, tol):
        _check_fuzz_run(["means", f"--lambda={','.join(lams)}", f"--m={m}",
                         f"--tol={tol}"],
                        _means_flag_at_fault(lams, m, tol),
                        ["hc_convergence.csv", "wave_slopes.csv"])


# Edge values of the other subcommands' numeric flags, each mapped to the
# step of the subcommand that rejects it (its checks run in that order),
# or to None if it passes them all.  `--tol` is shared.
TOLS = {"1e-9": None, "0.5": None, "5e-324": None, "1e308": None,
        "0": 0, "-1": 0, "nan": 0, "inf": 0}

# spherical-check: 0 --tol, 1 --lambda and 2 --nu parse, 3 --n, 4 --k,
# 5 and 6 the principal and complementary envelopes, 7 the raw minus pole
# at lambda = 0, 8 a zero moment seed (1/2 + nu rounds to 1), 9 and 10 a
# table that overflows: at lambda = 1e300 only from some N on, so it may
# pass (9), at 8.9e307 at every N, as the minus table's moment seeds are
# NaN (10).
SPHERICAL_LAMBDAS = {"0.5": None, "2": None, "1e6": None,
                     "0.49999999999999994": None, "0.5000000000000001": None,
                     "nan": 1, "inf": 1, "-1": 5, "-5e-324": 5, "5e-324": 5,
                     "1e308": 5, "0": 7, "1e300": 9, "8.9e307": 10}
SPHERICAL_NUS = {"0.1": None, "0.3": None, "nan": 2, "-inf": 2, "0": 6,
                 "5e-324": 6, "-1": 6, "0.5": 6, "1e308": 6,
                 "0.49999999999999994": 8}
SPHERICAL_NS = {"0": None, "3": None, "20": None, "-1": 3, "0.5": 3,
                "5e-324": 3, "1e308": 3, "nan": 3,
                str(spherical.SWEEP_N_MAX + 1): 3, "10" * 11: 3,
                "9" * 400: 3}
SPHERICAL_KS = {"2": None, "5": None, "1": 4, "0": 4, "-1": 4, "0.5": 4,
                "1e308": 4, "nan": 4, str(spherical.SWEEP_K_MAX + 1): 4,
                "10" * 11: 4, "9" * 400: 4}
MAY_PASS = {9}

# traces: 0 --tol, 1 --t parse, 2 --genus, 3 the t envelope of the trace
# identities (t > 0, each series within its term budget and sinh(t/2)^2
# finite), 4 the rounding scale of the pre/post-RR traces at that genus
# and --tol (_rounding_step).
TRACES_TS = {"0.5": None, "1": None, "0.49999999999999994": None,
             "700": None, "0.02": None, "nan": 1, "inf": 1, "0": 3,
             "-5e-324": 3, "5e-324": 3, "1e-300": 3, "-1": 3, "711.5": 3,
             "1e308": 3}
TRACES_GENERA = {"2": None, "3": None, "1000000": None,
                 str(global_traces.GENUS_MAX): None,
                 "1": 2, "0": 2, "-1": 2, "0.5": 2, "5e-324": 2, "1e308": 2,
                 "nan": 2, str(global_traces.GENUS_MAX + 1): 2}

# selberg: 0 --lmax, 1 --center and 2 --sigma parse, 3 the --center and
# 4 the --sigma envelope, 5 --lmax above 8 and 6 below the systole.
SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
SELBERG_LMAXES = {repr(SYSTOLE): None, "5": None, "8": None, "nan": 0,
                  "inf": 0, repr(math.nextafter(8.0, math.inf)): 5,
                  "1e308": 5, repr(math.nextafter(SYSTOLE, 0.0)): 6, "0": 6,
                  "5e-324": 6, "0.5": 6, "-1": 6}
SELBERG_CENTERS = {"0": None, "5.5": None, "0.5": None, "-1": None,
                   "5e-324": None, "-5e-324": None, repr(CENTER_MAX): None,
                   "nan": 1, "inf": 1, "1e308": 3, "-1e308": 3,
                   repr(math.nextafter(CENTER_MAX, math.inf)): 3}
SELBERG_SIGMAS = ["0.5", "0.49999999999999994", "2", "0", "5e-324", "-1",
                  "1e308", "nan", "-inf"]


def _first_fault(*faults):
    """(flag, certain) of the first (step, flag) with a step, by step, or
    (None, True) if none has one."""
    found = sorted((step, flag) for step, flag in faults if step is not None)
    if not found:
        return None, True
    step, flag = found[0]
    return flag, step not in MAY_PASS


def _rounding_step(t, genus, tol):
    """4 if the pre/post-RR traces over no eigenvalue, at valid t, genus
    and tol, carry a rounding scale above tol/2, else None."""
    t, genus = float(t), int(genus)
    x, gap = math.exp(-t), -math.expm1(-t)
    size = (1.0 + 2.0 * x / gap
            + 2.0 * (genus - 1) * x * (1.0 + x) / gap / gap / gap)
    return None if global_traces._ROUNDING * size <= float(tol) / 2.0 else 4


def _sigma_step(center, sigma):
    """The selberg step that rejects --sigma at this --center, or None."""
    val = float(sigma)
    if not math.isfinite(val):
        return 2
    if not math.isfinite(float(center)):
        return None
    lo, hi = selberg._sigma_range(float(center))
    return None if lo <= val <= hi else 4


class TestFlagFuzz:
    # Small N, K and --lmax keep each run to milliseconds.
    @settings(max_examples=200)
    @example(["0"], ["0.1"], "3", "2", "1e-9")
    @example(["1e300"], ["0.1"], "3", "2", "1e-9")
    @example(["8.9e307"], ["0.1"], "3", "2", "1e-9")
    @example(["2"], ["0.49999999999999994"], "3", "2", "1e-9")
    @example(["2"], ["0.1"], "10" * 11, "2", "1e-9")
    @example(["2"], ["0.1"], "3", "9" * 400, "1e-9")
    @given(st.lists(st.sampled_from(sorted(SPHERICAL_LAMBDAS)), min_size=1,
                    max_size=2),
           st.lists(st.sampled_from(sorted(SPHERICAL_NUS)), min_size=1,
                    max_size=2),
           st.sampled_from(sorted(SPHERICAL_NS)),
           st.sampled_from(sorted(SPHERICAL_KS)),
           st.sampled_from(sorted(TOLS)))
    def test_spherical_check(self, lams, nus, n, k, tol):
        flag, certain = _first_fault(
            (TOLS[tol], "--tol"), (SPHERICAL_NS[n], "--n"),
            (SPHERICAL_KS[k], "--k"),
            *((SPHERICAL_LAMBDAS[x], "--lambda") for x in lams),
            *((SPHERICAL_NUS[x], "--nu") for x in nus))
        _check_fuzz_run(["spherical-check", f"--lambda={','.join(lams)}",
                         f"--nu={','.join(nus)}", f"--n={n}", f"--k={k}",
                         f"--tol={tol}"],
                        flag, ["spherical_residuals.csv"], certain)

    @settings(max_examples=60)
    @example(["1e308"], "2", "1e-9")
    @example(["1"], str(global_traces.GENUS_MAX), "1e-9")
    @example(["700"], str(global_traces.GENUS_MAX), "1e-9")
    @example(["1"], str(global_traces.GENUS_MAX + 1), "1e-9")
    @example(["0.5"], "1000000", "1e-9")
    @example(["0.02"], "2", "1e-9")
    @example(["0.02"], "2", "0.5")
    @given(st.lists(st.sampled_from(sorted(TRACES_TS)), min_size=1,
                    max_size=2),
           st.sampled_from(sorted(TRACES_GENERA)),
           st.sampled_from(sorted(TOLS)))
    def test_traces(self, ts, genus, tol):
        valid = TOLS[tol] is None and TRACES_GENERA[genus] is None
        flag, _ = _first_fault(
            (TOLS[tol], "--tol"), (TRACES_GENERA[genus], "--genus"),
            *((TRACES_TS[x], "--t") for x in ts),
            *((_rounding_step(x, genus, tol), "--t") for x in ts
              if valid and TRACES_TS[x] is None))
        _check_fuzz_run(["traces", f"--t={','.join(ts)}", f"--genus={genus}",
                         f"--tol={tol}"], flag, ["traces.json"])

    @settings(max_examples=60)
    @given(st.sampled_from(sorted(SELBERG_LMAXES)),
           st.sampled_from(sorted(SELBERG_CENTERS)),
           st.sampled_from(SELBERG_SIGMAS))
    def test_selberg(self, l_max, center, sigma):
        flag, _ = _first_fault((SELBERG_LMAXES[l_max], "--lmax"),
                               (SELBERG_CENTERS[center], "--center"),
                               (_sigma_step(center, sigma), "--sigma"))
        _check_fuzz_run(["selberg", f"--lmax={l_max}", f"--center={center}",
                         f"--sigma={sigma}"],
                        flag, ["length_spectrum.csv", "selberg_report.json"])


# Rows of a fuzzed Laplace file: valid (mu, multiplicity) pairs, and
# each kind of bad row the loader must reject: a missing or extra field,
# a quoted field, nan or inf, mu <= 0, a multiplicity of 0 or above
# 2^63 - 1, and bytes that are not UTF-8.
LAPLACE_PAIRS = st.tuples(
    st.sampled_from(["0.3", "0.5", "2", "2.0", "7.5", "30"])
    | st.floats(0.01, 400.0).map(repr),
    st.integers(1, 4))
LAPLACE_BAD_ROWS = st.sampled_from([
    b"", b"0.5", b"0.5,", b",1", b",", b"0.5,1,7", b'"0.5",1', b'0.5,"1"',
    b"nan,1", b"inf,1", b"-inf,1", b"0.5,nan", b"0.5,inf", b"0,1", b"-1,1",
    b"-0.0,1", b"0.5,0", b"0.5,-1", b"0.5,9223372036854775807",
    b"0.5,9223372036854775808", b"0.5,\xff", b"\xe9,1", b"0.5,1\x80",
    b"\xc3(,1"])


def _laplace_row(pair):
    return "{},{}".format(*pair).encode()


def _mu(pair):
    return float(pair[0])


# Half the files hold valid rows in increasing mu, so that some pass; in
# the other half mu may also repeat or fall.
LAPLACE_FILES = (
    st.lists(LAPLACE_PAIRS, max_size=5, unique_by=_mu).map(
        lambda pairs: [_laplace_row(p) for p in sorted(pairs, key=_mu)])
    | st.lists(LAPLACE_PAIRS.map(_laplace_row) | LAPLACE_BAD_ROWS,
               max_size=5))


class TestLaplaceFileFuzz:
    @settings(max_examples=150)
    @example([b"0.5,9223372036854775808"])
    @example([b"2,1", b"0.5,1"])
    @example([b"0.3,1", b"-1,1"])
    @given(LAPLACE_FILES)
    def test_laplace_file(self, rows):
        # exit 0, 2, or 1 with one error line that names the file; no
        # traceback and no warning (pytest makes a warning an error).  A
        # .gz name, read from the open handle because numpy would
        # decompress it, gives the same exit code and message.
        code, text, written = self._traces(rows, "laplace.csv")
        assert self._traces(rows, "laplace.csv.gz") == (code, text, written)
        assert "Traceback" not in text
        if code == cli.EXIT_CONFIG:
            assert text.startswith("error: ") and "PATH" in text
            assert text.count("\n") == 1 and written == ["PATH"]
        else:
            assert code in (cli.EXIT_OK, cli.EXIT_VERIFY) and text == ""
            assert written == ["PATH", "traces.json"]

    @staticmethod
    def _traces(rows, name):
        """Exit code, stderr and sorted --out listing of `traces` on a
        Laplace file of `rows` named `name`, its path and name as PATH."""
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            path = Path(out) / name
            path.write_bytes(b"mu,multiplicity\n" + b"".join(
                row + b"\n" for row in rows))
            code = cli.main(["traces", "--t", "1", "--laplace-file",
                             str(path), "--out", out])
            written = sorted("PATH" if f == name else f
                             for f in os.listdir(out))
        return code, err.getvalue().replace(str(path), "PATH"), written


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["traces", "--format", "json"],
                                      ["means", "--tau", "2"],
                                      ["selberg", "--tol", "1e-300"],
                                      ["traces", "--config", "run.cfg"]])
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        assert (f"gfsl: error: unrecognized arguments: {' '.join(argv[1:])}\n"
                in capsys.readouterr().err)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["selberg", "--help"])
        assert exc.value.code == cli.EXIT_OK
        assert "--tol" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag,top", [
        ("--n", spherical.SWEEP_N_MAX), ("--k", spherical.SWEEP_K_MAX)])
    def test_sweep_sizes_past_budget_rejected(self, tmp_path, capsys, flag,
                                              top):
        # --n 10^20 exited 1 with numpy's "Maximum allowed dimension
        # exceeded", naming no flag, and 10^8 would allocate gigabytes
        for value in (str(top + 1), "100000000000000000000"):
            code = run(["spherical-check", flag, value, "--out", str(tmp_path)])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{flag}: expected an integer <= {top}" in err
            assert err.endswith(f"got {value!r}\n")
            assert not list(tmp_path.iterdir())

    def test_largest_k_runs(self, tmp_path):
        # and passes: scored against the row's largest term, minus:U grew
        # like K^2 here, to 2.7e-8 (exit 2)
        code = run(["spherical-check", "--lambda", "1", "--nu", "", "--n", "2",
                    "--k", str(spherical.SWEEP_K_MAX), "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "spherical_residuals.csv").exists()

    @pytest.mark.parametrize("argv,flag,value,minimum", [
        (["spherical-check", "--n", "x"], "--n", "x", 0),
        (["spherical-check", "--n", "-3"], "--n", "-3", 0),
        (["spherical-check", "--k", "1"], "--k", "1", 2),
        (["spherical-check", "--k", "8.0"], "--k", "8.0", 2),
        (["traces", "--genus", "2.5"], "--genus", "2.5", 2),
        (["traces", "--genus", "1"], "--genus", "1", 2),
        (["means", "--lambda", "2", "--m", "-1"], "--m", "-1", 0),
        (["means", "--lambda", "2", "--m", ""], "--m", "", 0),
    ])
    def test_bad_integers_rejected(self, tmp_path, capsys, argv, flag, value,
                                   minimum):
        code = run(argv + ["--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{flag}: expected an integer >= {minimum}, got {value!r}" in err
        assert not [p for p in tmp_path.iterdir() if p.is_file()]

    @pytest.mark.parametrize("argv,flag,value", [
        (["traces", "--t", "1,inf"], "--t", "inf"),
        (["traces", "--tol", "nan"], "--tol", "nan"),
        (["means", "--lambda", "nan"], "--lambda", "nan"),
        (["means", "--lambda", "2,x"], "--lambda", "x"),
        (["spherical-check", "--nu=-inf"], "--nu", "-inf"),
        (["selberg", "--center", "nan"], "--center", "nan"),
        (["selberg", "--sigma", "inf"], "--sigma", "inf"),
        (["selberg", "--lmax", "nan"], "--lmax", "nan"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, argv, flag,
                                         value):
        code = run(argv + ["--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{flag}: expected a finite number, got {value!r}" in err
        assert not [p for p in tmp_path.iterdir() if p.is_file()]

    @pytest.mark.parametrize("argv", [
        ["traces", "--t", ","], ["means", "--lambda", ""],
        ["spherical-check", "--lambda", " , ", "--nu", ""]])
    def test_empty_sweep_rejected(self, tmp_path, capsys, argv):
        # an empty --t list used to check nothing and exit 0
        code = run(argv + ["--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "expected at least one number" in capsys.readouterr().err
        assert not [p for p in tmp_path.iterdir() if p.is_file()]

    def test_one_empty_regime_allowed(self, tmp_path):
        code = run(["spherical-check", "--lambda", "1", "--nu", "", "--n", "25",
                    "--k", "5", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "spherical_residuals.csv").read_text().splitlines()
        assert len(lines) == 1 + 6

    @pytest.mark.parametrize("command", ["spherical-check", "traces", "means"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_tol_rejected(self, tmp_path, capsys, command, value):
        # --tol -1 used to run the whole sweep and fail every relation
        # (exit 2); means silently raised it to 1e-10
        out = tmp_path / "out"
        code = run([command, "--out", str(out), f"--tol={value}"])
        assert code == cli.EXIT_CONFIG
        assert (f"--tol: expected a number > 0, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spherical-check", "--n", "4", "--k", "2"],
        ["traces", "--t", "1"],
        ["selberg", "--lmax", "5"],
        ["means", "--lambda", "2", "--m", "1"]],
        ids=["spherical-check", "traces", "selberg", "means"])
    @pytest.mark.parametrize("sub,reason", [
        ("", "File exists"), ("sub", "Not a directory")])
    def test_out_not_a_directory(self, tmp_path, capsys, argv, sub, reason):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = str(afile / sub) if sub else str(afile)
        code = run(argv + ["--out", out])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --out: cannot make directory {out!r}: {reason}\n")
        assert os.listdir(tmp_path) == ["afile"]
        assert afile.read_text() == "kept\n"

    def test_numpy_float_written_as_float(self, tmp_path):
        # np.float64 is a float subclass whose repr is np.float64(...)
        path = tmp_path / "x.csv"
        cli.write_csv(path, ["a", "b"], [(np.float64(0.1), np.float64(-0.0))])
        assert path.read_text() == "a,b\n0.1,-0.0\n"


def _python(args, cwd, **env_vars):
    """A fresh interpreter on src/; env_vars set variables of its
    environment, and a value of None removes one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


_SUBCOMMANDS_SMALL = [
    ["spherical-check", "--n", "20", "--k", "4"],
    ["traces", "--t", "1"],
    ["selberg", "--lmax", "5"],
    ["means", "--lambda", "2", "--m", "4"],
]

_RUN_ALL = """
import sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # any import of scipy now fails
from gfsl import cli
codes = [cli.main(argv + ["--out", sys.argv[2]]) for argv in {argv!r}]
print(codes)
"""


# The BLAS thread setting and thread count of a process that imports
# gfsl.cli and then loads numpy through a library module, as a subcommand
# does.
_COLD_START = ("import os; import gfsl.cli; gfsl.cli.specfun.log_gamma; "
               "task = '/proc/self/task'; "
               "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
               "len(os.listdir(task)) if os.path.isdir(task) else 1)")


# The exit code of one in-process CLI call (argv None: the import alone)
# and whether numpy was loaded by then.
_NUMPY_FREE = """
import sys
from gfsl import cli
code = 0
if {argv!r} is not None:
    try:
        code = cli.main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(code, 'numpy' in sys.modules)
"""


class TestImport:
    @pytest.mark.parametrize("argv,code", [
        (None, 0),
        (["--help"], 0),
        (["bogus"], 1),
        (["spherical-check", "--tol", "x"], 1),
        (["traces", "--t", ","], 1),
        (["means", "--lambda", ""], 1),
    ], ids=["import", "help", "usage", "tol", "t", "lambda"])
    def test_paths_before_library_code_load_no_numpy(self, tmp_path, argv,
                                                       code):
        # numpy loads with the first library module a subcommand runs, so
        # the import and every exit before library code skip its import
        proc = _python(["-c", _NUMPY_FREE.format(argv=argv)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{code} False"
        assert os.listdir(tmp_path) == []

    def test_cli_import_starts_no_blas_pool(self, tmp_path):
        # pytest's own environment holds the default once it has imported
        # gfsl.cli, so the child's is removed explicitly
        proc = _python(["-c", _COLD_START], tmp_path,
                       OPENBLAS_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]

    def test_user_blas_threads_kept(self, tmp_path):
        proc = _python(["-c", _COLD_START], tmp_path, OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[0] == "2"

    def test_package_import_loads_no_numpy(self, tmp_path):
        # so that gfsl.cli's BLAS default runs before numpy loads
        proc = _python(["-c", "import gfsl, sys; "
                        "print('numpy' in sys.modules)"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: every subcommand exits as
        # it does with scipy importable
        script = _RUN_ALL.format(argv=_SUBCOMMANDS_SMALL)
        blocked = _python(["-c", script, "block", str(tmp_path / "b")],
                          tmp_path)
        free = _python(["-c", script, "free", str(tmp_path / "f")], tmp_path)
        assert free.returncode == 0, free.stderr
        assert blocked.returncode == 0, blocked.stderr
        assert blocked.stdout == free.stdout
        assert json.loads(free.stdout.splitlines()[-1]) == [cli.EXIT_OK] * 4

    def test_cli_import_loads_no_scipy(self, tmp_path):
        proc = _python(["-c", "import gfsl.cli, sys; "
                        "print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'scipy'))"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv,gfsl", [
        (["selberg", "--lmax", "5"], {"selberg"}),
        (["means", "--lambda", "2", "--m", "4"], {"specfun", "means"}),
        (["spherical-check", "--n", "20", "--k", "4"],
         {"specfun", "spherical"}),
        (["traces", "--t", "1"], {"specfun", "global_traces"}),
    ], ids=["selberg", "means", "spherical-check", "traces"])
    def test_subcommand_loads_only_its_modules(self, tmp_path, argv, gfsl):
        # a cold run compiles and runs only the library modules its
        # subcommand calls; the others stay unrun lazy handles, and
        # fractions and configparser stay unloaded
        script = ("import json, sys, types; from gfsl import cli; "
                  f"code = cli.main({argv!r} + ['--out', sys.argv[1]]); "
                  "mods = dict(sys.modules); "
                  "print(json.dumps([code, sorted(n for n, m in mods.items() "
                  "if n in ('fractions', 'configparser') "
                  "or n.split('.')[0] == 'scipy' or n.split('.')[0] == 'gfsl' "
                  "and type(m) is types.ModuleType), "
                  "sorted(n for n in mods if n.split('.')[0] == 'gfsl')]))")
        proc = _python(["-c", script, str(tmp_path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, loaded, registered = json.loads(proc.stdout.splitlines()[-1])
        assert code == cli.EXIT_OK
        want = {"gfsl", "gfsl.cli", "gfsl.errors"}
        want |= {f"gfsl.{name}" for name in gfsl}
        assert set(loaded) == want
        assert set(registered) == {"gfsl", "gfsl.cli", "gfsl.errors"} | {
            f"gfsl.{name}" for name in ("specfun", "spherical",
                                        "global_traces", "selberg", "means")}

    def test_library_modules_bound_at_cli_import(self, tmp_path):
        # every library module the CLI calls is in sys.modules once
        # gfsl.cli is imported, so a function replaced there (as a
        # profiler wraps it) is the one the subcommand and the library's
        # own callers run
        script = (
            "import sys; from gfsl import cli; "
            "mods = [m for n, m in sys.modules.items() "
            "if n.split('.')[0] == 'gfsl']; "
            "from gfsl import means, specfun; "
            "assert means in mods and specfun in mods; "
            "calls = []; raw = specfun.trapezoid_levels\n"
            "def counted(*a, **kw):\n"
            "    calls.append(a); return raw(*a, **kw)\n"
            "for m in mods:\n"
            "    for k, v in list(vars(m).items()):\n"
            "        if v is raw: setattr(m, k, counted)\n"
            "cli.main(['means', '--lambda', '2', '--m', '1', "
            "'--out', sys.argv[1]]); print(len(calls))")
        proc = _python(["-c", script, str(tmp_path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        # one quadrature for the CLI's legendre_conical target at t = 3
        # (phi(0) needs none), and 18 from the wave fit in means
        assert int(proc.stdout.split()[-1]) == 19

    def test_module_entry_point_warns_nothing(self, tmp_path):
        proc = _python(["-W", "error::RuntimeWarning", "-m", "gfsl.cli",
                        "traces", "--t", "1", "--out", str(tmp_path)],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "traces.json").exists()
