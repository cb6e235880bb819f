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

import pytest
from hypothesis import given, settings
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
        assert ("error: minus-branch table at lam = 0.0, N = 2000, K = 250: "
                "raw branch has a pole at lam = 0; use minus_renormalized"
                ) in capsys.readouterr().err
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
            "error: plus-branch table at lam = 1.0, N = 2000, K = 250 has "
            "non-finite entries in rows 774..775 (double precision "
            "overflow)\n")
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

    def test_huge_lambda_overflows_without_warning(self, tmp_path, capsys):
        # the prefactors overflow to inf quietly; the sweep names the table
        # and rows (pytest turns any numpy warning into an error)
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--lambda", "1e300"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: plus-branch table at lam = 1e+300, N = 40, K = 8 has "
            "non-finite entries in rows 4..40 (double precision overflow)\n")
        assert not list(tmp_path.iterdir())


class TestTraces:
    def test_identities_pass(self, tmp_path):
        code = run(["traces", "--out", str(tmp_path), "--genus", "2"])
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
        # 1 - e^{-t} rounds to 0 (once a ZeroDivisionError traceback)
        ("1e-300", "--t: trace_spherical: 1 - e^-t rounds to 0 at "
                   "t=1e-300"),
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
                            lambda *args, **kwargs: (math.nan, math.nan))
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
        ("--lmax", "-1", "--lmax must be >= the systole 3.057141838961996, "
                         "got '-1'"),
        ("--lmax", "0.5", "--lmax must be >= the systole 3.057141838961996, "
                          "got '0.5'"),
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
        monkeypatch.setattr(selberg, "_identity_term", None)
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
        lo, hi = cli._sigma_range(center)
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
        assert cli._sigma_range(5.5) == (LO_55, HI_55)
        assert CENTER_MAX == 2.0 * (math.log(sys.float_info.max) - 6.0)
        assert cli._sigma_range(CENTER_MAX)[1] == 0.0


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


class TestMeansFuzz:
    @settings(max_examples=60)
    @given(st.lists(_valid_or_not(MEANS_LAMBDAS), min_size=1, max_size=2),
           _valid_or_not(MEANS_MS), _valid_or_not(MEANS_TOLS))
    def test_flags(self, lams, m, tol):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.main(["means", f"--lambda={','.join(lams)}",
                             f"--m={m}", f"--tol={tol}", "--out", out])
            written = sorted(os.listdir(out))
        text = err.getvalue()
        assert not caught
        assert "Traceback" not in text and "Warning" not in text
        flag = _means_flag_at_fault(lams, m, tol)
        if flag is None:
            assert code in (cli.EXIT_OK, cli.EXIT_VERIFY)
            assert written == ["hc_convergence.csv", "wave_slopes.csv"]
        else:
            assert code == cli.EXIT_CONFIG
            assert text.startswith(f"error: {flag}: ")
            assert text.count("\n") == 1 and text.endswith("\n")
            assert written == []


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

    def test_budget_exit_code(self, tmp_path, monkeypatch):
        from gfsl.errors import BudgetError

        def exhausted(*args, **kwargs):
            raise BudgetError("enumeration exceeded budget", partial=[])

        monkeypatch.setattr(selberg, "length_spectrum", exhausted)
        code = run(["selberg", "--out", str(tmp_path), "--lmax", "5"])
        assert code == cli.EXIT_BUDGET


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
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


class TestImport:
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
        # every library module but means and oscillator
        (["traces", "--t", "1"], {"specfun", "spherical", "discrete",
                                  "global_traces", "selberg"}),
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
            f"gfsl.{name}" for name in ("specfun", "spherical", "discrete",
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
