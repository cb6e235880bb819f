import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfsl import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv):
    return cli.main(argv)


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

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[spherical]\nbogus_field = 3\n")
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG
        assert "bogus-field" in capsys.readouterr().err

    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[spherical]\nn = 25\nk = 5\nlambda = 1\nnu = 0.3\n")
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--config", str(cfg)])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "spherical_residuals.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 6


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

    def test_nan_trace_error_fails_verification(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.global_traces, "global_trace",
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
        # quad used to warn, return a wrong value and exit 0 here
        code = run(["selberg", "--out", str(tmp_path), "--lmax", "5",
                    "--sigma", "1e-5"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "identity term (center 5.5, sigma 1e-05)" in err
        assert "not converged to 1e-14 at 1048576 nodes" in err
        assert not (tmp_path / "selberg_report.json").exists()


    @pytest.mark.parametrize("flag,value,match", [
        ("--lmax", "-1", "--lmax must be >= the systole 3.057141838961996, "
                         "got '-1'"),
        ("--lmax", "0.5", "--lmax must be >= the systole 3.057141838961996, "
                          "got '0.5'"),
        ("--sigma", "-1", "sigma must be > 0"),
        ("--sigma", "1e-5", "identity term (center 5.5, sigma 1e-05)"),
    ], ids=["lmax_negative", "lmax_below_systole", "sigma_negative",
            "sigma_unconverged"])
    def test_bad_input_rejected_before_enumerating(self, tmp_path, capsys,
                                                   monkeypatch, flag, value,
                                                   match):
        def enumerated(*args, **kwargs):
            raise AssertionError("length_spectrum called")

        monkeypatch.setattr(cli.selberg, "length_spectrum", enumerated)
        code = run(["selberg", "--out", str(tmp_path), flag, value])
        assert code == cli.EXIT_CONFIG
        assert match in capsys.readouterr().err
        assert not (tmp_path / "length_spectrum.csv").exists()
        assert not (tmp_path / "selberg_report.json").exists()


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
        # the quarter-period shift pi/(2 lam) of wave_residual
        ("1e-4", "legendre_conical: 2 sinh t is not a finite float at "
                 "t=15709.964267948964 (lam=0.0001)"),
        ("1e6", "legendre_conical: no convergence for lam=1000000.0, t=3.0 "
                "at tol=1e-12 with 2097152 nodes (last change ")],
        ids=["overflow", "unconverged"])
    def test_quadrature_failure_fails_loudly(self, tmp_path, capsys, lam,
                                             message):
        code = run(["means", "--out", str(tmp_path), "--lambda", lam])
        assert code == cli.EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["traces", "--format", "json"],
                                      ["means", "--tau", "2"],
                                      ["selberg", "--tol", "1e-300"]])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == cli.EXIT_CONFIG

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

    def test_bad_integer_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[spherical]\nn = forty\n")
        code = run(["spherical-check", "--out", str(tmp_path),
                    "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG
        assert "--n: expected an integer >= 0, got 'forty'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command,field", [("traces", "format"),
                                               ("means", "tau"),
                                               ("selberg", "tol")])
    def test_removed_config_fields_rejected(self, tmp_path, capsys,
                                            command, field):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\n{field} = 1\n")
        code = run([command, "--out", str(tmp_path), "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"unknown field '{field}'" in capsys.readouterr().err

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
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_positive_tol_rejected(self, tmp_path, capsys, command, value,
                                       source):
        # --tol -1 used to run the whole sweep and fail every relation
        # (exit 2); means silently raised it to 1e-10
        if source == "flag":
            extra = [f"--tol={value}"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"[run]\ntol = {value}\n")
            extra = ["--config", str(cfg)]
        out = tmp_path / "out"
        code = run([command, "--out", str(out)] + extra)
        assert code == cli.EXIT_CONFIG
        assert (f"--tol: expected a number > 0, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[means]\nlambda = 1,nan\n")
        code = run(["means", "--out", str(tmp_path), "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG
        assert "--lambda: expected a finite number" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = run(["traces", "--out", str(tmp_path),
                    "--config", str(tmp_path / "nope.cfg")])
        assert code == cli.EXIT_CONFIG

    def test_budget_exit_code(self, tmp_path, monkeypatch):
        from gfsl.errors import BudgetError

        def exhausted(*args, **kwargs):
            raise BudgetError("enumeration exceeded budget", partial=[])

        monkeypatch.setattr(cli.selberg, "length_spectrum", exhausted)
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

    def test_module_entry_point_warns_nothing(self, tmp_path):
        proc = _python(["-W", "error::RuntimeWarning", "-m", "gfsl.cli",
                        "traces", "--t", "1", "--out", str(tmp_path)],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "traces.json").exists()
