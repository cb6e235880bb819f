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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_error_fails(self, tmp_path):
        code = run(["traces", "--out", str(tmp_path), "--t", "nan"])
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


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    @pytest.mark.parametrize("argv", [["traces", "--format", "json"],
                                      ["means", "--tau", "2"]])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            run(argv)

    @pytest.mark.parametrize("command,field", [("traces", "format"),
                                               ("means", "tau")])
    def test_removed_config_fields_rejected(self, tmp_path, capsys,
                                            command, field):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\n{field} = 1\n")
        code = run([command, "--out", str(tmp_path), "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"unknown field '{field}'" in capsys.readouterr().err

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


class TestImport:
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
