import json
import math

import pytest

from gfsl import cli


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
