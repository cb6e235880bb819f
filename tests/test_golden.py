"""Golden reports: each argv, run through `cli.main`, writes exactly the
committed bytes under tests/golden/<name>/.

The two cases that call BLAS or LAPACK, selberg_seed1 (exact float64
products of integer coefficients) and means_seed1 (polyfit), and
ladder_seed1, the largest run of the coefficient-table recurrence and
audit, also run as `python -m gfsl.cli` in a fresh interpreter, where
numpy loads after the CLI's BLAS thread default.

The bytes depend on numpy's and libm's float results; VERSIONS names the
Python and numpy the goldens were made with.  A change that moves report
values on purpose regenerates the goldens it moves, so the diff of
tests/golden/ shows which fields moved.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gfsl import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).parent / "golden"
# A seeded 2000-row genus-2 Weyl-law spectrum, from the benchmark's
# generator: bench/workloads.laplace_csv(random.Random("golden:traces"),
# 2000, 2).  It sits outside golden/, whose case directories hold only
# reports.
LAPLACE_FILE = Path(__file__).parent / "data" / "laplace_g2.csv"

CASES = {
    "means_default": (["means"], cli.EXIT_OK),
    # the means bench workload at seed 1
    "means_seed1": (["means", "--lambda",
                     "0.590771,1.484606,4.174113,8.91222,9.99661,11.150339"],
                    cli.EXIT_OK),
    "selberg_default": (["selberg"], cli.EXIT_OK),
    # the selberg bench workload at seed 1
    "selberg_seed1": (["selberg", "--lmax", "8", "--center", "5.328746",
                       "--sigma", "0.531748"], cli.EXIT_OK),
    # the first cutoff past twice the systole, where the squared side-line
    # classes and the first proper powers enter
    "selberg_lmax6_2": (["selberg", "--lmax", "6.2"], cli.EXIT_OK),
    "spherical_default": (["spherical-check"], cli.EXIT_OK),
    # the ladder bench workload at seed 1
    "ladder_seed1": (["spherical-check",
                      "--lambda", "2.170264,9.488379,15.240263,17.491455",
                      "--nu", "0.46054,0.479578", "--n", "1000", "--k", "100"],
                     cli.EXIT_OK),
    "traces_default": (["traces"], cli.EXIT_OK),
    "traces_file": (["traces", "--laplace-file", str(LAPLACE_FILE),
                     "--genus", "2"], cli.EXIT_OK),
    # small t, where each series needs hundreds of terms to reach tol/2
    "traces_small_t": (["traces", "--t", "0.1,0.15,0.2"], cli.EXIT_OK),
}


def _first_difference(want, got):
    """(line number, wanted line, got line) of the first differing line."""
    want_lines = want.decode().splitlines(keepends=True)
    got_lines = got.decode().splitlines(keepends=True)
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return i, w, g
    i = min(len(want_lines), len(got_lines)) + 1
    return (i, "".join(want_lines[i - 1:i]) or "<end of file>",
            "".join(got_lines[i - 1:i]) or "<end of file>")


def _assert_matches_golden(name, out):
    want_dir = GOLDEN / name
    made = (GOLDEN / "VERSIONS").read_text().strip().replace("\n", ", ")
    here = f"python {platform.python_version()}, numpy {np.__version__}"
    assert (sorted(p.name for p in out.iterdir())
            == sorted(p.name for p in want_dir.iterdir()))
    for want_path in sorted(want_dir.iterdir()):
        want = want_path.read_bytes()
        got = (out / want_path.name).read_bytes()
        if got != want:
            line, w, g = _first_difference(want, got)
            pytest.fail(f"{name}/{want_path.name} differs from the golden "
                        f"at line {line}:\n  golden: {w!r}\n  got:    {g!r}\n"
                        f"goldens made with {made}; this run has {here}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(tmp_path, capsys, name):
    argv, code = CASES[name]
    assert cli.main(argv + ["--out", str(tmp_path)]) == code
    capsys.readouterr()
    _assert_matches_golden(name, tmp_path)


@pytest.mark.parametrize("name", ["ladder_seed1", "means_seed1",
                                  "selberg_seed1"])
def test_cold_process_reports_match_golden(tmp_path, name):
    argv, code = CASES[name]
    env = dict(os.environ)
    # the CLI's own default, not whatever this process was started with
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "gfsl.cli", *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    _assert_matches_golden(name, tmp_path)
