"""Golden reports: each argv, run through `cli.main`, writes exactly the
committed bytes under tests/golden/<name>/.

The bytes depend on numpy's and libm's float results; VERSIONS names the
Python and numpy the goldens were made with.  A change that moves report
values on purpose regenerates the goldens it moves, so the diff of
tests/golden/ shows which fields moved.
"""

import platform
from pathlib import Path

import numpy as np
import pytest

from gfsl import cli

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
    "spherical_default": (["spherical-check"], cli.EXIT_OK),
    # the ladder bench workload at seed 1
    "ladder_seed1": (["spherical-check",
                      "--lambda", "2.170264,9.488379,15.240263,17.491455",
                      "--nu", "0.46054,0.479578", "--n", "1000", "--k", "100"],
                     cli.EXIT_OK),
    "traces_default": (["traces"], cli.EXIT_OK),
    "traces_file": (["traces", "--laplace-file", str(LAPLACE_FILE),
                     "--genus", "2"], cli.EXIT_OK),
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(tmp_path, capsys, name):
    argv, code = CASES[name]
    assert cli.main(argv + ["--out", str(tmp_path)]) == code
    capsys.readouterr()
    want_dir = GOLDEN / name
    made = (GOLDEN / "VERSIONS").read_text().strip().replace("\n", ", ")
    here = f"python {platform.python_version()}, numpy {np.__version__}"
    assert (sorted(p.name for p in tmp_path.iterdir())
            == sorted(p.name for p in want_dir.iterdir()))
    for want_path in sorted(want_dir.iterdir()):
        want = want_path.read_bytes()
        got = (tmp_path / want_path.name).read_bytes()
        if got != want:
            line, w, g = _first_difference(want, got)
            pytest.fail(f"{name}/{want_path.name} differs from the golden "
                        f"at line {line}:\n  golden: {w!r}\n  got:    {g!r}\n"
                        f"goldens made with {made}; this run has {here}")
