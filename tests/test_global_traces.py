import math
import os
import subprocess
import sys
import urllib.request
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import global_traces as gt, spherical
from gfsl.errors import ConsistencyError, DomainError
from oracles import global_trace_loop, laplace_csv_rows


P1 = spherical.principal(1.0)
PC = spherical.complementary(0.3)
# complementary entries, mu = 1/4 exactly, principal entries and
# multiplicities above 1
MIXED = ([(0.25 * (j + 0.5) / 40, 1 + j % 3) for j in range(40)] + [(0.25, 2)]
         + [(0.35 + 0.37 * j ** 1.3, 1 + j % 4) for j in range(300)])
TRACE_TIMES = (0.1, 0.5, math.log(2.0), 1.0, 3.0, 7.0, 40.0)


SRC = str(Path(__file__).resolve().parents[1] / "src")
LAPLACE_FILE = Path(__file__).parent / "data" / "laplace_g2.csv"

# a multiplicity d with d cosh(1800 sqrt(1/4 - 0.1)) just below 1e308
TERM_1E308 = int(1e308 / math.cosh(1800.0 * math.sqrt(0.15)))


def toy_spectrum(entries=((2.0, 1),), genus=2):
    return gt.LaplaceSpectrum([m for m, _ in entries],
                              [d for _, d in entries], genus)


BULK_TEXTS = pytest.mark.parametrize("text", [
    "mu,multiplicity\r\n0.9,2\r\n\r\n2.0,1\r\n",
    "mu,multiplicity\n\n0.9,2\n\n\n2.0,1\n\n\n",
    " mu , multiplicity \n 0.9 , 2 \n\t2.0,\t1\t\n",
    "mu,multiplicity\n9e-1,+2\n+2.0E0,1\n",
    "mu,multiplicity\n2.0,1\n",
    "mu,multiplicity\n",
    "mu,multiplicity",
    "mu,multiplicity\n\n\n",
    "mu,multiplicity\n0.9,2\n2.0,1",
], ids=["crlf", "blank_lines", "whitespace", "exponent_plus", "single_row",
        "header_only", "header_no_newline", "header_blank_lines",
        "no_final_newline"])


def _no_network(url, *args, **kwargs):
    raise AssertionError(f"tried to fetch {url!r}")


class TestLaplaceSpectrum:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            gt.LaplaceSpectrum([2.0, 1.0], [1, 1], 2)

    def test_csv_roundtrip(self, tmp_path):
        # shortest round-trip reprs are read back to the same floats
        entries = [(0.1 + 0.2, 2), (2.0, 1), (3.5, 3)]
        path = tmp_path / "laplace.csv"
        path.write_text("mu,multiplicity\n"
                        + "".join(f"{mu!r},{d}\n" for mu, d in entries))
        back = gt.LaplaceSpectrum.from_csv(path, 2)
        assert back.entries == entries

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, mu):
        with pytest.raises(DomainError, match="finite"):
            gt.LaplaceSpectrum([0.5, mu], [1, 1], 2)

    def test_arrays_follow_entries(self):
        mu, mult = [0.16, 2.0], np.array([1, 3])
        spec = gt.LaplaceSpectrum(mu, mult, 2)
        assert spec.mu.dtype == float and spec.mult.dtype == np.int64
        assert spec.entries == [(0.16, 1), (2.0, 3)]
        # copied and read-only, so the validation made at construction holds
        mult[0] = 0
        assert spec.mult.tolist() == [1, 3]
        with pytest.raises(ValueError):
            spec.mu[0] = -1.0
        spec.entries.append((3.0, 1))
        assert len(spec.entries) == 2

    @pytest.mark.parametrize("row,line,match", [
        ("nan,1", 3, "eigenvalues must be finite"),
        ("1.5", 4, "line 4: expected 2 fields, got 1"),
        ("0.5,1,7", 2, "line 2: expected 2 fields, got 3"),
        ("2.0,x", 3, "line 3: invalid literal"),
    ])
    def test_bad_row_rejected(self, tmp_path, row, line, match):
        path = tmp_path / "laplace.csv"
        rows = ["mu,multiplicity", "0.3,1", "", "5.0,1"]
        rows.insert(line - 1, row)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DomainError) as err:
            gt.LaplaceSpectrum.from_csv(path, 2)
        assert match in str(err.value)

    @pytest.mark.parametrize("body,line,column", [
        (b"0.3,1\n0.5\xff,1\n", 3, 4),      # in the body
        (b"0.3,1\n" * 5000 + b"7.0,\xff\n", 5002, 5),  # past the first read
        (b"", 1, 14),                          # in the header
    ])
    def test_non_utf8_names_file_and_line(self, tmp_path, body, line, column):
        path = tmp_path / "laplace.csv"
        head = b"mu,multiplicity\n" if line > 1 else b"mu,multiplici\xffy\n"
        path.write_bytes(head + body)
        with pytest.raises(DomainError) as err:
            gt.LaplaceSpectrum.from_csv(path, 2)
        assert str(err.value) == (
            f"laplace file {path}, line {line}: not UTF-8 text, byte 0xff at "
            f"column {column} (invalid start byte)")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "laplace.csv"
        path.write_text("mu,multiplicity\n\n0.9,2\n\n2.0,1\n\n")
        spec = gt.LaplaceSpectrum.from_csv(path, 2)
        assert spec.entries == [(0.9, 2), (2.0, 1)]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("eig,count\n1.0,1\n")
        with pytest.raises(DomainError):
            gt.LaplaceSpectrum.from_csv(path, 2)

    @BULK_TEXTS
    def test_bulk_parse_matches_csv_rows(self, tmp_path, text):
        path = tmp_path / "laplace.csv"
        path.write_bytes(text.encode())
        _assert_same_parse(path)

    @BULK_TEXTS
    def test_bulk_parse_under_special_names(self, tmp_path, monkeypatch, text):
        # np.loadtxt decompresses a path with these suffixes and fetches a
        # URL-shaped one; here each is a local plain-text file
        monkeypatch.setattr(urllib.request, "urlopen", _no_network)
        for name in ("laplace.csv.gz", "laplace.csv.bz2", "laplace.csv.xz",
                     "laplace.csv.lzma"):
            path = tmp_path / name
            path.write_bytes(text.encode())
            _assert_same_parse(path)
        (tmp_path / "http:" / "example.invalid").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        path = "http://example.invalid/s.csv"
        Path(path).write_bytes(text.encode())
        _assert_same_parse(path)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(0.05, 0.95), st.integers(1, 3)),
                         min_size=1, max_size=40),
           genus=st.integers(2, 9))
    def test_bulk_parse_matches_csv_rows_on_reprs(self, tmp_path_factory,
                                                  rows, genus):
        # Weyl-law spectra as in the traces workload, written with repr;
        # the last entry has multiplicity 1 and u >= 0.5 so the Weyl ratio
        # stays in [1, 2]
        lines, count = ["mu,multiplicity"], 0
        rows[-1] = (max(rows[-1][0], 0.5), 1)
        for u, mult in rows:
            lines.append(f"{0.25 + (count + u) / (genus - 1)!r},{mult}")
            count += mult
        path = tmp_path_factory.mktemp("repr") / "laplace.csv"
        path.write_text("\n".join(lines) + "\n")
        _assert_same_parse(path, genus)

    @pytest.mark.parametrize("text,match", [
        ('mu,multiplicity\n"0.9","2"\n', "line 2: invalid literal"),
        ('"mu","multiplicity"\n0.9,2\n', "header must be"),
        ("mu,multiplicity\n0.9,2\n1_0,1\n", "line 3: invalid literal"),
        ("mu,multiplicity\n0.9,\u0662\n", "line 2: invalid literal"),
        ("mu,multiplicity\n0.9,9223372036854775808\n",
         "line 2: invalid literal"),
    ], ids=["quoted_fields", "quoted_header", "underscore", "unicode_digit",
            "above_int64"])
    def test_rows_only_the_bulk_parse_rejects(self, tmp_path, text, match):
        # the csv-module loader accepted these (README, External file
        # formats)
        path = tmp_path / "laplace.csv"
        path.write_text(text, encoding="utf-8")
        laplace_csv_rows(path)
        with pytest.raises(DomainError, match=match):
            gt.LaplaceSpectrum.from_csv(path, 2)

    def test_first_bad_row_named_by_numpy_verdict(self, tmp_path):
        # `float` rejects line 4 and accepts line 3, which numpy rejects
        path = tmp_path / "laplace.csv"
        path.write_text("mu,multiplicity\n0.9,2\n1_0,1\nx,1\n")
        with pytest.raises(DomainError, match="line 3: "):
            gt.LaplaceSpectrum.from_csv(path, 2)

    def test_absolute_path_read_from_removed_cwd(self, tmp_path):
        # os.getcwd() raises in a process whose working directory was
        # removed; numpy's path reader resolves it, the handle does not
        path = tmp_path / "laplace.csv"
        path.write_bytes(LAPLACE_FILE.read_bytes())
        child = ("import os, sys\n"
                 "os.mkdir('gone'); os.chdir('gone'); os.rmdir('../gone')\n"
                 "from gfsl.global_traces import LaplaceSpectrum\n"
                 "spec = LaplaceSpectrum.from_csv(sys.argv[1], 2)\n"
                 "print(repr(spec.mu.tolist()), repr(spec.mult.tolist()))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", child, str(path)],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        spec = gt.LaplaceSpectrum.from_csv(path, 2)
        assert proc.stdout == (f"{spec.mu.tolist()!r} "
                               f"{spec.mult.tolist()!r}\n")

    def test_weyl_ingestion_check(self, tmp_path):
        path = tmp_path / "weyl.csv"
        rows = ["mu,multiplicity"] + [f"{mu}.0,50" for mu in range(1, 8)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConsistencyError):
            gt.LaplaceSpectrum.from_csv(path, 2)


def _assert_same_parse(path, genus=2):
    mu, mult = laplace_csv_rows(path)
    spec = gt.LaplaceSpectrum.from_csv(path, genus)
    assert spec.mu.dtype == mu.dtype and spec.mult.dtype == mult.dtype
    assert np.array_equal(spec.mu, mu) and np.array_equal(spec.mult, mult)


class TestGlobalTrace:
    def test_worked_value(self):
        # t = ln 2, g = 2, no spherical entries: 1 + 2 + 12 = 15
        spec = toy_spectrum([], genus=2)
        assert abs(gt.global_trace(spec, math.log(2.0), 1e-9)[1] - 15.0) < 1e-12

    @pytest.mark.parametrize("genus", [2, 3])
    def test_pre_equals_post(self, genus):
        spec = toy_spectrum([(0.16, 1), (2.0, 2), (5.5, 1)], genus)
        for t in (0.5, 1.0, 2.0):
            pre, post, _ = gt.global_trace(spec, t, 1e-11)
            assert abs(pre - post) < 1e-10

    def test_tail_tracks_tol(self):
        # the pre/post gap is the tail of the least order whose tail is at
        # most tol/2: the order before had a tail above tol/2, and each
        # order shrinks the tail by at most e^{-t}
        spec = toy_spectrum([], genus=2)
        t = 1.0
        for tol in (1e-4, 1e-6, 1e-8):
            pre, post, tail = gt.global_trace(spec, t, tol)
            assert math.exp(-t) * tol / 2.0 < tail <= tol / 2.0
            assert abs(abs(pre - post) - tail) < 1e-14

    @settings(max_examples=40)
    @given(st.floats(0.02, 30.0), st.integers(2, 10 ** 7), st.booleans())
    def test_rounding_scale_bounds_error(self, t, genus, spectral):
        # at tol = 4 scales, pre (truncated where its tail falls to tol/2)
        # and post are together within one rounding scale of their
        # 40-digit values; at tol = 1 scale the call is refused
        entries = [(0.16, 1), (2.0, 2), (5.5, 1)] if spectral else []
        spec = toy_spectrum(entries, genus)
        with mpmath.workdps(40):
            mt = mpmath.mpf(t)
            x = mpmath.exp(-mt)
            gap = 1 - x
            sph = sum(d * mpmath.re(mpmath.cos(
                mt * mpmath.sqrt(mpmath.mpf(mu) - 0.25))) for mu, d in entries)
            base = 1 + 2 * mpmath.exp(-mt / 2) / gap * sph
            head = 2 * x / gap
            closed = (2 * genus - 2) * x * (1 + x) / gap ** 3
            scale = gt._ROUNDING * float(abs(base) + head + closed)
            # the pre-RR series: 2 m_l e^{-t l/2} / (1 - e^-t), l = 2q >= 4
            p0, p1 = 6 * (genus - 1) / gap, 4 * (genus - 1) / gap

            def rest(n):
                return x ** (n + 2) * ((p0 + p1 * n) / gap
                                       + p1 * x / gap ** 2)

            pre, post, tail = gt.global_trace(spec, t, 4.0 * scale)
            n = 0
            while rest(n) > 2.0 * scale:
                n += 1
            post_want = base + head + closed
            pre_want = post_want - rest(n)
            err = abs(pre - pre_want) + abs(post - post_want)
        assert tail <= 2.0 * scale
        assert err <= scale
        with pytest.raises(DomainError, match="rounding scale"):
            gt.global_trace(spec, t, scale)

    @pytest.mark.parametrize("entries", [[], MIXED], ids=["empty", "mixed"])
    def test_matches_scalar_loop_exactly(self, entries):
        # the vectorized sum must not move a bit
        spec = toy_spectrum(entries, genus=3)
        for t in TRACE_TIMES:
            assert (gt.global_trace(spec, t, 1e-9)
                    == global_trace_loop(spec, t, 1e-9))

    def test_each_term_matches_scalar_loop_exactly(self):
        # one entry at a time, so a last-bit change in a single term is not
        # rounded away by the running sum
        for entry in MIXED:
            spec = toy_spectrum([entry])
            for t in TRACE_TIMES:
                assert (gt.global_trace(spec, t, 1e-9)
                    == global_trace_loop(spec, t, 1e-9))

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_time_rejected(self, t):
        with pytest.raises(DomainError, match="t must be > 0"):
            gt.global_trace(toy_spectrum(), t, 1e-9)

    @pytest.mark.parametrize("entries,t,match", [
        ([(0.1, 1), (1.5, 1)], 1e5,
         r"cosh\(t sqrt\(1/4 - mu\)\) overflows at t=100000\.0, mu=0\.1"),
        ([(0.1, 1)], math.inf, r"cosh.* overflows at t=inf, mu=0\.1"),
        ([(1.5, 1)], 1.7e308,
         r"t sqrt\(mu - 1/4\) overflows at t=1\.7e\+308, mu=1\.5"),
        ([(0.1, 1), (1.5, 1)], math.inf, "overflows at t=inf"),
        ([(1.5, 1)], 1e-20, r"rounding scale .* of the pre/post-RR "
                            r"traces at t=1e-20, genus 2 is above tol/2"),
    ], ids=["cosh", "cosh_inf", "phase", "phase_inf", "tiny"])
    def test_overflowing_time_rejected(self, entries, t, match):
        # a DomainError naming t before any term is summed, in place of a
        # bare OverflowError from math.cosh, numpy overflow warnings or a
        # ZeroDivisionError; t = 1400 still sums
        spec = toy_spectrum(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match) as exc_info:
                gt.global_trace(spec, t, 1e-9)
        assert exc_info.value.value == t
        assert all(map(math.isfinite, gt.global_trace(spec, 1400.0, 1e-9)))

    @pytest.mark.parametrize("mults", [[10 ** 18], [TERM_1E308] * 2],
                             ids=["product", "sum"])
    def test_overflowing_cosh_terms_rejected(self, mults):
        # at t = 1800 no cosh(t sqrt(1/4 - mu)) overflows, but one term d
        # cosh(...) does, or the sum of two finite terms near 1e308; both
        # returned (nan, nan)
        mus = [0.1, math.nextafter(0.1, 1.0)][:len(mults)]
        spec = toy_spectrum(list(zip(mus, mults)) + [(1.5, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=(
                    r"d cosh\(t sqrt\(1/4 - mu\)\), summed over mu < 1/4, "
                    r"overflows at t=1800\.0")) as exc_info:
                gt.global_trace(spec, 1800.0, 1e-9)
        assert exc_info.value.value == 1800.0
        assert all(map(math.isfinite, gt.global_trace(spec, 1000.0, 1e-9)))

    def test_large_time_limit(self):
        spec = toy_spectrum([], genus=2)
        assert abs(gt.global_trace(spec, 40.0, 1e-9)[1] - 1.0) < 1e-12

    def test_cross_module_sum(self):
        # sum of per-irrep flat traces with multiplicities equals the global
        # closed form; includes a threshold eigenvalue, whose Jordan
        # nilpotent contributes nothing to either side
        entries = [(0.16, 1), (0.25, 1), (2.0, 2), (7.0, 1)]
        genus = 2
        spec = toy_spectrum(entries, genus)
        q_max = 300
        for t in (0.5, 1.0):
            total = 1.0
            for mu, d in entries:
                if mu > 0.25:
                    lam = spherical.principal(math.sqrt(mu - 0.25))
                elif mu < 0.25:
                    lam = spherical.complementary(math.sqrt(0.25 - mu))
                else:
                    lam = 0j
                total += d * gt.trace_spherical(lam, t, 1e-9)["flat"]
            for q in range(1, q_max + 1):
                ml = gt.rr_multiplicity(genus, 2 * q)
                total += 2 * ml * gt.trace_ds(2 * q, t, 1e-9)["flat"]
            pre, post, _ = gt.global_trace(spec, t, 1e-12)
            assert abs(total - pre) < 1e-10
            assert abs(total - post) < 1e-9


class TestTraceSpherical:
    def test_threshold_worked_value(self):
        tr = gt.trace_spherical(0j, math.log(2.0), 1e-9)
        assert abs(tr["flat"] - 2.8284271247461903) < 1e-14

    def test_flat_equals_partial_plus_tail(self):
        for lam in (P1, PC, 0j):
            for t in (0.5, 1.0, 2.0):
                tr = gt.trace_spherical(lam, t, 1e-12)
                assert abs(tr["spectral"] - tr["flat"]) < 1e-12

    def test_geometric_tail_bound(self):
        for tol in (1e-3, 1e-6, 1e-9, 1e-12):
            tr = gt.trace_spherical(P1, 1.0, tol)
            gap = abs(tr["flat"] - tr["spectral"])
            assert gap <= tr["tail_bound"] + 1e-15
            assert tr["tail_bound"] <= tol / 2.0

    def test_large_time_limit(self):
        tr = gt.trace_spherical(P1, 50.0, 1e-9)
        assert abs(tr["flat"]) < 1e-10

    def test_threshold_lam_is_zero(self):
        # the CLI passes 0j for the threshold irreducible: the bits of
        # principal(0.0), and the same traces
        lam = spherical.principal(0.0)
        assert repr(lam) == repr(0j)
        for t in (0.5, math.log(2.0), 3.0):
            assert gt.trace_spherical(0j, t, 1e-12) == \
                gt.trace_spherical(lam, t, 1e-12)

    def test_complementary_flat_is_cosh(self):
        # lam = i nu: 2 cos(t lam) = 2 cosh(t nu)
        for t in (0.5, 1.0, 2.0):
            want = (2.0 * math.cosh(t * 0.3) * math.exp(-t / 2.0)
                    / -math.expm1(-t))
            tr = gt.trace_spherical(PC, t, 1e-12)
            assert abs(tr["flat"] - want) <= 4e-16 * want

    def test_cosh_overflow_names_t(self):
        with pytest.raises(DomainError, match=r"cos\(t lam\) overflows at "
                           r"t=10000.0, lam=0.3j") as exc_info:
            gt.trace_spherical(PC, 1e4, 1e-9)
        assert exc_info.value.value == 1e4


class TestTraceDS:
    def test_worked_value(self):
        tr = gt.trace_ds(2, math.log(2.0), 1e-9)
        assert abs(tr["flat"] - 1.0) < 1e-15

    def test_flat_equals_partial_plus_tail(self):
        for l in (2, 4):
            for t in (0.5, 1.0, 2.0):
                tr = gt.trace_ds(l, t, 1e-13)
                assert abs(tr["spectral"] - tr["flat"]) < 1e-13

    def test_large_weight_vanishes(self):
        assert gt.trace_ds(40, 1.0, 1e-9)["flat"] < 1e-8

    @pytest.mark.parametrize("l", [-2, 0, 1, 3])
    def test_weight_checked_by_every_caller(self, l):
        # trace_ds, rr_multiplicity and the disk model's two tables reject
        # l through the one check_weight, with its one text
        from gfsl import discrete
        for call in (lambda: gt.trace_ds(l, 1.0, 1e-9),
                     lambda: gt.rr_multiplicity(2, l),
                     lambda: discrete.build_disk_matrices(l, 4),
                     lambda: discrete.cayley_coeffs(l, 4, 4)):
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == (
                f"discrete series: l = {l} must be even and >= 2")


class TestRiemannRoch:
    @pytest.mark.parametrize("l,want", [(2, 2), (4, 3), (6, 5)])
    def test_genus_two(self, l, want):
        assert gt.rr_multiplicity(2, l) == want

    def test_general(self):
        assert gt.rr_multiplicity(3, 2) == 3
        assert gt.rr_multiplicity(3, 10) == 18

    def test_domain(self):
        with pytest.raises(DomainError):
            gt.rr_multiplicity(1, 2)
        with pytest.raises(DomainError):
            gt.rr_multiplicity(2, 3)


class TestTanhIdentity:
    def test_worked_example(self):
        th = gt.tanh_transform(2.0, 1e-10)
        assert abs(th["pole_sum"] - th["closed_form"]) < 1e-10

    def test_pointwise_with_converged_sum(self):
        for t in np.linspace(0.5, 5.0, 10):
            th = gt.tanh_transform(float(t), 1e-12)
            assert abs(th["pole_sum"] - th["closed_form"]) < 1e-10

    def test_truncation_majorized_and_monotone(self):
        t = 0.8
        gaps = []
        for tol in (1e-2, 1e-4, 1e-6, 1e-8):
            th = gt.tanh_transform(t, tol)
            gap = abs(th["pole_sum"] - th["closed_form"])
            # the tail is the exact rest of the series: equal to the gap
            # up to rounding
            assert gap <= th["tail_bound"] + 1e-14
            assert th["tail_bound"] <= tol / 2.0
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_large_time_limit(self):
        th = gt.tanh_transform(40.0, 1e-9)
        assert abs(th["closed_form"]) < 1e-8
