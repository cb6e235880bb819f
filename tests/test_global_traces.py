import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import discrete, global_traces as gt, spherical
from gfsl.errors import ConsistencyError, DomainError
from oracles import global_trace_loop, laplace_csv_rows


# complementary entries, mu = 1/4 exactly, principal entries and
# multiplicities above 1
MIXED = ([(0.25 * (j + 0.5) / 40, 1 + j % 3) for j in range(40)] + [(0.25, 2)]
         + [(0.35 + 0.37 * j ** 1.3, 1 + j % 4) for j in range(300)])
TRACE_TIMES = (0.1, 0.5, math.log(2.0), 1.0, 3.0, 7.0, 40.0)


def toy_spectrum(entries=((2.0, 1),), genus=2):
    return gt.LaplaceSpectrum([m for m, _ in entries],
                              [d for _, d in entries], genus)


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

    @pytest.mark.parametrize("text", [
        "mu,multiplicity\r\n0.9,2\r\n\r\n2.0,1\r\n",
        "mu,multiplicity\n\n0.9,2\n\n\n2.0,1\n\n\n",
        " mu , multiplicity \n 0.9 , 2 \n\t2.0,\t1\t\n",
        "mu,multiplicity\n9e-1,+2\n+2.0E0,1\n",
        "mu,multiplicity\n2.0,1\n",
        "mu,multiplicity\n",
        "mu,multiplicity",
        "mu,multiplicity\n\n\n",
        "mu,multiplicity\n0.9,2\n2.0,1",
    ], ids=["crlf", "blank_lines", "whitespace", "exponent_plus",
            "single_row", "header_only", "header_no_newline",
            "header_blank_lines", "no_final_newline"])
    def test_bulk_parse_matches_csv_rows(self, tmp_path, text):
        path = tmp_path / "laplace.csv"
        path.write_bytes(text.encode())
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


class TestEnumerate:
    def test_principal_pair(self):
        rs = gt.enumerate_resonances(toy_spectrum(), 2, 2)
        vals = {complex(z) for z, _, _ in rs.entries}
        want = complex(-0.5, math.sqrt(7.0) / 2.0)
        assert any(abs(z - want) < 1e-12 for z in vals)
        assert any(abs(z - want.conjugate()) < 1e-12 for z in vals)

    def test_trivial_zero(self):
        rs = gt.enumerate_resonances(toy_spectrum(), 1, 1)
        zero = [e for e in rs.entries if e[0] == 0]
        assert len(zero) == 1 and zero[0][1] == 1

    def test_discrete_multiplicity(self):
        # genus 2, value -1: only (q=1, n=0) contributes, 2 m_2 = 4
        rs = gt.enumerate_resonances(toy_spectrum(genus=2), 4, 4)
        at1 = [e for e in rs.entries if abs(e[0] + 1.0) < 1e-12]
        assert len(at1) == 1 and at1[0][1] == 4
        # value -2: (q=1,n=1) and (q=2,n=0): 2 m_2 + 2 m_4 = 4 + 6
        at2 = [e for e in rs.entries if abs(e[0] + 2.0) < 1e-12]
        assert at2[0][1] == 10

    def test_threshold_jordan(self):
        rs = gt.enumerate_resonances(toy_spectrum([(0.25, 2)]), 2, 1)
        jv = rs.jordan_values()
        assert len(jv) == 3
        assert all(abs(z - (-n - 0.5)) < 1e-12 for n, z in enumerate(sorted(
            jv.real, reverse=True)))

    def test_matches_per_irrep_models(self):
        # one spherical mu against the spherical module ladder
        mu = 2.0
        rs = gt.enumerate_resonances(toy_spectrum([(mu, 1)]), 3, 1)
        p = spherical.SpectralParam.principal(math.sqrt(mu - 0.25))
        model = set()
        for n in range(4):
            zp, zm = -n - 0.5 + 1j * p.lam, -n - 0.5 - 1j * p.lam
            model.add((round(zp.real, 12), round(zp.imag, 12)))
            model.add((round(zm.real, 12), round(zm.imag, 12)))
        got = {(round(z.real, 12), round(z.imag, 12))
               for z, _, _ in rs.entries if z.real != 0 and z.imag != 0}
        assert model == got


class TestGlobalTrace:
    def test_worked_value(self):
        # t = ln 2, g = 2, no spherical entries: 1 + 2 + 12 = 15
        spec = toy_spectrum([], genus=2)
        assert abs(gt.global_trace(spec, math.log(2.0))[1] - 15.0) < 1e-12

    @pytest.mark.parametrize("genus", [2, 3])
    def test_pre_equals_post(self, genus):
        spec = toy_spectrum([(0.16, 1), (2.0, 2), (5.5, 1)], genus)
        for t in (0.5, 1.0, 2.0):
            pre, post = gt.global_trace(spec, t, q_max=200)
            assert abs(pre - post) < 1e-10

    def test_qmax_convergence_rate(self):
        spec = toy_spectrum([], genus=2)
        t = 1.0
        gaps = []
        for q_max in (10, 15, 20):
            pre, post = gt.global_trace(spec, t, q_max=q_max)
            gaps.append(abs(pre - post))
        # geometric decay at rate e^{-t}
        assert gaps[1] / gaps[0] < 1.5 * math.exp(-5 * t)
        assert gaps[2] / gaps[1] < 1.5 * math.exp(-5 * t)

    @pytest.mark.parametrize("entries", [[], MIXED], ids=["empty", "mixed"])
    def test_matches_scalar_loop_exactly(self, entries):
        # the vectorized sum must not move a bit
        spec = toy_spectrum(entries, genus=3)
        for t in TRACE_TIMES:
            assert gt.global_trace(spec, t) == global_trace_loop(spec, t)

    def test_each_term_matches_scalar_loop_exactly(self):
        # one entry at a time, so a last-bit change in a single term is not
        # rounded away by the running sum
        for entry in MIXED:
            spec = toy_spectrum([entry])
            for t in TRACE_TIMES:
                assert gt.global_trace(spec, t) == global_trace_loop(spec, t)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_time_rejected(self, t):
        with pytest.raises(DomainError, match="t must be > 0"):
            gt.global_trace(toy_spectrum(), t)

    def test_large_time_limit(self):
        spec = toy_spectrum([], genus=2)
        assert abs(gt.global_trace(spec, 40.0)[1] - 1.0) < 1e-12

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
                    p = spherical.SpectralParam.principal(math.sqrt(mu - 0.25))
                elif mu < 0.25:
                    p = spherical.SpectralParam.complementary(
                        math.sqrt(0.25 - mu))
                else:
                    p = spherical.SpectralParam.threshold()
                total += d * spherical.trace_spherical(p, t)["flat"]
            for q in range(1, q_max + 1):
                ml = discrete.rr_multiplicity(genus, 2 * q)
                total += 2 * ml * discrete.trace_ds(2 * q, t)["flat"]
            pre, post = gt.global_trace(spec, t, q_max)
            assert abs(total - pre) < 1e-10
            assert abs(total - post) < 1e-9


class TestBlockSemigroup:
    def test_identity_at_zero(self):
        spec = toy_spectrum([(0.16, 1), (2.0, 1)])
        blocks = gt.block_semigroup(spec, 0.0, 3)
        for key, blk in blocks.items():
            if blk.ndim == 3:
                assert np.allclose(blk, np.eye(2))
            else:
                assert np.allclose(blk, 1.0)

    def test_complementary_real_branches(self):
        spec = toy_spectrum([(0.16, 1)])
        t = 0.7
        blk = gt.block_semigroup(spec, t, 0)[("sph", 0.16)]
        n_factor = math.exp(-t * 0.5)
        assert abs(blk[0, 0, 0] - n_factor * math.exp(-0.3 * t)) < 1e-14
        assert abs(blk[0, 1, 1] - n_factor * math.exp(0.3 * t)) < 1e-14
        assert abs(blk[0, 0, 0].imag) == 0

    def test_semigroup_law(self):
        spec = toy_spectrum([(0.16, 1), (0.25, 1), (3.0, 1)])
        s, t = 0.4, 1.1
        bs = gt.block_semigroup(spec, s, 4)
        bt = gt.block_semigroup(spec, t, 4)
        bst = gt.block_semigroup(spec, s + t, 4)
        for key in bst:
            a, b, c = bs[key], bt[key], bst[key]
            if a.ndim == 3:
                prod = np.einsum("nij,njk->nik", a, b)
            else:
                prod = a * b
            assert np.max(np.abs(prod - c)) < 1e-13

    def test_jordan_nilpotent_traceless(self):
        # the threshold block contributes the same trace as a diagonal pair
        spec = toy_spectrum([(0.25, 1)])
        t = 0.9
        blk = gt.block_semigroup(spec, t, 6)[("thr",)]
        tr = np.einsum("nii->n", blk).real
        diag = 2.0 * np.exp(-t * (np.arange(7) + 0.5))
        assert np.max(np.abs(tr - diag)) < 1e-14


class TestResolventBound:
    def test_no_threshold_single_term(self):
        rs = gt.enumerate_resonances(toy_spectrum([(2.0, 1)]), 3, 2)
        d = float(np.min(np.abs(rs.values() - 1.0)))
        assert abs(gt.resolvent_bound(1.0, rs) - 1.0 / d) < 1e-14

    def test_threshold_double_pole(self):
        rs = gt.enumerate_resonances(toy_spectrum([(0.25, 1)]), 3, 2)
        eps = 1e-3
        got = gt.resolvent_bound(-0.5 + eps, rs)
        assert abs(got - (1.0 / eps + 1.0 / eps ** 2)) < 1e-6 / eps

    def test_monotone_away_from_spectrum(self):
        rs = gt.enumerate_resonances(toy_spectrum([(2.0, 1), (5.0, 2)]), 5, 3)
        xs = np.linspace(0.5, 20.0, 40)
        vals = [gt.resolvent_bound(x, rs) for x in xs]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_in_spectrum_rejected(self):
        rs = gt.enumerate_resonances(toy_spectrum([(2.0, 1)]), 2, 1)
        with pytest.raises(DomainError):
            gt.resolvent_bound(0.0, rs)
