import cmath
import csv
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfsl import cli, selberg
from gfsl.errors import (AccuracyError, ConsistencyError, ConstructionError,
                         DomainError)

from oracles import (ClassKeyerOne, ball_one, bolza_float_one,
                     bolza_words_oracle, exact_letters_one, exact_one,
                     flat_one, heat_pair_loop, identity_term_mp,
                     length_spectrum_one,
                     mat_inv_one, mat_mul_one, power_one, psl_key_one,
                     ring_mul_one, trace_length_mp, value_one)

SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
IDENTITY_ONE = exact_one([1] + [0] * 11 + [1, 0, 0, 0])


def _ints(keys):
    # library keys (128 bytes each) as tuples of their 16 integers
    return [tuple(np.frombuffer(k, dtype=np.int64).tolist()) for k in keys]


@pytest.fixture(scope="module")
def bolza():
    return selberg.bolza_group()


@pytest.fixture(scope="module")
def spectrum8(bolza):
    return selberg.length_spectrum(bolza, 8.0)


class TestBolzaGroup:
    def test_generator_traces(self, bolza):
        # x + w is exactly 2 + 2 sqrt2
        for row in bolza.exact:
            x = exact_one(row)
            assert tuple(p + q for p, q in zip(x[0], x[3])) == (2, 2, 0, 0)

    def test_determinants(self, bolza):
        # xw - yz is exactly 1
        for row in bolza.exact:
            x, y, z, w = exact_one(row)
            det = tuple(p - q for p, q in zip(ring_mul_one(x, w),
                                              ring_mul_one(y, z)))
            assert det == (1, 0, 0, 0)

    def test_relator(self, bolza):
        assert bolza.relator_residual() == 0.0
        gens = [exact_one(row) for row in bolza.exact]
        prod = IDENTITY_ONE
        for idx, s in selberg.BOLZA_RELATOR:
            prod = mat_mul_one(prod, gens[idx] if s > 0
                               else mat_inv_one(gens[idx]))
        assert psl_key_one(prod) == flat_one(IDENTITY_ONE)

    def test_bad_relator_rejected(self, bolza):
        with pytest.raises(ConstructionError, match="relator product"):
            selberg.FuchsianGroup(bolza.exact,
                                  ((0, 1), (1, 1), (0, 1), (1, 1)))
        # the relator of the table with its first two rows swapped
        with pytest.raises(ConstructionError, match="relator product"):
            selberg.FuchsianGroup(bolza.exact[[1, 0, 2, 3]],
                                  selberg.BOLZA_RELATOR)

    def test_exact_generators(self, bolza):
        # the exact table is the oracle's rotation construction
        for row, g in zip(bolza.exact, bolza_float_one()[:4]):
            assert max(abs(value_one(e) - v)
                       for e, v in zip(exact_one(row), g.ravel())) <= 1e-14

    def test_bad_determinant_rejected(self, bolza):
        off = bolza.exact.copy()
        off[0, 0] += 1
        with pytest.raises(ConstructionError, match="det is not exactly 1"):
            selberg.FuchsianGroup(off, selberg.BOLZA_RELATOR)


class TestLengthSpectrum:
    def test_systole(self, spectrum8):
        # the systole's trace 2 + 2 sqrt 2 rounds to 2 fl(1 + sqrt 2), so
        # its length is SYSTOLE to the bit
        assert spectrum8.systole == SYSTOLE

    def test_systole_vs_word_oracle(self, spectrum8):
        words = bolza_words_oracle(max_letters=2)
        assert abs(min(words) - spectrum8.systole) < 1e-9

    def test_no_length_below_systole(self, spectrum8):
        assert spectrum8.primitives[0][0] >= SYSTOLE - 1e-9

    def test_octagon_symmetry_relabeling(self, bolza):
        base = selberg.length_spectrum(bolza, 5.0)
        x = bolza.exact
        perm = selberg.FuchsianGroup(
            [x[1], x[2], x[3], flat_one(mat_inv_one(exact_one(x[0])))],
            ((0, 1), (1, -1), (2, 1), (3, -1),
             (0, -1), (1, 1), (2, -1), (3, 1)))
        again = selberg.length_spectrum(perm, 5.0)
        assert len(again.primitives) == len(base.primitives)
        for (la, ma), (lb, mb) in zip(again.primitives, base.primitives):
            assert abs(la - lb) < 1e-12 and ma == mb

    def test_known_low_multiplicities(self, spectrum8):
        # the three shortest primitive classes of the octagon surface,
        # oriented count (class counting is validated independently by the
        # relabeling invariance and the Weyl consistency below)
        prims = spectrum8.primitives
        assert abs(prims[0][0] - SYSTOLE) < 1e-12 and prims[0][1] == 24
        assert prims[1][1] == 24 and abs(prims[1][0] - 4.896904895) < 1e-9
        assert prims[2][1] == 48 and abs(prims[2][0] - 5.828070775) < 1e-9

    def test_iterates_expanded_not_primitive(self, spectrum8):
        # 2 * systole appears among orbits with m = 2, not among primitives
        orbits = spectrum8.orbits()
        doubled = [o for o in orbits if abs(o[0] - 2 * SYSTOLE) < 1e-9]
        assert doubled and all(m == 2 for _, _, m, _ in doubled)
        assert all(abs(ell - 2 * SYSTOLE) > 1e-9 for ell, _ in spectrum8.primitives)

    @pytest.mark.parametrize("l_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_l_max_rejected(self, bolza, l_max):
        # NaN never ends the side-line power search, +-inf never the ball
        with pytest.raises(DomainError) as exc:
            selberg.length_spectrum(bolza, l_max)
        assert str(exc.value) == (
            f"length_spectrum: l_max must be finite, got {l_max!r}")

    def test_cutoff_has_no_slack(self):
        # lengths come from exact traces: an iterate at the cutoff is kept,
        # and one ulp below the cutoff it is dropped; a primitive is
        # rejected one ulp above
        at = selberg.LengthSpectrum([(1.5, 2)], 3.0)
        assert [(p, m) for p, _, m, _ in at.orbits()] == [(1.5, 1), (3.0, 2)]
        below = selberg.LengthSpectrum([(1.5, 2)], math.nextafter(3.0, 0.0))
        assert [(p, m) for p, _, m, _ in below.orbits()] == [(1.5, 1)]
        with pytest.raises(DomainError, match="length above cutoff"):
            selberg.LengthSpectrum([(3.0, 1)], math.nextafter(3.0, 0.0))

    @pytest.mark.parametrize("primitives,cutoff,text", [
        # was paired with orbit_term 0.0
        ([(math.nan, 1)], 8.0, "invalid lengths/multiplicities"),
        # failed only in the pairing, as "geometric side is nan"
        ([(3.0, math.nan)], 8.0, "invalid lengths/multiplicities"),
        # was paired with support_leakage 1.4999999990, a relative mass
        # above 1
        ([], -3.0, "cutoff must be > 0"),
        ([], 0.0, "cutoff must be > 0"),
    ], ids=["length-nan", "multiplicity-nan", "cutoff-negative",
            "cutoff-zero"])
    def test_invalid_data_rejected(self, primitives, cutoff, text):
        with pytest.raises(DomainError) as exc:
            selberg.LengthSpectrum(primitives, cutoff)
        assert str(exc.value) == f"LengthSpectrum: {text}"

    def test_csv_roundtrip(self, spectrum8, tmp_path, capsys):
        # the length spectrum file that `gfsl selberg --lmax 8` writes
        assert cli.main(["selberg", "--lmax", "8", "--out",
                         str(tmp_path)]) == cli.EXIT_OK
        capsys.readouterr()
        with open(tmp_path / "length_spectrum.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["length", "multiplicity", "is_primitive"]
        back = [(float(ell), int(mult)) for ell, mult, prim in rows[1:]
                if prim == "1"]
        assert back == spectrum8.primitives  # repr round-trips
        iterates = [(float(ell), int(mult)) for ell, mult, prim in rows[1:]
                    if prim == "0"]
        assert iterates == [(p, mult) for p, mult, m, _ in spectrum8.orbits()
                            if m > 1]


def _ball_cosh(l_max):
    # the displacement bound length_spectrum enumerates to
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * (1.0 + math.sqrt(2.0)))
    return math.cosh(disp) * (1.0 + 1e-9)


def _trace_pair(x):
    # the exact trace x + w of a 16-coefficient row, a + b sqrt 2 (its r
    # part is 0 on the Bolza group), as (a, b) signed to a + b sqrt 2 >= 0
    a, b = x[0] + x[12], x[1] + x[13]
    return (-a, -b) if a + b * math.sqrt(2.0) < 0 else (a, b)


def _hyperbolic(exact, l_max):
    # indices of the ball elements length_spectrum keys: |trace| > 2,
    # length <= l_max
    out = []
    for i, x in enumerate(exact.tolist()):
        ell = trace_length_mp(*_trace_pair(x))
        if ell is not None and ell <= l_max:
            out.append(i)
    return out


@pytest.fixture(scope="module")
def ball8(bolza):
    return selberg._ball(bolza, _ball_cosh(8.0))


class TestExactStacks:
    # the batched exact arithmetic must give exactly what the per-matrix
    # reference in oracles.py gives: same ball, keys, conjugates and powers

    def test_ball_matches_reference(self, bolza, ball8):
        # the exact ball, normed from its exact coefficients, is the
        # reference's, normed from chains of float products
        ref_mats, ref_exact = ball_one(bolza, _ball_cosh(8.0))
        assert ball8.dtype == np.int64
        assert len(ball8) == len(ref_exact) == 4401
        assert [tuple(r) for r in ball8.tolist()] == list(map(flat_one, ref_exact))
        # the reference's float products stay within 1.7e-12 of the exact
        # entries
        vals = np.array([[value_one(e) for e in x] for x in ref_exact])
        assert np.abs(vals - np.array(ref_mats).reshape(-1, 4)).max() < 2e-12
        assert np.abs(ball8).max() == 33

    def test_keys_match_reference_on_ball(self, ball8):
        keys = selberg._psl_keys(ball8)
        assert _ints(keys) == [psl_key_one(exact_one(r)) for r in ball8]

    @pytest.mark.parametrize("row", [
        [-1] + [0] * 11 + [-1, 0, 0, 0],
        [0, 0, -1, 2] + [0] * 12,
        [0, 0, 1, -2] + [0] * 12,
        [-2, 5, 0, 0, 1] + [0] * 11,
        [1, -2, 0, 0, -3] + [0] * 11,
        [-1, 2, 0, 0, 3] + [0] * 11,
        [0] * 15 + [-1],
    ], ids=["minus_identity", "zero_first_negative_second",
            "zero_first_positive_second", "negative_first", "lead_plus_one",
            "lead_minus_one", "lead_last"])
    def test_sign_edge_cases(self, row):
        row = np.array(row, dtype=np.int64)
        want = psl_key_one(exact_one(row))
        assert _ints(selberg._psl_keys(row[None])) == [want]
        # the same matrix inside a stack, after a matrix keyed the other way
        stack = np.array([selberg._IDENTITY, row, -selberg._IDENTITY])
        assert _ints(selberg._psl_keys(stack))[1] == want

    def test_conjugate_maps_match_loop(self, bolza, ball8):
        # the walk's letter conjugates a^-1 m a, rows of _maps(conjugate=True),
        # are the reference's exact products
        ref = ClassKeyerOne(bolza)
        cs = (ball8 @ selberg._maps(bolza.exact, conjugate=True))
        cs = cs.astype(np.int64).reshape(-1, 16)
        want = [ref.conjugate(exact_one(r), i) for r in ball8 for i in range(8)]
        assert cs.shape == (8 * 4401, 16)
        assert [tuple(r) for r in cs.tolist()] == list(map(flat_one, want))
        assert _ints(selberg._psl_keys(cs)) == list(map(psl_key_one, want))

    def test_powers_match_reference(self, ball8):
        # the exact products, inverses and powers, bit for bit
        rows = ball8[::37]
        for n in (2, 3):
            got = [functools.reduce(selberg._mul, [r] * n) for r in rows]
            assert ([tuple(p.ravel().tolist()) for p in got]
                    == [flat_one(power_one(exact_one(r), n)) for r in rows])
        prod = selberg._mul(rows, rows[::-1])
        assert ([tuple(p) for p in prod.tolist()]
                == [flat_one(mat_mul_one(exact_one(a), exact_one(b)))
                    for a, b in zip(rows, rows[::-1])])
        assert ([tuple(p) for p in selberg._inv(rows).tolist()]
                == [flat_one(mat_inv_one(exact_one(r))) for r in rows])


@pytest.fixture(scope="module")
def oracle8(bolza):
    # the per-matrix keyer's L = 8 (primitives, {class key: length})
    return length_spectrum_one(bolza, 8.0)


def _near(x, l_max):
    # a length within 2 ulp of a cutoff may round to either side of it
    return abs(x - l_max) <= 2 * math.ulp(x)


@pytest.fixture(scope="module")
def starts8(bolza, ball8):
    # the L = 8 walk's starts and their lengths: hyperbolic, off the side
    # lines and their squares, and crossing F's interior
    skip, _ = selberg._side_classes(bolza, 8.0)
    ell = np.array(selberg._lengths(ball8))
    keep = (ell <= 8.0) & [k not in skip for k in selberg._psl_keys(ball8)]
    stack, ell = ball8[keep], ell[keep]
    seg, _ = selberg._clip(*selberg._chords(stack), selberg._octagon(bolza.exact))
    return stack[seg >= selberg._SEG_FLOOR], ell[seg >= selberg._SEG_FLOOR]


@pytest.fixture(scope="module")
def walked8(bolza, starts8):
    return selberg._walk(bolza, *starts8, 8.0)


class TestClassWalk:
    def test_length_spectrum_matches_reference(self, spectrum8, oracle8):
        # the per-matrix keyer's primitives and class count; every length
        # within 2 ulp of 2 acosh(|a + b sqrt 2| / 2) to 40 digits, of its
        # exact trace
        prims, classes = oracle8
        assert [m for _, m in spectrum8.primitives] == [m for _, m in prims]
        assert len(spectrum8.classes) == len(classes) == 416
        pairs = [(got, want) for (got, _), (want, _) in
                 zip(spectrum8.primitives, prims)]
        pairs += zip(sorted(spectrum8.classes.values()), sorted(classes.values()))
        assert all(abs(got - want) <= 2 * math.ulp(want) for got, want in pairs)

    @settings(max_examples=12, deadline=None)
    @example(l_max=SYSTOLE)
    @example(l_max=6.2)
    @example(l_max=8.0)
    @given(l_max=st.floats(SYSTOLE, 8.0))
    def test_primitives_match_reference_at_every_cutoff(self, bolza, oracle8,
                                                         l_max):
        # the oracle's L = 8 primitives up to l_max; a bucket within 2 ulp
        # of l_max is left out of both sides
        got = [(x, m) for x, m in selberg.length_spectrum(bolza, l_max).primitives
               if not _near(x, l_max)]
        want = [(x, m) for x, m in oracle8[0]
                if x <= l_max and not _near(x, l_max)]
        assert [m for _, m in got] == [m for _, m in want]
        assert all(abs(a - b) <= 2 * math.ulp(b)
                   for (a, _), (b, _) in zip(got, want))

    def test_side_lines_form_eight_classes(self, bolza):
        # the cyclic three-letter subwords of the relator and their inverses
        # lie on F's side lines; the per-matrix keyer puts them in 8 classes
        # of two, w_j ~ w_(j+4)^-1, the classes _side_classes keys
        letters = exact_letters_one(bolza)
        word = [letters[i if s > 0 else i + 4] for i, s in selberg.BOLZA_RELATOR]
        side = [mat_mul_one(mat_mul_one(word[j], word[(j + 1) % 8]),
                            word[(j + 2) % 8]) for j in range(8)]
        side += [mat_inv_one(w) for w in side]
        ref = ClassKeyerOne(bolza)
        ckeys = [ref.key(w) for w in side]
        assert len(set(ckeys)) == 8
        assert all(ckeys[j] == ckeys[8 + (j + 4) % 8] for j in range(8))
        stack = np.array([flat_one(w) for w in side], dtype=np.int64)
        keys = selberg._psl_keys(stack)
        want = {min(k for k, c in zip(keys, ckeys) if c == ck): (SYSTOLE, 1)
                for ck in ckeys}
        assert selberg._side_classes(bolza, SYSTOLE) == (set(keys), want)
        # their squares join at twice the systole
        skip, found = selberg._side_classes(bolza, 8.0)
        assert len(skip) == 32 and len(found) == 16
        assert [m for _, m in sorted(found.values())] == [1] * 8 + [2] * 8
        assert all(abs(x - m * SYSTOLE) <= 2 * math.ulp(x)
                   for x, m in found.values())
        # each axis runs along a side line: one letter's bound is tight
        # along the whole chord
        tail, span = selberg._chords(stack)
        conj_u, c = selberg._octagon(bolza.exact)
        room = np.abs(c - (tail[:, None] * conj_u).real)
        slope = np.abs((span[:, None] * conj_u).real)
        assert ((room + slope).min(axis=1) < 1e-15).all()

    def test_walk_classes_and_powers(self, starts8, walked8):
        # the 1336 starts key every class but the 16 side-line ones (8 at
        # the systole, 8 at twice it): the 392 primitive classes less the 8
        # side-line ones, and the squares of the other 16 at the systole
        assert len(starts8[0]) == 1336 and len(walked8) == 416 - 16
        powers = [m for _, m in walked8.values()]
        assert powers.count(1) == 392 - 8 and powers.count(2) == 16

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_walk_order_free(self, bolza, starts8, walked8, seed):
        # the walkers do not interact: the starts in any order give the same
        # classes
        stack, ell = starts8
        perm = np.random.default_rng(seed).permutation(len(stack))
        assert selberg._walk(bolza, stack[perm], ell[perm], 8.0) == walked8

    def test_class_key_is_conjugation_invariant(self, bolza, starts8):
        # the conjugates of an element by words of one and two letters whose
        # axes cross F walk to its class alone
        stack, ell = starts8
        maps = selberg._maps(bolza.exact, conjugate=True)
        crossing = 0
        for i in range(0, len(stack), 67):
            one = (stack[i:i + 1] @ maps).astype(np.int64).reshape(-1, 16)
            two = (one @ maps).astype(np.int64).reshape(-1, 16)
            conj = np.concatenate([one, two])
            seg, _ = selberg._clip(*selberg._chords(conj),
                                   selberg._octagon(bolza.exact))
            crossing += int((seg >= selberg._SEG_FLOOR).sum())
            want = selberg._walk(bolza, stack[i:i + 1], ell[i:i + 1], 8.0)
            assert len(want) == 1
            assert selberg._walk(bolza, conj, [ell[i]] * len(conj), 8.0) == want
        assert crossing > 100

    def test_clip_parallel_side(self, bolza):
        # letter 0's side is the line y = -c; a horizontal chord is exactly
        # parallel to it (slope 0): outside the side (y = -0.96) it misses
        # F, and the horizontal diameter runs between two side midpoints,
        # twice the inradius, which is the systole
        octagon = selberg._octagon(bolza.exact)
        assert octagon[0][0] == 1j
        tail = np.array([-0.28 - 0.96j, -1.0 + 0j])
        seg, _ = selberg._clip(tail, np.array([0.56 + 0j, 2.0 + 0j]), octagon)
        assert seg[0] == -math.inf
        assert abs(seg[1] - SYSTOLE) < 1e-14

    def test_sliver_segment_raises(self, bolza):
        # a chord cutting F's corner at angle pi/8, 1e-6 inside the vertex:
        # a segment of 2.8e-5, in the gap no Bolza axis falls into
        octagon = selberg._octagon(bolza.exact)
        turn = cmath.exp(1j * math.pi / 8)
        rho = octagon[1][0] / math.cos(math.pi / 8) - 1e-6
        half = math.sqrt(1.0 - rho * rho)
        with pytest.raises(ConsistencyError, match=r"in a segment of 2\.8.*e-05, "
                           "between 1e-09 and 0.001"):
            selberg._clip(np.array([(rho - 1j * half) * turn]),
                          np.array([2j * half * turn]), octagon)

    def test_non_integral_power_raises(self, bolza, starts8):
        stack, ell = starts8
        with pytest.raises(ConsistencyError, match=r"segment sum is 1\.(5|49999.*), not "
                           "an integer"):
            selberg._walk(bolza, stack[:40], 1.5 * ell[:40], 8.0)

    def test_wrong_exit_misses_octagon(self, bolza, starts8, monkeypatch):
        # leaving by the next side instead pulls an axis into a tile it
        # does not cross
        clip = selberg._clip

        def next_side(tail, span, octagon):
            seg, exit_ = clip(tail, span, octagon)
            return seg, (exit_ + 1) % 8

        monkeypatch.setattr(selberg, "_clip", next_side)
        with pytest.raises(ConsistencyError, match="an axis misses the "
                           "octagon .* after a wrong exit"):
            selberg._walk(bolza, *[a[:40] for a in starts8], 8.0)

    def test_unclosed_walk_hits_cap(self, bolza, starts8, monkeypatch):
        # after the clip that picks the start, two honest steps, then back
        # and forth between the two elements met: every segment is real,
        # but the start never comes back.  A floor of 0.15, below every
        # L = 8 segment, makes the cap 4 * ceil(8 / 0.15) = 216 steps
        clip, exits = selberg._clip, []

        def back_and_forth(tail, span, octagon):
            seg, exit_ = clip(tail, span, octagon)
            if len(exits) >= 3 and len(exits) % 2 == 1:
                exit_ = np.full_like(exit_, (exits[2] + 4) % 8)
            exits.append(int(exit_[0]))
            return seg, exit_

        monkeypatch.setattr(selberg, "_SEG_FLOOR", 0.15)
        monkeypatch.setattr(selberg, "_clip", back_and_forth)
        stack, ell = starts8
        i = int(np.argmax(ell))
        with pytest.raises(ConsistencyError, match="1 walks did not close "
                           "within 216 steps"):
            selberg._walk(bolza, stack[i:i + 1], ell[i:i + 1], 8.0)
        assert len(exits) == 1 + 216


class TestEnvelope:
    @pytest.mark.parametrize("args,name", [
        ((8.0, 1e300, 0.5), "center"), ((8.0, 5.5, 0.0), "sigma"),
        ((8.0, 5.5, math.inf), "sigma"), ((8.5, 5.5, 0.5), "lmax"),
        ((3.0, 5.5, 0.5), "lmax"), ((9.0, 1e300, 0.0), "center")])
    def test_fault_names_parameter(self, args, name):
        with pytest.raises(DomainError, match="^expected ") as exc_info:
            selberg.check_envelope(*args)
        assert exc_info.value.value == name

    def test_edges_pass(self):
        lo, hi = selberg._sigma_range(5.5)
        for l_max in (SYSTOLE, 8.0):
            for sigma in (lo, hi):
                assert selberg.check_envelope(l_max, 5.5, sigma) is None


class TestTracePairs:
    def test_ball_traces_in_nine_pairs(self, ball8):
        # the exact traces x + w of the hyperbolic L = 8 ball elements lie
        # in Z[sqrt 2] (no r part) and take nine values a + b sqrt 2, each
        # with |a - b sqrt 2| <= 2, equal to the traces of the float values
        pairs = set()
        for i in _hyperbolic(ball8, 8.0):
            x = ball8[i]
            assert x[2] + x[14] == x[3] + x[15] == 0
            a, b = _trace_pair(x.tolist())
            vals = x.reshape(4, 4) @ selberg._BASIS
            assert abs(a + b * math.sqrt(2.0) - abs(vals[0] + vals[3])) < 1e-11
            pairs.add((a, b))
        assert pairs == {(2, 2), (6, 4), (10, 6), (10, 8), (14, 10),
                         (18, 12), (18, 14), (22, 16), (26, 18)}
        for a, b in pairs:
            assert abs(a - b * math.sqrt(2.0)) <= 2.0

    def test_power_pairs_are_powers(self, ball8):
        # the exact m-th powers length_spectrum keys have the traces
        # 2 cosh(m ell / 2) of the m-th iterates
        s2 = math.sqrt(2.0)
        for i in _hyperbolic(ball8, 8.0)[:40]:
            ell = trace_length_mp(*_trace_pair(ball8[i].tolist()))
            for m in (2, 3, 4):
                p = functools.reduce(selberg._mul, [ball8[i]] * m).ravel()
                a, b, c, d = (p[:4] + p[12:]).tolist()
                want = 2.0 * math.cosh(m * ell / 2.0)
                assert c == d == 0
                assert abs(abs(a + b * s2) - want) <= 1e-12 * want


class TestWaveTracePair:
    def test_below_systole_identity_only(self, spectrum8):
        g = selberg.GaussianTestFn(1.5, 0.15, 1.0)
        rep = selberg.wave_trace_pair(spectrum8, g)
        assert abs(rep["orbit_term"]) < 1e-20
        assert abs(rep["geometric_side"] - rep["identity_term"]) < 1e-20
        want = (g.fourier(0.5j) + g.fourier(-0.5j)).real
        assert abs(rep["spectral_side"] - want) < 1e-12
        assert type(rep["spectral_side"]) is float
        assert type(rep["discrepancy"]) is float

    def test_leakage_reported(self, spectrum8):
        g = selberg.GaussianTestFn(7.5, 0.4, 1.0)
        rep = selberg.wave_trace_pair(spectrum8, g)
        assert rep["support_leakage"] > 1e-9

    def test_discrepancy_monotone_in_cutoff(self, spectrum8):
        g = selberg.GaussianTestFn(5.5, 0.5, 1.0)
        discs = []
        for lm in (5.0, 6.0, 7.0, 8.0):
            sub = selberg.LengthSpectrum(
                [(e, m) for e, m in spectrum8.primitives if e <= lm + 1e-12], lm)
            discs.append(selberg.wave_trace_pair(sub, g)["discrepancy"])
        assert all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))

    def test_json_report_fields(self, spectrum8):
        # the seven fields that bench/check.py's "pairing" row reads from
        # selberg_report.json, each a float
        g = selberg.GaussianTestFn(4.0, 0.4, 1.0)
        payload = selberg.wave_trace_pair(spectrum8, g)
        assert set(payload) == {"geometric_side", "identity_term",
                                "orbit_term", "cutoff", "support_leakage",
                                "spectral_side", "discrepancy"}
        assert all(type(v) is float for v in payload.values())

    def test_non_finite_spectral_side_fails_loudly(self, spectrum8):
        # hat g(+-i/2) of the constant eigenfunction overflows at sigma 100
        g = selberg.GaussianTestFn(5.5, 100.0, 1.0)
        with pytest.raises(AccuracyError, match=r"wave-trace pair \(center "
                           r"5\.5, sigma 100\.0, amplitude 1\.0\): spectral "
                           r"side is inf, not finite"):
            selberg.wave_trace_pair(spectrum8, g)


def _heat_gaussian(s):
    # the even heat Gaussian heat_pair builds for time s
    amp = math.exp(-s / 4.0) / (2.0 * math.sqrt(math.pi * s))
    return (0.0, math.sqrt(2.0 * s), amp)


class TestIdentityTerm:
    # bench grid of centre x sigma, the heat Gaussians of the Weyl checks
    # and the ones below them, narrow spectra (quad was off by ~1e-9
    # there) and a wide Gaussian whose coarse levels sample only zeros
    @pytest.mark.parametrize(
        "center,sigma,amp",
        [(c, s, 1.0) for c in (4.5, 5.5, 6.5) for s in (0.3, 0.5, 0.7)]
        + [_heat_gaussian(s) for s in (0.05, 0.1, 0.2, 0.8, 1.5)]
        + [(5.5, 0.05, 1.0), (5.5, 0.01, 1.0), (5.5, 30.0, 1.0)])
    def test_vs_mpmath(self, center, sigma, amp):
        g = selberg.GaussianTestFn(center, sigma, amp)
        want = identity_term_mp(center, sigma, amp, chi_abs=2)
        got = selberg.identity_term(g)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("sigma", [math.nan, 0.0, -0.5])
    def test_sigma_not_positive_rejected(self, sigma):
        # NaN fails the guard as 0 and negatives do
        with pytest.raises(DomainError,
                           match=r"^GaussianTestFn: sigma must be > 0$"):
            selberg.GaussianTestFn(5.5, sigma, 1.0)

    def test_node_cap_fails_loudly(self):
        g = selberg.GaussianTestFn(5.5, 1e-5, 1.0)
        with pytest.raises(AccuracyError, match=r"identity term \(center 5\.5, "
                           r"sigma 1e-05\).* not converged .* at 1048576 nodes"):
            selberg.identity_term(g)

    def test_non_finite_sum_fails_loudly(self):
        g = selberg.GaussianTestFn(5.5, 0.5, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AccuracyError, match="non-finite trapezoid sum"):
                selberg.identity_term(g)

    def test_fourier_array_matches_scalar_calls(self):
        # the spectral side calls fourier on scalars, the identity term on
        # arrays: both must give the same bits
        g = selberg.GaussianTestFn(5.5, 0.5, 1.0)
        r = np.concatenate([np.linspace(0.0, 40.0, 257),
                            1j * np.linspace(-0.5, 0.5, 9),
                            np.linspace(-3.0, 3.0, 7) + 0.25j])
        arr = g.fourier(r)
        for i, ri in enumerate(r):
            one = g.fourier(ri)
            assert (one.real, one.imag) == (arr[i].real, arr[i].imag)


class TestWeylConsistency:
    def test_small_s_leading_term(self, spectrum8):
        rep = selberg.weyl_consistency(spectrum8)
        assert rep["ok"]
        for row in rep["rows"]:
            assert abs(row["ratio"] - 1.0) <= 0.15

    def test_moderate_s_approaches_constant(self, spectrum8):
        # by s ~ 1.5 only the constant eigenfunction survives; the cutoff
        # keeps the orbit sum complete up to ~e^{4 - 16/s}
        est = selberg.heat_pair(spectrum8, 1.5)
        assert abs(est - 1.0) < 0.1

    def test_non_finite_estimate_fails_loudly(self, spectrum8, monkeypatch):
        monkeypatch.setattr(selberg, "identity_term", lambda g: math.nan)
        with pytest.raises(AccuracyError,
                           match=r"heat pair \(s 0\.2\): estimate is nan"):
            selberg.heat_pair(spectrum8, 0.2)

    @pytest.mark.parametrize("l_max", [6.0, 8.0])
    @pytest.mark.parametrize("s", [0.05, 0.1, 0.2, 0.8, 1.5])
    def test_matches_own_loop_exactly(self, bolza, spectrum8, l_max, s):
        # half the identity term plus the wave pairing's orbit sum is half
        # of identity + (orbit sum with weight 1/sinh), bit for bit
        ls = spectrum8 if l_max == 8.0 else selberg.length_spectrum(bolza, l_max)
        assert selberg.heat_pair(ls, s) == heat_pair_loop(ls, s)

    @pytest.mark.parametrize("s", [math.nan, 0.0, -1.0])
    def test_s_not_positive_rejected(self, spectrum8, s):
        # NaN fails the guard as 0 and negatives do, not GaussianTestFn's
        with pytest.raises(DomainError, match=r"^heat_pair: s must be > 0$"):
            selberg.heat_pair(spectrum8, s)

    def test_positivity(self, spectrum8):
        for s in (0.05, 0.2, 0.8, 1.5):
            assert selberg.heat_pair(spectrum8, s) > 0.0
