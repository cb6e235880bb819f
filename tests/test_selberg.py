import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import selberg
from gfsl.errors import AccuracyError, BudgetError, ConstructionError

from oracles import (ClassKeyerOne, ball_one, bolza_words_oracle,
                     identity_term_mp, length_spectrum_one, psl_key_one)

SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


@pytest.fixture(scope="module")
def bolza():
    return selberg.bolza_group()


@pytest.fixture(scope="module")
def spectrum8(bolza):
    return selberg.length_spectrum(bolza, 8.0)


class TestBolzaGroup:
    def test_generator_traces(self, bolza):
        for g in bolza.generators:
            assert abs(np.trace(g) - 2.0 * (1.0 + math.sqrt(2.0))) < 1e-12

    def test_determinants(self, bolza):
        for g in bolza.generators:
            assert abs(np.linalg.det(g) - 1.0) < 1e-12

    def test_relator(self, bolza):
        assert bolza.relator_residual() < 1e-9

    def test_bad_relator_rejected(self, bolza):
        with pytest.raises(ConstructionError):
            selberg.FuchsianGroup(bolza.generators,
                                  ((0, 1), (1, 1), (0, 1), (1, 1)))


class TestLengthSpectrum:
    def test_systole(self, spectrum8):
        assert abs(spectrum8.systole - SYSTOLE) < 1e-9

    def test_systole_vs_word_oracle(self, spectrum8):
        words = bolza_words_oracle(max_letters=2)
        assert abs(min(words) - spectrum8.systole) < 1e-9

    def test_no_length_below_systole(self, spectrum8):
        assert spectrum8.primitives[0][0] >= SYSTOLE - 1e-9

    def test_octagon_symmetry_relabeling(self, bolza):
        base = selberg.length_spectrum(bolza, 5.0)
        perm = selberg.FuchsianGroup(
            [bolza.generators[1], bolza.generators[2], bolza.generators[3],
             np.linalg.inv(bolza.generators[0])],
            ((0, 1), (1, -1), (2, 1), (3, -1), (0, -1), (1, 1), (2, -1), (3, 1)))
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

    def test_csv_roundtrip(self, spectrum8, tmp_path):
        path = tmp_path / "lengths.csv"
        spectrum8.to_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["length", "multiplicity", "is_primitive"]
        back = [(float(ell), int(mult)) for ell, mult, prim in rows[1:]
                if prim == "1"]
        assert back == spectrum8.primitives  # repr round-trips
        iterates = [(float(ell), int(mult)) for ell, mult, prim in rows[1:]
                    if prim == "0"]
        assert iterates == [(p, mult) for p, mult, m, _ in spectrum8.orbits()
                            if m > 1]

    def test_budget_error(self, bolza, monkeypatch):
        monkeypatch.setattr(selberg, "_ELEMENT_BUDGET", 100)
        with pytest.raises(BudgetError) as exc_info:
            selberg.length_spectrum(bolza, 8.0)
        assert len(exc_info.value.partial) > 100

    def test_class_key_stability(self, bolza):
        # conjugating any class representative by a generator and
        # re-canonicalizing must return the same key (no basin splitting),
        # on the keyer that keyed the representatives and on a fresh one
        letters = bolza.letters()
        keyer = selberg._ClassKeyer(letters)
        ls = selberg.length_spectrum(bolza, 6.0)
        mats = selberg._ball(letters, math.cosh(
            2.0 * math.acosh(math.cosh(3.0) * (1 + math.sqrt(2)))), 10 ** 6)
        hyp = [m for m in mats if abs(m[0, 0] + m[1, 1]) > 2.0 + 1e-12
               and 2.0 * math.acosh(abs(m[0, 0] + m[1, 1]) / 2.0) <= 6.0]
        reps = {}
        for key, m in zip(keyer.class_keys(np.array(hyp)), hyp):
            reps.setdefault(key, m)
        reps = list(reps.items())
        assert len(reps) >= sum(mult for _, mult in ls.primitives)
        conj = np.array([np.linalg.inv(a) @ m @ a
                         for _, m in reps[:200] for a in letters])
        want = [key for key, _ in reps[:200] for _ in letters]
        assert keyer.class_keys(conj) == want
        assert selberg._ClassKeyer(letters).class_keys(conj) == want


def _ball_cosh(l_max):
    # the displacement bound length_spectrum enumerates to
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * (1.0 + math.sqrt(2.0)))
    return math.cosh(disp) * (1.0 + 1e-9)


@pytest.fixture(scope="module")
def ball8(bolza):
    return selberg._ball(bolza.letters(), _ball_cosh(8.0), 10 ** 6)


def _hyperbolic_traces(mats, l_max):
    out = []
    for m in mats:
        tr = float(abs(m[0, 0] + m[1, 1]))
        if tr > 2.0 + 1e-12 and 2.0 * math.acosh(tr / 2.0) <= l_max + 1e-9:
            out.append(tr)
    return out


class TestBatchedKeyer:
    # the batched keyer must give exactly what the per-matrix keyer in
    # oracles.py gives: same keys, same ball, same classes

    def test_ball_matches_reference(self, bolza, ball8):
        ref = ball_one(bolza.letters(), _ball_cosh(8.0))
        assert len(ball8) == len(ref) == 4401
        assert all(np.array_equal(a, b) for a, b in zip(ball8, ref))

    def test_keys_match_reference_on_ball(self, ball8):
        keys = selberg._psl_keys(np.array(ball8))
        assert keys == [psl_key_one(m) for m in ball8]

    @pytest.mark.parametrize("m", [
        -np.eye(2),
        [[1e-8, -2.0], [0.5, 3.0]],
        [[-1e-8, 2.0], [-0.5, 3.0]],
        [[0.0, -1.0], [1.0, 0.0]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[-2.0, 0.5], [1.0, -0.75]],
        [[-1e-9, -1e-9], [0.0, 1e-9]],
    ], ids=["minus_identity", "lead_plus_1e-8", "lead_minus_1e-8",
            "zero_first_negative_second", "zero_first_positive_second",
            "negative_first", "all_tiny"])
    def test_sign_edge_cases(self, m):
        m = np.array(m, dtype=float)
        want = psl_key_one(m)
        assert selberg._psl_keys(m) == [want]
        # the same matrix inside a stack, after a matrix keyed the other way
        stack = np.array([np.eye(2), m, -np.eye(2)])
        assert selberg._psl_keys(stack)[1] == want

    def test_conjugate_stack_matches_loop(self, bolza, ball8):
        letters = bolza.letters()
        inv = [np.linalg.inv(a) for a in letters]
        keyer = selberg._ClassKeyer(letters)
        cs = keyer.conjugates(np.array(ball8))
        ref = np.array([ai @ m @ a for m in ball8
                        for a, ai in zip(letters, inv)])
        assert cs.shape == ref.shape == (8 * 4401, 2, 2)
        assert cs.tobytes() == ref.tobytes()  # bit for bit, signed zeros too
        norms, keys = selberg._keyed(cs)
        assert norms == [float((c * c).sum()) for c in ref]
        assert keys == [psl_key_one(c) for c in ref]

    def test_class_keys_match_reference(self, bolza, ball8):
        keyer = selberg._ClassKeyer(bolza.letters())
        ref = ClassKeyerOne(bolza.letters())
        assert keyer.class_keys(np.array(ball8)) == [ref.key(m) for m in ball8]
        # every key both searches met belongs to the same class in each
        shared = [k for k in ref.cache if k in keyer.node]
        assert len(shared) > len(ball8)
        assert (keyer._class_keys_of([keyer.node[k] for k in shared])
                == [ref.cache[k] for k in shared])

    def test_length_spectrum_matches_reference(self, bolza, spectrum8):
        prims, classes = length_spectrum_one(bolza, 8.0)
        assert spectrum8.primitives == prims
        assert len(spectrum8.classes) == len(classes) == 416
        assert np.array_equal(np.array(list(spectrum8.classes)),
                              np.array(list(classes)))
        assert list(spectrum8.classes.values()) == list(classes.values())

    def test_keying_runs_in_few_chunked_waves(self, bolza, monkeypatch):
        # the L = 8 spectrum keys its classes in a few waves; every stack
        # normed and keyed is a class_keys argument or one chunk of at
        # most KEY_BLOCK frontier matrices times the 8 letters
        keyers, sizes = [], []
        real_keyer, real_keyed = selberg._ClassKeyer, selberg._keyed

        class Recording(real_keyer):
            def __init__(self, letters):
                super().__init__(letters)
                keyers.append(self)

        def keyed(stack):
            sizes.append(len(stack))
            return real_keyed(stack)

        monkeypatch.setattr(selberg, "_ClassKeyer", Recording)
        monkeypatch.setattr(selberg, "_keyed", keyed)
        ls = selberg.length_spectrum(bolza, 8.0)
        (keyer,) = keyers
        assert len(ls.classes) == 416
        assert 1 <= keyer.waves <= 5
        assert len(sizes) == keyer.chunks + 2  # hyperbolic stack, powers
        assert keyer.chunks <= keyer.waves * -(-len(keyer.keys)
                                              // selberg.KEY_BLOCK)
        assert max(sizes[1:-1]) <= 8 * selberg.KEY_BLOCK


def _hyperbolic(mats, l_max):
    # the ball elements length_spectrum keys: trace > 2, length <= l_max
    return [m for m in mats if abs(m[0, 0] + m[1, 1]) > 2.0 + 1e-12
            and 2.0 * math.acosh(abs(m[0, 0] + m[1, 1]) / 2.0) <= l_max + 1e-9]


@pytest.fixture(scope="module")
def keyed8(bolza, ball8):
    stack = np.array(_hyperbolic(ball8, 8.0))
    return stack, selberg._ClassKeyer(bolza.letters()).class_keys(stack)


class TestKeyerInvariance:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_shuffled_stack_gives_shuffled_keys(self, bolza, keyed8, seed):
        # union order does not matter: a fresh keyer given the stack in
        # any order returns the same keys in that order
        stack, keys = keyed8
        perm = np.random.default_rng(seed).permutation(len(stack)).tolist()
        got = selberg._ClassKeyer(bolza.letters()).class_keys(stack[perm])
        assert got == [keys[i] for i in perm]

    @settings(max_examples=5, deadline=None)
    @given(i=st.integers(0, 2183))
    def test_word_conjugates_key_to_class(self, bolza, keyed8, i):
        # m's conjugates by all 584 words of one to three letters, each
        # applied one letter at a time as the search conjugates, keyed as
        # one stack on a keyer that has keyed the ball (as length_spectrum
        # keys its root powers), key to m's class, and the ball's keys do
        # not move; a conjugate past the keyer's norm envelope is refused
        stack, keys = keyed8
        keyer = selberg._ClassKeyer(bolza.letters())
        assert keyer.class_keys(stack) == keys
        conj = []
        for word in itertools.chain.from_iterable(
                itertools.product(range(8), repeat=n) for n in (1, 2, 3)):
            c = stack[i]
            for a in word:
                c = keyer.inv[a] @ c @ keyer.letters[a]
            conj.append(c)
        conj = np.array(conj)
        inside = (conj * conj).sum(axis=(1, 2)) <= selberg._KEY_MAX_NORM
        assert keyer.class_keys(conj[inside]) == [keys[i]] * int(inside.sum())
        assert keyer.class_keys(stack) == keys
        if not inside.all():
            with pytest.raises(AccuracyError, match="class keys: squared "
                               "norm .* is above 1e\\+08"):
                keyer.class_keys(conj[~inside][:1])

    def test_runaway_search_fails_loudly(self, bolza, keyed8):
        # alone, without the ball's keys to join, the search from this
        # conjugate keeps meeting new keys; it stops at the node cap
        stack, keys = keyed8
        keyer = selberg._ClassKeyer(bolza.letters())
        conj = stack[965]
        for a in (0, 7, 3):
            conj = keyer.inv[a] @ conj @ keyer.letters[a]
        assert float((conj * conj).sum()) < selberg._KEY_MAX_NORM
        with pytest.raises(AccuracyError, match="class-key search: a class "
                           "collected over 4096 keys"):
            keyer.class_keys(conj[None])
        assert len(keyer.keys) <= selberg._KEY_NODE_CAP + 8


class TestTracePairs:
    def test_ball_traces_in_nine_pairs(self, ball8):
        pairs = {selberg._trace_pair(tr)
                 for tr in _hyperbolic_traces(ball8, 8.0)}
        assert pairs == {(2, 2), (6, 4), (10, 6), (10, 8), (14, 10),
                         (18, 12), (18, 14), (22, 16), (26, 18)}
        for a, b in pairs:
            assert abs(a - b * math.sqrt(2.0)) <= 2.0

    def test_not_in_ring_fails_loudly(self):
        with pytest.raises(AccuracyError, match=r"trace 3\.3: 0 pairs"):
            selberg._trace_pair(3.3)
        # within 1e-7 of a + b sqrt 2, but its conjugate is far outside [-2, 2]
        with pytest.raises(AccuracyError, match="0 pairs"):
            selberg._trace_pair(20.0 + math.sqrt(2.0))

    def test_power_pairs_are_powers(self):
        s2 = math.sqrt(2.0)
        for q in ((2, 2), (6, 4), (10, 6)):
            t = q[0] + q[1] * s2
            ell = 2.0 * math.acosh(t / 2.0)
            got = dict(selberg._power_pairs(q, 4))
            assert sorted(got) == [2, 3, 4]
            for m, (a, b) in got.items():
                want = 2.0 * math.cosh(m * ell / 2.0)
                assert abs(a + b * s2 - want) <= 1e-12 * want
        assert dict(selberg._power_pairs((2, 2), 2)) == {2: (10, 8)}


class TestTanhIdentity:
    def test_worked_example_fifty_terms(self):
        th = selberg.tanh_transform(2.0, n_terms=50)
        assert abs(th["pole_sum"] - th["closed_form"]) < 1e-10

    def test_pointwise_with_converged_sum(self):
        for t in np.linspace(0.5, 5.0, 10):
            n_terms = max(50, int(80.0 / t))
            th = selberg.tanh_transform(float(t), n_terms=n_terms)
            assert abs(th["pole_sum"] - th["closed_form"]) < 1e-10

    def test_truncation_majorized_and_monotone(self):
        t = 0.8
        closed = selberg.tanh_transform(t)["closed_form"]
        gaps = []
        for n_terms in (5, 10, 20, 40):
            th = selberg.tanh_transform(t, n_terms=n_terms)
            gap = abs(th["pole_sum"] - closed)
            assert gap <= th["tail_bound"]
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_large_time_limit(self):
        th = selberg.tanh_transform(40.0)
        assert abs(th["closed_form"]) < 1e-8


class TestWaveTracePair:
    def test_below_systole_identity_only(self, spectrum8):
        g = selberg.GaussianTestFn(1.5, 0.15, 1.0)
        rep = selberg.wave_trace_pair(spectrum8, g, laplace=[(0.0, 1)])
        assert abs(rep.orbit_term) < 1e-20
        assert abs(rep.geometric_side - rep.identity_term) < 1e-20
        want = (g.fourier(0.5j) + g.fourier(-0.5j)).real
        assert abs(rep.spectral_side - want) < 1e-12
        assert type(rep.spectral_side) is float
        assert type(rep.discrepancy) is float

    def test_leakage_reported(self, spectrum8):
        g = selberg.GaussianTestFn(7.5, 0.4, 1.0)
        rep = selberg.wave_trace_pair(spectrum8, g)
        assert rep.support_leakage > 1e-9

    def test_discrepancy_monotone_in_cutoff(self, spectrum8):
        g = selberg.GaussianTestFn(5.5, 0.5, 1.0)
        laplace = [(0.0, 1)]
        discs = []
        for lm in (5.0, 6.0, 7.0, 8.0):
            sub = selberg.LengthSpectrum(
                [(e, m) for e, m in spectrum8.primitives if e <= lm + 1e-12], lm)
            rep = selberg.wave_trace_pair(sub, g, laplace=laplace)
            discs.append(rep.discrepancy)
        assert all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))

    def test_json_report_fields(self, spectrum8):
        g = selberg.GaussianTestFn(4.0, 0.4, 1.0)
        rep = selberg.wave_trace_pair(spectrum8, g, laplace=[(0.0, 1)])
        payload = rep.to_dict()
        for key in ("geometric_side", "spectral_side", "identity_term",
                    "orbit_term", "cutoff", "discrepancy"):
            assert key in payload

    def test_non_finite_spectral_side_fails_loudly(self, spectrum8):
        # hat g(+-i/2) of the constant eigenfunction overflows at sigma 100
        g = selberg.GaussianTestFn(5.5, 100.0, 1.0)
        with pytest.raises(AccuracyError, match=r"wave-trace pair \(center "
                           r"5\.5, sigma 100\.0, amplitude 1\.0\): spectral "
                           r"side is inf, not finite"):
            selberg.wave_trace_pair(spectrum8, g, laplace=[(0.0, 1)])
        # without eigenvalues only the (finite) geometric side is formed
        rep = selberg.wave_trace_pair(spectrum8, g)
        assert math.isfinite(rep.geometric_side)
        assert rep.spectral_side is None and rep.discrepancy is None


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
        got = selberg._identity_term(g, 2)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_node_cap_fails_loudly(self):
        g = selberg.GaussianTestFn(5.5, 1e-5)
        with pytest.raises(AccuracyError, match=r"identity term \(center 5\.5, "
                           r"sigma 1e-05\).* not converged .* at 1048576 nodes"):
            selberg._identity_term(g, 2)

    def test_non_finite_sum_fails_loudly(self):
        g = selberg.GaussianTestFn(5.5, 0.5, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AccuracyError, match="non-finite trapezoid sum"):
                selberg._identity_term(g, 2)

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
        monkeypatch.setattr(selberg, "_identity_term", lambda g, chi: math.nan)
        with pytest.raises(AccuracyError,
                           match=r"heat pair \(s 0\.2\): estimate is nan"):
            selberg.heat_pair(spectrum8, 0.2)

    def test_positivity(self, spectrum8):
        for s in (0.05, 0.2, 0.8, 1.5):
            assert selberg.heat_pair(spectrum8, s) > 0.0
