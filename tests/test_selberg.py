import csv
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsl import selberg
from gfsl.errors import (AccuracyError, BudgetError, ConstructionError,
                         DomainError)

from oracles import (ClassKeyerOne, ball_one, bolza_float_one,
                     bolza_words_oracle, exact_one,
                     flat_one, frob_one, heat_pair_loop, identity_term_mp,
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
        keyer = selberg._ClassKeyer(bolza.exact)
        ls = selberg.length_spectrum(bolza, 6.0)
        exact = selberg._ball(bolza, _ball_cosh(6.0), 10 ** 6)
        hyp = exact[_hyperbolic(exact, 6.0)]
        reps = {}
        for key, x in zip(keyer.class_keys(hyp), hyp):
            reps.setdefault(key, x)
        reps = list(reps.items())
        assert len(reps) >= sum(mult for _, mult in ls.primitives)
        conj = keyer.conjugates(np.array([x for _, x in reps[:200]]))
        want = [key for key, _ in reps[:200] for _ in range(8)]
        assert keyer.class_keys(conj) == want
        assert selberg._ClassKeyer(bolza.exact).class_keys(conj) == want


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
    return selberg._ball(bolza, _ball_cosh(8.0), 10 ** 6)


class TestBatchedKeyer:
    # the batched keyer must give exactly what the per-matrix exact keyer
    # in oracles.py gives: same ball, conjugates, keys, classes and powers

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

    def test_conjugate_stack_matches_loop(self, bolza, ball8):
        exact = ball8
        keyer = selberg._ClassKeyer(bolza.exact)
        ref = ClassKeyerOne(bolza)
        cs = keyer.conjugates(exact)
        want = [ref.conjugate(exact_one(r), i) for r in exact for i in range(8)]
        assert cs.shape == (8 * 4401, 16)
        assert [tuple(r) for r in cs.tolist()] == list(map(flat_one, want))
        norms, keys = selberg._keyed(cs)
        assert np.allclose(norms, [frob_one(c) for c in want],
                           rtol=1e-13, atol=0.0)
        assert _ints(keys) == list(map(psl_key_one, want))

    def test_class_keys_match_reference(self, bolza, ball8):
        exact = ball8
        keyer = selberg._ClassKeyer(bolza.exact)
        ref = ClassKeyerOne(bolza)
        assert (_ints(keyer.class_keys(exact))
                == [ref.key(exact_one(r)) for r in exact])
        # every key both searches met belongs to the same class in each
        shared = [k for k in keyer.node if _ints([k])[0] in ref.cache]
        assert len(shared) > len(exact)
        assert (_ints(keyer._class_keys_of([keyer.node[k] for k in shared]))
                == [ref.cache[k] for k in _ints(shared)])

    def test_powers_match_reference(self, ball8):
        # the exact products and powers length_spectrum forms, bit for bit
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

    def test_length_spectrum_matches_reference(self, bolza, spectrum8):
        # same classes and multiplicities; every length within 2 ulp of
        # 2 acosh(|a + b sqrt 2| / 2) to 40 digits, of its exact trace
        prims, classes = length_spectrum_one(bolza, 8.0)
        assert [m for _, m in spectrum8.primitives] == [m for _, m in prims]
        assert len(spectrum8.classes) == len(classes) == 416
        assert _ints(spectrum8.classes) == list(classes)
        pairs = [(got, want) for (got, _), (want, _) in
                 zip(spectrum8.primitives, prims)]
        pairs += zip(spectrum8.classes.values(), classes.values())
        assert all(abs(got - want) <= 2 * math.ulp(want) for got, want in pairs)

    def test_keying_runs_in_few_chunked_waves(self, bolza, monkeypatch):
        # the L = 8 spectrum keys its classes in a few waves; every stack
        # normed and keyed is a class_keys argument or one chunk of at
        # most KEY_BLOCK frontier matrices times the 8 letters
        keyers, sizes = [], []
        real_keyer, real_keyed = selberg._ClassKeyer, selberg._keyed

        class Recording(real_keyer):
            def __init__(self, gens):
                super().__init__(gens)
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


@pytest.fixture(scope="module")
def keyed8(bolza, ball8):
    stack = ball8[_hyperbolic(ball8, 8.0)]
    return stack, selberg._ClassKeyer(bolza.exact).class_keys(stack)


@pytest.fixture(scope="module")
def ref_keyer(bolza):
    return ClassKeyerOne(bolza)


def _word_conjugate(ref, x, word):
    # x conjugated by the letters of word one at a time, as the search
    # conjugates, by the exact reference keyer ref
    c = exact_one(x)
    for a in word:
        c = ref.conjugate(c, a)
    return np.array(flat_one(c), dtype=np.int64)


WORDS = [w for n in (1, 2, 3) for w in itertools.product(range(8), repeat=n)]


class TestKeyerInvariance:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_shuffled_stack_gives_shuffled_keys(self, bolza, keyed8, seed):
        # union order does not matter: a fresh keyer given the stack in
        # any order returns the same keys in that order
        stack, keys = keyed8
        perm = np.random.default_rng(seed).permutation(len(stack)).tolist()
        got = selberg._ClassKeyer(bolza.exact).class_keys(stack[perm])
        assert got == [keys[i] for i in perm]

    @settings(max_examples=5, deadline=None)
    @given(i=st.integers(0, 2183))
    def test_word_conjugates_key_to_class(self, bolza, keyed8, ref_keyer, i):
        # m's conjugates by all 584 words of one to three letters, keyed as
        # one stack on a keyer that has keyed the ball's hyperbolic
        # elements, key to m's class, and the ball's keys do not move
        stack, keys = keyed8
        keyer = selberg._ClassKeyer(bolza.exact)
        assert keyer.class_keys(stack) == keys
        conj = np.array([_word_conjugate(ref_keyer, stack[i], w) for w in WORDS])
        assert keyer.class_keys(conj) == [keys[i]] * len(WORDS)
        assert keyer.class_keys(stack) == keys

    @settings(max_examples=200, deadline=None)
    @given(i=st.integers(0, 2183), w=st.integers(0, len(WORDS) - 1))
    def test_lone_word_conjugate_keys_to_class(self, bolza, keyed8, ref_keyer,
                                               i, w):
        # a word conjugate of an L = 8 class, keyed alone on a fresh keyer
        # with no other key to join, reaches its class's key
        stack, keys = keyed8
        keyer = selberg._ClassKeyer(bolza.exact)
        conj = _word_conjugate(ref_keyer, stack[i], WORDS[w])
        assert keyer.class_keys(conj[None]) == [keys[i]]
        assert len(keyer.keys) <= 26

    def test_former_runaway_keys_to_class(self, bolza, keyed8, ref_keyer):
        # with 7-decimal float keys the lone search from this conjugate
        # kept meeting new keys until the node cap stopped it
        stack, keys = keyed8
        keyer = selberg._ClassKeyer(bolza.exact)
        conj = _word_conjugate(ref_keyer, stack[965], (0, 7, 3))
        assert keyer.class_keys(conj[None]) == [keys[965]]
        assert len(keyer.keys) <= 26

    def test_node_cap_is_a_budget(self, bolza, keyed8, monkeypatch):
        # the largest L = 8 class collects 26 keys, over a cap of 8
        stack, _ = keyed8
        monkeypatch.setattr(selberg, "_KEY_NODE_CAP", 8)
        with pytest.raises(AccuracyError, match="class-key search: a class "
                           "collected over 8 keys"):
            selberg._ClassKeyer(bolza.exact).class_keys(stack)

    def test_coefficient_guard(self, bolza, keyed8):
        # a coefficient past 2^42 is refused before any search; up to it,
        # every conjugate the search forms is exact in float64 (see
        # _KEY_MAX_COEF)
        stack, keys = keyed8
        keyer = selberg._ClassKeyer(bolza.exact)
        big = np.array([selberg._IDENTITY * (2 ** 42 + 1)])
        with pytest.raises(AccuracyError, match="class keys: coefficient "
                           "4398046511105 is above 2\\^42") as exc_info:
            keyer.class_keys(np.concatenate([stack[:3], big]))
        assert exc_info.value.value == 2 ** 42 + 1
        assert keyer.keys == []
        # at the bound itself the (central) matrix is keyed
        edge = selberg._IDENTITY * 2 ** 42
        assert _ints(keyer.class_keys(edge[None])) == [tuple(edge.tolist())]

    def test_float_conjugates_exact_at_bound(self, bolza):
        # the float64 conjugates equal the Python-int products of the
        # reference for coefficients at 2^42, and for the 40 * 2^42 + 1 a
        # search node may reach from such inputs, signed so that every
        # partial sum of some column is as large as it can be
        keyer = selberg._ClassKeyer(bolza.exact)
        ref = ClassKeyerOne(bolza)
        rng = np.random.default_rng(5)
        rows = []
        for top in (2 ** 42, 40 * 2 ** 42 + 1):
            signs = np.sign(keyer.maps).T.astype(np.int64)  # one per column
            rows += [top * signs, -top * signs,
                     rng.integers(-top, top, size=(40, 16), endpoint=True)]
        stack = np.concatenate(rows)
        got = keyer.conjugates(stack)
        want = [ref.conjugate(exact_one(r), i) for r in stack for i in range(8)]
        assert [tuple(r) for r in got.tolist()] == list(map(flat_one, want))
        assert np.abs(got).max() > 2 ** 52

    def test_node_cap_counts_search_nodes_only(self, bolza, keyed8,
                                               monkeypatch):
        # one call holding all 26 keys of the largest L = 8 class, more
        # than the cap of 8, passes: its search adds no key, and a call's
        # inputs do not count towards the cap
        stack, keys = keyed8
        keyer = selberg._ClassKeyer(bolza.exact)
        assert keyer.class_keys(stack) == keys
        members = {}
        for key, nd in keyer.node.items():
            members.setdefault(keyer._find(nd), []).append(key)
        biggest = max(members.values(), key=len)
        assert len(biggest) == 26
        monkeypatch.setattr(selberg, "_KEY_NODE_CAP", 8)
        fresh = selberg._ClassKeyer(bolza.exact)
        rows = np.array([np.frombuffer(k, np.int64) for k in biggest])
        (want,) = keyer._class_keys_of([keyer.node[biggest[0]]])
        assert fresh.class_keys(rows) == [want] * 26
        assert len(fresh.keys) == 26

    def test_class_keys_of_matches_full_scan(self, bolza, keyed8):
        # the class keys kept per component equal a scan of every node,
        # after keying the L = 8 hyperbolic stack and after its powers
        stack, _ = keyed8
        keyer = selberg._ClassKeyer(bolza.exact)
        classes = {}
        for x, key in zip(stack, keyer.class_keys(stack)):
            classes.setdefault(key, x)
        _assert_full_scan(keyer)
        powers = [functools.reduce(selberg._mul, [x] * m)
                  for x in classes.values() for m in (2, 3)]
        keyer.class_keys(np.concatenate(powers))
        _assert_full_scan(keyer)

    def test_coefficient_bound_inputs(self, bolza, ball8, keyed8, ref_keyer):
        # the facts the int64 bound of _KEY_MAX_COEF rests on: the maps'
        # absolute column sums are at most 47, and C(g) <= ||g|| / 2 + 1
        # on the ball and on word conjugates of its hyperbolic elements
        maps = selberg._ClassKeyer(bolza.exact).maps
        assert np.abs(maps).sum(axis=0).max() == 47
        stack, _ = keyed8
        conj = np.array([_word_conjugate(ref_keyer, x, w) for x in stack[::50]
                         for w in WORDS[::7]])
        for rows in (ball8, conj):
            vals = rows.reshape(-1, 4, 4) @ selberg._BASIS
            norm = np.sqrt((vals * vals).sum(axis=1))
            assert (np.abs(rows).max(axis=1) <= norm / 2.0 + 1.0).all()


def _assert_full_scan(keyer):
    # every node's class key by a scan of all nodes: among its component's
    # nodes of least norm, the least key as integers
    roots = [keyer._find(nd) for nd in range(len(keyer.keys))]
    least = {}
    for r, f in zip(roots, keyer.norms):
        least[r] = min(least.get(r, f), f)
    canon = {}
    for r, k, f in zip(roots, keyer.keys, keyer.norms):
        if f <= least[r] * (1.0 + 1e-9):
            canon[r] = min(canon.get(r, k), k, key=lambda b: _ints([b])[0])
    ids = list(range(len(keyer.keys)))
    assert keyer._class_keys_of(ids) == [canon[r] for r in roots]


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


class TestTanhIdentity:
    def test_worked_example(self):
        th = selberg.tanh_transform(2.0, 1e-10)
        assert abs(th["pole_sum"] - th["closed_form"]) < 1e-10

    def test_pointwise_with_converged_sum(self):
        for t in np.linspace(0.5, 5.0, 10):
            th = selberg.tanh_transform(float(t), 1e-12)
            assert abs(th["pole_sum"] - th["closed_form"]) < 1e-10

    def test_truncation_majorized_and_monotone(self):
        t = 0.8
        gaps = []
        for tol in (1e-2, 1e-4, 1e-6, 1e-8):
            th = selberg.tanh_transform(t, tol)
            gap = abs(th["pole_sum"] - th["closed_form"])
            # the tail is the exact rest of the series: equal to the gap
            # up to rounding
            assert gap <= th["tail_bound"] + 1e-14
            assert th["tail_bound"] <= tol / 2.0
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_large_time_limit(self):
        th = selberg.tanh_transform(40.0, 1e-9)
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
        rep = selberg.wave_trace_pair(spectrum8, g, laplace=[(0.0, 1)])
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
        # with no eigenvalues the spectral side is 0.0 and the (finite)
        # geometric side alone sets the discrepancy
        rep = selberg.wave_trace_pair(spectrum8, g, laplace=[])
        assert math.isfinite(rep.geometric_side) and rep.spectral_side == 0.0
        assert rep.discrepancy == -rep.geometric_side


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

    def test_positivity(self, spectrum8):
        for s in (0.05, 0.2, 0.8, 1.5):
            assert selberg.heat_pair(spectrum8, s) > 0.0
