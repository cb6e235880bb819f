"""Tanh identity and a desk-scale Selberg wave-trace harness.

The geometric side is driven by a Fuchsian length-spectrum enumerator.
Conjugacy classes are counted exactly at desk scale: group elements are
enumerated as matrices inside a displacement ball (breadth-first over
generator letters, matrices deduplicated up to overall sign), and each
hyperbolic element is mapped to its class key, the lexicographically
smallest member of the finite set of minimal-displacement conjugates; two
elements are conjugate iff those sets coincide.  Orientation convention: a
class and its inverse count separately unless actually conjugate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, BudgetError, ConstructionError, DomainError

_SQRT2 = math.sqrt(2.0)
_KEY_DECIMALS = 7

# The Bolza surface: genus 2, |Euler characteristic| 2g - 2 = 2.
_GENUS = 2
_CHI_ABS = 2 * _GENUS - 2
# Heat times of the small-s Weyl check, and its tolerance on the ratio of
# the heat estimate to its leading term (g - 1)/s.
_WEYL_S_GRID = (0.05, 0.1, 0.2)
_WEYL_RTOL = 0.15

BOLZA_RELATOR = ((0, 1), (1, -1), (2, 1), (3, -1), (0, -1), (1, 1), (2, -1), (3, 1))


@dataclass
class FuchsianGroup:
    """Generators (2x2 real, det 1) with a defining relator word."""

    generators: list
    relator: tuple

    def __post_init__(self):
        self.generators = [np.asarray(g, dtype=float) for g in self.generators]
        for i, g in enumerate(self.generators):
            if abs(np.linalg.det(g) - 1.0) > 1e-12:
                raise ConstructionError(f"generator {i}: |det - 1| > 1e-12")
        res = self.relator_residual()
        if res > 1e-9:
            raise ConstructionError(f"relator product residual {res:.3e} > 1e-9")

    def letters(self):
        """Generators followed by their inverses; letter i inverts to i+4 mod 8."""
        inv = [np.linalg.inv(g) for g in self.generators]
        return self.generators + inv

    def relator_residual(self):
        m = np.eye(2)
        inv = [np.linalg.inv(g) for g in self.generators]
        for idx, s in self.relator:
            m = m @ (self.generators[idx] if s > 0 else inv[idx])
        return min(float(np.abs(m - np.eye(2)).max()),
                   float(np.abs(m + np.eye(2)).max()))


def rotation(phi):
    """SO(2) matrix; as an isometry it rotates the hyperbolic plane by 2*phi."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def bolza_group():
    """Genus-2 regular-octagon side-pairing group.

    The translation T has trace 2(1+sqrt(2)); the k-th generator is T
    conjugated by the rotation of the plane by k*pi/4, whose SL(2,R)
    representative is rotation(k*pi/8).  The side-pairing relator is
    verified to multiply to +-identity.
    """
    t = np.array([[1.0 + _SQRT2, math.sqrt(2.0 + 2.0 * _SQRT2)],
                  [math.sqrt(2.0 + 2.0 * _SQRT2), 1.0 + _SQRT2]])
    gens = [rotation(k * math.pi / 8.0) @ t @ rotation(-k * math.pi / 8.0)
            for k in range(4)]
    return FuchsianGroup(gens, BOLZA_RELATOR)


def _psl_keys(stack):
    """Keys of a stack of 2x2 matrices (or of one) up to overall sign.

    Each matrix is negated when its first entry with |x| > 1e-8 is
    negative, and its entries are rounded to _KEY_DECIMALS.  Returns a
    list of 4-tuples of floats, one per matrix.
    """
    flat = stack.reshape(-1, 4)
    big = np.abs(flat) > 1e-8
    lead = flat[np.arange(len(flat)), big.argmax(axis=1)]
    flip = big.any(axis=1) & (lead < 0)
    signed = np.where(flip[:, None], -flat, flat)
    return list(map(tuple, signed.round(_KEY_DECIMALS).tolist()))


# Elements the ball of length_spectrum may hold before BudgetError; the
# L = 8 ball holds 4401.
_ELEMENT_BUDGET = 2_000_000


def _ball(letters, max_cosh, budget):
    """All group elements with cosh d(i, g i) = ||g||_F^2 / 2 <= max_cosh."""
    eye = np.eye(2)
    seen = set(_psl_keys(eye))
    mats = [eye]
    frontier = np.array([eye])
    larr = np.array(letters)
    while len(frontier):
        prod = np.einsum("fij,ljk->flik", frontier, larr).reshape(-1, 2, 2)
        fr = (prod ** 2).sum(axis=(1, 2)) / 2.0
        keep = prod[fr <= max_cosh]
        fresh = []
        for m, key in zip(keep, _psl_keys(keep)):
            if key not in seen:
                seen.add(key)
                mats.append(m)
                fresh.append(m)
                if len(mats) > budget:
                    raise BudgetError(
                        f"ball enumeration exceeded budget of {budget} elements",
                        partial=mats)
        frontier = np.array(fresh) if fresh else np.empty((0, 2, 2))
    return mats


def _keyed(stack):
    """Squared Frobenius norms and _psl_keys of a (n, 2, 2) stack, as lists."""
    return (stack * stack).sum(axis=(1, 2)).tolist(), _psl_keys(stack)


# Energy slack of the class-key search: conjugates whose squared Frobenius
# norm exceeds their component's least norm by more than this factor are
# dropped.
_KEY_SLACK = 40.0

# Frontier matrices conjugated per chunk of a class-key wave; each chunk
# forms, norms and keys KEY_BLOCK * 8 conjugates as one stack.  On a 2-core
# x86-64 host (numpy 2.4) the L = 8 spectrum took the same time for chunks
# of 32 to 1024 matrices, while the CLI's selberg peak RSS rose with the
# chunk (about 34.8 MiB at 128, 35.1 at 256, 37.4 at 1024; 34.1 with the
# per-matrix search this replaced).
KEY_BLOCK = 128

# Keys one class may collect before its search is called unconverged.  At
# L = 8 the largest class collects 26.  A search from one matrix alone can
# run on without end: each lap around the centralizer may round an entry
# near a 7-decimal boundary the other way, and rounding error grows lap by
# lap.  On a fresh keyer, 97 of 1391 lone word-conjugates of L = 8
# classes did.
_KEY_NODE_CAP = 1 << 12

# Largest squared Frobenius norm class_keys accepts; rounding error grows
# with the norm.  Keyed after the L = 8 ball, one stack per element, all
# 595,696 conjugates of its elements by words of one to three letters
# with squared norm <= 1e8 keyed to their class; some up to 1e9 did not.
# length_spectrum's inputs stay below 2e4.
_KEY_MAX_NORM = 1e8


class _ClassKeyer:
    """Canonical conjugacy-class keys via minimal-displacement conjugates.

    The members of a class with the smallest Frobenius norm form a finite,
    class-intrinsic set; a search over generator conjugations (allowing a
    bounded energy slack above the least norm found) reaches it from any
    starting member.  Every distinct key met is a node of one union-find
    whose components are the classes found so far, and each component
    tracks its least squared norm.  The search runs in waves: a wave
    conjugates the frontier nodes within the slack of their component's
    least norm by every letter, KEY_BLOCK matrices at a time, and norms
    and keys each chunk's conjugates as one stack.  A conjugate whose key
    is already a node joins the two components; a new key within the
    slack becomes a node of the next frontier.  The class key of a
    component is the smallest key among its nodes of least norm.
    """

    def __init__(self, letters):
        self.letters = np.array(letters)
        self.inv = np.array([np.linalg.inv(a) for a in letters])
        self.node = {}      # psl key -> node id
        self.keys = []      # node id -> psl key
        self.norms = []     # node id -> squared Frobenius norm
        self.parent = []    # union-find links
        self.best = []      # at a root: least norm of its component
        self.size = []      # at a root: node count of its component
        self.waves = 0
        self.chunks = 0

    def conjugates(self, stack):
        """a^-1 m a for every m in stack and every letter a, m-major:
        rows 8i .. 8i+7 of the (8n, 2, 2) result conjugate stack[i]."""
        return (self.inv[None] @ stack[:, None] @ self.letters[None]
                ).reshape(-1, 2, 2)

    def class_keys(self, stack):
        """Class key of every matrix in a (n, 2, 2) stack."""
        ids, fresh = [], []
        norms, keys = _keyed(stack)
        top = max(norms, default=0.0)
        if top > _KEY_MAX_NORM:
            raise AccuracyError(
                f"class keys: squared norm {top!r} is above {_KEY_MAX_NORM:g}, "
                f"where rounding error starts to reach the {_KEY_DECIMALS}-"
                "decimal keys")
        for i, (f, k) in enumerate(zip(norms, keys)):
            nd = self.node.get(k)
            if nd is None:
                nd = self._new(k, f, None)
                fresh.append(i)
            ids.append(nd)
        self._search([ids[i] for i in fresh], stack[fresh])
        return self._class_keys_of(ids)

    def _class_keys_of(self, ids):
        """Class key of the component of every node in ids."""
        roots = {self._find(nd) for nd in ids}
        least = {}
        for nd, (k, f) in enumerate(zip(self.keys, self.norms)):
            r = self._find(nd)
            if r in roots and f <= self.best[r] * (1.0 + 1e-9):
                if r not in least or k < least[r]:
                    least[r] = k
        return [least[self._find(nd)] for nd in ids]

    def _find(self, i):
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _new(self, key, norm, root):
        """A node for key under root (a new component when root is None)."""
        nd = len(self.keys)
        self.node[key] = nd
        self.keys.append(key)
        self.norms.append(norm)
        self.parent.append(nd if root is None else root)
        self.best.append(norm)
        self.size.append(1)
        if root is not None:
            self.best[root] = min(self.best[root], norm)
            self._grow(root, 1)
        return nd

    def _grow(self, root, n):
        self.size[root] += n
        if self.size[root] > _KEY_NODE_CAP:
            raise AccuracyError(
                f"class-key search: a class collected over {_KEY_NODE_CAP} "
                f"keys (least squared norm {self.best[root]!r}) without "
                "closing; rounding keeps giving its matrices new "
                f"{_KEY_DECIMALS}-decimal keys")

    def _search(self, frontier, mats):
        """Run waves from frontier (node ids) whose matrices are mats."""
        n_let = len(self.letters)
        find, node, best = self._find, self.node, self.best
        while frontier:
            self.waves += 1
            nxt, nxt_mats = [], []
            for lo in range(0, len(frontier), KEY_BLOCK):
                rows = [lo + j for j, nd in enumerate(frontier[lo:lo + KEY_BLOCK])
                        if self.norms[nd] <= _KEY_SLACK * best[find(nd)]]
                if not rows:
                    continue
                self.chunks += 1
                cs = self.conjugates(mats[rows])
                norms, keys = _keyed(cs)
                picked = []
                for j, row in enumerate(rows):
                    # joins and new nodes below keep src a root
                    src = find(frontier[row])
                    for p in range(j * n_let, (j + 1) * n_let):
                        nd = node.get(keys[p])
                        if nd is not None:
                            r = find(nd)
                            if r != src:
                                self.parent[r] = src
                                best[src] = min(best[src], best[r])
                                self._grow(src, self.size[r])
                        elif norms[p] <= _KEY_SLACK * best[src]:
                            nxt.append(self._new(keys[p], norms[p], src))
                            picked.append(p)
                if picked:
                    nxt_mats.append(cs[picked])
            frontier = nxt
            mats = np.concatenate(nxt_mats) if nxt_mats else None


@dataclass
class LengthSpectrum:
    """Primitive closed-geodesic lengths with class multiplicities."""

    primitives: list
    cutoff: float
    # no CLI run reads this; bench/replay.py's _classes count hook does
    classes: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        ls = [x for x, _ in self.primitives]
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise DomainError("LengthSpectrum: lengths must be strictly increasing")
        if any(x <= 0 for x in ls) or any(m < 1 for _, m in self.primitives):
            raise DomainError("LengthSpectrum: invalid lengths/multiplicities")
        if ls and ls[-1] > self.cutoff + 1e-9:
            raise DomainError("LengthSpectrum: length above cutoff")

    @property
    def systole(self):
        return self.primitives[0][0] if self.primitives else math.inf

    def orbits(self):
        """(period, multiplicity, m, primitive_length) over iterates m >= 1."""
        out = []
        for ell, mult in self.primitives:
            m = 1
            while m * ell <= self.cutoff + 1e-12:
                out.append((m * ell, mult, m, ell))
                m += 1
        out.sort()
        return out

    def to_csv(self, path):
        rows = [(ell, mult, 1) for ell, mult in self.primitives]
        rows += [(p, mult, 0) for p, mult, m, _ in self.orbits() if m > 1]
        rows.sort()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("length,multiplicity,is_primitive\n")
            for ell, mult, prim in rows:
                fh.write(f"{ell!r},{mult},{prim}\n")


# Circumradius of the Bolza Dirichlet octagon: every geodesic meets a
# translate of the fundamental domain, so each class has a member with
# cosh(d(i, g i)/2) <= cosh(ell/2) * (1 + sqrt(2)).
_OCT_COSH_R = 1.0 + _SQRT2


def _trace_pair(tr):
    """The integers (a, b) with tr = a + b sqrt(2) and |a - b sqrt(2)| <= 2.

    Bolza traces lie in Z[sqrt 2] (Aurich, Bogomolny & Steiner, Physica D
    48, 1991) and, the group being arithmetic, their Galois conjugates
    lie in [-2, 2].  So 2 b sqrt(2) is within 2 of tr, which leaves at most
    two candidates for b.  Raises AccuracyError unless exactly one pair
    matches tr to 1e-7.
    """
    lo = math.ceil((tr - 2.0 - 1e-7) / (2.0 * _SQRT2))
    hi = math.floor((tr + 2.0 + 1e-7) / (2.0 * _SQRT2))
    found = []
    for b in range(lo, hi + 1):
        a = round(tr - b * _SQRT2)
        if abs(tr - a - b * _SQRT2) <= 1e-7 and abs(a - b * _SQRT2) <= 2.0:
            found.append((a, b))
    if len(found) != 1:
        raise AccuracyError(f"trace {tr!r}: {len(found)} pairs (a, b) in "
                            "Z[sqrt 2] match it to 1e-7, expected one")
    return found[0]


def _power_pairs(q, m_top):
    """Trace pairs of the m-th powers of a class with trace pair q.

    Yields (m, t_m) for 2 <= m <= m_top from t_0 = 2, t_1 = q and
    t_m = q t_{m-1} - t_{m-2}, in exact Z[sqrt 2] arithmetic.
    """
    (qa, qb), prev, cur = q, (2, 0), q
    for m in range(2, m_top + 1):
        prev, cur = cur, (qa * cur[0] + 2 * qb * cur[1] - prev[0],
                          qa * cur[1] + qb * cur[0] - prev[1])
        yield m, cur


def length_spectrum(group, l_max):
    """Oriented primitive conjugacy classes with length <= l_max.

    Enumerates the matrix ball that is guaranteed to contain a
    minimal-displacement member of every class with ell <= l_max,
    canonicalizes every hyperbolic candidate to its class key, and splits
    primitives from proper powers by root search among the classes whose
    exact trace powers to the class's own.  Lengths are bucketed by their
    exact trace pairs, so a group whose traces are not of the Bolza form
    (see _trace_pair) raises AccuracyError.
    """
    if l_max > 8.0:
        raise DomainError("length_spectrum: desk scale stops at L_max = 8")
    letters = group.letters()
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * _OCT_COSH_R)
    mats = _ball(letters, math.cosh(disp) * (1.0 + 1e-9), _ELEMENT_BUDGET)
    stack = np.array(mats)
    traces = np.abs(stack[:, 0, 0] + stack[:, 1, 1])
    hyperbolic = []
    for i in np.flatnonzero(traces > 2.0 + 1e-12).tolist():
        tr = float(traces[i])
        ell = 2.0 * math.asinh(math.sqrt((tr - 2.0) * (tr + 2.0)) / 2.0) \
            if tr < 2.5 else 2.0 * math.acosh(tr / 2.0)
        if ell <= l_max + 1e-9:
            hyperbolic.append((i, tr, ell))
    keyer = _ClassKeyer(letters)
    classes = {}
    ckeys = keyer.class_keys(stack[[i for i, _, _ in hyperbolic]])
    for (i, tr, ell), ck in zip(hyperbolic, ckeys):
        if ck not in classes:
            classes[ck] = (ell, mats[i], _trace_pair(tr))
    by_pair = {}
    for ck, (ell, m, pair) in classes.items():
        by_pair.setdefault(pair, []).append(ck)
    # mark proper powers: a class is an m-th iterate iff some class whose
    # m-th trace is its own has an m-th power conjugate to it
    primitive = {ck: True for ck in classes}
    if classes:
        min_len = min(v[0] for v in classes.values())
        root_pair = {}
        for q in by_pair:
            for mm, t in _power_pairs(q, int(l_max / min_len) + 1):
                root_pair[mm, t] = q
        cands = []
        for ck, (ell, m, pair) in classes.items():
            mm = 2
            while ell / mm >= min_len - 1e-9:
                cands += [(ck, rk, mm)
                          for rk in by_pair.get(root_pair.get((mm, pair)), ())]
                mm += 1
        if cands:
            powers = [np.linalg.matrix_power(classes[rk][1], mm)
                      for _, rk, mm in cands]
            for (ck, _, _), pk in zip(cands, keyer.class_keys(np.array(powers))):
                if pk == ck:
                    primitive[ck] = False
    buckets = {}
    for ck, (ell, m, pair) in classes.items():
        if primitive[ck]:
            buckets.setdefault(pair, []).append(ell)
    prims = sorted((float(np.mean(v)), len(v)) for v in buckets.values())
    return LengthSpectrum(prims, l_max, classes={k: v[0] for k, v in classes.items()})


@dataclass
class GaussianTestFn:
    """amplitude * exp(-(t-center)^2 / (2 sigma^2)); even extension when needed."""

    center: float
    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError("GaussianTestFn: sigma must be > 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.exp(-((t - self.center) ** 2)
                                       / (2.0 * self.sigma ** 2))

    def fourier(self, r):
        """hat g(r) = int g(t) e^{i r t} dt; entire, safe at imaginary r.

        Takes a scalar or an array of r and returns complex values.
        """
        r = np.asarray(r, dtype=complex)
        # an overflow gives inf or nan, without a warning: the identity
        # term's finiteness check and the CLI's --sigma envelope catch it
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.amplitude * self.sigma * math.sqrt(2.0 * math.pi)
                    * np.exp(1j * r * self.center
                             - 0.5 * (self.sigma * r) ** 2))

    def mass_outside(self, lo, hi):
        """Relative mass of |g| outside [lo, hi]."""
        z_lo = (lo - self.center) / (self.sigma * _SQRT2)
        z_hi = (hi - self.center) / (self.sigma * _SQRT2)
        inside = 0.5 * (math.erf(z_hi) - math.erf(z_lo))
        return max(0.0, 1.0 - inside)


def tanh_transform(t, n_terms=50):
    """Both sides of the tanh Fourier identity at time t > 0.

    pole_sum: -2 sum_{k<n_terms} (k+1/2) e^{-t(k+1/2)}
    closed_form: -cosh(t/2) / (2 sinh^2(t/2))
    plus the geometric bound on the truncated tail.
    """
    if t <= 0:
        raise DomainError("tanh_transform: t must be > 0")
    k = np.arange(n_terms)
    pole_sum = -2.0 * float(np.sum((k + 0.5) * np.exp(-t * (k + 0.5))))
    try:
        closed = -0.5 * math.cosh(t / 2.0) / math.sinh(t / 2.0) ** 2
    except OverflowError:
        raise DomainError(f"tanh_transform: sinh(t/2)^2 overflows at "
                          f"t={t!r}; t must stay below about 711.17") from None
    tail = (2.0 * (n_terms + 0.5) * math.exp(-t * (n_terms + 0.5))
            / (1.0 - math.exp(-t)) ** 2)
    return {"pole_sum": pole_sum, "closed_form": closed, "tail_bound": tail}


@dataclass
class SelbergReport:
    geometric_side: float
    identity_term: float
    orbit_term: float
    cutoff: float
    support_leakage: float = 0.0
    spectral_side: float | None = None
    discrepancy: float | None = None

    def to_dict(self):
        """The report's fields; spectral_side and discrepancy only when
        eigenvalues were paired."""
        payload = {
            "geometric_side": self.geometric_side,
            "identity_term": self.identity_term,
            "orbit_term": self.orbit_term,
            "cutoff": self.cutoff,
            "support_leakage": self.support_leakage,
        }
        if self.spectral_side is not None:
            payload["spectral_side"] = self.spectral_side
            payload["discrepancy"] = self.discrepancy
        return payload


# Trapezoid rule for the identity term (see _identity_term): relative
# tolerance, first level that may be accepted, and node cap (enough for
# sigma >= 1.6e-4).
_IDENTITY_TOL = 1e-14
_IDENTITY_MIN_NODES = 1 << 6
_IDENTITY_MAX_NODES = 1 << 20


def _identity_term(g, chi_abs):
    """|chi| * int hat g(r) r tanh(pi r) dr over the real line.

    The integrand is even, so this is twice the integral over [0, top],
    top = max(8/sigma, 40), where the Gaussian envelope has fallen to
    e^{-32}.  It is analytic in |Im r| < 1/2, so the trapezoid rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).
    The step is halved until two levels agree to _IDENTITY_TOL times the
    trapezoid sum of |integrand|: for a narrow spectrum (small sigma) the
    value is a small remainder of a large oscillating sum, and rounding
    keeps levels from agreeing any closer than that.  A level is accepted
    only once the step also resolves the envelope (sigma h <= 1/2);
    coarser levels of a wide Gaussian sample nothing but zeros and would
    agree on 0.  Raises AccuracyError when the node cap is reached first
    or a sum is not finite.
    """
    top = max(8.0 / g.sigma, 40.0)

    def integrand(r):
        return g.fourier(r).real * r * np.tanh(np.pi * r)

    # one interval: the node at r = 0 contributes 0, the one at top has
    # weight 1/2; each halving of the step adds the odd nodes
    n = 1
    total = 0.5 * float(integrand(top))
    mass = abs(total)
    prev = total * top
    where = f"identity term (center {g.center!r}, sigma {g.sigma!r})"
    while n < _IDENTITY_MAX_NODES:
        n *= 2
        step = top / n
        odd = integrand(np.arange(1, n, 2) * step)
        total += float(np.sum(odd))
        mass += float(np.sum(np.abs(odd)))
        val, scale = total * step, mass * step
        if not (math.isfinite(val) and math.isfinite(scale)):
            raise AccuracyError(f"{where}: non-finite trapezoid sum at {n} nodes")
        change = abs(val - prev)
        if (n >= _IDENTITY_MIN_NODES and g.sigma * step <= 0.5
                and change <= _IDENTITY_TOL * scale):
            return chi_abs * 2.0 * val
        prev = val
    raise AccuracyError(
        f"{where}: trapezoid rule not converged to {_IDENTITY_TOL:g} at {n} "
        f"nodes (last change {change:.3e}, sum of |integrand| {scale:.3e})",
        achieved=change)


def wave_trace_pair(ls, g, laplace=None):
    """Both sides of the wave-trace identity paired with the Gaussian g.

    geometric = |chi| int hat g(r) r tanh(pi r) dr
                + sum ell mult g(m ell) / (2 sinh(m ell / 2));
    spectral (when laplace eigenvalues are supplied, including mu = 0)
              = sum d_j (hat g(r_j) + hat g(-r_j)),  r_j = sqrt(mu_j - 1/4).

    Distributional equality is claimed only over the windowed support; any
    test-function mass outside (0, cutoff) is recorded in the report as
    support_leakage rather than raised.
    """
    leak = g.mass_outside(0.0, ls.cutoff)
    ident = _identity_term(g, _CHI_ABS)
    orbit = 0.0
    for period, mult, m, ell in ls.orbits():
        orbit += ell * mult * float(g(period)) / (2.0 * math.sinh(period / 2.0))
    geometric = ident + orbit
    spectral = None
    disc = None
    if laplace is not None:
        spectral = 0.0
        for mu, d in laplace:
            r = complex(math.sqrt(mu - 0.25)) if mu >= 0.25 \
                else 1j * math.sqrt(0.25 - mu)
            spectral += d * float((g.fourier(r) + g.fourier(-r)).real)
        disc = spectral - geometric
    _require_finite(f"wave-trace pair (center {g.center!r}, sigma "
                    f"{g.sigma!r}, amplitude {g.amplitude!r})",
                    [("geometric side", geometric), ("spectral side", spectral),
                     ("discrepancy", disc)])
    return SelbergReport(geometric, ident, orbit, ls.cutoff, leak,
                         spectral, disc)


def _require_finite(where, values):
    """AccuracyError naming `where` and the first non-finite value of
    `values`, (name, value) pairs; a value of None was not computed."""
    for name, val in values:
        if val is not None and not math.isfinite(val):
            raise AccuracyError(f"{where}: {name} is {float(val)!r}, not finite")


def heat_pair(ls, s):
    """Heat-trace estimate sum_j e^{-s mu_j} from the geometric side.

    Pairs the identity with the even heat Gaussian g(t) =
    e^{-s/4} e^{-t^2/(4s)} / (2 sqrt(pi s)), whose transform is
    e^{-s (r^2 + 1/4)}.  With an even test function the symmetrized pairing
    G = g + g(-.) doubles both g-hat and the orbit samples, and the
    spectral side is twice the heat trace; hence the estimate below.
    """
    if s <= 0:
        raise DomainError("heat_pair: s must be > 0")
    amp = math.exp(-s / 4.0) / (2.0 * math.sqrt(math.pi * s))
    g = GaussianTestFn(0.0, math.sqrt(2.0 * s), amp)
    ident = _identity_term(g, _CHI_ABS)
    orbit = 0.0
    for period, mult, m, ell in ls.orbits():
        orbit += ell * mult * float(g(period)) / math.sinh(period / 2.0)
    estimate = 0.5 * (ident + orbit)
    _require_finite(f"heat pair (s {s!r})", [("estimate", estimate)])
    return estimate


def weyl_consistency(ls):
    """Small-s heat consistency: estimate/(g-1) * s must stay within
    _WEYL_RTOL of 1 at each s of _WEYL_S_GRID."""
    rows = []
    ok = True
    for s in _WEYL_S_GRID:
        est = heat_pair(ls, s)
        lead = (_GENUS - 1) / s
        ratio = est / lead
        ok = ok and abs(ratio - 1.0) <= _WEYL_RTOL
        rows.append({"s": s, "estimate": est, "leading": lead, "ratio": ratio})
    return {"ok": ok, "rows": rows}
