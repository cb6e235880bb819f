"""Tanh identity and a desk-scale Selberg wave-trace harness.

The geometric side is driven by a Fuchsian length-spectrum enumerator.
Conjugacy classes are counted exactly at desk scale: group elements are
enumerated as matrices inside a displacement ball (breadth-first over
words, exact integer matrices deduplicated up to sign), and each
hyperbolic element is mapped to its class key, the lexicographically
smallest member of the finite set of minimal-displacement conjugates; two
elements are conjugate iff those sets coincide.  Orientation convention: a
class and its inverse count separately unless actually conjugate.
"""

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import specfun
from .errors import AccuracyError, BudgetError, ConstructionError, DomainError

_SQRT2 = math.sqrt(2.0)
_R = math.sqrt(1.0 + _SQRT2)

# The Bolza surface: genus 2, |Euler characteristic| 2g - 2 = 2.
_GENUS = 2
_CHI_ABS = 2 * _GENUS - 2
# Heat times of the small-s Weyl check, and its tolerance on the ratio of
# the heat estimate to its leading term (g - 1)/s.
_WEYL_S_GRID = (0.05, 0.1, 0.2)
_WEYL_RTOL = 0.15

BOLZA_RELATOR = ((0, 1), (1, -1), (2, 1), (3, -1), (0, -1), (1, 1), (2, -1), (3, 1))

# Exact arithmetic.  Every Bolza matrix entry lies in the ring
# Z[sqrt2] + r Z[sqrt2], r = sqrt(1 + sqrt2): it is a + b sqrt2 +
# r (c + d sqrt2) for integers a, b, c, d.  A matrix [[x, y], [z, w]] is
# carried as the 16 int64 coefficients of x, y, z and w, in that order.
_BASIS = np.array([1.0, _SQRT2, _R, _R * _SQRT2])
_IDENTITY = np.array([1] + [0] * 11 + [1, 0, 0, 0], dtype=np.int64)
# Row 4i + j: the coefficients of e_i e_j over the basis e = (1, sqrt2, r,
# r sqrt2), from sqrt2^2 = 2 and r^2 = 1 + sqrt2 (so r sqrt2 r = 2 + sqrt2),
# one group of four digits each; a string, as a literal of 64 ints costs
# the importer 128 KiB of RSS to compile
_PRODUCTS = np.array([int(c) for c in """
    1000 0100 0010 0001  0100 2000 0001 0020
    0010 0001 1100 2100  0001 0020 2100 2200""" if c.isdigit()],
                     dtype=np.int64).reshape(16, 4)


def _mul(x, y):
    """Exact products of two (n, 16) stacks, row by row; one row broadcasts."""
    # [n, i, k, p, q]: sum over j of x_ij coefficient p times y_jk's q
    pq = (x.reshape(-1, 2, 2, 1, 4, 1) * y.reshape(-1, 1, 2, 2, 1, 4)).sum(axis=2)
    return (pq.reshape(-1, 16) @ _PRODUCTS).reshape(-1, 16)


def _inv(x):
    """Exact inverses [[w, -y], [-z, x]] of a (n, 16) stack, det 1."""
    return (x.reshape(-1, 4, 4)[:, [3, 1, 2, 0]]
            * [[1], [-1], [-1], [1]]).reshape(-1, 16)


def _maps(gens, conjugate):
    """(16, 16 L) float64 for the L letter matrices a (the rows of gens,
    then their inverses): a row m of 16 coefficients times columns 16 l ..
    16 l + 15 is m a_l, or a_l^-1 m a_l when conjugate."""
    alphabet = np.repeat(np.concatenate([gens, _inv(gens)]), 16, axis=0)
    unit = np.tile(np.eye(16, dtype=np.int64), (len(alphabet) // 16, 1))
    left = _mul(_inv(alphabet), unit) if conjugate else unit
    return np.hstack(_mul(left, alphabet).reshape(-1, 16, 16)).astype(float)


@dataclass
class FuchsianGroup:
    """Generating matrices, a (n, 16) int64 array (see _BASIS) of det
    exactly 1, and a defining relator word whose product is exactly +-I;
    its letter (i, s) is row i for s > 0, its inverse otherwise."""

    exact: np.ndarray
    relator: tuple

    def __post_init__(self):
        self.exact = np.array(self.exact, dtype=np.int64)
        if not (_mul(self.exact, _inv(self.exact)) == _IDENTITY).all():
            raise ConstructionError("a generator's det is not exactly 1")
        if self.relator_residual():
            raise ConstructionError("relator product is not exactly +-I")

    def relator_residual(self):
        """Largest |coefficient| of P - I or of P + I, whichever is
        smaller, for P the exact relator product: 0.0 iff P = +-I."""
        inv = _inv(self.exact)
        prod = functools.reduce(_mul, [self.exact[i] if s > 0 else inv[i]
                                       for i, s in self.relator],
                                _IDENTITY[None])
        return float(min(np.abs(prod - _IDENTITY).max(),
                         np.abs(prod + _IDENTITY).max()))


def bolza_group():
    """Genus-2 regular-octagon side-pairing group.

    The translation T = [[1 + sqrt2, r sqrt2], [r sqrt2, 1 + sqrt2]] has
    trace 2(1 + sqrt2); the k-th generator is T conjugated by the elliptic
    element turning the plane by k pi/4 about i, exactly (1 + sqrt2) I +
    r sqrt2 [[-sin k pi/4, cos k pi/4], [cos k pi/4, sin k pi/4]].
    """
    # sqrt2 cos(k pi/4), sqrt2 sin(k pi/4) as (a, b) in a + b sqrt2
    cos_sin = (((0, 1), (0, 0)), ((1, 0), (1, 0)), ((0, 0), (0, 1)),
               ((-1, 0), (1, 0)))
    exact = [[1, 1, -sa, -sb, 0, 0, ca, cb, 0, 0, ca, cb, 1, 1, sa, sb]
             for (ca, cb), (sa, sb) in cos_sin]
    return FuchsianGroup(exact, BOLZA_RELATOR)


def _psl_keys(stack):
    """Keys of a (n, 16) exact stack up to overall sign: each row, negated
    when its first nonzero coefficient is negative, as 128 bytes."""
    lead = stack[np.arange(len(stack)), (stack != 0).argmax(axis=1)]
    signed = stack * np.where(lead < 0, -1, 1)[:, None]
    return signed.view("V128").ravel().tolist()


# Elements the ball of length_spectrum may hold before BudgetError; the
# L = 8 ball holds 4401.
_ELEMENT_BUDGET = 2_000_000


def _ball(group, max_cosh, budget):
    """All group elements with cosh d(i, g i) = ||g||_F^2 / 2 <= max_cosh,
    as a (n, 16) exact stack, breadth-first; the float64 products of the
    coefficients are exact, every partial sum an integer below 2^53."""
    right = _maps(group.exact, conjugate=False)
    seen = set(_psl_keys(_IDENTITY[None]))
    levels = [_IDENTITY[None]]
    while len(levels[-1]):
        fresh = []
        for lo in range(0, len(levels[-1]), KEY_BLOCK):
            prod = (levels[-1][lo:lo + KEY_BLOCK] @ right).astype(np.int64)
            prod = prod.reshape(-1, 16)
            vals = prod.reshape(-1, 4, 4) @ _BASIS
            prod = prod[(vals * vals).sum(axis=1) / 2.0 <= max_cosh]
            new = []
            for j, key in enumerate(_psl_keys(prod)):
                if key not in seen:
                    seen.add(key)
                    new.append(j)
            fresh.append(prod[new])
            if sum(map(len, levels + fresh)) > budget:
                raise BudgetError(
                    f"ball enumeration exceeded budget of {budget} elements",
                    partial=np.concatenate(levels + fresh))
        levels.append(np.concatenate(fresh))
    return np.concatenate(levels)


def _keyed(stack):
    """Squared Frobenius norms and _psl_keys of a (n, 16) stack, as lists."""
    vals = stack.reshape(-1, 4, 4) @ _BASIS
    return (vals * vals).sum(axis=1).tolist(), _psl_keys(stack)


# Energy slack of the class-key search: conjugates whose squared Frobenius
# norm exceeds their component's least norm by more than this factor are
# dropped.
_KEY_SLACK = 40.0

# Frontier matrices multiplied per chunk of a ball level or class-key wave;
# each chunk forms, norms and keys KEY_BLOCK * 8 products as one stack.
# On a 2-core x86-64 host (numpy 2.4) the L = 8 keyer took the same time
# for chunks of 32 to 1024 matrices, while the default selberg run's peak
# RSS rose with the chunk (34.0 MiB at 32, 34.2 at 128, 39.0 at 1024).
KEY_BLOCK = 128

# Keys the searches of one class may add (class_keys inputs do not count)
# before they are stopped, a budget on its work.  At L = 8 the largest
# class collects 26, and so does at most a lone search from an L = 8
# class conjugated by a word of length 1 to 3.
_KEY_NODE_CAP = 1 << 12

# Largest |coefficient| class_keys accepts, so that the search's float64
# conjugates are exact.  Let C(g) be the largest |coefficient| of g in the
# Bolza group and ||g|| its Frobenius norm.  Each entry is at most (1 +
# sqrt2 + r + r sqrt2) C(g) < 6.17 C(g), so ||g||^2 < 153 C(g)^2.  And
# C(g) <= ||g|| / 2 + 1, as each coefficient combines the images of an
# entry under r -> -r (g -> Q g Q^-1, Q the quarter turn about i) and sqrt2 ->
# -sqrt2, r -> i sqrt(sqrt2 - 1) (g -> SU(2), entries <= 1).  The search
# conjugates a node only if its squared norm is at most 40 (_KEY_SLACK)
# times an input's, so its coefficients are below 40 C + 1 for C the
# inputs' largest.  A conjugate coefficient sums 16 products of these
# with a column of _maps, of absolute sum at most 47 for the Bolza
# alphabet: each partial sum, in any order, is an integer below 47 (40 C
# + 1) < 2^53 if C <= 2^42.  The L = 8 ball has C <= 33; its hyperbolic
# elements' 1- to 3-letter conjugates C <= 300,456.
_KEY_MAX_COEF = 1 << 42


class _ClassKeyer:
    """Canonical conjugacy-class keys via minimal-displacement conjugates.

    The members of a class with the smallest Frobenius norm form a finite,
    class-intrinsic set; a search over generator conjugations (allowing a
    bounded energy slack above the least norm found) reaches it from any
    starting member.  Every distinct key met is a node of one union-find
    whose components are the classes found so far, and each component
    tracks its least squared norm and its nodes of that norm.  The search
    runs in waves: a wave conjugates the frontier nodes within the slack
    of their component's least norm by every letter, KEY_BLOCK matrices at
    a time, and norms and keys each chunk's conjugates as one stack.  A
    conjugate whose key is already a node joins the two components; a new
    key within the slack becomes a node of the next frontier.  The class
    key of a component is the smallest key among its nodes of least norm.
    """

    def __init__(self, gens):
        self.maps = _maps(gens, conjugate=True)
        self.node = {}      # psl key -> node id
        self.keys = []      # node id -> psl key
        self.norms = []     # node id -> squared Frobenius norm
        self.parent = []    # union-find links
        self.best = []      # at a root: least norm of its component
        self.least = []     # at a root: its nodes of least norm
        self.size = []      # at a root: nodes its searches added
        self.waves = 0
        self.chunks = 0

    def conjugates(self, stack):
        """a^-1 m a for every m in a (n, 16) stack and every letter a:
        rows 8i .. 8i+7 of the (8n, 16) result conjugate stack[i], exact
        in float64 up to _KEY_MAX_COEF."""
        return (stack @ self.maps).astype(np.int64).reshape(-1, 16)

    def class_keys(self, stack):
        """Class key of every matrix in a (n, 16) exact stack."""
        top = int(np.abs(stack).max(initial=0))
        if top > _KEY_MAX_COEF:
            raise AccuracyError(
                f"class keys: coefficient {top} is above 2^42, past which "
                "float64 conjugates could be inexact", value=top)
        ids, fresh = [], []
        norms, keys = _keyed(stack)
        for i, (f, k) in enumerate(zip(norms, keys)):
            nd = self.node.get(k)
            if nd is None:
                nd = self._new(k, f, None)
                fresh.append(i)
            ids.append(nd)
        self._search([ids[i] for i in fresh], stack[fresh])
        return self._class_keys_of(ids)

    def _class_keys_of(self, ids):
        """Class key of the component of every node in ids: among its
        nodes of least norm, the key whose coefficients come first."""
        canon = {r: min((self.keys[nd] for nd in self.least[r]),
                        key=lambda k: np.frombuffer(k, np.int64).tolist())
                 for r in {self._find(nd) for nd in ids}}
        return [canon[self._find(nd)] for nd in ids]

    def _find(self, i):
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _new(self, key, norm, root):
        """A node for key, joined under root (a search's) unless None."""
        nd = len(self.keys)
        self.node[key] = nd
        self.keys.append(key)
        self.norms.append(norm)
        self.parent.append(nd)
        self.best.append(norm)
        self.least.append([nd])
        self.size.append(int(root is not None))
        if root is not None:
            self._join(root, nd)
        return nd

    def _join(self, src, r):
        """Join the component of root r into that of root src."""
        self.parent[r] = src
        least, self.least[r] = self.least[r], None
        best = self.best[src]
        if self.best[r] <= best * (1.0 + 1e-9):  # else r has none of least norm
            best = self.best[src] = min(best, self.best[r])
            self.least[src] = [nd for nd in self.least[src] + least
                               if self.norms[nd] <= best * (1.0 + 1e-9)]
        self.size[src] += self.size[r]
        if self.size[src] > _KEY_NODE_CAP:
            raise AccuracyError(
                f"class-key search: a class collected over {_KEY_NODE_CAP} "
                f"keys (least squared norm {best!r}) without closing")

    def _search(self, frontier, mats):
        """Run waves from frontier (node ids) whose matrices are mats."""
        n_let = self.maps.shape[1] // 16
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
                                self._join(src, r)
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
        if ls and ls[-1] > self.cutoff:
            raise DomainError("LengthSpectrum: length above cutoff")

    @property
    def systole(self):
        return self.primitives[0][0] if self.primitives else math.inf

    def orbits(self):
        """(period, multiplicity, m, primitive_length) over iterates m >= 1."""
        out = []
        for ell, mult in self.primitives:
            m = 1
            while m * ell <= self.cutoff:
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


# cosh r = cot(pi/8) for the inradius r of the Bolza octagon (its
# circumradius has cosh R = (1 + sqrt 2)^2).  The open r-disks about the 8
# centres around a vertex are tangent in a ring at the side midpoints, so
# a closed geodesic enters one of them or is a side line, at distance r
# (inside the ball's 1e-9 slack): each class has a member g with its axis
# within r of i, and cosh(d(i, g i)/2) <= cosh(ell/2) cosh r.
_OCT_COSH_R = 1.0 + _SQRT2


def length_spectrum(group, l_max):
    """Oriented primitive conjugacy classes with length <= l_max.

    Enumerates the matrix ball that is guaranteed to contain a
    minimal-displacement member of every class with ell <= l_max,
    canonicalizes every hyperbolic candidate to its class key, and marks
    as a proper power every class that the exact m-th power of a class,
    m ell <= l_max, keys to.  Lengths are 2 acosh(|tr| / 2) of the exact
    traces tr, rounded once, and bucketed by them.
    """
    if l_max > 8.0:
        raise DomainError("length_spectrum: desk scale stops at L_max = 8")
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * _OCT_COSH_R)
    exact = _ball(group, math.cosh(disp) * (1.0 + 1e-9), _ELEMENT_BUDGET)
    # the traces x + w, in Z[sqrt2] on the Bolza group (README, keyer)
    tr = exact[:, :4] + exact[:, 12:]
    if tr[:, 2:].any():
        raise DomainError("length_spectrum: a trace is not in Z[sqrt2]")
    traces, inv = np.unique(np.abs(tr[:, 0] + tr[:, 1] * _SQRT2),
                            return_inverse=True)
    # all but the identity (trace 2) are hyperbolic
    ell = np.array([2.0 * math.acosh(t / 2.0) if t > 2.0 else math.inf
                    for t in traces.tolist()])[inv]
    keep = ell <= l_max
    exact, ell = exact[keep], ell[keep].tolist()
    keyer = _ClassKeyer(group.exact)
    classes = {}
    for i, ck in enumerate(keyer.class_keys(exact)):
        classes.setdefault(ck, i)
    powers = [functools.reduce(_mul, [exact[i]] * m) for i in classes.values()
              for m in range(2, int((l_max + 1e-6) / ell[i]) + 1)]
    proper = set(keyer.class_keys(np.concatenate(powers))) if powers else ()
    prim = [ell[i] for ck, i in classes.items() if ck not in proper]
    return LengthSpectrum([(x, prim.count(x)) for x in sorted(set(prim))],
                          l_max, {ck: ell[i] for ck, i in classes.items()})


@dataclass(frozen=True)
class GaussianTestFn:
    """amplitude * exp(-(t-center)^2 / (2 sigma^2)); even extension when needed."""

    center: float
    sigma: float
    amplitude: float

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


def tanh_transform(t, tol):
    """Both sides of the tanh Fourier identity at t > 0: pole_sum, -2
    sum_k (k + 1/2) e^{-t(k + 1/2)} until its tail, tail_bound, is at most
    tol/2, and closed_form, -cosh(t/2) / (2 sinh^2(t/2))."""
    pole_sum, tail = specfun.geometric_sum(t, -1.0, -2.0, 0.5, tol)
    try:
        closed = -0.5 * math.cosh(t / 2.0) / math.sinh(t / 2.0) ** 2
    except OverflowError:
        raise DomainError(f"tanh_transform: sinh(t/2)^2 overflows at "
                          f"t={t!r}; t must stay below about 711.17") from None
    return {"pole_sum": pole_sum, "closed_form": closed, "tail_bound": tail}


@dataclass
class SelbergReport:
    geometric_side: float
    identity_term: float
    orbit_term: float
    cutoff: float
    support_leakage: float
    spectral_side: float
    discrepancy: float

    def to_dict(self):
        return asdict(self)


# Trapezoid rule for the identity term (see identity_term): relative
# tolerance, first level that may be accepted, and node cap (enough for
# sigma >= 1.6e-4).
_IDENTITY_TOL = 1e-14
_IDENTITY_MIN_NODES = 1 << 6
IDENTITY_MAX_NODES = 1 << 20


@functools.lru_cache(maxsize=16)
def identity_term(g):
    """|chi| * int hat g(r) r tanh(pi r) dr over the real line; cached,
    as a selberg run pairs one (frozen) g six times.

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
    while n < IDENTITY_MAX_NODES:
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
            return _CHI_ABS * 2.0 * val
        prev = val
    raise AccuracyError(
        f"{where}: trapezoid rule not converged to {_IDENTITY_TOL:g} at {n} "
        f"nodes (last change {change:.3e}, sum of |integrand| {scale:.3e})",
        achieved=change)


def _geometric_side(ls, g):
    """(identity, orbit): the identity term of g and the orbit sum
    sum ell mult g(m ell) / (2 sinh(m ell / 2)) over the classes of ls."""
    ident = identity_term(g)
    orbit = 0.0
    for period, mult, m, ell in ls.orbits():
        orbit += ell * mult * float(g(period)) / (2.0 * math.sinh(period / 2.0))
    return ident, orbit


def wave_trace_pair(ls, g, laplace):
    """Both sides of the wave-trace identity paired with the Gaussian g.

    geometric = |chi| int hat g(r) r tanh(pi r) dr
                + sum ell mult g(m ell) / (2 sinh(m ell / 2));
    spectral = sum d_j (hat g(r_j) + hat g(-r_j)),  r_j = sqrt(mu_j - 1/4),
    over the (mu_j, d_j) of laplace, mu = 0 included.

    Distributional equality is claimed only over the windowed support; any
    test-function mass outside (0, cutoff) is recorded in the report as
    support_leakage rather than raised.
    """
    leak = g.mass_outside(0.0, ls.cutoff)
    ident, orbit = _geometric_side(ls, g)
    geometric = ident + orbit
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
    `values`, (name, value) pairs."""
    for name, val in values:
        if not math.isfinite(val):
            raise AccuracyError(f"{where}: {name} is {float(val)!r}, not finite")


def heat_pair(ls, s):
    """Heat-trace estimate sum_j e^{-s mu_j} from the geometric side.

    Pairs the identity with the even heat Gaussian g(t) =
    e^{-s/4} e^{-t^2/(4s)} / (2 sqrt(pi s)), whose transform is
    e^{-s (r^2 + 1/4)}.  With an even test function the symmetrized pairing
    G = g + g(-.) doubles both g-hat and the orbit samples, and the
    spectral side is twice the heat trace: the estimate is half the
    identity term plus the orbit sum of g.
    """
    if s <= 0:
        raise DomainError("heat_pair: s must be > 0")
    amp = math.exp(-s / 4.0) / (2.0 * math.sqrt(math.pi * s))
    ident, orbit = _geometric_side(ls, GaussianTestFn(0.0, math.sqrt(2.0 * s), amp))
    estimate = 0.5 * ident + orbit
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
