"""A desk-scale Selberg wave-trace harness.

The geometric side is driven by a Fuchsian length-spectrum enumerator.
Conjugacy classes are counted exactly at desk scale: group elements are
enumerated as exact matrices inside a displacement ball (breadth-first
over words, deduplicated up to sign), and each class's closed geodesic is
walked through the fundamental octagon (Bowen & Series, Publ. IHES 50,
1979), which keys the class and gives its primitive length.  Orientation
convention: a class and its inverse count separately unless conjugate.
"""

import functools
import itertools
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (AccuracyError, ConsistencyError, ConstructionError,
                     DomainError, check_finite)

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


def _ball(group, max_cosh):
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
        levels.append(np.concatenate(fresh))
    return np.concatenate(levels)


# Frontier matrices multiplied per chunk of a ball level; each chunk forms,
# norms and keys KEY_BLOCK * 8 products as one stack.  On a 2-core x86-64
# host (numpy 2.4) the default selberg run's peak RSS rose with the chunk
# (32.5 MiB at 32 and 128, 33.3 at 1024), while the L = 8 spectrum's time
# did not tell the chunks apart.
KEY_BLOCK = 128

# An axis meets the octagon's interior in a segment of at least _SEG_FLOOR
# or not at all; one through a vertex only rounds to within _SEG_ZERO of 0
# (at L = 8: least positive segment 0.163, largest zero one 4.6e-14).
_SEG_ZERO, _SEG_FLOOR = 1e-9, 1e-3


def _disk(stack):
    """(alpha, conj beta) of the disk forms [[alpha, beta], [conj beta, conj
    alpha]] of a (n, 16) stack, conjugated by z -> (z - i) / (z + i)."""
    x, y, z, w = np.moveaxis(stack.reshape(-1, 4, 4) @ _BASIS, 1, 0)
    return (x + w + 1j * (y - z)) / 2.0, (x - w + 1j * (y + z)) / 2.0


def _octagon(gens):
    """(conj u, c): the Dirichlet octagon F about 0 is {x : Re(x conj u_l) <=
    c_l} in the Klein disk, for a_l(0) = c_l u_l over the letters a_l of
    _maps; across side l lies a_l F (README, class walk)."""
    alpha, beta_bar = _disk(np.concatenate([gens, _inv(gens)]))
    at0_bar = beta_bar / alpha
    return at0_bar / np.abs(at0_bar), np.abs(at0_bar)


def _chords(stack):
    """(tail, span): the Klein chord tail + s span, 0 <= s <= 1, of each axis
    of a (n, 16) hyperbolic stack, from its repelling fixed point to its
    attracting one, where |conj beta w + conj alpha| > 1."""
    alpha, beta_bar = _disk(stack)
    one, other = (1j * alpha.imag + [[1.0], [-1.0]]
                  * np.sqrt(alpha.real ** 2 - 1.0)) / beta_bar
    swap = np.abs(beta_bar * one + np.conj(alpha)) <= 1.0
    tail = np.where(swap, one, other)
    return tail, np.where(swap, other, one) - tail


def _clip(tail, span, octagon):
    """(segment, exit) of each chord: the length 1/2 ln(s1 (1 - s0) / (s0 (1 -
    s1))) of its part in F, s0 and s1 the parameters where it enters and
    leaves F, and the letter of the side it leaves by.  Negative for a
    chord that misses F, -inf when it runs parallel to a side outside F;
    ConsistencyError in (_SEG_ZERO, _SEG_FLOOR)."""
    conj_u, c = octagon
    room = c - (tail[:, None] * conj_u).real
    slope = (span[:, None] * conj_u).real
    with np.errstate(divide="ignore", invalid="ignore"):
        meet = room / slope
        # slope 0: no bound inside the side's half-plane, empty outside it
        s0 = np.where(slope < 0.0, meet, np.where(room < 0.0, 1.0, 0.0))
        leave = np.where(slope > 0.0, meet, 1.0)
        s0, s1 = s0.max(axis=1), leave.min(axis=1)
        seg = np.where((s0 < 1.0) & (s1 > 0.0),
                       0.5 * np.log(s1 * (1.0 - s0) / (s0 * (1.0 - s1))), -np.inf)
    gap = seg[(seg > _SEG_ZERO) & (seg < _SEG_FLOOR)]
    if len(gap):
        raise ConsistencyError(
            f"class walk: an axis meets the octagon in a segment of "
            f"{float(gap[0])!r}, between {_SEG_ZERO:g} and {_SEG_FLOOR:g}")
    return seg, leave.argmin(axis=1)


def _side_classes(group, l_max):
    """(keys, {class key: (ell, m)}) of the m-th powers, ell <= l_max, of the
    16 elements whose axes are F's side lines: the cyclic three-letter
    subwords of the relator and their inverses.  Each has one letter
    conjugate among them, the other of its class (README, class walk); a
    class is keyed by the lesser key of its two."""
    inv = _inv(group.exact)
    word = np.array([group.exact[i] if s > 0 else inv[i] for i, s in group.relator])
    side = _mul(_mul(word, np.roll(word, -1, axis=0)), np.roll(word, -2, axis=0))
    side = np.concatenate([side, _inv(side)])
    index = {key: i for i, key in enumerate(_psl_keys(side))}
    conj = (side @ _maps(group.exact, conjugate=True)).astype(np.int64)
    pairs = [(j // len(word), index[k])
             for j, k in enumerate(_psl_keys(conj.reshape(-1, 16))) if k in index]
    if ([i for i, _ in pairs] != list(range(len(side)))
            or set(pairs) != {(j, i) for i, j in pairs}):
        raise ConsistencyError(f"side lines: letter conjugates {pairs} do not "
                               f"pair the {len(side)} side-line elements")
    keys, found, power = set(), {}, side
    for m in itertools.count(1):
        ell, power_keys = _lengths(power), _psl_keys(power)
        if min(ell) > l_max:
            return keys, found
        keys.update(power_keys)
        found.update({min(power_keys[i], power_keys[j]): (ell[i], m)
                      for i, j in pairs if ell[i] <= l_max})
        power = _mul(power, side)


def _walk(group, stack, ells, l_max):
    """{class key: (ell, m)} of the elements of a (n, 16) stack, of lengths
    ells, whose axes cross F's interior: each is gamma_0^m, gamma_0
    primitive (README, class walk).

    From each, a walker steps gamma <- h^-1 gamma h by the letter h of the
    side its axis leaves F by, onto the next piece of the same closed
    geodesic, until its own key comes back: the segments then sum to ell /
    m.  The class key is the least key among the walk's elements with a
    positive segment.  ConsistencyError when an axis misses F (a wrong
    exit), a walk does not close within the step cap, or ell / sum is not
    an integer."""
    maps, octagon = _maps(group.exact, conjugate=True), _octagon(group.exact)
    cross = _clip(*_chords(stack), octagon)[0] >= _SEG_FLOOR
    now, ells = stack[cross], np.asarray(ells)[cross]
    # each positive step may be followed by 3 zero-length ones, at a vertex
    cap = 4 * math.ceil(l_max / _SEG_FLOOR)
    home = _psl_keys(now)
    best, total, rows = list(home), np.zeros(len(now)), np.arange(len(now))
    for _ in range(cap):
        seg, exit_ = _clip(*_chords(now), octagon)
        if not (seg >= -_SEG_ZERO).all():
            raise ConsistencyError(f"class walk: an axis misses the octagon "
                                   f"(segment {float(seg.min())!r}) after a "
                                   "wrong exit")
        pos = seg >= _SEG_FLOOR
        total[rows[pos]] += seg[pos]
        for i, key in zip(rows[pos], itertools.compress(_psl_keys(now), pos)):
            best[i] = min(best[i], key)
        for h in range(maps.shape[1] // 16):
            now[exit_ == h] = now[exit_ == h] @ maps[:, 16 * h:16 * h + 16]
        open_ = [key != home[i] for i, key in zip(rows, _psl_keys(now))]
        rows, now = rows[open_], now[open_]
        if not len(rows):
            break
    else:
        raise ConsistencyError(f"class walk: {len(rows)} walks did not close "
                               f"within {cap} steps")
    ratio = ells / total
    if (off := np.abs(ratio - np.rint(ratio)) > 1e-9).any():
        raise ConsistencyError(f"class walk: a length over its walk's segment "
                               f"sum is {float(ratio[off][0])!r}, not an integer")
    return {key: (x, int(m))
            for key, x, m in zip(best, ells.tolist(), np.rint(ratio))}


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


# cosh r = cot(pi/8) for the inradius r of the Bolza octagon (its
# circumradius has cosh R = (1 + sqrt 2)^2).  The open r-disks about the 8
# centres around a vertex are tangent in a ring at the side midpoints, so
# a closed geodesic enters one of them or is a side line, at distance r
# (inside the ball's 1e-9 slack): each class has a member g with its axis
# within r of i, and cosh(d(i, g i)/2) <= cosh(ell/2) cosh r.
_OCT_COSH_R = 1.0 + _SQRT2


def _lengths(stack):
    """2 acosh(|tr| / 2) of the exact traces tr = x + w of a (n, 16) stack,
    in Z[sqrt2] on the Bolza group (README, class walk), each rounded once,
    as a list; inf for the identity (trace 2)."""
    tr = stack[:, :4] + stack[:, 12:]
    if tr[:, 2:].any():
        raise DomainError("length_spectrum: a trace is not in Z[sqrt2]")
    return [2.0 * math.acosh(t / 2.0) if t > 2.0 else math.inf
            for t in np.abs(tr[:, 0] + tr[:, 1] * _SQRT2).tolist()]


def length_spectrum(group, l_max):
    """Oriented primitive conjugacy classes with length <= l_max.

    Enumerates the matrix ball that is guaranteed to hold a member of every
    class with ell <= l_max whose axis crosses the interior of F, keys each
    such class by walking its closed geodesic (_walk), which also tells
    what power of a primitive class it is, and adds the side-line classes
    (_side_classes).  Lengths are 2 acosh(|tr| / 2) of the exact traces tr,
    rounded once, and bucketed by them.
    """
    check_finite("length_spectrum", l_max=l_max)
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * _OCT_COSH_R)
    exact = _ball(group, math.cosh(disp) * (1.0 + 1e-9))
    skip, found = _side_classes(group, l_max)
    ell = _lengths(exact)
    inner = [x <= l_max and key not in skip
             for x, key in zip(ell, _psl_keys(exact))]
    found.update(_walk(group, exact[inner], np.array(ell)[inner], l_max))
    prim = [x for x, m in found.values() if m == 1]
    return LengthSpectrum([(x, prim.count(x)) for x in sorted(set(prim))],
                          l_max, {key: x for key, (x, _) in found.items()})


@dataclass(frozen=True)
class GaussianTestFn:
    """amplitude * exp(-(t-center)^2 / (2 sigma^2)); even extension when needed."""

    center: float
    sigma: float
    amplitude: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError("GaussianTestFn: sigma must be > 0")
        check_finite("GaussianTestFn", center=self.center, sigma=self.sigma,
                     amplitude=self.amplitude)

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
_IDENTITY_MAX_NODES = 1 << 20
# ln of the largest double, less 6 >= ln(2 sigma sqrt(2 pi)) for every
# sigma the envelope admits (sigma < sqrt(8 * 709.8) < 80).
_LOG_ROOM = math.log(sys.float_info.max) - 6.0
# The Bolza systole, 2 acosh(1 + sqrt 2): the least cutoff of a run.
SYSTOLE = 2.0 * math.acosh(1.0 + _SQRT2)


def _sigma_range(center):
    """The sigma envelope [lo, hi] of a Gaussian of this center.

    lo: two trapezoid levels of the identity term agree to its 1e-14
    (about e^{-32}) only once the coarser step 2h aliases neither the
    centre's oscillation, of frequency |center|, nor the tanh poles at
    distance 1/2: pi / h >= |center| + 64.  With h = 8 / (sigma n) below
    sigma = 0.2 and at most 2^20 nodes, sigma >= 8 (|center| + 64) /
    (pi 2^20).  hi: the spectral term of the constant eigenfunction,
    hat g(i/2) + hat g(-i/2) <= 2 sigma sqrt(2 pi) e^{sigma^2/8 + |center|/2},
    stays finite while sigma^2/8 + |center|/2 <= _LOG_ROOM.
    """
    lo = 8.0 * (abs(center) + 64.0) / (math.pi * _IDENTITY_MAX_NODES)
    return lo, math.sqrt(8.0 * max(_LOG_ROOM - abs(center) / 2.0, 0.0))


def check_envelope(lmax, center, sigma):
    """DomainError, whose value names the parameter at fault, unless
    |center| <= 2 _LOG_ROOM, sigma lies in _sigma_range(center) and SYSTOLE
    <= lmax <= 8 (desk scale), checked in that order."""
    if not abs(center) <= 2.0 * _LOG_ROOM:
        raise DomainError(f"expected |center| <= {2.0 * _LOG_ROOM!r}, where "
                          "the spectral term stays finite", "center")
    lo, hi = _sigma_range(center)
    if not lo <= sigma <= hi:
        raise DomainError(
            f"expected a number in [{lo!r}, {hi!r}] at --center {center!r} "
            "(low end 8 (|center| + 64) / (pi 2^20), from the identity "
            "term's 2^20-node cap; high end sqrt(8 (ln DBL_MAX - 6 - "
            "|center|/2)), where the spectral term stays finite)", "sigma")
    if lmax > 8.0:
        raise DomainError("expected a number <= 8 (desk scale)", "lmax")
    if not lmax >= SYSTOLE:
        raise DomainError(f"expected a number >= the systole {SYSTOLE!r}",
                          "lmax")


@functools.lru_cache(maxsize=16)
def identity_term(g):
    """|chi| * int hat g(r) r tanh(pi r) dr over the real line; cached, as
    a selberg run checks one (frozen) g up front, then pairs it per cutoff.

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
    if not s > 0:
        raise DomainError("heat_pair: s must be > 0")
    check_finite("heat_pair", s=s)
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
