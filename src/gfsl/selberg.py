"""Flow trace, tanh identity, and a desk-scale Selberg wave-trace harness.

The geometric side is driven by a Fuchsian length-spectrum enumerator.
Conjugacy classes are counted exactly at desk scale: group elements are
enumerated as matrices inside a displacement ball (breadth-first over
generator letters, matrices deduplicated up to overall sign), and each
hyperbolic element is mapped to its class key, the lexicographically
smallest member of the finite set of minimal-displacement conjugates; two
elements are conjugate iff those sets coincide.  Orientation convention: a
class and its inverse count separately unless actually conjugate.
"""

import csv
import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, BudgetError, ConstructionError, DomainError,
                     SupportError)

_SQRT2 = math.sqrt(2.0)
_KEY_DECIMALS = 7

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


# Energy slack of the class-key search: conjugates whose squared Frobenius
# norm exceeds the running minimum by more than this factor are dropped.
_KEY_SLACK = 40.0


class _ClassKeyer:
    """Canonical conjugacy-class keys via minimal-displacement conjugates.

    The members of a class with the smallest Frobenius norm form a finite,
    class-intrinsic set; a best-first search over generator conjugations
    (allowing a bounded energy slack above the running minimum) finds it
    from any starting member.  Every matrix visited on the way shares the
    class, so keys are memoized for all of them.  The conjugates of a
    visited matrix by all letters are formed, normed and keyed as one
    stack.
    """

    def __init__(self, letters):
        self.letters = np.array(letters)
        self.inv = np.array([np.linalg.inv(a) for a in letters])
        self.cache = {}

    def _conjugates(self, m):
        """a^-1 m a for every letter a, their squared norms and keys."""
        cs = self.inv @ m @ self.letters
        return cs, (cs * cs).sum(axis=(1, 2)).tolist(), _psl_keys(cs)

    def key(self, m, k0=None):
        """Class key of m; k0, when given, is m's own key (_psl_keys)."""
        if k0 is None:
            k0 = _psl_keys(m)[0]
        hit = self.cache.get(k0)
        if hit is not None:
            return hit
        best = (m * m).sum().item()
        nodes = {k0: (best, m)}
        heap = [(best, k0)]
        while heap:
            f, kk = heapq.heappop(heap)
            if f > best * _KEY_SLACK:
                continue
            cs, norms, keys = self._conjugates(nodes[kk][1])
            for c, fc, ck in zip(cs, norms, keys):
                if ck in nodes:
                    continue
                known = self.cache.get(ck)
                if known is not None:
                    # everything visited so far shares this class
                    for seen_key in nodes:
                        self.cache[seen_key] = known
                    return known
                if fc > best * _KEY_SLACK:
                    continue
                nodes[ck] = (fc, c)
                heapq.heappush(heap, (fc, ck))
                if fc < best:
                    best = fc
        ckey = min(kk for kk, (fc, _) in nodes.items()
                   if fc <= best * (1.0 + 1e-9))
        for kk in nodes:
            self.cache[kk] = ckey
        return ckey


@dataclass
class LengthSpectrum:
    """Primitive closed-geodesic lengths with class multiplicities."""

    primitives: list
    cutoff: float
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

    @classmethod
    def from_csv(cls, path, cutoff=None):
        """Read a `length,multiplicity,is_primitive` CSV (as to_csv writes).

        Blank lines are skipped.  Every other row must have exactly three
        fields: a finite float, an int and 0 or 1; anything else raises
        DomainError naming the file and the line.
        """
        prims = []
        top = 0.0
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["length", "multiplicity", "is_primitive"]:
                raise DomainError(f"length file {path}: bad header {header!r}")
            for row in reader:
                if not row:
                    continue
                where = f"length file {path}, line {reader.line_num}"
                if len(row) != 3:
                    raise DomainError(
                        f"{where}: expected 3 fields, got {len(row)}")
                try:
                    ell, mult = float(row[0]), int(row[1])
                except ValueError as exc:
                    raise DomainError(f"{where}: {exc}") from exc
                if not math.isfinite(ell):
                    raise DomainError(f"{where}: length must be finite")
                if row[2] not in ("0", "1"):
                    raise DomainError(
                        f"{where}: is_primitive must be 0 or 1, got {row[2]!r}")
                top = max(top, ell)
                if row[2] == "1":
                    prims.append((ell, mult))
        return cls(prims, cutoff if cutoff is not None else top)


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


def length_spectrum(group, l_max, element_budget=2_000_000):
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
    mats = _ball(letters, math.cosh(disp) * (1.0 + 1e-9), element_budget)
    keyer = _ClassKeyer(letters)
    hyperbolic = []
    for m in mats:
        tr = abs(m[0, 0] + m[1, 1])
        if tr <= 2.0 + 1e-12:
            continue
        ell = 2.0 * math.asinh(math.sqrt((tr - 2.0) * (tr + 2.0)) / 2.0) \
            if tr < 2.5 else 2.0 * math.acosh(tr / 2.0)
        if ell <= l_max + 1e-9:
            hyperbolic.append((m, tr, ell))
    classes = {}
    keys = _psl_keys(np.array([h[0] for h in hyperbolic]))
    for (m, tr, ell), k0 in zip(hyperbolic, keys):
        ck = keyer.key(m, k0)
        if ck not in classes:
            classes[ck] = (ell, m, _trace_pair(float(tr)))
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
        for ck, (ell, m, pair) in classes.items():
            mm = 2
            while primitive[ck] and ell / mm >= min_len - 1e-9:
                for rk in by_pair.get(root_pair.get((mm, pair)), ()):
                    root = classes[rk][1]
                    if keyer.key(np.linalg.matrix_power(root, mm)) == ck:
                        primitive[ck] = False
                        break
                mm += 1
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
        return (self.amplitude * self.sigma * math.sqrt(2.0 * math.pi)
                * np.exp(1j * r * self.center - 0.5 * (self.sigma * r) ** 2))

    def mass_outside(self, lo, hi):
        """Relative mass of |g| outside [lo, hi]."""
        z_lo = (lo - self.center) / (self.sigma * _SQRT2)
        z_hi = (hi - self.center) / (self.sigma * _SQRT2)
        inside = 0.5 * (math.erf(z_hi) - math.erf(z_lo))
        return max(0.0, 1.0 - inside)


def flow_trace_geometric(ls, g, check_support=True):
    """Orbit side of the flow trace paired with g: sum of
    ell * mult * g(m ell) / (4 sinh^2(m ell / 2)) over periods <= cutoff."""
    if check_support and g.mass_outside(0.0, ls.cutoff) > 1e-12:
        raise SupportError(
            "flow_trace_geometric: test function leaks past the cutoff "
            f"(relative mass {g.mass_outside(0.0, ls.cutoff):.3e})")
    total = 0.0
    for period, mult, m, ell in ls.orbits():
        total += ell * mult * float(g(period)) / (4.0 * math.sinh(period / 2.0) ** 2)
    return total


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

    def to_json(self):
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
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def wave_trace_pair(ls, g, laplace=None, genus=2):
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
    chi_abs = 2 * genus - 2
    ident = _identity_term(g, chi_abs)
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
            spectral += d * (g.fourier(r) + g.fourier(-r)).real
        disc = spectral - geometric
    return SelbergReport(geometric, ident, orbit, ls.cutoff, leak,
                         spectral, disc)


def heat_pair(ls, s, genus=2):
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
    chi_abs = 2 * genus - 2
    ident = _identity_term(g, chi_abs)
    orbit = 0.0
    for period, mult, m, ell in ls.orbits():
        orbit += ell * mult * float(g(period)) / math.sinh(period / 2.0)
    return 0.5 * (ident + orbit)


def weyl_consistency(ls, s_grid=(0.05, 0.1, 0.2), genus=2, rtol=0.15):
    """Small-s heat consistency: estimate/(g-1) * s must stay within rtol of 1."""
    rows = []
    ok = True
    for s in s_grid:
        est = heat_pair(ls, s, genus=genus)
        lead = (genus - 1) / s
        ratio = est / lead
        ok = ok and abs(ratio - 1.0) <= rtol
        rows.append({"s": s, "estimate": est, "leading": lead, "ratio": ratio})
    return {"ok": ok, "rows": rows}
