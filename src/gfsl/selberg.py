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

import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetError, ConstructionError, DomainError, SupportError)

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


def _psl_key(m):
    flat = m.reshape(-1)
    for x in flat:
        if abs(x) > 1e-8:
            if x < 0:
                m = -m
            break
    return tuple(np.round(m.reshape(-1), _KEY_DECIMALS))


def _frob(m):
    return float((m * m).sum())


def _ball(letters, max_cosh, budget):
    """All group elements with cosh d(i, g i) = ||g||_F^2 / 2 <= max_cosh."""
    eye = np.eye(2)
    seen = {_psl_key(eye)}
    mats = [eye]
    frontier = np.array([eye])
    larr = np.array(letters)
    while len(frontier):
        prod = np.einsum("fij,ljk->flik", frontier, larr).reshape(-1, 2, 2)
        fr = (prod ** 2).sum(axis=(1, 2)) / 2.0
        keep = prod[fr <= max_cosh]
        fresh = []
        for m in keep:
            key = _psl_key(m)
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


class _ClassKeyer:
    """Canonical conjugacy-class keys via minimal-displacement conjugates.

    The members of a class with the smallest Frobenius norm form a finite,
    class-intrinsic set; a best-first search over generator conjugations
    (allowing a bounded energy slack above the running minimum) finds it
    from any starting member.  Every matrix visited on the way shares the
    class, so keys are memoized for all of them.
    """

    def __init__(self, letters, slack=40.0):
        self.letters = letters
        self.inv = [np.linalg.inv(a) for a in letters]
        self.slack = slack
        self.cache = {}

    def key(self, m):
        k0 = _psl_key(m)
        hit = self.cache.get(k0)
        if hit is not None:
            return hit
        best = _frob(m)
        nodes = {k0: m}
        heap = [(best, k0)]
        while heap:
            f, kk = heapq.heappop(heap)
            if f > best * self.slack:
                continue
            mm = nodes[kk]
            for a, ai in zip(self.letters, self.inv):
                c = ai @ mm @ a
                ck = _psl_key(c)
                if ck in nodes:
                    continue
                known = self.cache.get(ck)
                if known is not None:
                    # everything visited so far shares this class
                    for seen_key in nodes:
                        self.cache[seen_key] = known
                    return known
                fc = _frob(c)
                if fc > best * self.slack:
                    continue
                nodes[ck] = c
                heapq.heappush(heap, (fc, ck))
                if fc < best:
                    best = fc
        members = [kk for kk, mm in nodes.items()
                   if _frob(mm) <= best * (1.0 + 1e-9)]
        ckey = min(members)
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

    def orbits(self, cutoff=None):
        """(period, multiplicity, m, primitive_length) over iterates m >= 1."""
        top = self.cutoff if cutoff is None else min(cutoff, self.cutoff)
        out = []
        for ell, mult in self.primitives:
            m = 1
            while m * ell <= top + 1e-12:
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
        prims = []
        top = 0.0
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "length,multiplicity,is_primitive":
                raise DomainError(f"length file {path}: bad header {header!r}")
            for line in fh:
                ell_s, mult_s, prim_s = line.strip().split(",")
                top = max(top, float(ell_s))
                if prim_s == "1":
                    prims.append((float(ell_s), int(mult_s)))
        return cls(prims, cutoff if cutoff is not None else top)


# Circumradius of the Bolza Dirichlet octagon: every geodesic meets a
# translate of the fundamental domain, so each class has a member with
# cosh(d(i, g i)/2) <= cosh(ell/2) * (1 + sqrt(2)).
_OCT_COSH_R = 1.0 + _SQRT2


def length_spectrum(group, l_max, element_budget=2_000_000):
    """Oriented primitive conjugacy classes with length <= l_max.

    Enumerates the matrix ball that is guaranteed to contain a
    minimal-displacement member of every class with ell <= l_max,
    canonicalizes every hyperbolic candidate to its class key, and splits
    primitives from proper powers by root search along equal axes.
    """
    if l_max > 8.0:
        raise DomainError("length_spectrum: desk scale stops at L_max = 8")
    letters = group.letters()
    disp = 2.0 * math.acosh(math.cosh(l_max / 2.0) * _OCT_COSH_R)
    mats = _ball(letters, math.cosh(disp) * (1.0 + 1e-9), element_budget)
    keyer = _ClassKeyer(letters)
    classes = {}
    for m in mats:
        tr = abs(m[0, 0] + m[1, 1])
        if tr <= 2.0 + 1e-12:
            continue
        ell = 2.0 * math.asinh(math.sqrt((tr - 2.0) * (tr + 2.0)) / 2.0) \
            if tr < 2.5 else 2.0 * math.acosh(tr / 2.0)
        if ell > l_max + 1e-9:
            continue
        ck = keyer.key(m)
        if ck not in classes:
            classes[ck] = (ell, m)
    # mark proper powers: a class is an m-th iterate iff some class at
    # ell/m has an m-th power conjugate to it
    by_len = {}
    for ck, (ell, m) in classes.items():
        by_len.setdefault(round(ell, 9), []).append(ck)
    primitive = {ck: True for ck in classes}
    if classes:
        min_len = min(v[0] for v in classes.values())
        for ck, (ell, m) in classes.items():
            mm = 2
            while primitive[ck] and ell / mm >= min_len - 1e-9:
                for rk in by_len.get(round(ell / mm, 9), ()):
                    root = classes[rk][1]
                    if keyer.key(np.linalg.matrix_power(root, mm)) == ck:
                        primitive[ck] = False
                        break
                mm += 1
    buckets = {}
    for ck, (ell, m) in classes.items():
        if primitive[ck]:
            buckets.setdefault(round(ell, 9), []).append(ell)
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
        """hat g(r) = int g(t) e^{i r t} dt; entire, safe at imaginary r."""
        r = complex(r)
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
    closed = -0.5 * math.cosh(t / 2.0) / math.sinh(t / 2.0) ** 2
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


def _identity_term(g, chi_abs):
    # |chi| * int hat g(r) r tanh(pi r) dr; even real integrand.  scipy is
    # imported here, not at module top, so runs that never integrate this
    # term do not pay for loading it.
    from scipy.integrate import quad

    def integrand(r):
        return (g.fourier(r) * r * math.tanh(math.pi * r)).real

    val, err = quad(integrand, 0.0, max(8.0 / g.sigma, 40.0), limit=400)
    return chi_abs * 2.0 * val


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
