"""Global resonance bookkeeping over an ingested Laplace spectrum.

Assembles the full resonance list (spherical branches per eigenvalue,
threshold Jordan pairs, discrete-series integers with Riemann-Roch
multiplicities, the trivial zero), the block semigroup of the propagator,
the elementary resolvent bound, and the global spectral trace in its
pre- and post-Riemann-Roch closed forms.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .discrete import rr_multiplicity
from .errors import ConsistencyError, DomainError

_THRESHOLD_TOL = 1e-12


# `np.loadtxt` row type of a Laplace file body
_LAPLACE_ROW = [("mu", float), ("mult", np.int64)]


@dataclass(eq=False)
class LaplaceSpectrum:
    """Positive Laplace eigenvalues mu with multiplicities on a genus-g surface.

    `mu` (float) and `mult` (int64) are equal-length 1-D arrays, copied,
    validated once at construction and then made read-only; `entries`
    lists their (mu, multiplicity) pairs afresh on each access.
    """

    mu: np.ndarray
    mult: np.ndarray
    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise DomainError("LaplaceSpectrum: genus must be >= 2")
        self.mu = np.array(self.mu, dtype=float)
        self.mult = np.array(self.mult, dtype=np.int64)
        if self.mu.ndim != 1 or self.mu.shape != self.mult.shape:
            raise DomainError("LaplaceSpectrum: mu and mult must be 1-D, of one length")
        if not np.all(np.isfinite(self.mu)):
            raise DomainError("LaplaceSpectrum: eigenvalues must be finite")
        if np.any(self.mu <= 0):
            raise DomainError("LaplaceSpectrum: eigenvalues must be > 0")
        if np.any(self.mu[1:] <= self.mu[:-1]):
            raise DomainError("LaplaceSpectrum: eigenvalues must be strictly increasing")
        if not np.all(self.mult >= 1):
            raise DomainError("LaplaceSpectrum: multiplicities must be >= 1")
        self.mu.flags.writeable = self.mult.flags.writeable = False

    @property
    def entries(self):
        return list(zip(self.mu.tolist(), self.mult.tolist()))

    @classmethod
    def from_csv(cls, path, genus):
        """Read a `mu,multiplicity` CSV; blank lines are skipped.

        Every other row must have exactly two fields, a float and an int,
        parsed by one `np.loadtxt` call.  ConsistencyError unless
        count(mu <= R^2 + 1/4) / ((g-1) R^2) is in [0.2, 5] at the top R.
        """
        with open(path, encoding="utf-8") as fh:
            if [f.strip() for f in fh.readline().split(",")] != \
                    ["mu", "multiplicity"]:
                raise DomainError(
                    f"laplace file {path}: header must be 'mu,multiplicity'")
            body = fh.tell()
            # np.loadtxt warns on a body of blank lines; such a body is empty
            rows = np.empty(0, dtype=_LAPLACE_ROW)
            if any(line != "\n" for line in fh):
                fh.seek(body)
                try:
                    rows = np.loadtxt(fh, delimiter=",", comments=None,
                                      ndmin=1, dtype=_LAPLACE_ROW)
                except ValueError as exc:
                    fh.seek(body)
                    raise DomainError(
                        f"laplace file {path}, {_bad_row(fh, exc)}") from exc
        spec = cls(rows["mu"], rows["mult"], genus)
        if spec.mu.size:
            r2 = max(float(spec.mu[-1]) - 0.25, 1e-12)
            ratio = float(spec.mult[spec.mu <= r2 + 0.25].sum()) / ((genus - 1) * r2)
            if not 0.2 <= ratio <= 5.0:
                raise ConsistencyError(f"laplace file {path}: Weyl sanity "
                                       f"ratio {ratio:.3g} outside [0.2, 5]")
        return spec


def _bad_row(lines, exc):
    """'line N: why' for the first Laplace row in `lines` (from line 2)
    that np.loadtxt rejects alone; else `exc`, its error on them all."""
    for num, line in enumerate(lines, start=2):
        if line == "\n":
            continue
        fields = line.rstrip("\n").split(",")
        if len(fields) != 2:
            return f"line {num}: expected 2 fields, got {len(fields)}"
        try:
            np.loadtxt([line], delimiter=",", comments=None, dtype=_LAPLACE_ROW)
        except ValueError:
            return (f"line {num}: invalid literal for a float and an int64: "
                    f"{','.join(fields)!r}")
    return str(exc)


@dataclass
class ResonanceSpectrum:
    """Entries (value, multiplicity, jordan_size) sorted by decreasing Re."""

    entries: list = field(default_factory=list)

    def __post_init__(self):
        for z, mult, jsize in self.entries:
            if complex(z).real > 1e-12:
                raise DomainError("ResonanceSpectrum: resonances must have Re <= 0")
            if jsize not in (1, 2):
                raise DomainError("ResonanceSpectrum: jordan_size must be 1 or 2")
            if mult < 1:
                raise DomainError("ResonanceSpectrum: multiplicity must be >= 1")

    def values(self):
        return np.array([z for z, _, _ in self.entries])

    def jordan_values(self):
        return np.array([z for z, _, j in self.entries if j == 2])


def sqrt_shifted(mu):
    """sqrt(mu - 1/4) with the upper-branch convention i sqrt(1/4 - mu)."""
    if mu >= 0.25:
        return complex(math.sqrt(mu - 0.25))
    return 1j * math.sqrt(0.25 - mu)


def enumerate_resonances(spec, n_max, q_max):
    """Full resonance list from a Laplace spectrum plus Riemann-Roch data.

    Spherical: z = -n - 1/2 +- i sqrt(mu - 1/4) per eigenvalue (threshold
    eigenvalues emit one entry with jordan_size 2).  Discrete: z = -j with
    multiplicity sum of 2 m_{2q} over q <= min(j, q_max), n = j - q <= n_max.
    The trivial representation contributes {0}.  Coinciding values are
    merged with summed multiplicities.
    """
    if n_max < 1 or q_max < 1:
        raise DomainError("enumerate_resonances: n_max, q_max must be >= 1")
    acc = {}

    def add(z, mult, jsize):
        key = (round(z.real, 12), round(z.imag, 12), jsize)
        if key in acc:
            acc[key] = (acc[key][0], acc[key][1] + mult, jsize)
        else:
            acc[key] = (complex(key[0], key[1]), mult, jsize)

    add(0.0 + 0.0j, 1, 1)
    for mu, d in spec.entries:
        for n in range(n_max + 1):
            base = -n - 0.5
            if abs(mu - 0.25) <= _THRESHOLD_TOL:
                add(complex(base), d, 2)
            else:
                r = sqrt_shifted(mu)
                add(base + 1j * r, d, 1)
                add(base - 1j * r, d, 1)
    for j in range(1, n_max + q_max + 1):
        mult = 0
        for q in range(1, min(j, q_max) + 1):
            if j - q <= n_max:
                mult += 2 * rr_multiplicity(spec.genus, 2 * q)
        if mult:
            add(complex(-j), mult, 1)
    entries = sorted(acc.values(), key=lambda e: (-e[0].real, e[0].imag))
    return ResonanceSpectrum(entries)


def _spherical_sum(spec, t):
    # sum_j d_j cos(t sqrt(mu_j - 1/4)), added left to right in entry order
    # (np.cumsum, not the pairwise np.sum) so it is bit-identical to a
    # scalar loop.  mu increases, so the complementary entries (mu < 1/4,
    # where cos(t sqrt(mu - 1/4)) = cosh(t sqrt(1/4 - mu))) are a prefix;
    # they go through math.cosh one by one, because np.cosh differs from
    # libm in the last bit.
    mu, mult = spec.mu, spec.mult
    if mu.size == 0:
        return 0.0
    k = int(np.searchsorted(mu, 0.25))
    terms = np.empty(mu.size)
    terms[:k] = [d * math.cosh(t * math.sqrt(0.25 - m))
                 for m, d in zip(mu[:k].tolist(), mult[:k].tolist())]
    terms[k:] = mult[k:] * np.cos(t * np.sqrt(mu[k:] - 0.25))
    return float(np.cumsum(terms)[-1])


def global_trace(spec, t, q_max=200):
    """Global spectral trace of the propagator at time t > 0, as the pair
    (pre_rr, post_rr) of its two closed forms over one spherical sum.

    pre_rr sums the discrete multiplicities explicitly to q_max; post_rr
    uses the closed form with the |Euler characteristic| term.  The two
    agree up to the geometric q_max tail.
    """
    if not t > 0:
        raise DomainError(f"global_trace: t must be > 0, got {t}")
    x = math.exp(-t)
    base = 1.0 + 2.0 * math.exp(-t / 2.0) / (1.0 - x) * _spherical_sum(spec, t)
    ds = 0.0  # sum over q <= q_max of m_{2q} e^{-t q}
    for q in range(1, q_max + 1):
        ds += rr_multiplicity(spec.genus, 2 * q) * x ** q
    chi = abs(2 - 2 * spec.genus)
    return (base + 2.0 / (1.0 - x) * ds,
            base + 2.0 * x / (1.0 - x) + chi * x * (1.0 + x) / (1.0 - x) ** 3)


def block_semigroup(spec, t, n_max, q_list=(1, 2)):
    """Blockwise propagator: wave 2x2 blocks, threshold Jordan, discrete scalars.

    Returns a dict keyed by ('sph', mu) -> (n_max+1, 2, 2) complex blocks,
    ('thr',) -> the same shape when mu = 1/4 is present, and ('ds', q) ->
    (n_max+1,) scalars exp(-t(n + 1/2 + Lambda)) with Lambda = q - 1/2.
    Every block carries the oscillator factor exp(-t(n+1/2)).
    """
    if t < 0:
        raise DomainError("block_semigroup: t must be >= 0")
    n = np.arange(n_max + 1)
    osc = np.exp(-t * (n + 0.5))
    out = {}
    for mu, _ in spec.entries:
        if abs(mu - 0.25) <= _THRESHOLD_TOL:
            blk = np.zeros((n_max + 1, 2, 2), dtype=complex)
            blk[:, 0, 0] = osc
            blk[:, 1, 1] = osc
            blk[:, 0, 1] = t * osc
            out[("thr",)] = blk
        else:
            r = sqrt_shifted(mu)
            blk = np.zeros((n_max + 1, 2, 2), dtype=complex)
            blk[:, 0, 0] = osc * cmath.exp(1j * t * r)
            blk[:, 1, 1] = osc * cmath.exp(-1j * t * r)
            out[("sph", mu)] = blk
    for q in q_list:
        lam_ds = q - 0.5
        out[("ds", q)] = osc * math.exp(-t * lam_ds)
    return out


def resolvent_bound(z, rs):
    """Elementary resolvent bound 1/dist + (Jordan) 1/dist^2."""
    z = complex(z)
    vals = rs.values()
    if vals.size == 0:
        raise DomainError("resolvent_bound: empty spectrum")
    d = float(np.min(np.abs(vals - z)))
    if d == 0.0:
        raise DomainError(f"resolvent_bound: z = {z} lies in the spectrum")
    bound = 1.0 / d
    jvals = rs.jordan_values()
    if jvals.size:
        dj = float(np.min(np.abs(jvals - z)))
        if dj == 0.0:
            raise DomainError(f"resolvent_bound: z = {z} lies in the Jordan set")
        bound += 1.0 / dj ** 2
    return bound
