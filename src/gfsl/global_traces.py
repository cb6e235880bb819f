"""Flat-vs-spectral traces, per irreducible and over a Laplace spectrum.

The flat trace of e^{tX} on one spherical irreducible or holomorphic
discrete series against its resonance sum, the tanh Fourier identity,
and the global spectral trace of the propagator over a Laplace spectrum
(eigenvalues with multiplicities), the sum of those traces over the
spherical branches per eigenvalue, the discrete series with Riemann-Roch
multiplicities and the trivial representation, in its pre- and
post-Riemann-Roch closed forms.
"""

import cmath
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConsistencyError, DomainError, check_finite

# `np.loadtxt` row type of a Laplace file body
_LAPLACE_ROW = [("mu", float), ("mult", np.int64)]

# names np.loadtxt (np.lib._datasource) decompresses when given a path
_ZIP_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

# The largest genus whose multiplicities m_4 = 3(g - 1), m_6 - m_4 and
# |2 - 2g|, global_trace's coefficients, are doubles.
GENUS_MAX = int(sys.float_info.max) // 3
# global_trace's rounding scale, relative to its terms' magnitude
_ROUNDING = 16.0 * sys.float_info.epsilon


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
        if not self.genus >= 2:
            raise DomainError("LaplaceSpectrum: genus must be >= 2",
                              self.genus)
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
        # split once for every t of global_trace: the `_split` entries
        # mu < 1/4 come first, `_nu` = sqrt(1/4 - mu), `_r` = sqrt(mu - 1/4)
        self._split = int(np.searchsorted(self.mu, 0.25))
        self._nu = np.sqrt(0.25 - self.mu[:self._split])
        self._r = np.sqrt(self.mu[self._split:] - 0.25)
        for arr in (self.mu, self.mult, self._nu, self._r):
            arr.flags.writeable = False

    # no CLI run reads this; bench/replay.py's _eigenvalues count hook does
    @property
    def entries(self):
        return list(zip(self.mu.tolist(), self.mult.tolist()))

    @classmethod
    def from_csv(cls, path, genus):
        """Read a `mu,multiplicity` CSV; blank lines are skipped.

        Every other row must have exactly two fields, a float and an int,
        parsed by one `np.loadtxt` call: in chunks from the path, joined
        to the working directory unnormalized so no relative name looks
        like a URL numpy would fetch, or line by line from the handle for
        a name numpy would decompress or with no cwd.  ConsistencyError unless
        count / ((g-1) R^2) is in [0.2, 5] at the top R, R^2 + 1/4 the
        largest mu, where the count is the sum of all multiplicities.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                if [f.strip() for f in fh.readline().split(",")] != \
                        ["mu", "multiplicity"]:
                    raise DomainError(
                        f"laplace file {path}: header must be 'mu,multiplicity'")
                body = fh.tell()
                # np.loadtxt warns on a body of blank lines; such a body is empty
                rows = np.empty(0, dtype=_LAPLACE_ROW)
                if any(line != "\n" for line in fh):
                    fh.seek(0)
                    try:
                        src = fh if os.fspath(path).endswith(_ZIP_SUFFIXES) \
                            else os.path.join(os.getcwd(), path)
                    except OSError:  # no working directory
                        src = fh
                    try:
                        rows = np.loadtxt(src, delimiter=",", comments=None,
                                          skiprows=1, encoding="utf-8",
                                          ndmin=1, dtype=_LAPLACE_ROW)
                    except ValueError as exc:
                        fh.seek(body)
                        raise DomainError(
                            f"laplace file {path}, {_bad_row(fh, exc)}") from exc
        except UnicodeDecodeError as exc:
            raise DomainError(
                f"laplace file {path}, {_undecodable_line(path)}") from exc
        except OSError as exc:
            raise DomainError(
                f"laplace file {path}: {exc.strerror or exc}") from exc
        try:
            spec = cls(rows["mu"], rows["mult"], genus)
        except DomainError as exc:
            raise DomainError(f"laplace file {path}: {exc}") from exc
        if spec.mu.size:
            r2 = max(float(spec.mu[-1]) - 0.25, 1e-12)
            ratio = float(spec.mult.sum()) / ((genus - 1) * r2)
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


def _undecodable_line(path):
    """'line N: why' for the first line of `path` that is not UTF-8 (no
    UTF-8 sequence holds a newline byte, so lines decode one by one)."""
    with open(path, "rb") as fh:
        for num, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return (f"line {num}: not UTF-8 text, byte "
                        f"0x{raw[exc.start]:02x} at column {exc.start + 1} "
                        f"({exc.reason})")
    return "not UTF-8 text"


def _ladder_trace(t, p0, c, tol):
    # flat trace p0 e^{-tc} / (1 - e^{-t}) and its resonance sum
    spectral, tail = specfun.geometric_sum(t, p0, 0.0, c, tol)
    flat = p0 * math.exp(-t * c) / -math.expm1(-t)
    return {"flat": flat, "spectral": spectral, "tail_bound": tail}


def trace_spherical(lam, t, tol):
    """Flat trace 2 cos(t lam) e^{-t/2} / (1 - e^{-t}) of exp(tX) on the
    spherical irreducible lam (i nu if complementary: cosh(t nu)) and its
    resonance sum, the ladders e^{-t(n + 1/2 -+ i lam)} of both branches."""
    check_finite("trace_spherical", lam=lam, t=t, tol=tol)
    try:
        p0 = 2.0 * cmath.cos(t * lam).real
    except (OverflowError, ValueError):
        raise DomainError(f"trace_spherical: cos(t lam) overflows at "
                          f"t={t!r}, lam={lam}", value=t) from None
    return _ladder_trace(t, p0, 0.5, tol)


def check_weight(l):
    """DomainError unless l, the lowest K-type of a holomorphic discrete
    series (Casimir value -l(l-2)/4), is even and >= 2."""
    if l < 2 or l % 2:
        raise DomainError(f"discrete series: l = {l} must be even and >= 2")


def trace_ds(l, t, tol):
    """Holomorphic flat trace e^{-tl/2}/(1-e^{-t}) and its resonance sum."""
    check_weight(l)
    check_finite("trace_ds", t=t, tol=tol)
    return _ladder_trace(t, 1.0, l / 2.0, tol)


def rr_multiplicity(genus, l):
    """Multiplicity of the discrete series with lowest K-type l on genus g."""
    if not genus >= 2:
        raise DomainError("rr_multiplicity: genus must be >= 2", genus)
    check_weight(l)
    if l == 2:
        return genus
    return (l - 1) * (genus - 1)


def tanh_transform(t, tol):
    """Both sides of the tanh Fourier identity at t > 0: pole_sum, -2
    sum_k (k + 1/2) e^{-t(k + 1/2)} until its tail, tail_bound, is at most
    tol/2, and closed_form, -cosh(t/2) / (2 sinh^2(t/2))."""
    check_finite("tanh_transform", t=t, tol=tol)
    pole_sum, tail = specfun.geometric_sum(t, -1.0, -2.0, 0.5, tol)
    try:
        closed = -0.5 * math.cosh(t / 2.0) / math.sinh(t / 2.0) ** 2
    except OverflowError:
        raise DomainError(f"tanh_transform: sinh(t/2)^2 overflows at "
                          f"t={t!r}; t must stay below about 711.17") from None
    return {"pole_sum": pole_sum, "closed_form": closed, "tail_bound": tail}


def _spherical_sum(spec, t):
    # sum_j d_j cos(t sqrt(mu_j - 1/4)), added left to right in entry order
    # (np.cumsum, not the pairwise np.sum) so it is bit-identical to a
    # scalar loop.  mu increases, so the complementary entries (mu < 1/4,
    # where cos(t sqrt(mu - 1/4)) = cosh(t sqrt(1/4 - mu))) are a prefix;
    # they go through math.cosh one by one, because np.cosh differs from
    # libm in the last bit.  DomainError naming t, before any numpy
    # warning, when the largest cosh (the first) or phase (the last)
    # overflows, or the cosh terms do with their multiplicities or summed.
    k, nu, r, mult = spec._split, spec._nu, spec._r, spec.mult
    if k:
        try:
            top = math.cosh(t * float(nu[0]))
        except OverflowError:
            top = math.inf
        if top == math.inf:
            raise DomainError(
                f"global_trace: cosh(t sqrt(1/4 - mu)) overflows at t={t!r}, "
                f"mu={float(spec.mu[0])!r}", value=t)
    if r.size and t * float(r[-1]) == math.inf:
        raise DomainError(f"global_trace: t sqrt(mu - 1/4) overflows at "
                          f"t={t!r}, mu={float(spec.mu[-1])!r}", value=t)
    if mult.size == 0:
        return 0.0
    terms = np.empty(mult.size)
    terms[:k] = [d * math.cosh(t * n)
                 for n, d in zip(nu.tolist(), mult[:k].tolist())]
    terms[k:] = mult[k:] * np.cos(t * r)
    with np.errstate(over="ignore"):
        total = float(np.cumsum(terms)[-1])
    if not math.isfinite(total):
        raise DomainError(f"global_trace: d cosh(t sqrt(1/4 - mu)), summed "
                          f"over mu < 1/4, overflows at t={t!r}", value=t)
    return total


def global_trace(spec, t, tol):
    """Global spectral trace of the propagator at time t > 0 as (pre_rr,
    post_rr, tail), its two closed forms over one spherical sum: pre_rr
    sums the Riemann-Roch multiplicities explicitly until its `tail` is
    at most tol/2, post_rr uses the |Euler characteristic|.  They differ
    by the tail and by rounding, at most _ROUNDING times their terms'
    magnitude, ~(g - 1)/t^3: DomainError naming t, the genus and that
    scale when it is above tol/2."""
    if not t > 0:
        raise DomainError(f"global_trace: t must be > 0, got {t}")
    check_finite("global_trace", tol=tol)
    x, gap = math.exp(-t), -math.expm1(-t)
    base = 1.0 + 2.0 * math.exp(-t / 2.0) / gap * _spherical_sum(spec, t)
    head = 2.0 * x / gap
    # divided thrice: gap ** 3 underflows to 0 for t below about 1e-108
    closed = abs(2 - 2 * spec.genus) * x * (1.0 + x) / gap / gap / gap
    scale = _ROUNDING * (abs(base) + head + closed)
    if not scale <= tol / 2.0:
        raise DomainError(f"global_trace: rounding scale {scale:.3g} of the "
                          f"pre/post-RR traces at t={t!r}, genus {spec.genus}"
                          f" is above tol/2 = {tol / 2.0:.3g}", value=t)
    # m_2q = m_4 + (m_6 - m_4)(q - 2); times x^2 they stay below `closed`
    m2, m4, m6 = (rr_multiplicity(spec.genus, l) for l in (2, 4, 6))
    x2 = 2.0 * x * x / gap
    ds, tail = specfun.geometric_sum(t, m4 * x2, (m6 - m4) * x2, 0.0, tol)
    return base + 2.0 * m2 * x / gap + ds, base + head + closed, tail
