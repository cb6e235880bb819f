"""Batch command-line front end.

Subcommands run verification suites and emit CSV/JSON reports:

    gfsl spherical-check  --lambda 0.3,1,5 --nu 0.1,0.3 --n 40 --k 8
    gfsl traces           --t 0.5,1,2 --genus 2 [--laplace-file F]
    gfsl selberg          --lmax 8 [--center 5.5 --sigma 0.5]
    gfsl means            --lambda 1,2,5 --m 8

Exit codes: 0 pass, 1 usage or input error, 2 verification failure,
3 resource budget exceeded.  Reports are byte-deterministic: floats are
written with shortest round-trip repr, keys are sorted, line endings LF.

The library modules are bound here but compiled and run on their first
attribute access (_lazy), so a cold process loads only the modules its
subcommand calls.
"""

import argparse
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from .errors import BudgetError, DomainError, GfslError


def _lazy(name):
    """The module gfsl.<name>, registered in sys.modules and as an
    attribute of the package like any import, but compiled and run only
    when one of its attributes is first read.  Every importer, the
    library's own modules included, shares this one module object."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


specfun = _lazy("specfun")
spherical = _lazy("spherical")
discrete = _lazy("discrete")
global_traces = _lazy("global_traces")
selberg = _lazy("selberg")
means = _lazy("means")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (np.floating,)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_json(path, payload):
    import json
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _parse_float(flag, text):
    """A finite float from a flag's text; GfslError (exit 1) otherwise."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise GfslError(f"{flag}: expected a finite number, got {text!r}")
    return val


def _parse_tol(text):
    """--tol as a finite number > 0; GfslError (exit 1) otherwise."""
    tol = _parse_float("--tol", text)
    if not tol > 0.0:
        raise GfslError(f"--tol: expected a number > 0, got {text!r}")
    return tol


def _parse_floats(flag, text):
    return [_parse_float(flag, x) for x in text.split(",") if x.strip()]


def _parse_int(flag, text, minimum):
    """An integer >= minimum from a flag's text; GfslError (exit 1) otherwise."""
    try:
        val = int(text)
    except ValueError:
        val = None
    if val is None or val < minimum:
        raise GfslError(f"{flag}: expected an integer >= {minimum}, got {text!r}")
    return val


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means a failed
    verification; usage errors exit EXIT_CONFIG instead.  Subparsers are
    built from the same class, so they inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(sub, tol=True):
    if tol:
        sub.add_argument("--tol", default="1e-9")
    sub.add_argument("--out", default=".")


def _per_value(flag, values, make):
    """(value, make(value)) for each value of a flag's list (--lambda,
    --nu, --t); the library's DomainError gains the flag's name."""
    try:
        return [(val, make(val)) for val in values]
    except DomainError as exc:
        raise GfslError(f"{flag}: {exc}") from None


def cmd_spherical_check(args):
    tol = _parse_tol(args.tol)
    lams = _parse_floats("--lambda", args.lam)
    nus = _parse_floats("--nu", args.nu)
    n_ord = _parse_int("--n", args.n, 0)
    k_ord = _parse_int("--k", args.k, 2)
    params = [("principal", lam, p) for lam, p in _per_value(
        "--lambda", lams, spherical.SpectralParam.principal)]
    params += [("complementary", nu, p) for nu, p in _per_value(
        "--nu", nus, spherical.SpectralParam.complementary)]
    if not params:
        raise GfslError("--lambda and --nu: expected at least one number")
    branches = (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS)
    # one stacked build and audit, block by block: no whole table is held;
    # every table is set up, and so every moment seed checked, first
    flags = {p.lam: "--lambda" if regime == "principal" else "--nu"
             for regime, _, p in params}
    try:
        residuals = spherical.intertwine_sweep(
            [(p, branch) for _, _, p in params for branch in branches],
            n_ord, k_ord)
    except DomainError as exc:
        if exc.value not in flags:
            raise
        raise GfslError(f"{flags[exc.value]}: {exc}") from None
    labels = [(regime, val, branch) for regime, val, _ in params
              for branch in branches]
    rows = [(regime, val, f"{branch}:{rel}", res[rel])
            for (regime, val, branch), res in zip(labels, residuals)
            for rel in ("X", "U", "S")]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "spherical_residuals.csv",
              ["regime", "lambda", "relation", "max_residual"], rows)
    worst = max(r[3] for r in rows)
    print(f"spherical-check: {len(rows)} relations, worst residual {worst:.3e}")
    return EXIT_OK if worst < tol else EXIT_VERIFY


def cmd_traces(args):
    tol = _parse_tol(args.tol)
    ts = _parse_floats("--t", args.t)
    if not ts:
        raise GfslError("--t: expected at least one number")
    genus = _parse_int("--genus", args.genus, 2)
    if args.laplace_file:
        spec = global_traces.LaplaceSpectrum.from_csv(args.laplace_file, genus)
    else:
        spec = global_traces.LaplaceSpectrum([], [], genus)

    def identities(t):
        tr = spherical.trace_spherical(spherical.SpectralParam.threshold(), t)
        td = discrete.trace_ds(2, t)
        pre, post = global_traces.global_trace(spec, t)
        th = selberg.tanh_transform(t)
        return [
            {"identity": "spherical_flat_vs_spectral", "t": t, "lambda": 0.0,
             "lhs": tr["flat"],
             "rhs": tr["spectral_partial"][-1] + tr["tail_exact"][-1]},
            {"identity": "discrete_flat_vs_spectral", "t": t, "l": 2,
             "lhs": td["flat"],
             "rhs": td["spectral_partial"][-1] + td["tail_exact"][-1]},
            {"identity": "pre_rr_vs_post_rr", "t": t, "genus": genus,
             "lhs": pre, "rhs": post},
            {"identity": "tanh_fourier", "t": t, "lhs": th["pole_sum"],
             "rhs": th["closed_form"], "tail_bound": th["tail_bound"]},
        ]

    entries = [e for _, rows in _per_value("--t", ts, identities)
               for e in rows]
    ok = True
    for e in entries:
        e["abs_err"] = abs(e["lhs"] - e["rhs"])
        # written so that a NaN error fails
        ok = ok and e["abs_err"] <= tol + e.get("tail_bound", 0.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "traces.json", {"identities": entries})
    print(f"traces: {len(entries)} identities checked")
    ln2 = math.log(2.0)
    for e in entries:
        if abs(e["t"] - ln2) < 1e-9 and e["identity"] != "tanh_fourier":
            print(f"  {e['identity']} @ t=ln2: lhs={e['lhs']:.9g} "
                  f"rhs={e['rhs']:.9g} abs_err={e['abs_err']:.2e}")
    return EXIT_OK if ok else EXIT_VERIFY


# ln of the largest double, less 6 >= ln(2 sigma sqrt(2 pi)) for every
# sigma the --sigma envelope admits (sigma < sqrt(8 * 709.8) < 80).
_LOG_ROOM = math.log(sys.float_info.max) - 6.0


def _sigma_range(center):
    """The --sigma envelope [lo, hi] of `gfsl selberg` at a given --center.

    lo: two trapezoid levels of the identity term agree to its 1e-14
    (about e^{-32}) only once the coarser step 2h aliases neither the
    centre's oscillation, of frequency |center|, nor the tanh poles at
    distance 1/2: pi / h >= |center| + 64.  With h = 8 / (sigma n) below
    sigma = 0.2 and at most 2^20 nodes, sigma >= 8 (|center| + 64) /
    (pi 2^20).  hi: the spectral term of the constant eigenfunction,
    hat g(i/2) + hat g(-i/2) <= 2 sigma sqrt(2 pi) e^{sigma^2/8 + |center|/2},
    stays finite while sigma^2/8 + |center|/2 <= _LOG_ROOM.
    """
    lo = (8.0 * (abs(center) + 64.0)
          / (math.pi * selberg._IDENTITY_MAX_NODES))
    return lo, math.sqrt(8.0 * max(_LOG_ROOM - abs(center) / 2.0, 0.0))


def cmd_selberg(args):
    l_max = _parse_float("--lmax", args.lmax)
    center = _parse_float("--center", args.center)
    sigma = _parse_float("--sigma", args.sigma)
    if not abs(center) <= 2.0 * _LOG_ROOM:
        raise GfslError(
            f"--center: expected |center| <= {2.0 * _LOG_ROOM!r}, where "
            f"the spectral term stays finite, got {args.center!r}")
    lo, hi = _sigma_range(center)
    if not lo <= sigma <= hi:
        raise GfslError(
            f"--sigma: expected a number in [{lo!r}, {hi!r}] at --center "
            f"{center!r} (low end 8 (|center| + 64) / (pi 2^20), from the "
            "identity term's 2^20-node cap; high end sqrt(8 (ln DBL_MAX - "
            "6 - |center|/2)), where the spectral term stays finite), "
            f"got {args.sigma!r}")
    if l_max > 8.0:
        raise GfslError("--lmax must be <= 8 (desk scale)")
    sys_expect = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
    if not l_max >= sys_expect:
        raise GfslError(f"--lmax must be >= the systole {sys_expect!r}, "
                        f"got {args.lmax!r}")
    # a bad test function fails here, before the enumeration or any report
    g = selberg.GaussianTestFn(center, sigma, 1.0)
    selberg._identity_term(g, selberg._CHI_ABS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        group = selberg.bolza_group()
        ls = selberg.length_spectrum(group, l_max)
    except BudgetError as exc:
        print(f"selberg: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    ls.to_csv(out / "length_spectrum.csv")
    checks = {"relator_residual": group.relator_residual()}
    checks["systole"] = ls.systole
    checks["systole_error"] = abs(ls.systole - sys_expect)
    ok = checks["relator_residual"] < 1e-9 and checks["systole_error"] < 1e-9
    laplace = [(0.0, 1)]
    discs = []
    grid = [x for x in (5.0, 6.0, 7.0, 8.0) if x <= l_max]
    for lm in grid:
        sub = selberg.LengthSpectrum(
            [(ell, m) for ell, m in ls.primitives if ell <= lm + 1e-12], lm)
        rep = selberg.wave_trace_pair(sub, g, laplace=laplace)
        discs.append(rep.discrepancy)
    monotone = all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))
    checks["discrepancies"] = discs
    checks["discrepancy_monotone"] = monotone
    checks["weyl"] = selberg.weyl_consistency(ls)["rows"]
    ok = ok and monotone
    rep = selberg.wave_trace_pair(ls, g, laplace=laplace)
    payload = rep.to_dict()
    payload["checks"] = checks
    write_json(out / "selberg_report.json", payload)
    print(f"selberg: systole {ls.systole:.9f}, relator residual "
          f"{checks['relator_residual']:.2e}, monotone={monotone}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_means(args):
    tol = _parse_tol(args.tol)
    lams = _parse_floats("--lambda", args.lam)
    if not lams:
        raise GfslError("--lambda: expected at least one number")
    _per_value("--lambda", lams, means.check_lambda)
    m_top = _parse_int("--m", args.m, 0)
    if m_top > means.HC_M_MAX:
        raise GfslError(f"--m: expected an integer <= {means.HC_M_MAX}, past "
                        f"which e^(-2 m t) at t = {means.HC_T} underflows to "
                        f"0, got {args.m!r}")
    conv = []
    t = means.HC_T
    for lam in lams:
        target = specfun.legendre_conical(lam, t)
        for m in range(m_top + 1):
            val = means.hc_partial_sum(lam, t, m)
            conv.append((lam, t, m, val, abs(val - target)))
    conv.sort(key=lambda r: (r[0], r[2]))
    rows = []
    ok = True
    for lam in lams:
        fit = means.wave_residual(lam)
        phi0 = specfun.legendre_conical(lam, 0.0)
        defect = means.w_symbol_defect(lam)
        bound = 0.2 / lam if lam >= 5.0 else float("inf")
        rows.append((lam, fit.slope, int(fit.floor_limited), phi0, defect,
                     bound))
        ok = ok and (fit.floor_limited or abs(fit.slope + 2.0) <= 0.1)
        ok = ok and phi0 == 1.0 and defect <= bound
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "hc_convergence.csv",
              ["lambda", "t", "m_max", "partial_sum", "abs_err"], conv)
    write_csv(out / "wave_slopes.csv",
              ["lambda", "slope", "floor_limited", "phi_at_zero",
               "w_symbol_defect", "w_symbol_bound"], rows)
    final_err = max(r[4] for r in conv if r[2] == m_top)
    print(f"means: worst terminal HC error {final_err:.3e}, checks ok={ok}")
    if not ok or final_err > tol:
        return EXIT_VERIFY
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="gfsl",
        description="verification suites for the geodesic-flow Hilbert models")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spherical-check", help="intertwining residual sweep")
    _add_common(sp)
    sp.add_argument("--lambda", dest="lam", default="0.3,1,5")
    sp.add_argument("--nu", default="0.1,0.3")
    sp.add_argument("--n", default="40")
    sp.add_argument("--k", default="8")
    sp.set_defaults(func=cmd_spherical_check)

    tr = subs.add_parser("traces", help="flat-vs-spectral trace identities")
    _add_common(tr)
    tr.add_argument("--t", default="0.5,0.6931471805599453,1,2")
    tr.add_argument("--genus", default="2")
    tr.add_argument("--laplace-file", dest="laplace_file", default=None)
    tr.set_defaults(func=cmd_traces)

    se = subs.add_parser("selberg", help="Bolza length spectrum + wave-trace pair")
    # the selberg gates are fixed, so it takes no --tol
    _add_common(se, tol=False)
    se.add_argument("--lmax", default="8")
    se.add_argument("--center", default="5.5")
    se.add_argument("--sigma", default="0.5")
    se.set_defaults(func=cmd_selberg)

    me = subs.add_parser("means", help="Harish-Chandra convergence and wave slopes")
    _add_common(me)
    me.add_argument("--lambda", dest="lam", default="1,2,5")
    me.add_argument("--m", default="8")
    me.set_defaults(func=cmd_means)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GfslError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
