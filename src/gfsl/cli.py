"""Batch command-line front end.

Subcommands run verification suites and emit CSV/JSON reports:

    gfsl spherical-check  --lambda 0.3,1,5 --nu 0.1,0.3 --n 40 --k 8
    gfsl traces           --t 0.5,1,2 --genus 2 [--laplace-file F]
    gfsl selberg          --lmax 8 [--center 5.5 --sigma 0.5]
    gfsl means            --lambda 1,2,5 --m 8

Exit codes: 0 pass, 1 usage or input error, 2 verification failure.
Reports are byte-deterministic: floats are written with shortest
round-trip repr, keys are sorted, line endings LF.

The library modules are bound here but compiled and run on their first
attribute access (_lazy), so a cold process loads only the modules its
subcommand calls.
"""

import argparse
import importlib.util
import math
import os
import sys
from pathlib import Path

# numpy's bundled OpenBLAS starts a worker pool at import unless told not
# to, which slows every cold start (README, "Cold start"), and no
# subcommand needs it: the BLAS/LAPACK work is 9-point polyfits, 4-term
# norms and the selberg ball's 128 x 16 by 16 x 128 and walk's n x 16 by
# 16 x 16 products of integer coefficients, exact however OpenBLAS splits
# them.  A value the user sets wins.  gfsl.cli imports no numpy: numpy
# loads with the first library module a subcommand runs (_lazy), after
# this line.  So the default holds unless numpy was imported before
# gfsl.cli, which is why gfsl/__init__ imports nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import DomainError, GfslError


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
global_traces = _lazy("global_traces")
selberg = _lazy("selberg")
means = _lazy("means")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2


def _fmt(x):
    # float(x): repr of numpy's float64, a float subclass, is np.float64(...)
    return repr(float(x)) if isinstance(x, float) else str(x)


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


def _out_dir(text):
    """--out as a directory, made with its parents if missing."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GfslError(f"--out: cannot make directory {text!r}: "
                        f"{exc.strerror}") from None
    return out


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
    if n_ord > spherical.SWEEP_N_MAX:
        raise GfslError(f"--n: expected an integer <= {spherical.SWEEP_N_MAX}"
                        ", the sweep's memory budget of 16 MiB of row state "
                        f"per table, got {args.n!r}")
    k_ord = _parse_int("--k", args.k, 2)
    if k_ord > spherical.SWEEP_K_MAX:
        raise GfslError(f"--k: expected an integer <= {spherical.SWEEP_K_MAX}"
                        ", past which a table's row no longer fits one "
                        f"block of the sweep, got {args.k!r}")
    params = [("principal", val, lam) for val, lam in _per_value(
        "--lambda", lams, spherical.principal)]
    params += [("complementary", val, lam) for val, lam in _per_value(
        "--nu", nus, spherical.complementary)]
    if not params:
        raise GfslError("--lambda and --nu: expected at least one number")
    branches = (spherical.BRANCH_PLUS, spherical.BRANCH_MINUS)
    # one stacked build and audit, block by block: no whole table is held;
    # every table is set up, and so every moment seed checked, first.  An
    # error about one table carries its lam, which names the flag.
    flags = {lam: "--lambda" if regime == "principal" else "--nu"
             for regime, _, lam in params}
    try:
        residuals = spherical.intertwine_sweep(
            [(lam, branch) for _, _, lam in params for branch in branches],
            n_ord, k_ord)
    except GfslError as exc:
        if exc.value not in flags:
            raise
        raise GfslError(f"{flags[exc.value]}: {exc}") from None
    labels = [(regime, val, branch) for regime, val, _ in params
              for branch in branches]
    rows = [(regime, val, f"{branch}:{rel}", res[rel])
            for (regime, val, branch), res in zip(labels, residuals)
            for rel in ("X", "U", "S")]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out = _out_dir(args.out)
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
    if genus > global_traces.GENUS_MAX:
        raise GfslError("--genus: expected an integer <= int(DBL_MAX) // 3 "
                        "(about 5.99e307), where the global trace's "
                        f"multiplicities are doubles, got {args.genus!r}")
    if args.laplace_file:
        spec = global_traces.LaplaceSpectrum.from_csv(args.laplace_file, genus)
    else:
        spec = global_traces.LaplaceSpectrum([], [], genus)

    def identities(t):
        tr = global_traces.trace_spherical(0j, t, tol)  # the threshold
        td = global_traces.trace_ds(2, t, tol)
        # rejects t past about 711.17, before global_trace's cosh overflows
        th = global_traces.tanh_transform(t, tol)
        pre, post, tail = global_traces.global_trace(spec, t, tol)
        return [
            {"identity": "spherical_flat_vs_spectral", "t": t, "lambda": 0.0,
             "lhs": tr["flat"], "rhs": tr["spectral"]},
            {"identity": "discrete_flat_vs_spectral", "t": t, "l": 2,
             "lhs": td["flat"], "rhs": td["spectral"]},
            {"identity": "pre_rr_vs_post_rr", "t": t, "genus": genus,
             "lhs": pre, "rhs": post, "tail_bound": tail},
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
    out = _out_dir(args.out)
    write_json(out / "traces.json", {"identities": entries})
    print(f"traces: {len(entries)} identities checked")
    ln2 = math.log(2.0)
    for e in entries:
        if abs(e["t"] - ln2) < 1e-9 and e["identity"] != "tanh_fourier":
            print(f"  {e['identity']} @ t=ln2: lhs={e['lhs']:.9g} "
                  f"rhs={e['rhs']:.9g} abs_err={e['abs_err']:.2e}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_selberg(args):
    l_max = _parse_float("--lmax", args.lmax)
    center = _parse_float("--center", args.center)
    sigma = _parse_float("--sigma", args.sigma)
    try:
        selberg.check_envelope(l_max, center, sigma)
    except DomainError as exc:  # its value is the flag's name
        raise GfslError(f"--{exc.value}: {exc}, got "
                        f"{getattr(args, exc.value)!r}") from None
    # a bad test function fails here, before the enumeration or any report
    g = selberg.GaussianTestFn(center, sigma, 1.0)
    selberg.identity_term(g)
    out = _out_dir(args.out)
    group = selberg.bolza_group()
    ls = selberg.length_spectrum(group, l_max)
    rows = [(ell, mult, 1) for ell, mult in ls.primitives]
    rows += [(p, mult, 0) for p, mult, m, _ in ls.orbits() if m > 1]
    write_csv(out / "length_spectrum.csv",
              ["length", "multiplicity", "is_primitive"], sorted(rows))
    checks = {"relator_residual": group.relator_residual()}
    checks["systole"] = ls.systole
    checks["systole_error"] = abs(ls.systole - selberg.SYSTOLE)
    ok = checks["systole_error"] < 1e-9
    laplace = [(0.0, 1)]
    grid = [x for x in (5.0, 6.0, 7.0, 8.0) if x <= l_max]
    reps = [selberg.wave_trace_pair(selberg.LengthSpectrum(
        [(ell, m) for ell, m in ls.primitives if ell <= lm], lm), g,
        laplace=laplace) for lm in grid]
    discs = [rep.discrepancy for rep in reps]
    monotone = all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))
    checks["discrepancies"] = discs
    checks["discrepancy_monotone"] = monotone
    weyl = selberg.weyl_consistency(ls)
    checks["weyl"] = weyl["rows"]
    ok = ok and monotone and weyl["ok"]
    if grid[-1:] != [l_max]:  # else the last pair was on ls's own cutoff
        reps.append(selberg.wave_trace_pair(ls, g, laplace=laplace))
    payload = reps[-1].to_dict()
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
        for m, val in enumerate(means.hc_partial_sum(lam, t, m_top)):
            conv.append((lam, t, m, val, abs(val - target)))
    conv.sort(key=lambda r: (r[0], r[2]))
    rows = []
    ok = True
    for lam in lams:
        fit = means.wave_residual(lam)
        phi0 = specfun.legendre_conical(lam, 0.0)
        defect = means.w_symbol_defect(lam)
        bound = 0.2 / lam
        rows.append((lam, fit.slope, int(fit.floor_limited), phi0, defect,
                     bound))
        ok = ok and (fit.floor_limited or abs(fit.slope + 2.0) <= 0.1)
        ok = ok and phi0 == 1.0 and defect <= bound
    out = _out_dir(args.out)
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
    except (GfslError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
