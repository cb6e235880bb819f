"""Row-level check of the CLI reports.

Every report row is one operation.  A row fails when it breaks the gate
the CLI documents for that report, or when it holds a non-finite value.
The gates, at the CLI's default tol = 1e-9:

- spherical_residuals.csv: max_residual < tol
- wave_slopes.csv: slope within -2 +- 0.1 unless floor_limited, and
  phi_at_zero == 1 and w_symbol_defect <= w_symbol_bound
- hc_convergence.csv: the row at the top order has abs_err <= max(tol, 1e-10)
- traces.json: abs_err <= tol + tail_bound
- selberg_report.json: relator_residual < 1e-9, systole_error < 1e-9,
  and the discrepancies decrease (re-derived from the listed values)

Rows without a gate (lower-order HC rows, Weyl rows, length-spectrum
rows) fail only on non-finite or malformed values.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-9

REPORTS = {
    "spherical-check": ("spherical_residuals.csv",),
    "traces": ("traces.json",),
    "selberg": ("length_spectrum.csv", "selberg_report.json"),
    "means": ("hc_convergence.csv", "wave_slopes.csv"),
}


class ReportError(Exception):
    """A report is missing, malformed or has the wrong number of rows."""


@dataclass
class RowCheck:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (report, row label)

    def row(self, report, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{report}:{label}")


def _finite(*values):
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and math.isfinite(v) for v in values)


def _read_csv(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ReportError(f"{path.name}: header {got!r}, want {header!r}")
        return list(reader)


def _floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _spherical(out, argv, rc):
    rows = _read_csv(out / "spherical_residuals.csv",
                     ["regime", "lambda", "relation", "max_residual"])
    n_params = len(_floats(_flag(argv, "--lambda", "0.3,1,5"))) + \
        len(_floats(_flag(argv, "--nu", "0.1,0.3")))
    if len(rows) != 6 * n_params:
        raise ReportError(f"spherical_residuals.csv: {len(rows)} rows, "
                          f"want {6 * n_params}")
    for regime, lam, rel, res in rows:
        res = float(res)
        rc.row("spherical_residuals", f"{regime}:{lam}:{rel}",
               _finite(res) and res < TOL)


def _traces(out, argv, rc):
    with open(out / "traces.json", encoding="utf-8") as fh:
        rows = json.load(fh)["identities"]
    n_t = len(_floats(_flag(argv, "--t", "0.5,0.6931471805599453,1,2")))
    if len(rows) != 4 * n_t:
        raise ReportError(f"traces.json: {len(rows)} rows, want {4 * n_t}")
    for e in rows:
        tail = e.get("tail_bound", 0.0)
        ok = _finite(e["lhs"], e["rhs"], e["abs_err"], tail) \
            and e["abs_err"] <= TOL + tail
        rc.row("traces", f"{e['identity']}:{e['t']}", ok)


def _selberg(out, argv, rc):
    rows = _read_csv(out / "length_spectrum.csv",
                     ["length", "multiplicity", "is_primitive"])
    if not rows:
        raise ReportError("length_spectrum.csv: no rows")
    for length, mult, prim in rows:
        ell = float(length)
        rc.row("length_spectrum", length,
               _finite(ell) and ell > 0 and int(mult) >= 1
               and prim in ("0", "1"))
    with open(out / "selberg_report.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    checks = rep["checks"]
    rc.row("selberg_report", "relator_residual",
           _finite(checks["relator_residual"])
           and checks["relator_residual"] < 1e-9)
    rc.row("selberg_report", "systole_error",
           _finite(checks["systole"], checks["systole_error"])
           and checks["systole_error"] < 1e-9)
    discs = checks["discrepancies"]
    monotone = all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))
    rc.row("selberg_report", "discrepancy_monotone",
           monotone and checks["discrepancy_monotone"] is True)
    for i, d in enumerate(discs):
        rc.row("selberg_report", f"discrepancies[{i}]", _finite(d))
    for w in checks["weyl"]:
        rc.row("selberg_report", f"weyl:s={w['s']}",
               _finite(w["estimate"], w["leading"], w["ratio"]))
    rc.row("selberg_report", "pairing",
           _finite(*(rep[k] for k in ("geometric_side", "identity_term",
                                      "orbit_term", "cutoff",
                                      "support_leakage", "spectral_side",
                                      "discrepancy"))))


def _means(out, argv, rc):
    lams = _floats(_flag(argv, "--lambda", "1,2,5"))
    m_top = int(_flag(argv, "--m", "8"))
    conv = _read_csv(out / "hc_convergence.csv",
                     ["lambda", "t", "m_max", "partial_sum", "abs_err"])
    if len(conv) != len(lams) * (m_top + 1):
        raise ReportError(f"hc_convergence.csv: {len(conv)} rows, "
                          f"want {len(lams) * (m_top + 1)}")
    for lam, t, m, psum, err in conv:
        err = float(err)
        ok = _finite(float(t), float(psum), err)
        if int(m) == m_top:
            ok = ok and err <= max(TOL, 1e-10)
        rc.row("hc_convergence", f"{lam}:{m}", ok)
    slopes = _read_csv(out / "wave_slopes.csv",
                       ["lambda", "slope", "floor_limited", "phi_at_zero",
                        "w_symbol_defect", "w_symbol_bound"])
    if len(slopes) != len(lams):
        raise ReportError(f"wave_slopes.csv: {len(slopes)} rows, "
                          f"want {len(lams)}")
    for lam, slope, floor, phi0, defect, bound in slopes:
        slope, phi0, defect, bound = map(float, (slope, phi0, defect, bound))
        ok = _finite(slope, phi0, defect) and not math.isnan(bound)
        ok = ok and (floor == "1" or abs(slope + 2.0) <= 0.1)
        ok = ok and phi0 == 1.0 and defect <= bound
        rc.row("wave_slopes", lam, ok)


_CHECKS = {"spherical-check": _spherical, "traces": _traces,
           "selberg": _selberg, "means": _means}


def digests(out, command):
    """SHA-256 of each report file of `command`, by file name."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in REPORTS[command]}


def check(out, argv):
    """Check every report row the invocation `argv` wrote into `out`.

    Raises ReportError when a report is missing or malformed.
    """
    out = Path(out)
    command = argv[0]
    missing = [n for n in REPORTS[command] if not (out / n).is_file()]
    if missing:
        raise ReportError(f"missing reports: {', '.join(missing)}")
    rc = RowCheck()
    try:
        _CHECKS[command](out, argv, rc)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise ReportError(f"{command}: malformed report: {exc!r}") from exc
    return rc
