"""Non-finite input to a public library function fails at its entry point,
with a DomainError that names the function and the parameter, not with
NaN results, a run to a term cap or another function's message."""

import functools
import math
import signal

import numpy as np
import pytest

from gfsl import (discrete, global_traces, means, oscillator, selberg,
                  specfun, spherical)
from gfsl.errors import DomainError, GfslError

NAN, INF = math.nan, math.inf


def _heat_pair_at_inf():
    ls = selberg.length_spectrum(selberg.bolza_group(), 4.0)
    return selberg.heat_pair(ls, INF)


def _global_trace_nan_tol():
    spec = global_traces.LaplaceSpectrum([1.0], [1], 2)
    return global_traces.global_trace(spec, 1.0, NAN)


@pytest.mark.parametrize("call,text", [
    # each was a NaN result, a term cap's or a rounding scale's message,
    # or another function's message
    (lambda: means.hc_partial_sum(1.0, INF, 2),
     "hc_partial_sum: t must be finite, got inf"),
    (lambda: means.hc_partial_sum(NAN, 1.0, 2),
     "hc_partial_sum: lam must be finite, got nan"),
    (lambda: global_traces.tanh_transform(INF, 1e-9),
     "tanh_transform: t must be finite, got inf"),
    (lambda: global_traces.tanh_transform(1.0, NAN),
     "tanh_transform: tol must be finite, got nan"),
    (lambda: global_traces.trace_spherical(0j, INF, 1e-9),
     "trace_spherical: t must be finite, got inf"),
    (lambda: global_traces.trace_spherical(complex(NAN), 1.0, 1e-9),
     "trace_spherical: lam must be finite, got (nan+0j)"),
    (lambda: global_traces.trace_ds(2, 1.0, NAN),
     "trace_ds: tol must be finite, got nan"),
    (lambda: specfun.geometric_sum(1.0, 1.0, 0.0, 0.5, NAN),
     "geometric_sum: tol must be finite, got nan"),
    (_global_trace_nan_tol, "global_trace: tol must be finite, got nan"),
    (lambda: selberg.GaussianTestFn(0.0, INF, 1.0),
     "GaussianTestFn: sigma must be finite, got inf"),
    (_heat_pair_at_inf, "heat_pair: s must be finite, got inf"),
    (lambda: spherical.build_k_matrices(complex(NAN), 3),
     "build_k_matrices: lam must be finite, got (nan+0j)"),
    (lambda: spherical.principal(NAN),
     "principal: lam must be finite, got nan"),
    (lambda: spherical.intertwine_sweep([(complex(NAN), "plus")], 10, 3),
     "intertwine_sweep: lam must be finite, got (nan+0j)"),
    (lambda: spherical.gauge_log(complex(NAN), "plus", 3),
     "gauge_log: lam must be finite, got (nan+0j)"),
    (lambda: spherical.correlation(complex(NAN), 0, 0, 1.0, 10),
     "correlation: lam must be finite, got (nan+0j)"),
    (lambda: means.w_symbol_defect(INF),
     "w_symbol_defect: lam must be finite, got inf"),
    (lambda: means.wave_residual(NAN),
     "wave_residual: lam must be finite, got nan"),
    (lambda: means.wave_residual(1.0, shift=NAN),
     "wave_residual: shift must be finite, got nan"),
    (lambda: specfun.legendre_conical(NAN, 2.0),
     "legendre_conical: lam must be finite, got nan"),
    (lambda: specfun.legendre_conical(1.0, INF),
     "legendre_conical: t must be finite, got inf"),
    # orbits() enumerates iterates up to the cutoff: an infinite one
    # never ends
    (lambda: selberg.LengthSpectrum([(3.0, 2)], NAN),
     "LengthSpectrum: cutoff must be finite, got nan"),
    (lambda: selberg.LengthSpectrum([(3.0, 2)], INF),
     "LengthSpectrum: cutoff must be finite, got inf"),
    (lambda: specfun.log_beta_line(complex(NAN), -0.5),
     "log_beta_line: alpha must be finite, got (nan+0j)"),
    (lambda: global_traces.rr_multiplicity(NAN, 4),
     "rr_multiplicity: genus must be >= 2"),
    (lambda: global_traces.LaplaceSpectrum([1.0], [1], NAN),
     "LaplaceSpectrum: genus must be >= 2"),
    (lambda: oscillator.GaussPolyFunction([1.0, NAN], 1.0),
     "GaussPolyFunction: poly coefficients must be finite"),
], ids=["hc_partial_sum-t", "hc_partial_sum-lam", "tanh_transform-t",
        "tanh_transform-tol", "trace_spherical-t", "trace_spherical-lam",
        "trace_ds-tol", "geometric_sum-tol", "global_trace-tol",
        "GaussianTestFn-sigma", "heat_pair-s", "build_k_matrices-lam",
        "principal-lam", "intertwine_sweep-lam", "gauge_log-lam",
        "correlation-lam", "w_symbol_defect-lam", "wave_residual-lam",
        "wave_residual-shift", "legendre_conical-lam", "legendre_conical-t",
        "LengthSpectrum-cutoff-nan", "LengthSpectrum-cutoff-inf",
        "log_beta_line-alpha", "rr_multiplicity-genus",
        "LaplaceSpectrum-genus", "GaussPolyFunction-poly"])
def test_non_finite_input_named_at_entry(call, text):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == text
    # the error carries the value at fault
    bad = exc.value.value
    assert bad is not None and not np.all(np.isfinite(bad))


@functools.cache
def _spectrum4():
    return selberg.length_spectrum(selberg.bolza_group(), 4.0)


def _no_eigenvalues():
    # no eigenvalue, as the CLI's traces run without --laplace-file
    return global_traces.LaplaceSpectrum([], [], 2)


# Each public library function or class with a scalar float parameter:
# (name as its errors give it, a valid call with that parameter as x,
# parameter).  Left out: the array kernels two_factor_columns and
# recurrence_blocks, whose callers check the tables they make; the array
# fields LaplaceSpectrum.mu, GaussPolyFunction.poly and
# LengthSpectrum.primitives, checked by the cases above and by
# test_selberg; integer parameters; and the CLI's envelope checks
# check_lambda and check_envelope, whose text the CLI prefixes with the
# flag (test_cli passes them nan and +-inf through every flag).
SWEEP = [
    ("is_gamma_pole", specfun.is_gamma_pole, "z"),
    ("log_gamma", specfun.log_gamma, "z"),
    ("log_beta_line", lambda x: specfun.log_beta_line(x, -0.5), "alpha"),
    ("log_beta_line", lambda x: specfun.log_beta_line(-0.5, x), "beta"),
    ("legendre_conical", lambda x: specfun.legendre_conical(x, 2.0), "lam"),
    ("legendre_conical", lambda x: specfun.legendre_conical(1.0, x), "t"),
    ("geometric_sum", lambda x: specfun.geometric_sum(x, 1.0, 0.0, 0.5, 1e-9),
     "t"),
    ("geometric_sum", lambda x: specfun.geometric_sum(1.0, x, 0.0, 0.5, 1e-9),
     "p0"),
    ("geometric_sum", lambda x: specfun.geometric_sum(1.0, 1.0, x, 0.5, 1e-9),
     "p1"),
    ("geometric_sum", lambda x: specfun.geometric_sum(1.0, 1.0, 0.0, x, 1e-9),
     "c"),
    ("geometric_sum", lambda x: specfun.geometric_sum(1.0, 1.0, 0.0, 0.5, x),
     "tol"),
    ("principal", spherical.principal, "lam"),
    ("complementary", spherical.complementary, "nu"),
    ("build_k_matrices", lambda x: spherical.build_k_matrices(x, 3), "lam"),
    ("gauge_log", lambda x: spherical.gauge_log(x, "plus", 3), "lam"),
    ("coeff_table", lambda x: spherical.coeff_table(x, 10, 3, "plus"), "lam"),
    ("intertwine_sweep",
     lambda x: spherical.intertwine_sweep([(x, "plus")], 10, 3), "lam"),
    ("correlation", lambda x: spherical.correlation(x, 0, 0, 1.0, 10), "lam"),
    ("correlation", lambda x: spherical.correlation(1.0, 0, 0, x, 10), "tau"),
    ("correlation_ds", lambda x: discrete.correlation_ds(2, 0, 0, x, 10),
     "tau"),
    ("trace_spherical", lambda x: global_traces.trace_spherical(x, 1.0, 1e-9),
     "lam"),
    ("trace_spherical", lambda x: global_traces.trace_spherical(0j, x, 1e-9),
     "t"),
    ("trace_spherical", lambda x: global_traces.trace_spherical(0j, 1.0, x),
     "tol"),
    ("trace_ds", lambda x: global_traces.trace_ds(2, x, 1e-9), "t"),
    ("trace_ds", lambda x: global_traces.trace_ds(2, 1.0, x), "tol"),
    ("tanh_transform", lambda x: global_traces.tanh_transform(x, 1e-9), "t"),
    ("tanh_transform", lambda x: global_traces.tanh_transform(1.0, x), "tol"),
    ("global_trace",
     lambda x: global_traces.global_trace(_no_eigenvalues(), x, 1e-9), "t"),
    ("global_trace",
     lambda x: global_traces.global_trace(_no_eigenvalues(), 1.0, x), "tol"),
    ("LengthSpectrum", lambda x: selberg.LengthSpectrum([(3.0, 2)], x),
     "cutoff"),
    ("length_spectrum",
     lambda x: selberg.length_spectrum(selberg.bolza_group(), x), "l_max"),
    ("GaussianTestFn", lambda x: selberg.GaussianTestFn(x, 0.5, 1.0),
     "center"),
    ("GaussianTestFn", lambda x: selberg.GaussianTestFn(5.5, x, 1.0), "sigma"),
    ("GaussianTestFn", lambda x: selberg.GaussianTestFn(5.5, 0.5, x),
     "amplitude"),
    ("heat_pair", lambda x: selberg.heat_pair(_spectrum4(), x), "s"),
    ("hc_coefficient", lambda x: means.hc_coefficient(2, x), "lam"),
    ("hc_partial_sum", lambda x: means.hc_partial_sum(x, 3.0, 2), "lam"),
    ("hc_partial_sum", lambda x: means.hc_partial_sum(1.0, x, 2), "t"),
    ("wave_residual", means.wave_residual, "lam"),
    ("wave_residual", lambda x: means.wave_residual(1.0, shift=x), "shift"),
    ("w_symbol_defect", means.w_symbol_defect, "lam"),
    ("GaussPolyFunction", lambda x: oscillator.GaussPolyFunction([1.0], x),
     "width"),
]

# A call still running after this long has hung (the slowest valid one
# here takes well under a second).
CALL_SECONDS = 10


def _bounded(call, x):
    """call(x), failing the test if it runs past CALL_SECONDS."""
    def hung(signum, frame):
        pytest.fail(f"still running after {CALL_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(CALL_SECONDS)
    try:
        return call(x)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where,call,param", SWEEP,
                         ids=[f"{w}-{p}" for w, _, p in SWEEP])
def test_every_float_parameter_rejects_non_finite(where, call, param, value):
    with pytest.raises(GfslError) as exc:
        _bounded(call, value)
    assert str(exc.value).startswith(f"{where}: {param} ")


def test_sweep_calls_are_valid():
    # each call of the sweep runs with a finite value of its parameter, so
    # that an error above comes from the non-finite one
    finite = {"z": 0.5, "alpha": -0.25, "beta": -0.25, "lam": 1.0, "t": 2.0,
              "p0": 1.0, "p1": 0.0, "c": 0.5, "tol": 1e-9, "nu": 0.3,
              "tau": 1.0, "cutoff": 8.0, "l_max": 4.0, "center": 5.5,
              "sigma": 0.5, "amplitude": 1.0, "s": 0.1, "shift": 1.0,
              "width": 1.0}
    for _, call, param in SWEEP:
        _bounded(call, finite[param])
