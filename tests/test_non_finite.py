"""Non-finite input to a public library function fails at its entry point,
with a DomainError that names the function and the parameter, not with
NaN results, a run to a term cap or another function's message."""

import math

import numpy as np
import pytest

from gfsl import global_traces, means, oscillator, selberg, specfun, spherical
from gfsl.errors import DomainError

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
    (lambda: means.wave_residual(1.0, shift=NAN),
     "wave_residual: shift must be finite, got nan"),
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
        "correlation-lam", "w_symbol_defect-lam", "wave_residual-shift",
        "log_beta_line-alpha", "rr_multiplicity-genus",
        "LaplaceSpectrum-genus", "GaussPolyFunction-poly"])
def test_non_finite_input_named_at_entry(call, text):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == text
    # the error carries the value at fault
    bad = exc.value.value
    assert bad is not None and not np.all(np.isfinite(bad))
