"""gfsl: finite-truncation Hilbert models of the hyperbolic geodesic flow.

Modules
-------
specfun        complex log-Gamma, two-factor Taylor series, log of the
               regularized beta line integral, conical Legendre function
oscillator     polynomial-times-Gaussian weak transforms
spherical      one spherical irreducible: branch tables, gauge,
               intertwining audit, threshold coalescence, correlation
discrete       one holomorphic discrete series: disk model, Cayley tables,
               correlation
global_traces  per-irreducible flat traces, Riemann-Roch multiplicities,
               tanh identity, Laplace-spectrum ingestion, global traces
selberg        Bolza group, length spectrum, wave-trace pair
means          Harish-Chandra expansion, wave residual, W-symbol defect
cli            batch front end (entry point `gfsl`)

Submodules are imported on demand (`from gfsl import selberg`), so a
run loads only what it uses.
"""

__version__ = "0.1.0"
