"""gfsl: finite-truncation Hilbert models of the hyperbolic geodesic flow.

Modules
-------
specfun        complex log-Gamma, row-blocked three-term recurrence
               (two-factor Taylor series, moment tables), log of the
               regularized beta line integral, periodic-trapezoid levels,
               conical Legendre function, the traces' geometric series
oscillator     polynomial-times-Gaussian weak transforms
spherical      one spherical irreducible, held as its complex lam: branch
               tables, gauge, intertwining audit, threshold coalescence,
               correlation
discrete       one holomorphic discrete series, held as its lowest K-type
               l: disk model, Cayley tables, correlation
global_traces  per-irreducible flat traces, the check of l, Riemann-Roch
               multiplicities, tanh identity, Laplace-spectrum ingestion,
               global traces
selberg        Bolza group, length spectrum, wave-trace pair
means          Harish-Chandra expansion, wave residual, W-symbol defect
cli            batch front end (entry point `gfsl`)

Submodules are imported on demand (`from gfsl import selberg`), so a
run loads only what it uses.
"""

__version__ = "0.1.0"
