"""gfsl: finite-truncation Hilbert models of the hyperbolic geodesic flow.

Modules
-------
specfun        complex log-Gamma, Gamma ratios, two-factor Taylor series,
               regularized beta line integrals, conical Legendre function
oscillator     polynomial-times-Gaussian weak transforms and flow
spherical      one spherical irreducible: branch tables, gauge, threshold
               Jordan model, correlation, flat trace
discrete       one holomorphic discrete series: disk model, Cayley tables,
               correlation, holomorphic flat trace
global_traces  resonance enumeration, block semigroup, global trace forms
selberg        Bolza group, length spectrum, tanh identity, wave-trace pair
means          Harish-Chandra expansion, wave residual, envelope decay
cli            batch front end (entry point `gfsl`)

Submodules are imported on demand (`from gfsl import selberg`), so a
run loads only what it uses.
"""

__version__ = "0.1.0"
