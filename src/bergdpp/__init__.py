"""Finite-rank reproducing kernels on model complex charts and their point
processes: exact projection-DPP sampling, weighted MCMC sampling, scaling
limits, and determinant-based energy functionals.

Names are imported from the submodules (spaces, quadrature, kernel, sampler,
stats, energy, exprs, cli); the package root binds only __version__.
"""

__version__ = "0.1.0"
