"""Reference laws of a draw: its Gibbs log-density, one point's radial law and a grid's mass.

log_density takes the full determinant of the section matrix, the reference
that the samplers' carried log densities are checked against; radial_cdf is
the law of one point's |z| on a factor, for Kolmogorov-Smirnov checks; and
grid_mass is the base measure a grid's radial rule integrates.  Only the
tests use them.
"""

import numpy as np

from bergdpp.exprs import weight_values
from bergdpp.quadrature import QuadratureGrid
from bergdpp.spaces import ModelSpace, _as_points, poisson_log_pmf


def log_density(space: ModelSpace, points, weight=None) -> float:
    """Unnormalized Gibbs log-density of a configuration against mu^N.

    log |det M|^2 with M_ij = v_i(x_j), minus sum_j w(x_j) for the Gibbs
    potential w = weight.  Returns -inf for coincident points (singular M).
    """
    Z = _as_points(points, space.dim)
    if Z.shape[0] != space.rank:
        raise ValueError(f"configuration must have {space.rank} points, got {Z.shape[0]}")
    V = space.section_matrix(Z)  # rows v(x_j); det M = det V^T = det V
    sign, logabs = np.linalg.slogdet(V)
    if sign == 0 or not np.isfinite(logabs):
        return float("-inf")
    return float(2.0 * logabs - weight_values(weight, Z).sum())


def radial_cdf(factor, r) -> np.ndarray:
    """P(|z| <= r) for one point of the factor's process.

    On a sphere P(|z| <= r) = s: the mean over j of Beta(j + 1, d - j + 1)
    laws in s is uniform.  On the plane it is the mean over j < N of
    P(Gamma(j + 1) <= t) = P(Poisson(t) > j), that is
    E[min(Poisson(t), N)] / N = 1 - sum_{k<N} (N - k)/N P(Poisson(t) = k):
    0 at t = 0, and 1 once every Poisson term has underflowed at t >> N.
    """
    r = np.asarray(r, dtype=float)
    if factor.compact:
        return (r * r) / (1.0 + r * r)
    N = factor.degree + 1
    return 1.0 - np.exp(poisson_log_pmf(N, r * r)) @ ((N - np.arange(N)) / N)


def grid_mass(grid: QuadratureGrid) -> float:
    """The base measure's mass on the grid: its radial rule against base_density."""
    points, w = grid.radial_rule
    return float(np.sum(w * grid.space.base_density(points)))
