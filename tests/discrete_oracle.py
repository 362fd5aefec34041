"""Discrete oracle: a projection determinantal process on a finite ground set.

It shares no sampling code with bergdpp.sampler: inclusion probabilities are
det K_S of an explicit kernel matrix, and a draw conditions on one ground-set
point at a time.  Only the tests use it.
"""

import numpy as np

from bergdpp.quadrature import build_grid, gram
from bergdpp.spaces import ModelSpace

# Tolerance on the Hermitian asymmetry and on the 0/1 spectrum of a kernel.
PROJECTION_ATOL = 1e-8


class DiscreteProjectionDpp:
    """Projection determinantal process on a finite ground set.

    The kernel must be Hermitian with eigenvalues in {0, 1} up to PROJECTION_ATOL.
    Subset inclusion probabilities are det K_S, and sampling follows the
    same sequential conditional scheme as the continuous sampler.
    """

    def __init__(self, K: np.ndarray):
        K = np.asarray(K, dtype=complex)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("kernel must be a square matrix")
        herm = float(np.max(np.abs(K - K.conj().T), initial=0.0))
        if herm > PROJECTION_ATOL:
            raise ValueError(f"kernel is not Hermitian (max asymmetry {herm:.2e})")
        K = 0.5 * (K + K.conj().T)
        eigs, vecs = np.linalg.eigh(K)
        if eigs.min() < -PROJECTION_ATOL or eigs.max() > 1.0 + PROJECTION_ATOL:
            raise ValueError(
                f"spectrum outside [-{PROJECTION_ATOL:.0e}, 1+{PROJECTION_ATOL:.0e}]: "
                f"[{eigs.min():.3e}, {eigs.max():.3e}]"
            )
        dist = np.minimum(np.abs(eigs), np.abs(eigs - 1.0))
        if dist.max() > PROJECTION_ATOL:
            raise ValueError(
                f"kernel is not a projection: eigenvalue {eigs[int(np.argmax(dist))]:.6f}"
            )
        self.K = K
        self.size = K.shape[0]
        self.eigenvectors = vecs[:, eigs > 0.5]  # (M, r), orthonormal columns
        self.rank = self.eigenvectors.shape[1]

    def inclusion_probability(self, subset) -> float:
        S = list(subset)
        if len(S) == 0:
            return 1.0
        sub = self.K[np.ix_(S, S)]
        return float(np.linalg.det(sub).real)

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Exact draw: a subset of size == rank."""
        W = self.eigenvectors.copy()
        chosen: list[int] = []
        for step in range(self.rank):
            p = np.einsum("mr,mr->m", W, W.conj()).real
            p = np.clip(p, 0.0, None)
            total = p.sum()
            idx = int(rng.choice(self.size, p=p / total))
            chosen.append(idx)
            e = W[idx] / np.linalg.norm(W[idx])
            W = W - np.outer(W @ e.conj(), e)
            W[idx] = 0.0
        return tuple(sorted(chosen))


def discrete_projection_from_space(
    space: ModelSpace, radial: int = 10, angular: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """Ground set and projection kernel built from a coarse quadrature grid.

    Returns (nodes, K) where K = Q Q^H and Q holds the weighted section
    values orthonormalized over the grid; the ground set has
    radial * angular points per factor.
    """
    grid = build_grid(space, radial=radial, angular=angular)
    T = gram(space, grid).transform
    Q = np.sqrt(grid.weights * grid.density)[:, None] * (space.section_matrix(grid.nodes) @ T)
    return grid.nodes, Q @ Q.conj().T
