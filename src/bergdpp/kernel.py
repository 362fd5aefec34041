"""Kernel evaluation, correlation determinants, and the scaling-limit kernel.

The kernel of a space with orthonormal half-weighted sections v_1..v_N is

    B(x, y) = sum_i v_i(x) conj(v_i(y)),

a density with respect to mu x mu.  It reproduces itself under integration,
has trace N, and its m-point determinants det[B(x_a, x_b)] are the joint
intensities of the projection determinantal process.

An evaluator can carry the Gram of an extra weight psi, which holds psi and
the grid it was built on (a grid serves only its own space): the section
rows are re-orthonormalized by GramMatrix.whiten, the one reader of how the
Gram is factored, and e^{-psi/2} is folded into the values.
For constant psi this leaves every kernel determinant unchanged, the
numerical shadow of invariance under globally holomorphic weight changes.

Stacks of groups.  kernel_matrix, kernel_det, rescaled_correlation and
limit_correlation take one group of m points, shape (m, dim), or a stack of
G equal-size groups, shape (G, m, dim).  A stack costs one section
evaluation over its G m points, one stacked V V^H and one stacked det, and
gives (G,) values (matrices for kernel_matrix); one group gives a float.

Scaling limit.  At the chart origin, where the weight's per-k Hessian is
diag(lambda) (spaces.limit_curvatures), the rescaled m-point correlations
converge to determinants of

    B_inf(u, v) = (prod_i lambda_i / pi^n) exp(sum_i lambda_i (u_i conj(v_i)
                  - |u_i|^2 / 2 - |v_i|^2 / 2)),

after converting the mu-density to a Lebesgue density with one kappa factor
per point.  Fubini-Study and product spaces rescale points by 1/sqrt(k) and
correlations by k^{-n m}; the Ginibre family is already written in its own
scaling coordinates, so its check is the plain rank limit at fixed points.
The origin loses nothing: SU(2) maps any point of a sphere factor to it and
keeps the kernel and the measure (Hough, Krishnapur, Peres and Virag 2009).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprs import weight_values
from .quadrature import GramMatrix, QuadratureGrid, gram
from .spaces import ModelSpace, _as_points, limit_curvatures

__all__ = [
    "KernelEvaluator",
    "evaluator",
    "reweighted_evaluator",
    "kernel_matrix",
    "kernel_det",
    "limit_correlation",
    "rescaled_correlation",
    "default_test_points",
    "scaling_errors",
]

DET_FLOOR = 1e-14  # determinants below this times the diagonal product report as 0
_CHUNK = 64  # test points per scaling_errors stack: O(_CHUNK * rank) memory for any test set


@dataclass(frozen=True)
class KernelEvaluator:
    """Evaluates B(x, y), optionally under the weight psi of a Gram: its map and e^{-psi/2}."""

    space: ModelSpace
    gram: GramMatrix | None = None  # the psi-Gram: its whiten and weight

    def section_rows(self, points) -> np.ndarray:
        """Rows of (possibly re-orthonormalized) section values at points."""
        Z = _as_points(points, self.space.dim)
        V = self.space.section_matrix(Z)
        if self.gram is not None:
            V = self.gram.whiten(V)
            V = V * np.exp(-0.5 * weight_values(self.gram.weight, Z))[:, None]
        return V


def evaluator(space: ModelSpace) -> KernelEvaluator:
    return KernelEvaluator(space=space)


def reweighted_evaluator(space: ModelSpace, grid: QuadratureGrid, psi) -> KernelEvaluator:
    """Evaluator for the kernel of the psi-weighted inner product.

    It holds gram(space, grid, psi), whose map re-orthonormalizes the
    sections over the grid under psi; a Gram that gram() judges degenerate
    raises GramDegenerateError.
    """
    return KernelEvaluator(space, gram(space, grid, psi))


def _groups(points, dim: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rows (G m, dim), each group's row indices (G, m), and whether it was one group.

    A 3-d array with dim columns is a stack; anything else, read as _as_points does, is one group.
    """
    S = np.asarray(points, dtype=complex)
    single = not (S.ndim == 3 and S.shape[2] == dim)
    if single:
        S = _as_points(S, dim)[None]
    G, m, _ = S.shape
    return S.reshape(G * m, dim), np.arange(G * m).reshape(G, m), single


def _one(values: np.ndarray, single: bool):
    return float(values[0]) if single else values


def _grams(V: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """[B(x_a, x_b)] over the rows of V that each group takes, shape (G, m, m)."""
    Vg = V[groups]
    return Vg @ Vg.conj().mT


def _dets(V: np.ndarray, groups: np.ndarray, rank: int) -> np.ndarray:
    """det of each group's Gram: 0 for m > rank and below the DET_FLOOR snap."""
    if groups.shape[1] > rank:
        return np.zeros(groups.shape[0])
    K = _grams(V, groups)
    det = np.linalg.det(K).real
    floor = DET_FLOOR * np.prod(np.abs(np.diagonal(K, axis1=1, axis2=2)), axis=1)
    return np.where(np.abs(det) < floor, 0.0, det)


def kernel_matrix(ev: KernelEvaluator, points):
    """Hermitian matrices [B(x_a, x_b)]: (m, m) for one group, (G, m, m) for a stack."""
    Z, groups, single = _groups(points, ev.space.dim)
    K = _grams(ev.section_rows(Z), groups)
    return K[0] if single else K


def kernel_det(ev: KernelEvaluator, points):
    """det [B(x_a, x_b)]: the m-point correlation against mu^m.

    One group of m points gives a float, a (G, m, dim) stack a (G,) array,
    from one section evaluation and one stacked det.  Exactly 0.0 for
    m > rank, and values below DET_FLOOR * prod_a B(x_a, x_a) snap to 0
    (coincident points).
    """
    Z, groups, single = _groups(points, ev.space.dim)
    return _one(_dets(ev.section_rows(Z), groups, ev.space.rank), single)


# ---------------------------------------------------------------------------
# limit kernel


def limit_correlation(lam, points):
    """det [B_inf(u_a, u_b)] over scaling points u: a float per group, (G,) per stack."""
    lam = np.asarray(lam, dtype=float)
    Z, groups, single = _groups(points, lam.size)
    U = Z[groups]
    half = 0.5 * (np.abs(U) ** 2 @ lam)
    K = np.prod(lam / np.pi) * np.exp((U * lam) @ U.conj().mT - half[:, :, None] - half[:, None, :])
    return _one(np.linalg.det(K).real, single)


def _rescaled(space: ModelSpace, U: np.ndarray, *group_sets) -> list:
    """Rescaled correlations of U's rows taken by each (G, m) index array.

    One section evaluation and one base density at U's chart points serve
    every set of groups.
    """
    compact = space.factors[0].compact
    Z = U / np.sqrt(space.power) if compact else U
    V = space.section_matrix(Z)
    kappas = space.base_density(Z)
    out = []
    for groups in group_sets:
        scale = float(space.power) ** (-space.dim * groups.shape[1]) if compact else 1.0
        out.append(_dets(V, groups, space.rank) * scale * np.prod(kappas[groups], axis=1))
    return out


def rescaled_correlation(space: ModelSpace, points):
    """m-point correlation about the chart origin, in scaling coordinates, as a Lebesgue density.

    For fs/product spaces the points u are mapped to chart points u / sqrt(k)
    and the mu^m-density det[B] is multiplied by k^{-n m} and one kappa
    factor per point.  For the Ginibre family the chart is already in
    scaling coordinates: points are used as-is and only the kappa factors
    apply.  A float per group, (G,) per stack, as kernel_det.
    """
    Z, groups, single = _groups(points, space.dim)
    return _one(_rescaled(space, Z, groups)[0], single)


def default_test_points(dim: int) -> np.ndarray:
    """Deterministic scaling-coordinate test points, shape (25, dim)."""
    grid = np.linspace(-1.2, 1.2, 5)
    base = np.array([a + 1j * b for a in grid for b in grid])  # 25 points
    cols = [base]
    for i in range(1, dim):
        idx = (np.arange(base.size) * 7 + 3 * i) % base.size
        cols.append(0.7 * base[idx] * np.exp(1j * np.pi / (4 + i)))
    return np.stack(cols, axis=1)


def scaling_errors(spaces_by_k, points=None) -> list[dict]:
    """Sup-error between rescaled and limit correlations across a family of (k, space) pairs.

    The error at power k is the max over all one-point groups and all
    consecutive two-point groups formed from the test set.  Both are checked
    as stacks, _CHUNK test points at a time, with one section evaluation per
    chunk.  Rows carry the ratio to the previous power for trend checks.
    """
    ks = [k for k, _ in spaces_by_k]
    if min(ks) < 1:
        raise ValueError(f"scaling powers must be at least 1, got {ks}")
    if points is not None and len(points) == 0:
        raise ValueError("the scaling test set holds no points")
    rows: list[dict] = []
    prev_err = None
    for k, space in spaces_by_k:
        lam = limit_curvatures(space)
        pts = default_test_points(space.dim) if points is None else np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        err = 0.0
        for lo in range(0, len(pts), _CHUNK):
            U = pts[lo : lo + _CHUNK + 1]  # one point past the chunk closes its last pair
            ones = np.arange(min(_CHUNK, len(U)))[:, None]
            pairs = np.arange(len(U) - 1)[:, None] + np.arange(2)
            for groups, got in zip((ones, pairs), _rescaled(space, U, ones, pairs)):
                diff = np.abs(got - limit_correlation(lam, U[groups]))
                err = float(np.fmax.reduce(diff, initial=err))  # fmax skips NaN, as max did
        rows.append(
            {
                "k": int(k),
                "rank": space.rank,
                "sup_error": err,
                "ratio_to_prev": (err / prev_err) if prev_err else None,
            }
        )
        prev_err = err
    return rows
