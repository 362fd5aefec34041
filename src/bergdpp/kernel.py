"""Kernel evaluation, correlation determinants, and the scaling-limit kernel.

The kernel of a space with orthonormal half-weighted sections v_1..v_N is

    B(x, y) = sum_i v_i(x) conj(v_i(y)),

a density with respect to mu x mu.  It reproduces itself under integration,
has trace N, and its m-point determinants det[B(x_a, x_b)] are the joint
intensities of the projection determinantal process.

An evaluator can carry a fixed extra weight psi: the sections are then
re-orthonormalized by the map that quadrature.gram factors from their Gram
matrix under psi, and e^{-psi/2} is folded into the values.  For constant
psi this leaves every kernel determinant unchanged, which is the numerical
shadow of invariance under globally holomorphic weight changes.

Scaling limit.  Around a chart point where the weight's per-k Hessian is
diag(lambda) the rescaled m-point correlations converge to determinants of

    B_inf(u, v) = (prod_i lambda_i / pi^n) exp(sum_i lambda_i (u_i conj(v_i)
                  - |u_i|^2 / 2 - |v_i|^2 / 2)),

after converting the mu-density to a Lebesgue density with one kappa factor
per point.  Fubini-Study and product spaces rescale points by 1/sqrt(k) and
correlations by k^{-n m}; the Ginibre family is already written in its own
scaling coordinates, so its check is the plain rank limit at fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprs import weight_values
from .quadrature import QuadratureGrid, gram
from .spaces import ModelSpace, NormalFrame, _as_points, limit_frame

__all__ = [
    "KernelEvaluator",
    "evaluator",
    "reweighted_evaluator",
    "kernel_eval",
    "kernel_matrix",
    "kernel_det",
    "limit_kernel",
    "limit_correlation",
    "rescaled_correlation",
    "default_test_points",
    "scaling_errors",
]

DET_FLOOR = 1e-14  # determinants below this times the diagonal product report as 0


@dataclass(frozen=True)
class KernelEvaluator:
    """Evaluates B(x, y), optionally under a fixed extra weight psi."""

    space: ModelSpace
    transform: np.ndarray | None = None  # orthonormalizing map of the psi-Gram
    psi: object | None = None            # callable points -> (M,), folded as e^{-psi/2}

    @property
    def rank(self) -> int:
        return self.space.rank

    def section_rows(self, points) -> np.ndarray:
        """Rows of (possibly re-orthonormalized) section values at points."""
        Z = _as_points(points, self.space.dim)
        V = self.space.section_matrix(Z)
        if self.transform is not None:
            V = V @ self.transform
        if self.psi is not None:
            V = V * np.exp(-0.5 * weight_values(self.psi, Z))[:, None]
        return V


def evaluator(space: ModelSpace) -> KernelEvaluator:
    return KernelEvaluator(space=space)


def reweighted_evaluator(space: ModelSpace, grid: QuadratureGrid, psi) -> KernelEvaluator:
    """Evaluator for the kernel of the psi-weighted inner product.

    The sections are re-orthonormalized over the grid under psi by
    gram(...).transform; a Gram that gram() judges degenerate raises
    GramDegenerateError.
    """
    return KernelEvaluator(space=space, transform=gram(space, grid, psi=psi).transform, psi=psi)


def kernel_eval(ev: KernelEvaluator, x, y) -> complex:
    """B(x, y) as a density against mu x mu."""
    Vx = ev.section_rows(x)
    Vy = ev.section_rows(y)
    if Vx.shape[0] != 1 or Vy.shape[0] != 1:
        raise ValueError("kernel_eval takes single chart points")
    return complex(np.vdot(Vy[0], Vx[0]))  # vdot conjugates its first argument


def kernel_matrix(ev: KernelEvaluator, points) -> np.ndarray:
    """Hermitian matrix [B(x_a, x_b)] over a list of chart points."""
    V = ev.section_rows(points)
    return V @ V.conj().T


def kernel_det(ev: KernelEvaluator, points) -> float:
    """det [B(x_a, x_b)]: the m-point correlation against mu^m.

    Returns exactly 0.0 for m > rank, and snaps values below
    DET_FLOOR * prod_a B(x_a, x_a) to 0 (coincident points).
    """
    Z = _as_points(points, ev.space.dim)
    m = Z.shape[0]
    if m == 0:
        return 1.0
    if m > ev.rank:
        return 0.0
    K = kernel_matrix(ev, Z)
    diag = np.abs(np.diag(K))
    det = np.linalg.det(K).real
    floor = DET_FLOOR * float(np.prod(diag))
    if abs(det) < floor:
        return 0.0
    return float(det)


# ---------------------------------------------------------------------------
# limit kernel


def limit_kernel(lam, u, v) -> complex:
    """B_inf(u, v) against Lebesgue measure in the frame coordinates."""
    lam = np.asarray(lam, dtype=float)
    uu = np.atleast_1d(np.asarray(u, dtype=complex))
    vv = np.atleast_1d(np.asarray(v, dtype=complex))
    pref = float(np.prod(lam / np.pi))
    expo = np.sum(lam * (uu * vv.conj() - 0.5 * np.abs(uu) ** 2 - 0.5 * np.abs(vv) ** 2))
    return pref * complex(np.exp(expo))


def limit_correlation(lam, points) -> float:
    """det [B_inf(u_a, u_b)] over a list of frame points."""
    lam = np.asarray(lam, dtype=float)
    U = np.asarray(points, dtype=complex)
    if U.ndim == 1:
        U = U[:, None]
    half = 0.5 * (np.abs(U) ** 2 @ lam)
    K = np.prod(lam / np.pi) * np.exp((U * lam) @ U.conj().T - half[:, None] - half[None, :])
    return float(np.linalg.det(K).real)


def rescaled_correlation(space: ModelSpace, frame: NormalFrame, points) -> float:
    """m-point correlation in frame coordinates as a Lebesgue density.

    For fs/product spaces the frame points u are mapped to chart points
    center + u / sqrt(k) and the mu^m-density det[B] is multiplied by
    k^{-n m} and one kappa factor per point.  For the Ginibre family the
    chart is already the scaling frame: points are used as-is and only the
    kappa factors apply.
    """
    U = _as_points(points, space.dim)
    m = U.shape[0]
    if not space.factors[0].compact:
        chart_pts = U
        scale = 1.0
    else:
        k = space.power
        chart_pts = np.asarray(frame.center, dtype=complex)[None, :] + U / np.sqrt(k)
        scale = float(k) ** (-space.dim * m)
    det = kernel_det(evaluator(space), chart_pts)
    kappas = space.base_density(chart_pts)
    return float(det * scale * np.prod(kappas))


def default_test_points(dim: int) -> np.ndarray:
    """Deterministic frame-coordinate test points, shape (25, dim)."""
    grid = np.linspace(-1.2, 1.2, 5)
    base = np.array([a + 1j * b for a in grid for b in grid])  # 25 points
    cols = [base]
    for i in range(1, dim):
        idx = (np.arange(base.size) * 7 + 3 * i) % base.size
        cols.append(0.7 * base[idx] * np.exp(1j * np.pi / (4 + i)))
    return np.stack(cols, axis=1)


def scaling_errors(space_factory, ks, points=None) -> list[dict]:
    """Sup-error between rescaled and limit correlations across powers.

    The error at power k is the max over all one-point groups and all
    consecutive two-point groups formed from the test set.  Rows carry the
    ratio to the previous power for trend checks.
    """
    if min(ks) < 1:
        raise ValueError(f"scaling powers must be at least 1, got {list(ks)}")
    rows: list[dict] = []
    prev_err = None
    for k in ks:
        space = space_factory(k)
        frame = limit_frame(space, np.zeros(space.dim))
        pts = default_test_points(space.dim) if points is None else np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        groups = [pts[i : i + 1] for i in range(len(pts))]
        groups += [pts[i : i + 2] for i in range(len(pts) - 1)]
        err = 0.0
        for g in groups:
            got = rescaled_correlation(space, frame, g)
            want = limit_correlation(frame.lam, g)
            err = max(err, abs(got - want))
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
