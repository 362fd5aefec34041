"""Partition functions, cumulant-generating functions, and energy limits.

The partition function of the N-point process with extra weight psi is
N! det G(psi), where G is the Gram matrix of the orthonormal basis under the
psi-weighted inner product.  Its log-ratio along the direction psi,

    K(t) = log det G(t psi) - log det G(0),

is the cumulant-generating function of the linear statistic sum psi(X_i),
with derivative K'(t) = -int psi(x) B_t(x, x) dmu(x) against the kernel of
the re-orthonormalized basis.  Both routes to the derivative (central finite
difference and the Bergman integral) are exposed so they can be compared.

Monge-Ampere and equilibrium quantities use the per-k potential: the density
against chart Lebesgue measure is (n!/pi^n) det H, where H is the per-k
complex Hessian of phi + w, the space weight plus one radial weight form w.
For the Fubini-Study family the total chart mass is exactly 1; products
carry mass n! * prod(multiplicities), matching the leading rank growth.  The
equilibrium measure is the normalized density; it is torus-invariant, so it
is summed on QuadratureGrid.radial_rule.

The Mabuchi-type functional L(phi + psi', u) = int_0^1 int u dmu_eq^(s) ds
(equilibrium measures along the segment phi + psi' + s u) is evaluated by
Gauss-Legendre in s.  The rescaled cumulant functional

    Lambda_k(f) = [log det G(psi + k (psi' - f)) - log det G(psi + k psi')] / (k N)

converges to -L(phi + psi', -f): substituting K'(t) turns the numerator into
k int_0^1 int f B_t dmu dt along the weight path phi + psi' - t f, and
(1/N) B_t dmu tends to the equilibrium measure of that endpoint.  A constant
direction f = c gives Lambda_k = c exactly at every k, which pins the sign.

Smooth positively-curved weights only: when the Hessian of phi + w loses
positivity the computation stops with a "leaves the Kahler cone" error
rather than projecting onto the psh envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprs import WeightExpr, complex_hessian, weight_sum, weight_values
from .quadrature import (
    GramMatrix,
    QuadratureGrid,
    Region,
    build_grid,
    gauss_legendre,
    gram,
    weighted_gram_matrix,
)
from .spaces import ModelSpace

__all__ = [
    "PositivityError",
    "PartitionValue",
    "partition_function",
    "GramPath",
    "monge_ampere_density",
    "equilibrium_mass",
    "mabuchi",
    "lambda_k",
    "lambda_limit",
    "LambdaRow",
    "EnergyReport",
    "lambda_report",
]


class PositivityError(ArithmeticError):
    """A shifted potential left the Kahler cone (non-positive Hessian)."""


# ---------------------------------------------------------------------------
# partition function


@dataclass(frozen=True)
class PartitionValue:
    rank: int
    logdet_gram: float
    log_value: float    # log Z = log N! + log det G
    value: float        # inf if it overflows


def partition_function(
    space: ModelSpace, psi=None, grid: QuadratureGrid | None = None
) -> PartitionValue:
    """Z = N! det G(psi), with the log form computed without overflow."""
    if grid is None:
        grid = build_grid(space, psi=psi)
    g = gram(space, grid, psi=psi)
    log_z = math.lgamma(space.rank + 1.0) + g.logdet
    try:
        value = math.exp(log_z)
    except OverflowError:
        value = math.inf
    return PartitionValue(
        rank=space.rank, logdet_gram=g.logdet, log_value=log_z, value=value
    )


# ---------------------------------------------------------------------------
# cumulant-generating function


class GramPath:
    """log det G(t psi) along a direction psi, with the Grams cached per t."""

    def __init__(self, space: ModelSpace, psi):
        self.space = space
        self.psi = psi
        self._weights: dict[float, object] = {}
        self._grids: dict[float, QuadratureGrid] = {}
        self._grams: dict[float, GramMatrix] = {}

    def weight_at(self, t: float):
        """t psi, built once per t: the grid and the Grams at t share it (QuadratureGrid.psi)."""
        t = float(t)
        if t not in self._weights:
            self._weights[t] = weight_sum((t, self.psi))
        return self._weights[t]

    def grid_at(self, t: float) -> QuadratureGrid:
        """The grid for the weight t psi: a Ginibre edge moves with the weight."""
        t = 0.0 if self.space.factors[0].compact else float(t)
        if t not in self._grids:
            self._grids[t] = build_grid(self.space, psi=self.weight_at(t))
        return self._grids[t]

    def gram_at(self, t: float) -> GramMatrix:
        """G_t, assembled once: logdet and bergman_derivative share it."""
        t = float(t)
        if t not in self._grams:
            self._grams[t] = gram(self.space, self.grid_at(t), psi=self.weight_at(t))
        return self._grams[t]

    def logdet(self, t: float) -> float:
        return self.gram_at(t).logdet

    def cgf(self, t: float) -> float:
        return self.logdet(t) - self.logdet(0.0)

    def bergman_derivative(self, t: float) -> float:
        """K'(t) = -int psi(x) B_t(x, x) dmu(x) = -sum_ab (conj G_t)^{-1}_ab G~_ab.

        B_t(x, x) = |v(x) T|^2 e^{-psi_t(x)} with T the orthonormalising map
        of G_t (GramMatrix.transform), and T T^H = conj(G_t)^{-1}, so the
        integral is a trace against G~, the Gram masked by the form psi: a
        radial psi keeps it, like G_t, on the diagonal route.
        """
        if self.psi is None:
            return 0.0
        T = self.gram_at(t).transform
        G_psi = weighted_gram_matrix(
            self.space, self.grid_at(t), psi=self.weight_at(t), mask=self.psi
        )
        return -float(np.sum((T @ T.conj().T) * G_psi).real)

    @staticmethod
    def fd_step(t: float) -> float:
        return 1e-4 * (1.0 + abs(t))

    def fd_derivative(self, t: float) -> float:
        h = self.fd_step(t)
        return (self.cgf(t + h) - self.cgf(t - h)) / (2.0 * h)

    def derivative_check(self, t: float) -> dict:
        """Both derivative routes and their gap relative to the larger, or to N eps / h^3.

        log det carries an error of about N eps, so the central difference
        carries N eps / h, the share h^2 (its truncation level) of that
        floor; a zero derivative would otherwise divide noise by noise.
        """
        fd = self.fd_derivative(t)
        bg = self.bergman_derivative(t)
        h = self.fd_step(t)
        scale = max(abs(fd), abs(bg), self.space.rank * np.finfo(float).eps / h**3)
        return {
            "t": float(t),
            "finite_difference": fd,
            "bergman_integral": bg,
            "rel_gap": abs(fd - bg) / scale,
        }


# ---------------------------------------------------------------------------
# Monge-Ampere quantities


def monge_ampere_density(space: ModelSpace, points, weight=None) -> np.ndarray:
    """(n!/pi^n) det of the per-k complex Hessian of phi + weight.

    weight: a radial weight form (exprs.complex_hessian) added to the
    space's own per-k weight phi.  Raises PositivityError when the Hessian
    is not positive definite somewhere on the points.
    """
    Z = np.asarray(points, dtype=complex)
    if Z.ndim == 1:
        Z = Z[:, None]
    H = space.weight_hessian_per_k(Z) + complex_hessian(weight, Z)
    return _density_from_hessian(space.dim, H)


def _density_from_hessian(n: int, H: np.ndarray) -> np.ndarray:
    """(n!/pi^n) det H per point, or PositivityError if some H is not positive."""
    eigs = np.linalg.eigvalsh(H)
    worst = float(eigs.min())
    if worst <= 0.0:
        idx = int(np.argmin(eigs.min(axis=1)))
        raise PositivityError(
            "shifted potential leaves the Kahler cone: Hessian eigenvalue "
            f"{worst:.3e} at point index {idx}"
        )
    det = np.prod(eigs, axis=1)
    return (math.factorial(n) / math.pi**n) * det


def equilibrium_mass(space: ModelSpace, region: Region | None = None, weight=None) -> float:
    """Normalized Monge-Ampere mass of phi + weight on a Region (None: the whole chart).

    For the Ginibre space the equilibrium measure is the uniform law on the
    disk of radius sqrt(N) (the smooth global potential story does not apply
    without the psh envelope), so only unweighted masses are available there.
    """
    if not space.factors[0].compact:
        if weight is not None:
            raise ValueError(
                "weighted Ginibre equilibrium measures need the psh envelope, "
                "which is out of scope"
            )
        if region is None:
            return 1.0
        lo, hi = region.bounds[0]
        N = float(space.rank)
        return (min(hi * hi, N) - min(lo * lo, N)) / N

    grid = build_grid(space, breaks=region.break_radii() if region is not None else None)
    points, w = grid.radial_rule
    wma = w * monge_ampere_density(space, points, weight)
    total = float(wma.sum())
    num = total if region is None else float(wma[region.mask(points)].sum())
    return num / total


def mabuchi(space: ModelSpace, psi_prime=None, direction=None, s_nodes: int = 16) -> float:
    """L(phi + psi', u) = int_0^1 int u dmu_eq^(phi+psi'+s*u) ds, u the weight form direction.

    Gauss-Legendre in s with at least 16 nodes; equilibrium measures from the
    normalized Monge-Ampere density at each s.
    """
    if not space.factors[0].compact:
        raise ValueError(
            "Mabuchi functional on the Ginibre space needs the psh envelope, "
            "which is out of scope"
        )
    if direction is None:
        return 0.0
    if s_nodes < 16:
        raise ValueError("s_nodes must be at least 16")
    points, weights = build_grid(space).radial_rule
    x, w = gauss_legendre(s_nodes)
    u_vals = weight_values(direction, points)
    # The Hessians do not depend on s; at s their sum is monge_ampere_density's
    # for weight_sum((1, psi'), (s, u)), added in the same order.
    H_phi = space.weight_hessian_per_k(points)
    H_psi = complex_hessian(psi_prime, points)
    H_dir = complex_hessian(direction, points)
    total = 0.0
    for s, ws in zip(0.5 * (x + 1.0), 0.5 * w):
        try:
            ma = _density_from_hessian(space.dim, H_phi + (H_psi + float(s) * H_dir))
        except PositivityError as exc:
            raise PositivityError(f"{exc} (path parameter s={s:.4f})") from None
        wma = weights * ma
        total += float(ws) * float(np.sum(wma * u_vals)) / float(wma.sum())
    return total


# ---------------------------------------------------------------------------
# rescaled cumulant functional


def lambda_k(space: ModelSpace, f, psi=None, psi_prime=None) -> float:
    """[log det G(psi + k(psi' - f)) - log det G(psi + k psi')] / (k N), for k >= 1."""
    if space.power < 1:
        raise ValueError(f"lambda_k needs a power k >= 1, got k = {space.power}")
    grid = build_grid(space)
    k = float(space.power)
    shifted = weight_sum((1.0, psi), (k, psi_prime), (-k, f))
    base = weight_sum((1.0, psi), (k, psi_prime))
    g1 = gram(space, grid, psi=shifted).logdet
    g2 = gram(space, grid, psi=base).logdet
    return (g1 - g2) / (k * space.rank)


def lambda_limit(space: ModelSpace, f: WeightExpr, psi_prime=None, s_nodes: int = 24) -> float:
    """Large-k limit of lambda_k: -L(phi + psi', -f)."""
    return -mabuchi(space, psi_prime=psi_prime, direction=weight_sum((-1.0, f)), s_nodes=s_nodes)


@dataclass(frozen=True)
class LambdaRow:
    k: int
    rank: int
    lambda_value: float
    gap: float


@dataclass(frozen=True)
class EnergyReport:
    rows: tuple[LambdaRow, ...]
    target: float
    s_nodes: int


def lambda_report(
    spaces_by_k,
    f: WeightExpr,
    psi=None,
    psi_prime=None,
    s_nodes: int = 24,
) -> EnergyReport:
    """lambda_k across a family of spaces plus the Mabuchi-limit target.

    The target uses per-k Hessians, which do not depend on k, so it is
    computed once on the first space of the family.
    """
    spaces_by_k = list(spaces_by_k)
    if not spaces_by_k:
        raise ValueError("no spaces given")
    target = lambda_limit(spaces_by_k[0][1], f, psi_prime=psi_prime, s_nodes=s_nodes)
    rows = []
    for k, space in spaces_by_k:
        lam = lambda_k(space, f, psi=psi, psi_prime=psi_prime)
        rows.append(
            LambdaRow(k=int(k), rank=space.rank, lambda_value=lam, gap=abs(lam - target))
        )
    return EnergyReport(rows=tuple(rows), target=target, s_nodes=s_nodes)
