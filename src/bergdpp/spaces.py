"""Explicit model spaces carrying an orthonormal family of weighted sections.

Each space lives on an affine chart C^n and is described by

  * a holomorphic monomial basis f_alpha(z) = prod_i c_{alpha_i} z_i^{alpha_i},
  * a plurisubharmonic weight Phi(z), folded into *half-weighted* section
    values v_alpha(z) = f_alpha(z) exp(-Phi(z)/2),
  * a base probability-or-reference density rho(z) against chart Lebesgue
    measure dm, so integrals read  int g dmu = int g(z) rho(z) dm(z).

Built-in spaces:

  Ginibre(N)      chart C, Phi = |z|^2, rho = 1/pi, basis z^j / sqrt(j!).
                  The reference measure dm/pi with the Gaussian folded into
                  the sections makes these monomials exactly orthonormal
                  (the plain standard Gaussian would give ||z^j/sqrt(j!)||^2
                  = 2^j instead).

  FubiniStudy(k)  chart C, Phi = k log(1+|z|^2), rho = (1/pi)(1+|z|^2)^{-2},
                  basis c_j z^j with c_j = sqrt((k+1) C(k,j)), rank k+1.
                  The diagonal kernel is identically k+1.

  Product(m, k)   chart C^n, one Fubini-Study factor per entry of m at power
                  m_i k; rank = prod_i (m_i k + 1); everything factorizes.

The per-k complex Hessian of the weight at a chart point feeds the limit
kernel: at the origin it is diag(m_i) for products (1 for FS and Ginibre).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "ModelSpace",
    "NormalFrame",
    "make_ginibre",
    "make_fubini_study",
    "make_product",
    "normalized_section_values",
    "limit_frame",
    "space_to_config",
    "space_from_config",
]


@cache
def _log_factorials(n: int) -> np.ndarray:
    """log j! for j = 0, ..., n, computed once per n (read-only)."""
    out = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    out.flags.writeable = False
    return out


@cache
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, j) for j = 0, ..., n, from exact integers, computed once per n (read-only).

    log n! - log j! - log (n - j)! would cancel terms of size log n! and keep
    an absolute error of about eps log n!; the log of the exact integer is
    within an ulp or two of log C(n, j) itself.  The integers follow
    C(n, j + 1) = C(n, j) (n - j) / (j + 1), exactly, up to j = n / 2, and the
    rest by symmetry (n = 10^4: about 20 ms on a 2-core VM).
    """
    half, c = [], 1
    for j in range(n // 2 + 1):
        half.append(math.log(c))
        c = c * (n - j) // (j + 1)
    out = np.array(half + half[: (n + 1) // 2][::-1])
    out.flags.writeable = False
    return out


# Phases e^{i j theta} of degree >= 2 * _PHASE_BLOCK are formed in blocks of
# this many columns (ModelSpace._factor_values); below that one complex
# exponential per entry is cheaper.
_PHASE_BLOCK = 16


def _unit_phases(theta: np.ndarray, j: np.ndarray) -> np.ndarray:
    """e^{i theta j} as an (M, len(j)) complex array, one exponential per entry."""
    out = np.zeros((theta.shape[0], j.shape[0]), dtype=complex)
    np.multiply.outer(theta, j, out=out.imag)
    return np.exp(out, out=out)


def _as_points(z, dim: int) -> np.ndarray:
    """Coerce scalar / (n,) / (M,n) input to an (M, n) complex array."""
    Z = np.asarray(z, dtype=complex)
    if Z.ndim == 0:
        Z = Z.reshape(1, 1)
    elif Z.ndim == 1:
        # ambiguous: a single point of dim n, or a batch on a 1-dim chart
        Z = Z[None, :] if (dim > 1 and Z.shape[0] == dim) else Z[:, None]
    if Z.ndim != 2 or Z.shape[1] != dim:
        raise ValueError(f"points must have {dim} complex coordinates, got shape {np.shape(z)}")
    return Z


@dataclass(frozen=True)
class ModelSpace:
    """A rank-N family of half-weighted holomorphic sections on C^dim."""

    kind: str                        # "ginibre" | "fs" | "product"
    dim: int
    rank: int
    power: int                       # k for fs/product; N for ginibre (Gibbs scale)
    multiplicities: tuple[int, ...]  # per-factor m_i (empty for ginibre)
    factor_degrees: tuple[int, ...]  # top monomial degree per factor

    # -- factor data ------------------------------------------------------

    @cached_property
    def _log_norms(self) -> tuple[np.ndarray, ...]:
        out = []
        for d in self.factor_degrees:
            if self.kind == "ginibre":
                c = -0.5 * _log_factorials(d)
            else:  # a Fubini-Study factor at power K = m_i k has degree d = K
                c = 0.5 * (math.log(d + 1.0) + _log_binomials(d))
            c.flags.writeable = False
            out.append(c)
        return tuple(out)

    def factor_log_norms(self, i: int) -> np.ndarray:
        """log of the basis normalization constants c_j for factor i (computed once per space)."""
        return self._log_norms[i]

    def _factor_values(self, i: int, z: np.ndarray) -> np.ndarray:
        """Half-weighted values v_j(z) for factor i; z is (M,) complex.

        v_j(z) = exp(j log r + c_j - w(r)/2) e^{i j theta}, z = r e^{i theta},
        with w the factor's weight.  Below degree 2 L (L = _PHASE_BLOCK) the
        phases take one complex exponential per entry of theta j.  From
        there they are formed in blocks, e^{i theta (L q + s)} =
        e^{i L q theta} e^{i s theta} for 0 <= s < L, which takes
        L + ceil((d + 1) / L) exponentials per point and one complex product
        per entry.  Either way a phase is off by O(eps |theta| d), the
        rounding of theta j (or of theta L q) itself, and the product adds
        an ulp or two.  The magnitude is off by
        O(eps (d |log r| + |c_j| + w(r))) relative, the rounding of its log.
        """
        d = self.factor_degrees[i]
        j = np.arange(d + 1, dtype=float)
        r = np.abs(z)
        theta = np.angle(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            logmag = np.multiply.outer(np.log(r), j)
        logmag[:, 0] = 0.0  # j = 0 term, avoids 0 * (-inf)
        if self.kind == "ginibre":
            weight = r**2
        else:
            weight = self.multiplicities[i] * self.power * np.log1p(r**2)
        # in place: one (M, d+1) float and one complex array at a time
        logmag += self.factor_log_norms(i)[None, :]
        logmag -= 0.5 * weight[:, None]
        mag = np.exp(logmag, out=logmag)
        if d < 2 * _PHASE_BLOCK:
            V = _unit_phases(theta, j)
        else:
            L = _PHASE_BLOCK
            low, high = _unit_phases(theta, j[:L]), _unit_phases(theta, j[::L])
            V = np.empty(mag.shape, dtype=complex)
            for q in range(0, d + 1, L):   # columns q .. q + L - 1, the last block cut at d
                np.multiply(high[:, q // L, None], low[:, : d + 1 - q], out=V[:, q : q + L])
        V *= mag
        return V

    # -- sections ----------------------------------------------------------

    def section_matrix(self, points) -> np.ndarray:
        """Half-weighted section values, shape (M, rank).

        Multi-factor bases are flattened in C order: the first factor's
        degree is the slowest index.
        """
        Z = _as_points(points, self.dim)
        V = self._factor_values(0, Z[:, 0])
        for i in range(1, self.dim):
            Vi = self._factor_values(i, Z[:, i])
            V = (V[:, :, None] * Vi[:, None, :]).reshape(Z.shape[0], -1)
        return V

    # -- weight and measure -------------------------------------------------

    def weight_hessian_per_k(self, points) -> np.ndarray:
        """Complex Hessian of the per-k potential, shape (M, n, n)."""
        Z = _as_points(points, self.dim)
        M, n = Z.shape
        H = np.zeros((M, n, n), dtype=complex)
        if self.kind == "ginibre":
            H[:, 0, 0] = 1.0
            return H
        t = np.abs(Z) ** 2
        for i in range(n):
            H[:, i, i] = self.multiplicities[i] / (1.0 + t[:, i]) ** 2
        return H

    def base_density(self, points) -> np.ndarray:
        """d mu / dm against chart Lebesgue measure."""
        Z = _as_points(points, self.dim)
        if self.kind == "ginibre":
            return np.full(Z.shape[0], 1.0 / math.pi)
        t = np.abs(Z) ** 2
        return np.prod(1.0 / (math.pi * (1.0 + t) ** 2), axis=1)


# ---------------------------------------------------------------------------
# factories


def make_ginibre(rank: int) -> ModelSpace:
    """Ginibre space of rank N on C: weight |z|^2, basis z^j/sqrt(j!)."""
    if not isinstance(rank, (int, np.integer)) or rank < 1:
        raise ValueError(f"ginibre rank must be a positive integer, got {rank!r}")
    rank = int(rank)
    return ModelSpace(
        kind="ginibre",
        dim=1,
        rank=rank,
        power=rank,
        multiplicities=(),
        factor_degrees=(rank - 1,),
    )


def make_fubini_study(k: int) -> ModelSpace:
    """Fubini-Study space at power k on C: rank k+1, diagonal kernel k+1."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"fubini-study power must be an integer >= 0, got {k!r}")
    k = int(k)
    return ModelSpace(
        kind="fs",
        dim=1,
        rank=k + 1,
        power=k,
        multiplicities=(1,),
        factor_degrees=(k,),
    )


def make_product(multiplicities, k: int) -> ModelSpace:
    """Product of Fubini-Study factors at powers m_i * k on C^n."""
    mult = tuple(int(m) for m in multiplicities)
    if len(mult) == 0:
        raise ValueError("product space needs at least one factor")
    if any(m < 1 for m in mult):
        raise ValueError(f"factor multiplicities must be >= 1, got {mult}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"product power must be an integer >= 1, got {k!r}")
    k = int(k)
    degrees = tuple(m * k for m in mult)
    rank = 1
    for d in degrees:
        rank *= d + 1
    return ModelSpace(
        kind="product",
        dim=len(mult),
        rank=rank,
        power=k,
        multiplicities=mult,
        factor_degrees=degrees,
    )


# ---------------------------------------------------------------------------
# point-level operations and limit frames


def normalized_section_values(space: ModelSpace, z) -> np.ndarray:
    """Half-weighted section values v_i(z) = f_i(z) exp(-Phi(z)/2) at one point."""
    pt = np.atleast_1d(np.asarray(z, dtype=complex))
    if not (np.all(np.isfinite(pt.real)) and np.all(np.isfinite(pt.imag))):
        raise ValueError(f"point must be finite, got {z!r}")
    Z = _as_points(pt, space.dim)
    if Z.shape[0] != 1:
        raise ValueError("normalized_section_values takes a single chart point")
    return space.section_matrix(Z)[0]


@dataclass(frozen=True)
class NormalFrame:
    """Limit data at a chart point: the per-k Hessian eigenvalues."""

    center: tuple[complex, ...]
    lam: tuple[float, ...]


def limit_frame(space: ModelSpace, center) -> NormalFrame:
    """Normal frame at a chart point: the per-k Hessian eigenvalues.

    For the built-in spaces the Hessian is diagonal in the chart coordinates
    (weight_hessian_per_k fills only the diagonal), so its diagonal holds the
    eigenvalues, each aligned with its coordinate as the limit kernel needs.
    """
    c = np.atleast_1d(np.asarray(center, dtype=complex))
    if c.shape != (space.dim,):
        raise ValueError(f"center must have {space.dim} complex coordinates")
    if not (np.all(np.isfinite(c.real)) and np.all(np.isfinite(c.imag))):
        raise ValueError(f"center must be finite, got {center!r}")
    lam = np.diag(space.weight_hessian_per_k(c[None, :])[0]).real
    if np.min(lam) <= 0.0:
        raise ValueError(f"weight is not smooth_positive at {center!r}: eigenvalues {lam}")
    kappa0 = float(space.base_density(c[None, :])[0])
    if not kappa0 > 0.0:
        raise ValueError(f"base density vanishes at {center!r}")
    return NormalFrame(center=tuple(c.tolist()), lam=tuple(float(x) for x in lam))


# ---------------------------------------------------------------------------
# serialization


def space_to_config(space: ModelSpace) -> dict:
    if space.kind == "ginibre":
        return {"kind": "ginibre", "N": space.rank}
    if space.kind == "fs":
        return {"kind": "fs", "k": space.power}
    return {"kind": "product", "multiplicities": list(space.multiplicities), "k": space.power}


def space_from_config(config: dict) -> ModelSpace:
    """Inverse of space_to_config; a missing key or unknown kind raises ValueError."""
    kind = config.get("kind")
    if kind == "ginibre":
        config = {"N": config.get("n"), **config}  # "n" is accepted for "N"
    needs = {"ginibre": ("N",), "fs": ("k",), "product": ("multiplicities", "k")}
    if kind not in needs:
        raise ValueError(f"unknown space kind {kind!r}")
    missing = [key for key in needs[kind] if config.get(key) is None]
    if missing:
        raise ValueError(f"space of kind {kind!r} lacks {', '.join(missing)}: {config}")
    if kind == "ginibre":
        return make_ginibre(config["N"])
    if kind == "fs":
        return make_fubini_study(config["k"])
    return make_product(config["multiplicities"], config["k"])
