"""Explicit model spaces carrying an orthonormal family of weighted sections.

Each space lives on an affine chart C^n and is described by

  * a holomorphic monomial basis f_alpha(z) = prod_i c_{alpha_i} z_i^{alpha_i},
  * a plurisubharmonic weight Phi(z), folded into *half-weighted* section
    values v_alpha(z) = f_alpha(z) exp(-Phi(z)/2),
  * a base probability-or-reference density rho(z) against chart Lebesgue
    measure dm, so integrals read  int g dmu = int g(z) rho(z) dm(z).

All three factorize over the chart coordinates: ModelSpace.factors holds one
frozen description per coordinate, of one of two kinds.

  GinibrePlane(d)          Phi = |z|^2, rho = 1/pi, basis z^j / sqrt(j!) for
                           j <= d.  The reference measure dm/pi with the
                           Gaussian folded into the sections makes these
                           monomials exactly orthonormal (the plain standard
                           Gaussian would give ||z^j/sqrt(j!)||^2 = 2^j).
  FubiniStudySphere(d, m)  P^1 at power d = m k: Phi = d log(1+|z|^2),
                           rho = (1/pi)(1+|z|^2)^{-2}, basis c_j z^j with
                           c_j = sqrt((d+1) C(d,j)); diagonal kernel d+1.

Ginibre(N) is one plane of degree N - 1, FubiniStudy(k) one sphere of degree
k, and Product(m, k) one sphere of degree m_i k per entry of m, so its rank
is prod_i (m_i k + 1).  A factor answers the per-factor questions, in the
squared radius t = |z|^2 where it can:

  log_norms, values       log c_j, and the half-weighted values v_j(z)
  weight, hessian         Phi(t), and the per-k complex Hessian that feeds
                          the limit kernel: 1 on the plane, m/(1+t)^2 on a sphere
  density                 rho(t)
  radial_rule             Gauss panels in t on [0, t_max] on the plane (the
                          edge is quadrature's); in s = t/(1+t) on a sphere,
                          where the Gram integrands are polynomials
  node_floor, min_radial  a default grid's fewest radial nodes (96 on the plane,
                          32 on a sphere), and the fewest that make the rule
                          exact (2 n_r - 1 >= d on a sphere; 1 on the plane)
  propose_radius          |z| drawn from the one-point intensity B(x, x) dmu / N

ModelSpace.factor_space(i) is factor i alone as a one-factor space, on
which quadrature assembles one factor of a factored product Gram.

compact tells the kinds apart only where a family-level feature is chosen:
the Ginibre grid edge (and the per-t grids of energy.GramPath), the
closed-form equilibrium disk, the Mabuchi refusal, the circular law, the
Ginibre scaling frame and the default intensity extent.  ModelSpace.kind
("ginibre" | "fs" | "product") is the label the config I/O and the CLI parse.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "GinibrePlane",
    "FubiniStudySphere",
    "ModelSpace",
    "NormalFrame",
    "make_ginibre",
    "make_fubini_study",
    "make_product",
    "limit_frame",
    "SPACE_KEYS",
    "space_to_config",
    "space_from_config",
]

# fewest Legendre nodes on a Ginibre panel, however narrow
MIN_PANEL = 16

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@cache
def _plane_log_norms(d: int) -> np.ndarray:
    """c_j = -log(j!)/2 for j = 0, ..., d, computed once per d (read-only)."""
    out = -0.5 * np.array([math.lgamma(j + 1.0) for j in range(d + 1)])
    out.flags.writeable = False
    return out


@cache
def _sphere_log_norms(d: int) -> np.ndarray:
    """c_j = (log(d + 1) + log C(d, j))/2 for j = 0, ..., d, computed once per d (read-only).

    log C(d, j) is the log of the exact integer: log d! - log j! - log (d - j)!
    would cancel terms of size log d! and keep an absolute error of about
    eps log d!, while the log of the integer is within an ulp or two of
    log C(d, j) itself.  The integers follow C(d, j + 1) = C(d, j) (d - j) /
    (j + 1), exactly, up to j = d / 2, and the rest by symmetry (d = 10^4:
    about 20 ms on a 2-core VM).
    """
    half, c = [], 1
    for j in range(d // 2 + 1):
        half.append(math.log(c))
        c = c * (d - j) // (j + 1)
    out = 0.5 * (math.log(d + 1.0) + np.array(half + half[: (d + 1) // 2][::-1]))
    out.flags.writeable = False
    return out


def _stirling_error(k: np.ndarray) -> np.ndarray:
    """log k! - (k + 1/2) log k + k - log sqrt(2 pi) for k = 1, 2, ... (a float array).

    Stirling's series to its k^-9 term from k = 15 on, where the first term
    it leaves out is below 3e-16; math.lgamma below 15.
    """
    inv2 = 1.0 / (k * k)
    out = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / k
    small = k < 15
    out[small] = [
        math.lgamma(x + 1.0) - ((x + 0.5) * math.log(x) - x + _HALF_LOG_2PI) for x in k[small]
    ]
    return out


def poisson_log_pmf(n: int, t) -> np.ndarray:
    """log P(Poisson(t) = k) for k = 0, ..., n - 1, of shape t.shape + (n,); t >= 0.

    Loader's saddle-point form (Loader, "Fast and accurate computation of
    binomial probabilities", 2000): for k >= 1,

        log P = -bd0(k, t) - log sqrt(2 pi k) - _stirling_error(k),

    with the deviance bd0 = k log(k / t) + t - k taken through
    log1p((k - t) / t) near k = t.  No terms of size k log t and log k!
    cancel, so a term keeps its relative accuracy at large k and t.
    log P(Poisson(t) = 0) = -t; at t = 0 every k >= 1 gives -inf.
    """
    t = np.asarray(t, dtype=float)[..., None]
    k = np.arange(1.0, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (k - t) / t
        bd0 = k * np.where(x > -0.5, np.log1p(x), np.log(k / t)) + (t - k)
    out = np.empty(t.shape[:-1] + (n,))
    out[..., 0] = -t[..., 0]
    out[..., 1:] = -(_stirling_error(k) + _HALF_LOG_2PI + 0.5 * np.log(k)) - bd0
    return out


@cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_gauss(edges, counts) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights, counts[i] of them on each [edges[i], edges[i+1]] panel."""
    nodes, weights = [], []
    for a, b, n in zip(edges[:-1], edges[1:], counts):
        x, w = gauss_legendre(n)
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


# Entries in one slab of working rows: the exact sampler forms a block's
# section rows and a flush's reflected rows of conj(W), and the Ginibre edge
# search its circle values, about this many entries at a time.
SLAB_ENTRIES = 2**14


_ALL_ROWS = (slice(None),)


def row_slabs(rows: int, width: int) -> Sequence[slice]:
    """Slices that cut `rows` rows of `width` entries into slabs of about SLAB_ENTRIES entries.

    Every slab starts at a multiple of four rows, and a last slab shorter
    than four rows joins the one before, so a product taken slab by slab
    rounds every entry as the whole product does (on one BLAS thread).  gemm
    rounds a row alike however many rows it is given.  But numpy hands a
    one-row or one-column product to gemv, and OpenBLAS's complex gemv takes
    rows four at a time and the last rows % 4 by other arithmetic, so a lone
    row or a slab edge off the groups of four would round differently.
    When all rows fit one slab, the one slab is the shared (slice(None),),
    so the common case costs a comparison and builds no list.
    """
    step = max(4, SLAB_ENTRIES // max(1, width) // 4 * 4)
    if rows < step + 4:
        return _ALL_ROWS
    cuts = [*range(0, rows - 3, step), rows]
    return [*map(slice, cuts, cuts[1:])]


def _break_squares(breaks) -> list[float]:
    """t = r^2 for the positive break radii, ascending; a square past the float range is inf."""
    return sorted(r * r for r in map(float, breaks) if r > 0.0)


# Phases e^{i j theta} of degree >= 2 * _PHASE_BLOCK are formed in blocks of
# this many columns (_Factor.values); below that one complex exponential per
# entry is cheaper.
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


# ---------------------------------------------------------------------------
# factors


class _Factor:
    """What both factor kinds share: half-weighted values from log_norms and weight."""

    def values(self, z: np.ndarray) -> np.ndarray:
        """Half-weighted values v_j(z), j = 0..degree, at (M,) complex points: (M, degree + 1).

        v_j(z) = exp(j log r + c_j - w(r^2)/2) e^{i j theta}, z = r e^{i theta}.
        Below degree 2 L (L = _PHASE_BLOCK) the phases take one complex
        exponential per entry of theta j.  From there they are formed in
        blocks, e^{i theta (L q + s)} = e^{i L q theta} e^{i s theta} for
        0 <= s < L, which takes L + ceil((d + 1) / L) exponentials per point
        and one complex product per entry.  Either way a phase is off by
        O(eps |theta| d), the rounding of theta j (or of theta L q) itself,
        and the product adds an ulp or two.  The magnitude is off by
        O(eps (d |log r| + |c_j| + w(r^2))) relative, the rounding of its log.
        """
        d = self.degree
        j = np.arange(d + 1, dtype=float)
        r = np.abs(z)
        theta = np.angle(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            logmag = np.multiply.outer(np.log(r), j)
        logmag[:, 0] = 0.0  # j = 0 term, avoids 0 * (-inf)
        # in place: one (M, d+1) float and one complex array at a time
        logmag += self.log_norms[None, :]
        logmag -= 0.5 * self.weight(r**2)[:, None]
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


@dataclass(frozen=True)
class GinibrePlane(_Factor):
    """The flat plane: weight |z|^2, basis z^j / sqrt(j!) for j <= degree."""

    degree: int
    compact = False
    node_floor = 96   # t_max / N is large at small N
    min_radial = 1    # the rule is not exact in t, so it has no such bound

    @property
    def log_norms(self) -> np.ndarray:
        return _plane_log_norms(self.degree)

    def weight(self, t: np.ndarray) -> np.ndarray:
        return t

    def hessian(self, t: np.ndarray) -> np.ndarray:
        return np.ones_like(t)

    def density(self, t: np.ndarray) -> np.ndarray:
        return np.full(t.shape, 1.0 / math.pi)

    def radial_rule(self, n_radial: int, breaks, t_max: float) -> tuple[np.ndarray, np.ndarray]:
        """Radii r and (1/2) dt weights of Gauss panels on [0, t_max], split at the breaks.

        Breaks at or beyond t_max are dropped.  The panels share n_radial nodes
        by their width in t, with at least MIN_PANEL each.
        """
        edges = np.array([0.0] + [t for t in _break_squares(breaks) if t < t_max] + [t_max])
        if edges.size == 2:
            counts = [n_radial]
        else:
            counts = [max(MIN_PANEL, math.ceil(n_radial * w / t_max)) for w in np.diff(edges)]
        t, wt = _panel_gauss(edges, counts)
        return np.sqrt(t), 0.5 * wt

    def propose_radius(self, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """|z| of an intensity draw: r^2 ~ Gamma(j + 1), with j = floor(u (degree + 1)) uniform."""
        return np.sqrt(rng.standard_gamma(np.floor(u * (self.degree + 1)) + 1.0))


@dataclass(frozen=True)
class FubiniStudySphere(_Factor):
    """P^1 at power degree = multiplicity * k, on its affine chart."""

    degree: int
    multiplicity: int
    compact = True
    node_floor = 32

    @property
    def log_norms(self) -> np.ndarray:
        return _sphere_log_norms(self.degree)

    @property
    def min_radial(self) -> int:
        return (self.degree + 2) // 2

    def weight(self, t: np.ndarray) -> np.ndarray:
        return self.degree * np.log1p(t)

    def hessian(self, t: np.ndarray) -> np.ndarray:
        return self.multiplicity / (1.0 + t) ** 2

    def density(self, t: np.ndarray) -> np.ndarray:
        return 1.0 / (math.pi * (1.0 + t) ** 2)

    def radial_rule(self, n_radial: int, breaks, t_max=None) -> tuple[np.ndarray, np.ndarray]:
        """Radii r and (1/2) dt weights of n_radial-node Gauss panels in s = t/(1+t); no edge.

        The Gram integrands t^j (1+t)^{-d-2} dt are polynomials s^j (1-s)^{d-j} ds.
        A break is dropped when its outer panel [s, 1] has no room below s = 1
        for the top node, rounded as _panel_gauss rounds it: there t = s/(1-s)
        would be inf (r beyond about 1e7).
        """
        top = gauss_legendre(n_radial)[0][-1]
        cuts = [s for s in (t / (1.0 + t) for t in _break_squares(breaks) if t < math.inf)
                if 0.5 * (s + 1.0) + 0.5 * (1.0 - s) * top < 1.0]
        s, ws = _panel_gauss(np.array([0.0] + cuts + [1.0]), [n_radial] * (len(cuts) + 1))
        return np.sqrt(s / (1.0 - s)), 0.5 * (ws / (1.0 - s) ** 2)

    def propose_radius(self, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """|z| of an intensity draw: B(x, x) is constant, so s = u is uniform."""
        return np.sqrt(u / (1.0 - u))


@dataclass(frozen=True)
class ModelSpace:
    """A rank-N family of half-weighted holomorphic sections on C^dim, one factor per coordinate."""

    kind: str                        # "ginibre" | "fs" | "product": the config and CLI label
    power: int                       # k for fs/product; N for ginibre (Gibbs scale)
    factors: tuple[GinibrePlane | FubiniStudySphere, ...]

    @cached_property
    def dim(self) -> int:
        return len(self.factors)

    @cached_property
    def rank(self) -> int:
        return math.prod(f.degree + 1 for f in self.factors)

    def factor_space(self, i: int) -> "ModelSpace":
        """Factor i (0-based) as a one-factor space of the same kind and power.

        Its sections are factor i's, and a product's sections, weight and
        measure are the products of its factor spaces'.
        """
        return ModelSpace(kind=self.kind, power=self.power, factors=(self.factors[i],))

    # -- sections ----------------------------------------------------------

    def section_matrix(self, points) -> np.ndarray:
        """Half-weighted section values, shape (M, rank).

        Multi-factor bases are flattened in C order: the first factor's
        degree is the slowest index.
        """
        Z = _as_points(points, self.dim)
        V = self.factors[0].values(Z[:, 0])
        for f, z in zip(self.factors[1:], Z.T[1:]):
            V = (V[:, :, None] * f.values(z)[:, None, :]).reshape(Z.shape[0], -1)
        return V

    # -- weight and measure -------------------------------------------------

    def weight_hessian_per_k(self, points) -> np.ndarray:
        """Complex Hessian of the per-k potential, shape (M, n, n): diagonal, one entry per factor."""
        t = np.abs(_as_points(points, self.dim)) ** 2
        H = np.zeros(t.shape + (self.dim,), dtype=complex)
        for i, f in enumerate(self.factors):
            H[:, i, i] = f.hessian(t[:, i])
        return H

    def base_density(self, points) -> np.ndarray:
        """d mu / dm against chart Lebesgue measure: the product of the factors' densities."""
        Z = _as_points(points, self.dim)
        return math.prod(f.density(t) for f, t in zip(self.factors, (np.abs(Z) ** 2).T))


# ---------------------------------------------------------------------------
# factories


def _is_int(value) -> bool:
    """An int or numpy integer, but not a bool (JSON true would read as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def make_ginibre(rank: int) -> ModelSpace:
    """Ginibre space of rank N on C: weight |z|^2, basis z^j/sqrt(j!)."""
    if not _is_int(rank) or rank < 1:
        raise ValueError(f"ginibre rank must be a positive integer, got {rank!r}")
    return ModelSpace(kind="ginibre", power=int(rank), factors=(GinibrePlane(int(rank) - 1),))


def make_fubini_study(k: int) -> ModelSpace:
    """Fubini-Study space at power k on C: rank k+1, diagonal kernel k+1."""
    if not _is_int(k) or k < 0:
        raise ValueError(f"fubini-study power must be an integer >= 0, got {k!r}")
    return ModelSpace(kind="fs", power=int(k), factors=(FubiniStudySphere(int(k), 1),))


def make_product(multiplicities, k: int) -> ModelSpace:
    """Product of Fubini-Study factors at powers m_i * k on C^n."""
    if not isinstance(multiplicities, (list, tuple)) or not all(map(_is_int, multiplicities)):
        raise ValueError(f"factor multiplicities must be a list of integers, got {multiplicities!r}")
    mult = tuple(int(m) for m in multiplicities)
    if len(mult) == 0:
        raise ValueError("product space needs at least one factor")
    if any(m < 1 for m in mult):
        raise ValueError(f"factor multiplicities must be >= 1, got {mult}")
    if not _is_int(k) or k < 1:
        raise ValueError(f"product power must be an integer >= 1, got {k!r}")
    factors = tuple(FubiniStudySphere(m * int(k), m) for m in mult)
    return ModelSpace(kind="product", power=int(k), factors=factors)


# ---------------------------------------------------------------------------
# point-level operations and limit frames


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

# the keys beside "kind" that a space block of each kind reads, and the CLI's space flags give
SPACE_KEYS = {"ginibre": ("N",), "fs": ("k",), "product": ("multiplicities", "k")}


def space_to_config(space: ModelSpace) -> dict:
    if space.kind == "ginibre":
        return {"kind": "ginibre", "N": space.rank}
    if space.kind == "fs":
        return {"kind": "fs", "k": space.power}
    mults = [f.multiplicity for f in space.factors]
    return {"kind": "product", "multiplicities": mults, "k": space.power}


def space_from_config(config: dict) -> ModelSpace:
    """Inverse of space_to_config; an unknown kind, or a key missing or not read, raises ValueError."""
    kind = config.get("kind")
    if kind not in SPACE_KEYS:
        raise ValueError(f"unknown space kind {kind!r}")
    missing = [key for key in SPACE_KEYS[kind] if config.get(key) is None]
    unread = [key for key in config if key not in ("kind", *SPACE_KEYS[kind])]
    if missing or unread:
        fault = f"lacks {', '.join(missing)}" if missing else f"does not read {', '.join(unread)}"
        raise ValueError(f"space of kind {kind!r} {fault}: {config}")
    if kind == "ginibre":
        return make_ginibre(config["N"])
    if kind == "fs":
        return make_fubini_study(config["k"])
    return make_product(config["multiplicities"], config["k"])
