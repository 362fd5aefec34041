"""Tensor-product quadrature grids and Gram matrices on model-space charts.

Radial structure.  Every factor is integrated in the squared radius t = r^2
by its own radial rule (spaces module docstring): Fubini-Study factors in
s = t/(1+t) in [0, 1], where Gauss-Legendre nodes integrate the Gram
integrands exactly once 2*n_r - 1 >= d, and the Ginibre factor on t in
[0, t_max], whose edge is set here.  Unweighted, t_max solves
Q(N, t_max) = TAIL for the regularized upper incomplete gamma function,
which at integer N is the Poisson sum

    Q(N, t) = e^{-t} sum_{k<N} t^k / k! = P(Poisson(t) <= N - 1)

(DLMF 8.4.10).  _tail_edge sums its terms in logs (poisson_log_pmf) and
solves for t_max once per N.  The tail is bounded, not estimated: beyond t the
diagonal entry a carries mass Q(a + 1, t), so by Cauchy-Schwarz an unweighted
Gram entry loses at most sqrt(Q(a + 1, t) Q(b + 1, t)) <= Q(N, t) = TAIL, as
Q(a + 1, t) grows with a <= N - 1.  An extra weight psi scales the bound by
e^{-psi} beyond t, which a weight unbounded below makes large: psi =
(1 - r^2)/2 leaves a top-index tail Q(N, t/2), 85% at N = 150.  So where
e^{-psi} exceeds 1 on the edge circle, a grid built for psi moves its edge
out until at most a share TAIL of the weighted top-index profile
t^(N-1) e^{-t} g(t) lies beyond it, g(t) being the largest e^{-psi} on the
circle |z|^2 = t.
The profile is integrated numerically; for a radial psi it is the top
diagonal entry's integrand, whose relative tail bounds every entry's as
above.  A weight growing like e^{r^2} or faster makes the Gram diverge and
is refused.  A grid built without psi bounds a weighted tail only by
e^{-inf psi}, so gram and weighted_gram_matrix refuse a weight other than
the one the grid was built for (QuadratureGrid.psi) whose own edge lies
beyond the grid's: one with e^{-psi} > 1 on the edge circle and a weighted
tail that needs more room.  A Ginibre grid always ends at that edge.

Panels.  A factor of degree d gets n_r = max(F, d // 2 + 8) Gauss-Legendre
nodes per panel, F being its node_floor: on a compact factor they integrate
the integrands in s exactly with 15 degrees to spare for weights.
Breakpoints (region radii) split the radial rule into panels, so indicator
functions of disks and annuli are constant per panel and region masses keep
spectral accuracy instead of the O(n^{-2}) loss from cutting a Gauss panel
in half.  Ginibre panels share the n_r nodes of [0, t_max] by width
(GinibrePlane.radial_rule), so the node spacing stays that of one panel.

Angular structure.  Uniform angles with weight 2 pi / n_theta integrate
e^{i j theta} exactly for 0 < |j| < n_theta, so Gram entries, whose angular
frequencies reach the factor's top degree d, need n_theta >= d + 1.  The
default n_theta = 2 d + 1 also makes the integrals of |B|^2 exact.

Resolution.  grid.under_resolved names the first of these two bounds a grid
breaks (None if none); build_grid accepts such grids, the check commands don't.

Grams.  The Gram A_ab = sum_m c_m v_a(z_m) conj(v_b(z_m)) is the quadrature
sum with factor c = w rho e^{-psi} m at the nodes, m being the mask's
values: a Region's indicator or a weight form's values (weight_values).
Every grid is a tensor product of polar factor grids, and a section there is
v_a(r, theta) = R_a(r) e^{i a theta} (one such factor per chart coordinate on
products), so the sum regroups exactly as

    A_ab = sum_r R_a(r) R_b(r) c^_r[a - b],

where c^_r[delta] = sum_q c(r, theta_q) e^{i delta theta_q} is the DFT of c
over the angles (a multi-axis DFT on products, one axis per factor).  The
radial tables R_a come from the n_r radii alone.

Diagonal Grams.  If c does not depend on the angles, c^_r[delta] is c(r)
times the sum of e^{i delta theta_q} over the n_theta uniform angles, which
is 0 unless n_theta divides delta.  Gram frequencies reach |delta| <= d, the
factor's degree, so when every factor has n_theta >= d + 1 every band but
delta = 0 vanishes exactly: the monomials are orthogonal (the structure
behind Kostlan's theorem) and A_aa = sum_r R_a(r)^2 n_theta c(r).  c is
free of the angles when the weight is None, a radial WeightExpr (only r2 /
r2_<i>) or a weight_sum of radial terms, and the mask is None, a Region,
whose indicator is radial per factor, or such a radial weight form.
_diagonal decides this from those inputs and the grid's angular counts,
never from the size of off-diagonal entries.  On this route _assemble
evaluates c on QuadratureGrid.radial_rule, the radial tensor grid at theta
= 0 with each factor's angular weights summed to 2 pi, and contracts R_a^2
into it one factor at a time: O(n_r N) work per factor, and the grid's node
arrays are never built.  Any other weight or mask form (re_ / im_ terms, any other
callable) or an aliasing grid (angular < 2 * degree + 1 folds bands onto
each other, and angular <= degree onto band 0) takes the dense route: the
DFT of c at the nodes, then A band by band (fixed a - b), one factor at a
time, in O(n_r N^2) time and memory, with no section matrix on the
M = n_r n_theta nodes.

gram() is the one place where a Gram is judged and factored.  On the dense
route it Hermitianizes as (A + A^H)/2 with the asymmetry recorded, and works
on the scaled Gram S = D^{-1/2} A D^{-1/2}, D = diag(A), which does not
change when a basis section is rescaled (and diagonal scaling nearly
minimises the condition number of a Hermitian positive-definite matrix: van
der Sluis, Numer. Math. 1969).  S gives the log-determinant, the degeneracy
verdict (an eigenvalue of S at most 1e-12 of its largest raises
GramDegenerateError, the usual cause being a grid with fewer nodes than the
rank needs) and the orthonormalising map GramMatrix.transform that the
kernel and CGF paths use.  On the diagonal route S = I exactly: log det A =
sum log D, the Gram is degenerate when some D_aa <= 0, and the map is
D^{-1/2}.  GramMatrix.route records which route built a Gram.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .exprs import is_radial_weight, weight_values
from .spaces import MIN_PANEL, ModelSpace, _panel_gauss, gauss_legendre, poisson_log_pmf

__all__ = [
    "TAIL",
    "MIN_PANEL",
    "GramDegenerateError",
    "Region",
    "QuadratureGrid",
    "GramMatrix",
    "gauss_legendre",
    "poisson_log_pmf",
    "build_grid",
    "gram",
    "weighted_gram_matrix",
    "gram_to_csv",
]


# Q(N, t_max) at the outer edge of a Ginibre grid: the Gram tail bound
TAIL = 1e-16
# weighted Ginibre edge search: doublings of the edge before a weight is
# refused, and the Legendre panels that integrate the weighted profile
EDGE_DOUBLINGS = 40
EDGE_PANELS = 128
EDGE_NODES = 16


class GramDegenerateError(ArithmeticError):
    """Gram matrix is numerically not positive definite."""


@dataclass(frozen=True)
class Region:
    """Product of radial annuli, one closed (r_lo, r_hi) interval per factor.

    Its indicator depends on the moduli alone, so a Gram masked by a Region
    keeps the torus invariance that makes it diagonal (module docstring).
    """

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not (0.0 <= lo < hi):
                raise ValueError(f"bad radial interval [{lo}, {hi}]")

    @staticmethod
    def disk(radius: float, dim: int = 1) -> "Region":
        return Region(((0.0, float(radius)),) * dim)

    @staticmethod
    def annulus(inner: float, outer: float, dim: int = 1) -> "Region":
        return Region(((float(inner), float(outer)),) * dim)

    @staticmethod
    def full(dim: int = 1) -> "Region":
        return Region(((0.0, math.inf),) * dim)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def label(self) -> str:
        parts = []
        for lo, hi in self.bounds:
            if lo == 0.0 and math.isinf(hi):
                parts.append("full")
            elif lo == 0.0:
                parts.append(f"disk:{hi:g}")
            else:
                parts.append(f"annulus:{lo:g}:{hi:g}")
        return "x".join(parts)

    def mask(self, points: np.ndarray) -> np.ndarray:
        Z = np.asarray(points, dtype=complex)
        if Z.ndim == 1:
            Z = Z[:, None]
        if Z.shape[1] != self.dim:
            raise ValueError(f"points have {Z.shape[1]} factors, region has {self.dim}")
        r = np.abs(Z)
        ok = np.ones(Z.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(self.bounds):
            ok &= (r[:, i] >= lo) & (r[:, i] <= hi)
        return ok

    def overlap(self, other: "Region") -> "Region | None":
        """The region of points in both, or None if it has no interior."""
        bounds = tuple(
            (max(lo_a, lo_b), min(hi_a, hi_b))
            for (lo_a, hi_a), (lo_b, hi_b) in zip(self.bounds, other.bounds)
        )
        return Region(bounds) if all(lo < hi for lo, hi in bounds) else None

    def break_radii(self) -> list[list[float]]:
        """Per-factor finite positive radii, for panel-aligned grids."""
        out = []
        for lo, hi in self.bounds:
            edges = [r for r in (lo, hi) if 0.0 < r < math.inf]
            out.append(sorted(set(edges)))
        return out


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor product of one polar rule per factor: Gauss radii, uniform angles.

    The grid holds each factor's radial rule (radii, radial weights) and
    angular count.  The flat node arrays nodes, weights and density are
    built on first use, by a dense Gram alone; a torus-invariant integrand
    sums on radial_rule instead.  The nodes run factor 0 slowest, and within
    a factor radius-major over radii x angular uniform angles, so a node
    array reshapes to (n_r0, n_theta0, n_r1, ...).
    """

    space: ModelSpace
    radii: tuple[np.ndarray, ...]  # radial nodes r (not r^2), per factor
    radial_weights: tuple[np.ndarray, ...]  # (1/2) dt Gauss weights per factor: dm = (1/2) dt dtheta
    radial: tuple[int, ...]    # Gauss nodes per radial panel (Ginibre: per [0, t_max]), per factor
    angular: tuple[int, ...]   # angular nodes per factor
    under_resolved: str | None  # the exactness bound the grid breaks, if any
    psi: object                # the weight the grid was built for (None: unweighted)

    @property
    def size(self) -> int:
        return math.prod(r.size * n for r, n in zip(self.radii, self.angular))

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """(M, n) complex chart nodes."""
        zs = [
            (r[:, None] * np.exp(1j * (2.0 * math.pi * np.arange(n) / n))[None, :]).ravel()
            for r, n in zip(self.radii, self.angular)
        ]
        return np.stack([m.ravel() for m in np.meshgrid(*zs, indexing="ij")], axis=1)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """(M,) chart-Lebesgue weights."""
        ws = [np.repeat(w * (2.0 * math.pi / n), n) for w, n in zip(self.radial_weights, self.angular)]
        weights = np.ones(self.size)
        for wm in np.meshgrid(*ws, indexing="ij"):
            weights = weights * wm.ravel()
        return weights

    @functools.cached_property
    def density(self) -> np.ndarray:
        """base_density at the nodes."""
        return self.space.base_density(self.nodes)

    @functools.cached_property
    def radial_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Torus-reduced rule for integrands of the moduli alone: (M_r, n) points, (M_r,) weights.

        The radial tensor grid at theta = 0, factor 0 slowest, with each
        factor's angular weights summed to 2 pi.
        """
        points = np.stack([m.ravel() for m in np.meshgrid(*self.radii, indexing="ij")], axis=1)
        w = functools.reduce(np.multiply.outer, [2.0 * math.pi * rw for rw in self.radial_weights])
        return points.astype(complex), w.ravel()

    def mass(self) -> float:
        points, w = self.radial_rule
        return float(np.sum(w * self.space.base_density(points)))


@functools.cache
def _tail_edge(rank: int) -> float:
    """The unweighted Ginibre edge: the t with Q(rank, t) = TAIL, computed once per rank.

    log Q(N, t) = log sum_{k<N} P(Poisson(t) = k) falls in t with slope
    -P(Poisson(t) = N - 1) / Q, and it is concave (Q is the survival
    function of the log-concave Gamma(N) law).  So Newton steps taken from
    the right of the root fall onto it monotonically.  A step that leaves
    the bracket [lo, hi] of the root is replaced by bisection.
    """
    target = math.log(TAIL)

    def log_q(t: float) -> tuple[float, float]:  # log Q(rank, t), log P(Poisson(t) = rank - 1)
        logs = poisson_log_pmf(rank, t)
        top = float(logs.max())
        return top + math.log(float(np.exp(logs - top).sum())), float(logs[-1])

    lo, hi = 0.0, float(rank)
    while log_q(hi)[0] > target:
        lo, hi = hi, 2.0 * hi
    t, step = hi, math.inf
    while abs(step) > 1e-15 * t:
        value, last = log_q(t)
        if value > target:
            lo = t
        else:
            hi = t
        new = t + (value - target) * math.exp(value - last)
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        step, t = new - t, new
    return t


def _ginibre_edge(rank: int, psi, n_angular: int) -> float:
    """The Ginibre grid edge t_max for the weight psi (module docstring).

    Unweighted, t_max = _tail_edge(rank) solves Q(rank, t_max) = TAIL for the
    Poisson sum Q(N, t) = e^{-t} sum_{k<N} t^k / k! = P(Poisson(t) <= N - 1).
    Under psi, t_max is the first of EDGE_PANELS equal panel edges on [0, S]
    beyond which at most a share TAIL of the top-index profile
    f(t) = t^(rank-1) e^{-t} g(t) lies, where g(t) is the largest e^{-psi}
    over n_angular points of the circle |z|^2 = t and f has fallen off by S;
    never below the unweighted edge, which stands where g <= 1 on it.
    """
    t0 = _tail_edge(rank)
    if psi is None:
        return t0
    circle = np.exp(2j * math.pi * np.arange(n_angular) / n_angular)

    def log_g(t) -> np.ndarray:  # in logs, so e^{-psi} cannot overflow
        t = np.atleast_1d(np.asarray(t, dtype=float))
        z = (np.sqrt(t)[:, None] * circle[None, :]).reshape(-1, 1)
        return np.max(-weight_values(psi, z).reshape(t.size, n_angular), axis=1)

    def log_f(t) -> np.ndarray:  # up to the constant log (rank - 1)!
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore"):  # (rank - 1) log t, with 0 log 0 = 0
            log_t = np.log(t, out=np.zeros_like(t), where=rank > 1)
        return (rank - 1) * log_t - t + log_g(t)

    if log_g(t0)[0] <= 0.0:
        return t0
    # S: where t f(t) has fallen e^-60 below the largest value seen
    top, S = float(log_f(t0)[0]), t0
    for _ in range(EDGE_DOUBLINGS):
        S *= 2.0
        at_S = float(log_f(S)[0])
        if at_S + math.log(S) < top - 60.0:
            break
        top = max(top, at_S)
    else:
        raise ValueError(
            f"weight {psi!r}: e^(-psi) grows so fast that the Gram tail does not "
            f"fall off; the Gram may diverge"
        )
    # tails[i]: the profile's integral over [edges[i], S], summed from the right
    edges = np.linspace(0.0, S, EDGE_PANELS + 1)
    x, w = _panel_gauss(edges, [EDGE_NODES] * EDGE_PANELS)
    logs = log_f(x)
    shift = float(logs.max())
    panels = (w * np.exp(logs - shift)).reshape(EDGE_PANELS, EDGE_NODES).sum(axis=1)
    tails = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
    k = int(np.argmax(tails <= TAIL * tails[0]))  # the first edge with share <= TAIL
    return max(t0, float(edges[k]))


def _unresolved_bound(space: ModelSpace, radials, angulars) -> str | None:
    """The first exactness bound of the unweighted Gram that a grid breaks."""
    for i, (f, n_r, n_a) in enumerate(zip(space.factors, radials, angulars), 1):
        if n_a < f.degree + 1:
            return f"factor {i} of degree {f.degree} needs angular >= degree + 1, got {n_a}"
        if n_r < f.min_radial:
            return f"factor {i} of degree {f.degree} needs 2*radial - 1 >= degree, got {n_r}"
    return None


def build_grid(
    space: ModelSpace,
    radial: int | None = None,
    angular: int | None = None,
    breaks: tuple[tuple[float, ...], ...] | None = None,
    psi=None,
) -> QuadratureGrid:
    """Tensor-product grid adapted to the space: one radial rule per factor.

    radial:     nodes per radial panel, default max(F, degree // 2 + 8) with
                F the factor's node_floor; Ginibre panels share them.
    angular:    angles per factor (default 2 * degree + 1, the exactness bound).
    breaks:     per factor, the radii at which radial panels split.  Regions
                whose boundaries appear here are integrated to spectral accuracy.
    psi:        the extra weight the grid's Grams will carry.  A Ginibre grid
                ends at the edge t_max that the tail bound TAIL sets, which
                moves out where e^{-psi} grows (module docstring).  Compact
                charts place no edge for it; every grid records it as .psi.

    Only the radial rules are computed here; the M-node arrays are built on
    first use (QuadratureGrid).
    """
    n = space.dim
    if breaks is None:
        breaks = [()] * n
    elif len(breaks) != n:
        raise ValueError(f"need breaks for {n} factors, got {len(breaks)}")

    rules, radials, angulars = [], [], []
    for f, cuts in zip(space.factors, breaks):
        n_ang = angular if angular is not None else max(8, 2 * f.degree + 1)
        n_rad = radial if radial is not None else max(f.node_floor, f.degree // 2 + 8)
        if n_rad < 1 or n_ang < 1:
            raise ValueError(
                f"a grid needs at least one radial and one angular node per factor, "
                f"got radial={n_rad}, angular={n_ang}"
            )
        t_max = None if f.compact else _ginibre_edge(space.rank, psi, n_ang)
        rules.append(f.radial_rule(n_rad, cuts, t_max))
        radials.append(n_rad)
        angulars.append(n_ang)

    return QuadratureGrid(
        space=space,
        radii=tuple(r for r, _ in rules),
        radial_weights=tuple(w for _, w in rules),
        radial=tuple(radials),
        angular=tuple(angulars),
        under_resolved=_unresolved_bound(space, radials, angulars),
        psi=psi,
    )


@dataclass(frozen=True)
class GramMatrix:
    """Hermitianized Gram matrix with its log-determinant and diagnostics."""

    matrix: np.ndarray       # (N, N) complex Hermitian
    logdet: float
    asymmetry_abs: float     # max |A - A^H| before Hermitianization
    asymmetry_rel: float
    route: str               # "diagonal" or "dense": how gram() assembled and judged it

    @functools.cached_property
    def transform(self) -> np.ndarray:
        """The orthonormalising map T = D^{-1/2} conj(S)^{-1/2}, computed on first use.

        S = D^{-1/2} A D^{-1/2} is the scaled Gram that gram() judged, I on
        the diagonal route.  Since A = V^T diag(c) conj(V), the rows of V @ T
        are orthonormal in the c-weighted inner product: T^H conj(A) T = I,
        and T T^H = conj(A)^{-1}.
        """
        s = 1.0 / np.sqrt(self.matrix.diagonal().real)
        if self.route == "diagonal":
            return np.diag(s.astype(complex))
        eigs, U = np.linalg.eigh(self.matrix.conj() * s[:, None] * s[None, :])
        return (U * s[:, None] / np.sqrt(eigs)[None, :]) @ U.conj().T


def _bands(R: np.ndarray, chat: np.ndarray) -> np.ndarray:
    """out[a, b, ...] = sum_r R[r, a] R[r, b] chat[r, (a - b) mod n_theta, ...].

    R is one factor's real radial table (n_r, N); chat carries that factor's
    (radius, frequency) axes first and any axes of other factors after them.
    The bands a - b = +delta and -delta share the radial products
    R[r, j + delta] R[r, j], so each pair of bands is one real
    (N - delta, n_r) x (n_r, 4T) product against the real and imaginary parts
    of chat at frequencies delta and -delta side by side, written to two
    strided diagonals of the flattened (N * N, T) output.
    """
    n_r, N = R.shape
    n_theta = chat.shape[1]
    rest = chat.shape[2:]
    by_freq = np.ascontiguousarray(np.moveaxis(chat, 1, 0)).reshape(n_theta, n_r, -1).view(float)
    width = by_freq.shape[-1]  # 2T
    deltas = np.arange(N)
    both = np.concatenate([by_freq[deltas % n_theta], by_freq[-deltas % n_theta]], axis=-1)
    Rt = np.ascontiguousarray(R.T)
    out = np.empty((N * N, width // 2), dtype=complex)
    for delta in range(N):
        band = (Rt[delta:] * Rt[: N - delta]) @ both[delta]  # row j: a = j + delta, b = j
        out[delta * N :: N + 1] = band[:, :width].view(complex)
        if delta > 0:  # the transposed pair (a, b) = (j, j + delta)
            out[delta :: N + 1][: N - delta] = band[:, width:].view(complex)
    return out.reshape(N, N, *rest)


def _diagonal(space: ModelSpace, grid: QuadratureGrid, psi, mask) -> bool:
    """Whether the Gram is diagonal by torus invariance, judged from the inputs alone.

    The quadrature factor c must not depend on the angles (a radial weight,
    and a Region, a radial weight form or no mask) and every factor needs
    angular >= degree + 1, so that no band 0 < |a - b| <= degree aliases
    onto band 0 (module docstring).
    """
    return (
        is_radial_weight(psi)
        and (isinstance(mask, Region) or is_radial_weight(mask))
        and all(n >= f.degree + 1 for n, f in zip(grid.angular, space.factors))
    )


def _assemble(space: ModelSpace, grid: QuadratureGrid, psi=None, mask=None) -> np.ndarray:
    """Raw (not Hermitianized) A_ab = sum_m c_m v_a(z_m) conj(v_b(z_m)).

    c = w * rho * e^{-psi} * m is the quadrature factor, m the values of the
    mask: a Region's indicator, or a weight form's values taken through
    weight_values.  On the diagonal route (_diagonal) c is taken on
    grid.radial_rule and only the diagonal of A is returned, as an (N,)
    real array; otherwise c is taken at the nodes and the (N, N) sum is
    formed in its polar form: the DFT of c over every factor's angles, then
    the radial sums band by band, factor by factor (module docstring).
    """
    if not space.factors[0].compact and psi is not grid.psi:
        # the edge bounds the tail of another weight only if it reaches that weight's edge
        need = _ginibre_edge(space.rank, psi, grid.angular[0])
        have = _ginibre_edge(space.rank, grid.psi, grid.angular[0])
        if need > have:
            raise ValueError(
                f"weight {psi!r} needs a Ginibre grid edge at t = {need:.6g}, beyond the edge "
                f"t = {have:.6g} of a grid built for psi={grid.psi!r}; build the grid with "
                f"build_grid(space, psi=psi)"
            )
    diagonal = _diagonal(space, grid, psi, mask)
    if diagonal:
        points, w = grid.radial_rule
        c = w * space.base_density(points)
    else:
        points = grid.nodes
        c = grid.weights * grid.density
    with np.errstate(over="ignore"):  # an overflow is reported just below
        c = c * np.exp(-weight_values(psi, points))
    if mask is not None:
        c = c * (mask.mask(points) if isinstance(mask, Region) else weight_values(mask, points))
    if not np.all(np.isfinite(c)):
        raise ValueError("quadrature factor overflowed; extra weight too negative")
    if diagonal:
        # band 0 alone: A_aa = sum_r R_a(r)^2 c(r), contracted factor by factor
        d = c.reshape([r.size for r in grid.radii])
        for f, r in zip(space.factors, grid.radii):
            d = np.tensordot(d, f.values(r).real ** 2, axes=(0, 0))
        return d.ravel()  # axes (a_0, a_1, ...) in C order, as section_matrix
    n = len(grid.radii)
    # axes (r_0, q_0, r_1, q_1, ...); sum_q c e^{+i delta theta_q} is the unscaled inverse DFT
    chat = c.reshape([m for r, n_ang in zip(grid.radii, grid.angular) for m in (r.size, n_ang)])
    chat = np.fft.ifftn(chat, axes=tuple(range(1, 2 * n, 2)), norm="forward")
    for f, r in zip(space.factors, grid.radii):
        # R_a(r) = v_a(r), real on the positive axis
        chat = np.moveaxis(_bands(f.values(r).real, chat), (0, 1), (-2, -1))
    # axes (a_0, b_0, a_1, b_1, ...) -> (a_0, a_1, ..., b_0, b_1, ...), C order as section_matrix
    chat = chat.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return chat.reshape(space.rank, space.rank)


def weighted_gram_matrix(space: ModelSpace, grid: QuadratureGrid, psi=None, mask=None) -> np.ndarray:
    """Raw Hermitianized Gram A_ij = int_U v_i conj(v_j) e^{-psi} dmu.

    mask is a Region (U), or a weight form m whose values at the route's
    points fold into the integrand, int v_i conj(v_j) m e^{-psi} dmu: a radial
    form keeps the diagonal route (module docstring).  No positivity check:
    with a mask the result is only positive semi-definite (or indefinite).
    """
    A = _assemble(space, grid, psi, mask)
    if A.ndim == 1:
        return np.diag(A.astype(complex))
    return 0.5 * (A + A.conj().T)


def gram(space: ModelSpace, grid: QuadratureGrid, psi=None) -> GramMatrix:
    """Gram matrix of the section family under an optional extra weight psi.

    On Ginibre the grid bounds the tail under psi when built for it,
    build_grid(space, psi=psi).

    The degeneracy test and the log-determinant use the scaled Gram
    S = D^{-1/2} A D^{-1/2} with D = diag(A): log det A = log det S + sum log D,
    and S, unlike A, does not change when a basis section is rescaled.  On
    the dense route its eigenvalues come from the degeneracy check, so S is
    factorized once for both; the eigenvectors behind GramMatrix.transform
    are left for first use.  On the diagonal route S = I.
    """
    A_raw = _assemble(space, grid, psi)
    if A_raw.ndim == 1:
        d = A_raw
        if not np.all(d > 0.0):
            raise GramDegenerateError(
                f"gram-degenerate: diagonal Gram with diagonal range [{d.min():.3e}, "
                f"{d.max():.3e}], with {grid.size} nodes for rank {space.rank}; refine the grid"
            )
        return GramMatrix(
            matrix=np.diag(d.astype(complex)),
            logdet=float(np.sum(np.log(d))),
            asymmetry_abs=0.0,
            asymmetry_rel=0.0,
            route="diagonal",
        )
    asym_abs = float(np.max(np.abs(A_raw - A_raw.conj().T), initial=0.0))
    scale = float(np.max(np.abs(A_raw), initial=0.0))
    A = 0.5 * (A_raw + A_raw.conj().T)
    d = A.diagonal().real
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, np.inf))   # d_a <= 0 zeroes row a of S
    eigs = np.linalg.eigvalsh(A * s[:, None] * s[None, :])
    if eigs[0] <= 0.0 or eigs[0] <= 1e-12 * eigs[-1]:
        raise GramDegenerateError(
            f"gram-degenerate: scaled-Gram eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}], "
            f"diagonal range [{d.min():.3e}, {d.max():.3e}], "
            f"with {grid.size} nodes for rank {space.rank}; refine the grid"
        )
    return GramMatrix(
        matrix=A,
        logdet=float(np.sum(np.log(eigs)) + np.sum(np.log(d))),
        asymmetry_abs=asym_abs,
        asymmetry_rel=asym_abs / scale if scale > 0 else 0.0,
        route="dense",
    )


def gram_to_csv(gram_matrix: GramMatrix, path: str) -> None:
    """Write a Gram matrix as CSV, row-major, each cell a quoted "re,im" pair."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for row in gram_matrix.matrix:
            writer.writerow([f"{float(val.real)!r},{float(val.imag)!r}" for val in row])
