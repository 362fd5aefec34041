"""Statistics on sampled configurations, checked against kernel predictions.

A draw set enters as one (reps, N, dim) complex array of points, stacked
once, and every statistic is a reduction over it: a region count is one
Region.mask call over all reps * N points, summed per replicate, and the
pooled radii are the moduli of one factor, raveled.

Every prediction here comes from quadrature of the kernel, never from another
Monte Carlo run.  With G_U the Gram matrix masked to a radial region U
(G_U[i, j] = integral over U of conj(v_i) v_j dmu), the count and pair
moments of the projection process are traces:

    E[#U]          = tr G_U,
    Var[#U]        = tr G_U - |G_U|_F^2,
    E[#A (#A - 1)] = (tr G_A)^2 - |G_A|_F^2,
    E[#A #B]       = tr G_A tr G_B - Re tr(G_A G_B) + tr G_{A cap B},

since tr G_U = int_U B(x, x) dmu and Re tr(G_A G_B) = int_A int_B |B(x, y)|^2.
All Grams of one report share one grid with panel edges on every region
boundary.  A Region (quadrature.Region) is radial per factor, and so is
the overlap A cap B of two, so every G_U is diagonal and is assembled from
the grid's radial rules alone.  The test suite checks these traces against
Kostlan's theorem (count moments from per-index Beta and Gamma laws,
computed with scipy alone), which shares no code with the Grams.

The radial law of one point is a factor's radial_cdf (spaces module
docstring), for Kolmogorov-Smirnov checks (ks_distance); the circular law
compares Ginibre radii rescaled by 1/sqrt(N) with its rank limit, the CDF
min(r^2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import equilibrium_mass
from .exprs import weight_values
from .quadrature import QuadratureGrid, Region, build_grid, weighted_gram_matrix
from .sampler import sample_dpp_many
from .spaces import ModelSpace

__all__ = [
    "Region",
    "parse_region",
    "CountStats",
    "PairStats",
    "IntensityCell",
    "mc_partition_ratio",
    "region_count_stats",
    "pair_count_stats",
    "estimate_intensity",
    "ks_distance",
    "circular_law_distance",
    "CircularLawReport",
    "ConvergenceRow",
    "ConvergenceReport",
    "measure_convergence",
]


# ---------------------------------------------------------------------------
# regions


def parse_region(text: str, dim: int = 1) -> Region:
    """Parse "full", "disk:R" or "annulus:A:B" (same bounds on every factor)."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "full" and len(parts) == 1:
            return Region.full(dim)
        if parts[0] == "disk" and len(parts) == 2:
            return Region.disk(float(parts[1]), dim)
        if parts[0] == "annulus" and len(parts) == 3:
            return Region.annulus(float(parts[1]), float(parts[2]), dim)
    except ValueError as exc:
        raise ValueError(f"bad region {text!r}: {exc}") from None
    raise ValueError(f"bad region {text!r}; expected full, disk:R or annulus:A:B")


def region_grid(space: ModelSpace, *regions: Region) -> QuadratureGrid:
    """build_grid's default grid with panel edges on every region boundary.

    Its max(node_floor, d // 2 + 8) nodes per panel are exact for the
    polynomial region integrands of Fubini-Study factors; Ginibre panels
    share them by width.
    """
    per_factor: list[list[float]] = [[] for _ in range(space.dim)]
    for reg in regions:
        for i, edges in enumerate(reg.break_radii()):
            per_factor[i].extend(edges)
    return build_grid(space, breaks=[sorted(set(e)) for e in per_factor])


def region_gram(space: ModelSpace, grid: QuadratureGrid, region: Region) -> np.ndarray:
    """G_U: the Gram masked to the region, on the grid (diagonal, as U is radial)."""
    return weighted_gram_matrix(space, grid, mask=region)


# ---------------------------------------------------------------------------
# draw sets


def _stacked(configurations) -> np.ndarray:
    """The draw set as one (reps, N, dim) complex array of points."""
    points = [conf.points for conf in configurations]
    if not points:
        raise ValueError("need at least one configuration")
    return np.stack(points)


def _counts(P: np.ndarray, region: Region) -> np.ndarray:
    """Per-replicate point counts of a region, as floats."""
    reps, n, dim = P.shape
    return region.mask(P.reshape(-1, dim)).reshape(reps, n).sum(axis=1).astype(float)


def mc_partition_ratio(configurations, psi) -> tuple[float, float]:
    """Monte Carlo estimate of det G(psi) = E[exp(-sum psi(X_i))].

    Takes exact unweighted samples; returns (mean, standard error).
    """
    P = _stacked(configurations)
    reps, n, dim = P.shape
    sums = weight_values(psi, P.reshape(-1, dim)).reshape(reps, n).sum(axis=1)
    vals = np.array([math.exp(-float(s)) for s in sums])
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return float(vals.mean()), se


# ---------------------------------------------------------------------------
# count statistics


@dataclass(frozen=True)
class CountStats:
    region: str
    reps: int
    predicted_mean: float
    predicted_variance: float
    observed_mean: float
    observed_variance: float
    mean_z: float | None
    variance_z: float | None


def count_moments(
    space: ModelSpace,
    region: Region,
    grid: QuadratureGrid | None = None,
    gram: np.ndarray | None = None,
):
    """Predicted (mean, variance) of the point count in a region.

    gram: the region's masked Gram on grid (region_gram), if already assembled.
    """
    if gram is None:
        if grid is None:
            grid = region_grid(space, region)
        gram = region_gram(space, grid, region)
    mean = float(np.trace(gram).real)
    var = mean - float(np.sum(np.abs(gram) ** 2))
    return mean, max(var, 0.0)


def _ratio_z(obs: float, pred: float, se: float) -> float | None:
    """(obs - pred) / se; None when se is 0 and obs != pred (no finite z)."""
    if se > 0.0:
        return (obs - pred) / se
    return 0.0 if obs == pred else None


def region_count_stats(
    space: ModelSpace,
    configurations,
    region: Region,
    grid: QuadratureGrid | None = None,
    gram: np.ndarray | None = None,
) -> CountStats:
    counts = _counts(_stacked(configurations), region)
    pred_mean, pred_var = count_moments(space, region, grid, gram)
    reps = counts.size
    obs_mean = float(counts.mean())
    obs_var = float(counts.var(ddof=1)) if reps > 1 else 0.0
    mean_z = _ratio_z(obs_mean, pred_mean, math.sqrt(pred_var / reps) if pred_var > 0 else 0.0)
    # standard error of the sample variance from the observed 4th central moment
    centered = counts - obs_mean
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / reps)
    variance_z = _ratio_z(obs_var, pred_var, se_var)
    return CountStats(
        region=region.label,
        reps=reps,
        predicted_mean=pred_mean,
        predicted_variance=pred_var,
        observed_mean=obs_mean,
        observed_variance=obs_var,
        mean_z=mean_z,
        variance_z=variance_z,
    )


@dataclass(frozen=True)
class PairStats:
    region_a: str
    region_b: str
    reps: int
    predicted: float       # E[#A * #B] (or E[#A(#A - 1)] on the diagonal)
    observed_mean: float   # mean of #A * #B (or #A(#A - 1) on the diagonal)
    observed_se: float
    z: float | None


def pair_count_stats(
    space: ModelSpace,
    configurations,
    regions,
    grid: QuadratureGrid | None = None,
    grams: list[np.ndarray] | None = None,
) -> list[PairStats]:
    """Pair-count checks over all unordered region pairs, diagonal included.

    Each region gets one masked Gram G_A on a shared grid (grams, if given,
    holds them already assembled on grid, in region order).  The prediction
    for A != B is tr G_A tr G_B - Re tr(G_A G_B) + tr G_{A cap B}, the last
    term counting each point of the overlap once; on the diagonal it is
    E[#A(#A - 1)] = (tr G_A)^2 - |G_A|_F^2.
    """
    regions = list(regions)
    P = _stacked(configurations)
    reps = P.shape[0]
    if grid is None:
        grid = region_grid(space, *regions)
    counts = [_counts(P, reg) for reg in regions]
    if grams is None:
        grams = [region_gram(space, grid, reg) for reg in regions]
    traces = [float(np.trace(G).real) for G in grams]
    out = []
    for a in range(len(regions)):
        for b in range(a, len(regions)):
            # Re tr(G_a G_b) = sum_ij G_a[i, j] conj(G_b[i, j]) for Hermitian G_b
            pred = traces[a] * traces[b] - float(np.vdot(grams[b], grams[a]).real)
            if a == b:
                stat = counts[a] * (counts[a] - 1.0)
            else:
                stat = counts[a] * counts[b]
                both = regions[a].overlap(regions[b])
                if both is not None:
                    pred += float(np.trace(region_gram(space, grid, both)).real)
            obs = float(stat.mean())
            se = float(stat.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
            out.append(
                PairStats(
                    region_a=regions[a].label,
                    region_b=regions[b].label,
                    reps=reps,
                    predicted=pred,
                    observed_mean=obs,
                    observed_se=se,
                    z=_ratio_z(obs, pred, se),
                )
            )
    return out


# ---------------------------------------------------------------------------
# binned intensity


@dataclass(frozen=True)
class IntensityCell:
    center_re: float
    center_im: float
    rate: float        # mean count per replicate per unit area
    stderr: float
    prediction: float  # B(x, x) * base density at the cell center


def estimate_intensity(
    space: ModelSpace,
    configurations,
    bins: int = 40,
    extent: float | None = None,
) -> list[IntensityCell]:
    """Square-bin intensity estimate on a dim-1 chart with kernel predictions."""
    if space.dim != 1:
        raise ValueError("binned intensity is implemented for one-factor charts")
    if bins < 1 or (extent is not None and not 0.0 < extent < math.inf):
        raise ValueError(f"need bins >= 1 and finite extent > 0, got bins={bins}, extent={extent}")
    z = _stacked(configurations)[:, :, 0]
    if extent is None:
        extent = 4.0 if space.factors[0].compact else math.sqrt(space.rank) * 1.25 + 1.0
    edges = np.linspace(-extent, extent, bins + 1)
    width = edges[1] - edges[0]
    area = width * width
    reps = z.shape[0]

    ix = np.searchsorted(edges, z.real, side="right") - 1
    iy = np.searchsorted(edges, z.imag, side="right") - 1
    rep = np.broadcast_to(np.arange(reps)[:, None], z.shape)
    keep = (ix >= 0) & (ix < bins) & (iy >= 0) & (iy < bins)
    per_rep = np.zeros((reps, bins, bins))
    np.add.at(per_rep, (rep[keep], ix[keep], iy[keep]), 1.0)

    mean_counts = per_rep.mean(axis=0)
    se_counts = (
        per_rep.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros_like(mean_counts)
    )
    centers = 0.5 * (edges[:-1] + edges[1:])
    cells = []
    for i in range(bins):
        zrow = centers[i] + 1j * centers
        V = space.section_matrix(zrow[:, None])
        bdiag = np.einsum("mi,mi->m", V, V.conj()).real
        pred = bdiag * space.base_density(zrow[:, None])
        for j in range(bins):
            cells.append(
                IntensityCell(
                    center_re=float(centers[i]),
                    center_im=float(centers[j]),
                    rate=float(mean_counts[i, j] / area),
                    stderr=float(se_counts[i, j] / area),
                    prediction=float(pred[j]),
                )
            )
    return cells


# ---------------------------------------------------------------------------
# radial laws


def ks_distance(values: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("no values")
    F = np.asarray(cdf(x), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - F)
    lo = np.max(F - np.arange(0, n) / n)
    return float(max(hi, lo))


@dataclass(frozen=True)
class CircularLawReport:
    rank: int
    reps: int
    pooled_points: int
    distance: float


def circular_law_distance(space: ModelSpace, configurations) -> CircularLawReport:
    """KS distance of radii / sqrt(N) to the unit-disk radial CDF min(r^2, 1)."""
    if space.factors[0].compact:
        raise ValueError("the circular-law check applies to the Ginibre space")
    P = _stacked(configurations)
    radii = np.abs(P[:, :, 0]).ravel() / math.sqrt(space.rank)
    dist = ks_distance(radii, lambda r: np.minimum(np.asarray(r) ** 2, 1.0))
    return CircularLawReport(
        rank=space.rank,
        reps=P.shape[0],
        pooled_points=radii.size,
        distance=dist,
    )


# ---------------------------------------------------------------------------
# equilibrium-measure convergence


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    rank: int
    mc_mass: float
    mc_se: float
    replicate_variance: float
    quadrature_mass: float    # (1/N) int_U B(x,x) dmu
    equilibrium_mass: float
    gap: float                # |mc_mass - equilibrium_mass|


@dataclass(frozen=True)
class ConvergenceReport:
    region: str
    reps: int
    seed: int | None
    rows: tuple[ConvergenceRow, ...]
    warnings: tuple[str, ...]


def convergence_row(
    space: ModelSpace,
    k: int,
    configurations,
    region: Region,
) -> ConvergenceRow:
    P = _stacked(configurations)
    reps, n, _ = P.shape
    pred_mean, _ = count_moments(space, region)
    masses = _counts(P, region) / n
    mc = float(masses.mean())
    se = float(masses.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    eq = equilibrium_mass(space, region=region)
    return ConvergenceRow(
        k=k,
        rank=space.rank,
        mc_mass=mc,
        mc_se=se,
        replicate_variance=float(masses.var(ddof=1)) if reps > 1 else 0.0,
        quadrature_mass=pred_mean / space.rank,
        equilibrium_mass=eq,
        gap=abs(mc - eq),
    )


def measure_convergence(
    spaces_by_k,
    region: Region,
    reps: int,
    seed: int,
    workers: int = 1,
) -> ConvergenceReport:
    """Empirical-measure convergence report over a family of spaces.

    spaces_by_k: sequence of (k, ModelSpace).  The draws at the k_index-th
    space use the streams (k_index, rep) of sample_dpp_many, so the report
    does not depend on workers.
    """
    rows = []
    warnings: list[str] = []
    for idx, (k, space) in enumerate(spaces_by_k):
        configs = sample_dpp_many(space, reps, seed, (idx,), workers)
        rows.append(convergence_row(space, k, configs, region))
    for prev, cur in zip(rows, rows[1:]):
        if cur.replicate_variance > prev.replicate_variance:
            warnings.append(
                f"replicate variance increased from k={prev.k} to k={cur.k}"
            )
    return ConvergenceReport(
        region=region.label,
        reps=reps,
        seed=seed,
        rows=tuple(rows),
        warnings=tuple(warnings),
    )
