"""Counting statistics, radius laws, and convergence reports.

Count and pair predictions are traces of masked Gram matrices.  They are
checked against Kostlan's theorem (Kostlan 1992; Hough-Krishnapur-Peres-Virag,
Zeros of Gaussian Analytic Functions and Determinantal Point Processes,
Thm 4.7.1): the squared moduli of the points are independent across basis
indices, Beta(j+1, K-j+1) in s = r^2/(1+r^2) on a Fubini-Study factor of
degree K and Gamma(j+1) in r^2 for Ginibre, and independent across factors
on a product (proof at test_disk_count_law_is_poisson_binomial), so the
per-index probabilities of a centred radial region come from scipy alone and
share no code with the Grams.
"""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy import special, stats as sps

from bergdpp.quadrature import TAIL, Region, region_grid
from bergdpp.sampler import sample_dpp_many
from bergdpp.spaces import make_fubini_study, make_ginibre, make_product
from bergdpp.stats import (
    INTENSITY_COLUMNS,
    circular_law_distance,
    convergence_row,
    count_moments,
    estimate_intensity,
    ks_distance,
    measure_convergence,
    pair_count_stats,
    parse_region,
    region_count_stats,
)
from count_laws import kostlan_probabilities, poisson_binomial_pmf, pooled_chi_square
from law_oracles import radial_cdf


def draw_set(*draws):
    """The (reps, N, dim) draw set of the given draws; a 1-D draw is one factor's points."""
    pts = np.array(draws, dtype=complex)
    return pts[:, :, None] if pts.ndim == 2 else pts


# ---------------------------------------------------------------------------
# regions


def test_region_labels_and_masks():
    disk = Region.disk(1.5)
    ann = Region.annulus(0.5, 2.0)
    full = Region.full()
    pts = np.array([[0.1 + 0.1j], [1.0 + 1.0j], [3.0 + 0j]])
    assert list(disk.mask(pts)) == [True, True, False]
    assert list(ann.mask(pts)) == [False, True, False]
    assert list(full.mask(pts)) == [True, True, True]
    assert disk.label == "disk:1.5"
    assert ann.label == "annulus:0.5:2"
    assert full.label == "full"


def test_region_product_factors():
    reg = Region(bounds=((0.0, 1.0), (0.5, math.inf)))
    pts = np.array([[0.5 + 0j, 1.0 + 0j], [0.5 + 0j, 0.1 + 0j]])
    assert list(reg.mask(pts)) == [True, False]


def test_region_overlap():
    # closed intervals per factor; touching intervals share no interior
    assert Region.disk(1.0).overlap(Region.annulus(0.5, 2.0)) == Region.annulus(0.5, 1.0)
    assert Region.disk(1.0).overlap(Region.full()) == Region.disk(1.0)
    assert Region.disk(1.0).overlap(Region.annulus(1.0, 2.0)) is None
    a = Region(((0.0, 1.0), (0.5, math.inf)))
    assert a.overlap(Region(((0.5, 2.0), (0.0, 0.7)))) == Region(((0.5, 1.0), (0.5, 0.7)))
    assert a.overlap(Region(((0.5, 2.0), (0.0, 0.4)))) is None


def test_parse_region_round_trip():
    for text, dim in [("disk:1.5", 1), ("annulus:0.5:2", 1), ("full", 1)]:
        reg = parse_region(text, dim)
        assert reg.label == text
    # on multi-factor charts the bound applies to every factor
    two = parse_region("disk:1", 2)
    assert two.dim == 2
    assert two.label == "disk:1xdisk:1"


def test_parse_region_errors():
    with pytest.raises(ValueError):
        parse_region("blob:1", 1)
    with pytest.raises(ValueError):
        parse_region("annulus:2:1", 1)
    with pytest.raises(ValueError):
        parse_region("disk:abc", 1)


# ---------------------------------------------------------------------------
# empirical measures


def test_empirical_counts_and_masses():
    # disk:1 counts (1, 2) per draw, so masses (1/2, 1) of the rank-2 space
    points = draw_set([0.1 + 0j, 2.0 + 0j], [0.2j, 0.3 + 0j])
    space = make_fubini_study(1)
    disk = Region.disk(1.0)
    cs = region_count_stats(space, points, disk)
    assert cs.reps == 2
    assert cs.observed_mean == 1.5
    assert cs.observed_variance == 0.5
    row = convergence_row(space, 1, points, disk)
    assert row.rank == 2
    assert row.mc_mass == 0.75
    assert row.replicate_variance == 0.125


def test_empirical_requires_configurations():
    space = make_fubini_study(2)
    disk = Region.disk(1.0)
    for call in (
        lambda: region_count_stats(space, [], disk),
        lambda: pair_count_stats(space, [], [disk]),
        lambda: estimate_intensity(space, []),
        lambda: convergence_row(space, 2, [], disk),
        lambda: circular_law_distance(make_ginibre(3), []),
    ):
        with pytest.raises(ValueError, match="need at least one configuration"):
            call()


# ---------------------------------------------------------------------------
# count moments: masked-Gram traces vs Kostlan's theorem


# disjoint pairs, overlapping pairs and the full chart; the last product
# region bounds only the first factor
KOSTLAN_CASES = {
    "fs5": (make_fubini_study(5), ["disk:0.8", "annulus:0.8:2", "disk:1.5", "full"]),
    "gin5": (make_ginibre(5), ["disk:1", "annulus:1:1.8", "disk:1.5", "full"]),
    "gin50": (make_ginibre(50), ["disk:5", "annulus:5:7", "disk:6", "full"]),
    # disk:30 lies beyond the grid's tail edge t_max, so its edge is dropped
    "gin300": (make_ginibre(300), ["disk:1", "full", "disk:30"]),
    "gin500": (make_ginibre(500), ["disk:12", "annulus:10:22", "full"]),
    "prod12k2": (make_product((1, 2), 2), ["disk:1", "annulus:1:2", "full", ((0.0, 1.0), (0.0, math.inf))]),
}


@pytest.mark.parametrize("case", sorted(KOSTLAN_CASES))
def test_count_and_pair_predictions_match_kostlan(case):
    space, specs = KOSTLAN_CASES[case]
    regions = [parse_region(r, space.dim) if isinstance(r, str) else Region(r) for r in specs]
    grid = region_grid(space, *regions)
    probs = [kostlan_probabilities(space, reg.bounds) for reg in regions]
    for reg, p in zip(regions, probs):
        # absolute: a count's mean is off by the same amount at any rank
        mean, var = count_moments(space, reg, grid)
        assert mean == pytest.approx(p.sum(), abs=1e-10)
        assert var == pytest.approx((p * (1.0 - p)).sum(), abs=1e-10)

    rows = pair_count_stats(space, draw_set(np.zeros((space.rank, space.dim))), regions, grid)
    assert len(rows) == len(regions) * (len(regions) + 1) // 2
    pairs = [(a, b) for a in range(len(regions)) for b in range(a, len(regions))]
    for (a, b), row in zip(pairs, rows):
        pa, pb = probs[a], probs[b]
        if a == b:
            want = pa.sum() ** 2 - (pa * pa).sum()  # E[#A(#A - 1)]
        else:
            both = [
                (max(lo_a, lo_b), min(hi_a, hi_b))
                for (lo_a, hi_a), (lo_b, hi_b) in zip(regions[a].bounds, regions[b].bounds)
            ]
            both_p = kostlan_probabilities(space, both)
            want = pa.sum() * pb.sum() - (pa * pb).sum() + both_p.sum()  # E[#A #B]
        assert (row.region_a, row.region_b) == (regions[a].label, regions[b].label)
        assert row.predicted == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize(
    "space,regions",
    [
        (make_fubini_study(9), [((0.0, 1.0),), ((0.5, 2.0),)]),
        (make_ginibre(20), [((0.0, 3.0),), ((0.0, 4.0),), ((2.0, 4.0),)]),
        (make_product((1, 2), 2), [((0.5, 2.0), (0.0, 1.2)), ((0.0, 1.5), (0.6, math.inf))]),
    ],
    ids=["fs9", "gin20", "prod12k2"],
)
def test_disk_count_law_is_poisson_binomial(space, regions):
    # Kostlan: the moduli are independent, one per basis index, so the count
    # in a region lo_i <= |z_i| < hi_i (a disk, an annulus, or a product of
    # them) is a sum of independent Bernoulli(p_j): its whole law is known,
    # not only its moments.  Ginibre radius 4 is near the edge sqrt(20),
    # where the top basis index decides the law.  Every region is checked on
    # the same draws.
    #
    # On a product the basis is indexed by distinct multi-indices a.  With
    # z_i = r_i e^{i theta_i}, v_a(z) = c_a prod_i z_i^{a_i} / (1 + r_i^2)^{d_i / 2},
    # and the density (1/N!) |det[v_a(x_j)]|^2 expands as
    #   (1/N!) sum_{s, t} sgn(s) sgn(t) prod_j v_{s(j)}(x_j) conj(v_{t(j)}(x_j)),
    # where v_a conj(v_b) carries the phase e^{i <a - b, theta>}.  An event
    # that depends only on the moduli is invariant under the torus, so
    # integrate every point's angles out: the phase of point j integrates to
    # zero unless s(j) = t(j), and as the multi-indices are distinct only the
    # terms s = t survive.  What remains, (1/N!) sum_s prod_j |v_{s(j)}(x_j)|^2,
    # is the law of N independent points, one per multi-index a, with density
    # |v_a|^2.  That density factorises over the factors, so the a-th point's
    # u_i = r_i^2 / (1 + r_i^2) are independent Beta(a_i + 1, d_i - a_i + 1),
    # and p_a is a product of regularised-Beta CDF differences.
    draws = 1000
    moduli = np.abs(sample_dpp_many(space, reps=draws, seed=73)[0])
    for bounds in regions:
        inside = np.ones(moduli.shape[:2], dtype=bool)
        for f, (lo, hi) in enumerate(bounds):
            inside &= (moduli[:, :, f] >= lo) & (moduli[:, :, f] < hi)
        pmf = poisson_binomial_pmf(kostlan_probabilities(space, bounds))
        stat, dof = pooled_chi_square(np.bincount(inside.sum(axis=1), minlength=pmf.size), draws * pmf)
        assert dof >= 4
        assert sps.chi2.sf(stat, dof) > 1e-3, bounds


# ---------------------------------------------------------------------------
# count moments: trace route vs kernel route


def pair_quadrature(space, region_a, region_b, grid):
    """Double quadrature of rho_2(x, y) = B(x,x)B(y,y) - |B(x,y)|^2 over A x B.

    The explicit node-pair sum, O(M^2) in nodes: a reference for the Gram
    traces only, on small grids.
    """
    c = grid.weights * grid.density
    ma = region_a.mask(grid.nodes)
    mb = region_b.mask(grid.nodes)
    Va = space.section_matrix(grid.nodes[ma])
    Vb = space.section_matrix(grid.nodes[mb])
    ca, cb = c[ma], c[mb]
    da = np.einsum("ai,ai->a", Va, Va.conj()).real
    db = np.einsum("bi,bi->b", Vb, Vb.conj()).real
    cross = np.abs(Va @ Vb.conj().T) ** 2
    return float((ca * da).sum() * (cb * db).sum() - ca @ cross @ cb)


@pytest.mark.parametrize(
    "space,region",
    [
        (make_fubini_study(5), Region.disk(1.0)),
        (make_ginibre(4), Region.disk(1.5)),
    ],
    ids=["fs", "gin"],
)
def test_variance_trace_vs_pair_quadrature(space, region):
    grid = region_grid(space, region)
    mean, var_trace = count_moments(space, region, grid)
    var_kernel = pair_quadrature(space, region, region, grid) + mean - mean * mean
    assert abs(var_trace - var_kernel) < 1e-8


def test_variance_trace_vs_pair_quadrature_product():
    # explicit coarse grid: the node-pair double sum is O(M^2) in nodes
    from bergdpp.quadrature import build_grid

    space = make_product((1, 1), 2)
    region = Region(bounds=((0.0, 1.0), (0.0, math.inf)))
    grid = build_grid(space, radial=8, angular=5, breaks=tuple(map(tuple, region.break_radii())))
    mean, var_trace = count_moments(space, region, grid)
    var_kernel = pair_quadrature(space, region, region, grid) + mean - mean * mean
    assert abs(var_trace - var_kernel) < 1e-8


def test_disjoint_pair_integral_matches_trace_identity():
    # E[n_A n_B] = E[n_A] E[n_B] - tr(A_A A_B) for disjoint regions
    space = make_fubini_study(5)
    A = Region.disk(0.8)
    B = Region.annulus(0.8, 2.0)
    grid = region_grid(space, A, B)
    rows = pair_count_stats(space, draw_set(np.zeros((space.rank, space.dim))), [A, B], grid)
    (row,) = [r for r in rows if (r.region_a, r.region_b) == (A.label, B.label)]
    want = pair_quadrature(space, A, B, grid)
    assert abs(row.predicted - want) < 1e-9


def node_mask_gram(space, grid, mask, block=1 << 15):
    """V^T diag(w rho m) conj(V), Hermitianized, from section_matrix on the grid's nodes.

    m is the mask's values at the nodes.  The node sum shares no code with
    the factorised assembly; it runs block by block, as the (M, N) section
    matrix of the product grid would take 160 MB.
    """
    c = grid.weights * grid.density * mask
    A = np.zeros((space.rank, space.rank), dtype=complex)
    for i in range(0, grid.size, block):
        V = space.section_matrix(grid.nodes[i : i + block])
        A += (c[i : i + block, None] * V).T @ V.conj()
    return 0.5 * (A + A.conj().T)


@pytest.mark.parametrize("case", ["fs5", "gin5", "prod12k2"])
def test_pair_predictions_match_node_mask_grams(case):
    # the region Grams take the diagonal route and the overlap A cap B is a
    # Region; the same traces from node sums masked by node values, with
    # the overlap mask formed node by node, agree
    space, specs = KOSTLAN_CASES[case]
    regions = [parse_region(r, space.dim) if isinstance(r, str) else Region(r) for r in specs]
    grid = region_grid(space, *regions)
    masks = [reg.mask(grid.nodes) for reg in regions]
    grams = [node_mask_gram(space, grid, m) for m in masks]
    rows = pair_count_stats(space, draw_set(np.zeros((space.rank, space.dim))), regions, grid)
    pairs = [(a, b) for a in range(len(regions)) for b in range(a, len(regions))]
    for (a, b), row in zip(pairs, rows):
        ta, tb = np.trace(grams[a]).real, np.trace(grams[b]).real
        want = ta * tb - np.vdot(grams[b], grams[a]).real
        if a != b:
            want += np.trace(node_mask_gram(space, grid, masks[a] & masks[b])).real
        assert row.predicted == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_pair_predictions_hold_no_n_by_n_matrix():
    # each region Gram, and the overlap's, is its (N,) diagonal: at rank 1681
    # three N x N complex matrices took 137 MB, and the diagonals take 27 KB
    # each beside the grid's radial tables, 96 x 41 floats per factor (5 MB bounds all)
    space = make_product((1, 1), 40)
    points = draw_set(np.zeros((space.rank, space.dim)))
    regions = [Region.disk(1.0, 2), Region.disk(2.0, 2)]
    tracemalloc.start()
    try:
        rows = pair_count_stats(space, points, regions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.rank == 1681 and len(rows) == 3
    assert peak < 5_000_000


def test_fs_disk_mean_closed_form():
    # E[#disk(r)] = (k+1) r^2/(1+r^2) on the Fubini-Study chart
    k = 7
    space = make_fubini_study(k)
    for r in [0.5, 1.0, 2.0]:
        mean, _ = count_moments(space, Region.disk(r))
        want = (k + 1.0) * r * r / (1.0 + r * r)
        assert abs(mean - want) < 1e-10


def test_full_region_count_is_deterministic():
    # the whole space holds exactly N points: variance 0, mean N
    space = make_fubini_study(4)
    mean, var = count_moments(space, Region.full())
    assert abs(mean - 5.0) < 1e-9
    assert var < 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e7, 1e8, 1e200])
@pytest.mark.parametrize(
    "space",
    [make_fubini_study(0), make_fubini_study(3), make_product((1, 2), 1), make_ginibre(5)],
    ids=["fs0", "fs3", "prod12k1", "gin5"],
)
def test_huge_disk_holds_every_point(space, radius):
    # past r ~ 1e7 a sphere's outer panel [s, 1] has no float room below
    # s = 1, and (1e200)^2 overflows: such breaks are dropped, as a Ginibre
    # break beyond t_max is, and the disk's mean count is N
    mean, _ = count_moments(space, Region.disk(radius, space.dim))
    assert abs(mean - space.rank) <= 1e-12


def test_region_count_stats_on_samples():
    space = make_fubini_study(5)
    points, _ = sample_dpp_many(space, reps=600, seed=23)
    cs = region_count_stats(space, points, Region.disk(1.0))
    assert cs.reps == 600
    assert abs(cs.mean_z) < 4.0
    assert abs(cs.variance_z) < 4.0
    assert cs.predicted_mean == pytest.approx(3.0, abs=1e-9)
    d = asdict(cs)
    assert d["region"] == "disk:1"


def loop_counts(points, region):
    """Per-draw region counts from a plain loop of |z_i| comparisons."""
    counts = []
    for draw in points:
        n = 0
        for row in draw:
            n += all(lo <= abs(z) <= hi for z, (lo, hi) in zip(row, region.bounds))
        counts.append(n)
    return counts


# fs k=2, three points per draw, none on a region boundary
FS_DRAWS = [[0.1, 0.2, 3.0], [0.3, 3.5, 4.0]]


def axis_points(rng, n):
    """n two-factor points on the axes, so every modulus is an exact radius."""
    radii = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
    turns = np.array([1.0, -1.0, 1j, -1j])
    shape = (n, 2)
    return (radii[rng.integers(radii.size, size=shape)] * turns[rng.integers(4, size=shape)]).tolist()


# product (1,2) k=2, 15 points per draw.  The first three rows of the first
# two draws sit on the hi of disk:1 and the lo or hi of annulus:0.5:2 on each
# factor.
ON_RADII = [[1.0, 0.5j], [-0.5, 1.0], [1j, 2.0], [2.0, -1j], [0.5j, -0.5], [-1.0, 2j]]
_rng = np.random.default_rng(31)
PRODUCT_DRAWS = [
    ON_RADII[:3] + axis_points(_rng, 12),
    ON_RADII[3:] + axis_points(_rng, 12),
    axis_points(_rng, 15),
]


@pytest.mark.parametrize(
    "space,draws,texts",
    [
        (make_fubini_study(2), FS_DRAWS, ["disk:1", "annulus:2:10", "full"]),
        (make_product((1, 2), 2), PRODUCT_DRAWS, ["disk:1", "annulus:0.5:2", "full"]),
    ],
    ids=["fs", "prod12k2"],
)
def test_pair_count_stats_observed_means_manual(space, draws, texts):
    points = draw_set(*draws)
    regions = [parse_region(t, space.dim) for t in texts]
    counts = [np.array(loop_counts(points, reg), dtype=float) for reg in regions]
    rows = pair_count_stats(space, points, regions)
    by_key = {(r.region_a, r.region_b): r for r in rows}
    assert len(rows) == 6
    for a in range(3):
        for b in range(a, 3):
            want = counts[a] * (counts[a] - 1.0) if a == b else counts[a] * counts[b]
            row = by_key[(regions[a].label, regions[b].label)]
            assert row.reps == len(points)
            assert row.observed_mean == want.mean()
    # every point of a draw is in the full region
    assert list(counts[2]) == [len(d) for d in draws]


def test_pair_count_stats_overlapping_regions():
    # #full = N on every draw, so E[#A * #full] = N E[#A] = 6 * 3 exactly
    space = make_fubini_study(5)
    points, _ = sample_dpp_many(space, reps=400, seed=29)
    rows = pair_count_stats(space, points, [Region.disk(1.0), Region.full()])
    cross = {(r.region_a, r.region_b): r for r in rows}[("disk:1", "full")]
    assert cross.predicted == pytest.approx(18.0, abs=1e-9)
    assert abs(cross.z) < 4.0


# ---------------------------------------------------------------------------
# binned intensity


def test_estimate_intensity_prediction_column():
    from bergdpp.kernel import evaluator

    space = make_fubini_study(4)
    points, _ = sample_dpp_many(space, reps=50, seed=3)
    table = estimate_intensity(space, points, bins=12, extent=2.0)
    assert table.shape == (144, len(INTENSITY_COLUMNS))  # square bins over [-2, 2]^2
    ev = evaluator(space)
    for center_re, center_im, _, _, prediction in table[::17]:
        z = np.array([complex(center_re, center_im)])
        rows = ev.section_rows(z)
        want = float((np.abs(rows) ** 2).sum() * space.base_density(z)[0])
        assert prediction == pytest.approx(want, rel=1e-9)
    area = (4.0 / 12.0) ** 2
    total = sum(table[:, 2] * area)
    assert 2.0 < total <= 5.0 + 1e-9  # most of the N = 5 points land inside the window


def test_estimate_intensity_rates_match_per_replicate_histograms():
    space = make_fubini_study(4)
    points, _ = sample_dpp_many(space, reps=30, seed=17)
    bins, extent = 6, 1.5
    edges = np.linspace(-extent, extent, bins + 1)
    z = points[:, :, 0]
    # no point on a bin edge, and some outside the window
    for part in (z.real, z.imag):
        assert np.min(np.abs(part[..., None] - edges)) > 1e-6
    assert np.any(np.maximum(np.abs(z.real), np.abs(z.imag)) > extent)
    hist = np.array([np.histogram2d(w.real, w.imag, bins=[edges, edges])[0] for w in z])
    area = (edges[1] - edges[0]) ** 2
    table = estimate_intensity(space, points, bins=bins, extent=extent)
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert table[:, :2].tolist() == [[x, y] for x in centers for y in centers]
    rate = table[:, 2].reshape(bins, bins)
    stderr = table[:, 3].reshape(bins, bins)
    np.testing.assert_allclose(rate, hist.mean(axis=0) / area, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        stderr, hist.std(axis=0, ddof=1) / math.sqrt(len(points)) / area, rtol=1e-12, atol=0.0
    )


def test_estimate_intensity_in_chunks_gives_the_dense_histogram_floats():
    # 200 reps at 60 bins count in chunks of 21 bin rows (the last one 18):
    # mean and std over the replicates of each chunk are those of the dense
    # (reps, bins, bins) histogram, float for float
    rng = np.random.default_rng(29)
    space = make_fubini_study(5)
    points = rng.normal(size=(200, 6, 1)) + 1j * rng.normal(size=(200, 6, 1))
    bins, extent = 60, 2.5
    edges = np.linspace(-extent, extent, bins + 1)
    hist = np.array([np.histogram2d(w.real, w.imag, bins=[edges, edges])[0] for w in points[:, :, 0]])
    area = (edges[1] - edges[0]) ** 2
    table = estimate_intensity(space, points, bins=bins, extent=extent)
    rate = table[:, 2].reshape(bins, bins)
    stderr = table[:, 3].reshape(bins, bins)
    assert np.array_equal(rate, hist.mean(axis=0) / area)
    assert np.array_equal(stderr, hist.std(axis=0, ddof=1) / math.sqrt(200) / area)


def test_estimate_intensity_memory_does_not_grow_with_reps_times_bins_squared():
    # a dense (reps, bins, bins) count array would take 144 MB here; the
    # (90000, 5) table itself takes 3.6 MB
    rng = np.random.default_rng(31)
    points = rng.normal(size=(200, 6, 1)) + 1j * rng.normal(size=(200, 6, 1))
    tracemalloc.start()
    try:
        table = estimate_intensity(make_fubini_study(5), points, bins=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (300 * 300, len(INTENSITY_COLUMNS))
    assert peak < 12_000_000


def test_estimate_intensity_rejects_product_charts():
    with pytest.raises(ValueError):
        estimate_intensity(make_product((1, 2), 2), draw_set([[0j, 0j]]))


# ---------------------------------------------------------------------------
# radius laws


def test_fs_radial_cdf_is_uniform_in_s():
    # Kostlan: basis state j has s = r^2/(1+r^2) ~ Beta(j+1, K-j+1), and the
    # mixture over j is E[Bin(K+1, s)]/(K+1) = s, Uniform(0,1) in s
    r = np.array([0.0, 0.3, 1.0, 2.5, 40.0])
    s = r * r / (1.0 + r * r)
    for k in (0, 1, 5, 50):
        j = np.arange(k + 1)
        beta_mixture = special.betainc(j[None, :] + 1.0, k - j[None, :] + 1.0, s[:, None]).mean(axis=1)
        assert np.max(np.abs(radial_cdf(make_fubini_study(k).factors[0], r) - beta_mixture)) < 1e-14


def test_ginibre_radial_cdf_matches_gamma_sum():
    # Kostlan: basis state j has r^2 ~ Gamma(j+1); the library sums Poisson terms instead
    for n in (1, 4, 100, 500):
        edge = math.sqrt(special.gammainccinv(n, TAIL))
        r = np.concatenate([np.linspace(0.0, 2.0 * edge, 801), [1e-8, 1.3, 1e3, 1e8]])
        want = np.mean([special.gammainc(j + 1.0, r * r) for j in range(n)], axis=0)
        got = radial_cdf(make_ginibre(n).factors[0], r)
        assert got[0] == 0.0 and got[-1] == 1.0
        assert np.max(np.abs(got - want)) < 1e-13


def test_ks_distance_manual_and_scipy():
    vals = np.array([0.25])
    d = ks_distance(vals, lambda x: np.asarray(x))
    assert d == pytest.approx(0.75)
    rng = np.random.default_rng(5)
    sample = rng.random(200)
    ours = ks_distance(sample, lambda x: np.asarray(x))
    ref = sps.kstest(sample, "uniform").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# circular law


def test_circular_law_distance_small_rank():
    space = make_ginibre(40)
    points, _ = sample_dpp_many(space, reps=5, seed=7)
    rep = circular_law_distance(space, points)
    assert rep.rank == 40
    assert rep.pooled_points == 200
    assert 0.0 < rep.distance < 0.3


def test_circular_law_requires_ginibre():
    with pytest.raises(ValueError):
        circular_law_distance(make_fubini_study(3), [])


# ---------------------------------------------------------------------------
# convergence report


def test_measure_convergence_quadrature_mass_exact():
    spaces = [(5, make_fubini_study(5)), (10, make_fubini_study(10))]
    report = measure_convergence(spaces, Region.disk(1.0), reps=40, seed=11)
    assert [row.k for row in report.rows] == [5, 10]
    for row in report.rows:
        # (1/N) int_disk B dmu = 1/2 exactly at every k on the unit disk
        assert abs(row.quadrature_mass - 0.5) < 1e-10
        assert abs(row.equilibrium_mass - 0.5) < 1e-10
        assert row.mc_se > 0.0
        assert abs(row.mc_mass - 0.5) < 6.0 * row.mc_se
    d = asdict(report)
    assert len(d["rows"]) == 2
