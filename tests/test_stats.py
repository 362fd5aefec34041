"""Counting statistics, radius laws, and convergence reports.

The central dual route: count variance from the trace identity
Var = tr A - ||A||_F^2 must agree with the moment identity
Var = E[n(n-1)] + E - E^2 where E[n(n-1)] comes from the independent
double quadrature of rho_2(x, y) = B(x,x)B(y,y) - |B(x,y)|^2.
"""

import math

import numpy as np
import pytest
from scipy import special, stats as sps

from bergdpp.sampler import Configuration, sample_dpp_many
from bergdpp.spaces import make_fubini_study, make_ginibre, make_product
from bergdpp.stats import (
    EmpiricalMeasure,
    Region,
    circular_law_distance,
    count_moments,
    estimate_intensity,
    ks_distance,
    measure_convergence,
    pair_correlation_integral,
    pair_count_stats,
    parse_region,
    radial_cdf,
    region_count_stats,
)


def make_conf(points):
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[:, None]
    return Configuration(points=pts, log_density=0.0, seed=None, origin="exact")


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
    confs = [make_conf([0.1 + 0j, 2.0 + 0j]), make_conf([0.2j, 0.3 + 0j])]
    emp = EmpiricalMeasure(tuple(confs))
    disk = Region.disk(1.0)
    assert list(emp.counts(disk)) == [1, 2]
    assert np.allclose(emp.masses(disk), [0.5, 1.0])
    assert emp.reps == 2
    assert emp.rank == 2


def test_empirical_requires_configurations():
    with pytest.raises(ValueError):
        EmpiricalMeasure(())


# ---------------------------------------------------------------------------
# count moments: trace route vs kernel route


@pytest.mark.parametrize(
    "space,region",
    [
        (make_fubini_study(5), Region.disk(1.0)),
        (make_ginibre(4), Region.disk(1.5)),
    ],
    ids=["fs", "gin"],
)
def test_variance_trace_vs_pair_quadrature(space, region):
    mean, var_trace = count_moments(space, region)
    pair = pair_correlation_integral(space, region, region)
    var_kernel = pair + mean - mean * mean
    assert abs(var_trace - var_kernel) < 1e-8


def test_variance_trace_vs_pair_quadrature_product():
    # explicit coarse grid: the quadratic double sum is O(M^2) in nodes
    from bergdpp.stats import region_grid

    space = make_product((1, 1), 2)
    region = Region(bounds=((0.0, 1.0), (0.0, math.inf)))
    grid = region_grid(space, region, radial=8, angular=5)
    mean, var_trace = count_moments(space, region, grid)
    pair = pair_correlation_integral(space, region, region, grid)
    var_kernel = pair + mean - mean * mean
    assert abs(var_trace - var_kernel) < 1e-8


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


def test_disjoint_pair_integral_matches_trace_identity():
    # E[n_A n_B] = E[n_A] E[n_B] - tr(A_A A_B) for disjoint regions
    from bergdpp.quadrature import weighted_gram_matrix
    from bergdpp.stats import region_grid

    space = make_fubini_study(5)
    A = Region.disk(0.8)
    B = Region.annulus(0.8, 2.0)
    grid = region_grid(space, A, B)
    GA = weighted_gram_matrix(space, grid, mask=A.mask(grid.nodes))
    GB = weighted_gram_matrix(space, grid, mask=B.mask(grid.nodes))
    want = float(np.trace(GA).real * np.trace(GB).real - np.trace(GA @ GB).real)
    got = pair_correlation_integral(space, A, B, grid)
    assert abs(got - want) < 1e-9


def test_region_count_stats_on_samples():
    space = make_fubini_study(5)
    confs = sample_dpp_many(space, reps=600, seed=23)
    cs = region_count_stats(space, confs, Region.disk(1.0))
    assert cs.reps == 600
    assert abs(cs.mean_z) < 4.0
    assert abs(cs.variance_z) < 4.0
    assert cs.predicted_mean == pytest.approx(3.0, abs=1e-9)
    d = cs.to_json_dict()
    assert d["region"] == "disk:1"


def test_pair_count_stats_observed_means_manual():
    confs = [make_conf([0.1 + 0j, 0.2 + 0j, 3.0 + 0j]), make_conf([0.3 + 0j, 3.5 + 0j, 4.0 + 0j])]
    space = make_fubini_study(2)
    disk = Region.disk(1.0)
    far = Region.annulus(2.0, 10.0)
    rows = pair_count_stats(space, confs, [disk, far])
    by_key = {(r.region_a, r.region_b): r for r in rows}
    # diagonal entries use n(n-1); counts are (2,1) in disk, (1,2) outside
    assert by_key[("disk:1", "disk:1")].observed_mean == pytest.approx((2 + 0) / 2)
    assert by_key[("annulus:2:10", "annulus:2:10")].observed_mean == pytest.approx((0 + 2) / 2)
    assert by_key[("disk:1", "annulus:2:10")].observed_mean == pytest.approx((2 + 2) / 2)


def test_pair_count_stats_overlapping_regions():
    # #full = N on every draw, so E[#A * #full] = N E[#A] = 6 * 3 exactly
    space = make_fubini_study(5)
    confs = sample_dpp_many(space, reps=400, seed=29)
    rows = pair_count_stats(space, confs, [Region.disk(1.0), Region.full()])
    cross = {(r.region_a, r.region_b): r for r in rows}[("disk:1", "full")]
    assert cross.predicted == pytest.approx(18.0, abs=1e-9)
    assert abs(cross.z) < 4.0


# ---------------------------------------------------------------------------
# binned intensity


def test_estimate_intensity_prediction_column():
    from bergdpp.kernel import evaluator

    space = make_fubini_study(4)
    confs = sample_dpp_many(space, reps=50, seed=3)
    cells = estimate_intensity(space, confs, bins=12, extent=2.0)
    assert len(cells) == 144  # square bins over [-2, 2]^2
    ev = evaluator(space)
    for cell in cells[::17]:
        z = np.array([complex(cell.center_re, cell.center_im)])
        rows = ev.section_rows(z)
        want = float((np.abs(rows) ** 2).sum() * space.base_density(z)[0])
        assert cell.prediction == pytest.approx(want, rel=1e-9)
    area = (4.0 / 12.0) ** 2
    total = sum(c.rate * area for c in cells)
    assert 2.0 < total <= 5.0 + 1e-9  # most of the N = 5 points land inside the window


def test_estimate_intensity_rejects_product_charts():
    with pytest.raises(ValueError):
        estimate_intensity(make_product((1, 2), 2), [make_conf([[0j, 0j]])])


# ---------------------------------------------------------------------------
# radius laws


def test_fs_radial_cdf_is_uniform_in_s():
    # the Beta mixture over basis states collapses to Uniform(0,1) in s
    space = make_fubini_study(9)
    cdf = radial_cdf(space)
    for r in [0.3, 1.0, 2.5]:
        s = r * r / (1.0 + r * r)
        assert abs(float(cdf(np.array([r]))[0]) - s) < 1e-12


def test_ginibre_radial_cdf_matches_gamma_sum():
    space = make_ginibre(4)
    cdf = radial_cdf(space)
    r = 1.3
    want = np.mean([special.gammainc(j + 1.0, r * r) for j in range(4)])
    assert abs(float(cdf(np.array([r]))[0]) - want) < 1e-12


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
    confs = sample_dpp_many(space, reps=5, seed=7)
    rep = circular_law_distance(space, confs)
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
    d = report.to_json_dict()
    assert len(d["rows"]) == 2
