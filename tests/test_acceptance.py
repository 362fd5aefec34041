"""Acceptance gate: ten numbered criteria, one printed line each.

Each test computes its advertised quantities at the pinned tolerances,
prints a single "criterion N: PASS/FAIL (...)" line with capture
suspended (so the lines show for passing tests too), and then asserts.
Stochastic criteria run at fixed seeds with a single worker.  Beside
criterion 4 a count-law check tests whole count distributions, with a stated
false-failure rate; it prints no criterion line.
"""

import json
import math
import time

import numpy as np
from scipy import stats as sps

from bergdpp.energy import GramPath, lambda_k, lambda_report, partition_function
from bergdpp.exprs import parse_weight
from bergdpp.kernel import (
    default_test_points,
    evaluator,
    limit_correlation,
    rescaled_correlation,
    scaling_errors,
)
from bergdpp.quadrature import Region, build_grid, weighted_gram_matrix
from bergdpp.sampler import rng_stream, sample_dpp_many
from bergdpp.spaces import limit_frame, make_fubini_study, make_ginibre, make_product
from bergdpp.stats import (
    circular_law_distance,
    measure_convergence,
    pair_count_stats,
)
from bergdpp.cli import run
from count_laws import kostlan_probabilities, poisson_binomial_pmf, pooled_chi_square
from discrete_oracle import DiscreteProjectionDpp, discrete_projection_from_space


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print("\n" + line, flush=True)


def test_criterion_01_orthonormality_and_partition(capsys):
    # FS k in {3, 10, 20}: Gram = identity and Z(0) = N!, under 10 s
    t0 = time.perf_counter()
    worst_gram = 0.0
    worst_rel = 0.0
    for k in (3, 10, 20):
        space = make_fubini_study(k)
        grid = build_grid(space)
        G = weighted_gram_matrix(space, grid)
        worst_gram = max(worst_gram, float(np.max(np.abs(G - np.eye(space.rank)))))
        z = partition_function(space)
        want = float(math.factorial(space.rank))
        worst_rel = max(worst_rel, abs(z.value - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst_gram < 1e-8 and worst_rel < 1e-8 and elapsed < 10.0
    _report(
        capsys,
        1,
        ok,
        f"gram err {worst_gram:.2e}, partition rel err {worst_rel:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert worst_gram < 1e-8
    assert worst_rel < 1e-8
    assert elapsed < 10.0


def test_criterion_02_reproducing_identities(capsys):
    # trace of the kernel diagonal equals the rank on every model family
    worst_trace = 0.0
    for space in (make_fubini_study(6), make_ginibre(5), make_product((1, 2), 3)):
        grid = build_grid(space)
        rows = evaluator(space).section_rows(grid.nodes)
        diag = np.einsum("mi,mi->m", rows, rows.conj()).real
        tr = float(np.sum(grid.weights * grid.density * diag))
        worst_trace = max(worst_trace, abs(tr - space.rank))

    # semigroup: int B(x,z) B(z,y) dmu(z) = B(x,y) at 10 random pairs
    space = make_fubini_study(7)
    grid = build_grid(space)
    ev = evaluator(space)
    rows = ev.section_rows(grid.nodes)
    c = grid.weights * grid.density
    rng = np.random.default_rng(7)
    pts = 0.9 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    worst_semi = 0.0
    for i in range(10):
        vx = ev.section_rows([pts[2 * i]])[0]
        vy = ev.section_rows([pts[2 * i + 1]])[0]
        bxz = rows.conj() @ vx          # B(x, z) over the grid
        bzy = rows @ vy.conj()          # B(z, y) over the grid
        integral = complex(np.sum(c * bxz * bzy))
        direct = complex(vx @ vy.conj())
        worst_semi = max(worst_semi, abs(integral - direct) / abs(direct))

    ok = worst_trace < 1e-8 and worst_semi < 1e-6
    _report(capsys, 2, ok, f"trace err {worst_trace:.2e}, semigroup rel err {worst_semi:.2e}")
    assert worst_trace < 1e-8
    assert worst_semi < 1e-6


def test_criterion_03_integration_lemma(capsys):
    # int det[B over P + {y}] dmu(y) = (N - m) det[B over P], FS k=3, N=4
    space = make_fubini_study(3)
    N = space.rank
    grid = build_grid(space)
    ev = evaluator(space)
    rows = ev.section_rows(grid.nodes)
    c = grid.weights * grid.density
    byy = np.einsum("mi,mi->m", rows, rows.conj()).real
    rng = np.random.default_rng(31)
    base = 0.8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    worst = 0.0
    for m in (1, 2, 3):
        VP = ev.section_rows(base[:m])
        KP = VP @ VP.conj().T
        det_p = float(np.linalg.det(KP).real)
        KP_inv = np.linalg.inv(KP)
        b = rows @ VP.conj().T          # b[z, i] = B(z, p_i)
        # bordered determinant via the Schur complement in the new point
        schur = byy - np.einsum("zi,ij,zj->z", b, KP_inv, b.conj()).real
        integral = det_p * float(np.sum(c * schur))
        want = (N - m) * det_p
        worst = max(worst, abs(integral - want) / abs(want))
    ok = worst < 1e-6
    _report(capsys, 3, ok, f"m in {{1,2,3}}, worst rel err {worst:.2e}")
    assert worst < 1e-6


def test_criterion_04_pair_correlations_and_discrete_oracle(capsys):
    # sampled pair counts vs masked-Gram traces, 1e4 draws each; on these
    # disjoint regions E[#A #B] = tr G_A tr G_B - Re tr(G_A G_B), the integral
    # of rho_2 over A x B (stats.py states the full trace identities)
    fs = make_fubini_study(5)
    fs_regions = [Region.disk(0.7), Region.annulus(0.7, 1.4), Region.annulus(1.4, 3.0)]
    fs_draws, _ = sample_dpp_many(fs, 10_000, seed=0)
    fs_stats = pair_count_stats(fs, fs_draws, fs_regions)
    fs_z = max(abs(s.z) for s in fs_stats)

    gin = make_ginibre(5)
    gin_regions = [Region.disk(1.0), Region.annulus(1.0, 1.8), Region.annulus(1.8, 3.0)]
    gin_draws, _ = sample_dpp_many(gin, 10_000, seed=1)
    gin_stats = pair_count_stats(gin, gin_draws, gin_regions)
    gin_z = max(abs(s.z) for s in gin_stats)

    # discrete oracle: inclusion frequencies vs det K_S over 2e4 draws,
    # 60 singletons plus 40 fixed index pairs
    nodes, K = discrete_projection_from_space(make_fubini_study(3), radial=10, angular=6)
    dpp = DiscreteProjectionDpp(K)
    subsets = [(i,) for i in range(dpp.size)]
    subsets += [(i, i + 1) for i in range(0, dpp.size - 1, 2)]
    subsets += [(i, (i + 30) % dpp.size) for i in range(0, 30, 3)]
    draws = 20_000
    rng = rng_stream(2)
    occupancy = np.zeros((draws, dpp.size), dtype=bool)
    for d in range(draws):
        occupancy[d, list(dpp.sample(rng))] = True
    disc_z = 0.0
    for S in subsets:
        p = dpp.inclusion_probability(S)
        obs = float(occupancy[:, list(S)].all(axis=1).mean())
        sigma = math.sqrt(p * (1.0 - p) / draws)
        disc_z = max(disc_z, abs(obs - p) / sigma)

    ok = fs_z < 3.0 and gin_z < 3.0 and disc_z < 3.0
    _report(
        capsys,
        4,
        ok,
        f"max |z|: fs pairs {fs_z:.2f}, ginibre pairs {gin_z:.2f}, "
        f"discrete {disc_z:.2f} (all < 3)",
    )
    assert fs_z < 3.0
    assert gin_z < 3.0
    assert disc_z < 3.0


# The family-wise false-failure rate of the count-law check; each of its
# chi-square statistics is held to COUNT_LAW_ALPHA / (number of statistics).
COUNT_LAW_ALPHA = 1e-4


def test_count_laws_beside_criterion_04():
    # Kostlan (1992): the squared moduli of a draw are independent across
    # basis indices, Gamma(j+1) in r^2 for Ginibre and Beta(j+1, k-j+1) in
    # s = r^2/(1+r^2) for Fubini-Study, so the count in a centred disk is
    # Poisson-binomial.  The laws come from scipy (tests/count_laws.py) and
    # share no code with the sampler.  Bins are pooled until each expects at
    # least 10 draws, so that the chi-square tail holds at the Bonferroni
    # level.  Degree 5 and degrees 35-36 lie on both sides of the
    # phase-block degree 32 of section evaluation.
    cases = [
        (make_fubini_study(5), 1200, (0.6, 1.0, 1.8)),
        (make_ginibre(5), 1200, (1.0, 1.6, 2.2)),
        (make_fubini_study(36), 200, (0.5, 1.0, 2.0)),
        (make_ginibre(36), 200, (3.0, 4.5, 6.0)),
    ]
    level = COUNT_LAW_ALPHA / sum(len(radii) for _, _, radii in cases)
    for index, (space, draws, radii) in enumerate(cases):
        points, _ = sample_dpp_many(space, draws, seed=0, stream_base=(index,))
        moduli = np.abs(points[:, :, 0])
        for r in radii:
            pmf = poisson_binomial_pmf(kostlan_probabilities(space, [(0.0, r)]))
            observed = np.bincount((moduli < r).sum(axis=1), minlength=pmf.size)
            stat, dof = pooled_chi_square(observed, draws * pmf, floor=10.0)
            assert dof >= 2, (space.kind, space.rank, r)
            p_value = sps.chi2.sf(stat, dof)
            assert p_value > level, (space.kind, space.rank, r, stat, dof, p_value)


def test_criterion_05_scaling_limit(capsys):
    t0 = time.perf_counter()
    fs_rows = scaling_errors([(k, make_fubini_study(k)) for k in (25, 100, 400)])
    prod_rows = scaling_errors([(k, make_product((1, 2), k)) for k in (10, 40)])
    ratios = [r["ratio_to_prev"] for r in fs_rows[1:] + prod_rows[1:]]

    # FS one-point values have an exact closed form at every power
    pts = default_test_points(1)
    worst_cf = 0.0
    for k in (25, 100, 400):
        space = make_fubini_study(k)
        frame = limit_frame(space, np.zeros(1))
        for i in range(len(pts)):
            got = rescaled_correlation(space, frame, pts[i : i + 1])
            u2 = abs(complex(pts[i, 0])) ** 2
            want = (k + 1) / (np.pi * k * (1.0 + u2 / k) ** 2)
            worst_cf = max(worst_cf, abs(got - want))
    for i in range(len(pts)):
        got = limit_correlation((1.0,), pts[i : i + 1])
        worst_cf = max(worst_cf, abs(got - 1.0 / np.pi))
    elapsed = time.perf_counter() - t0

    ok = all(r <= 0.7 for r in ratios) and worst_cf < 1e-10 and elapsed < 30.0
    errs = {r["k"]: r["sup_error"] for r in fs_rows}
    _report(
        capsys,
        5,
        ok,
        f"fs sup errors {errs[25]:.4f}/{errs[100]:.4f}/{errs[400]:.4f}, "
        f"ratios {', '.join(f'{r:.3f}' for r in ratios)} (<= 0.7), "
        f"m=1 closed form err {worst_cf:.1e}, {elapsed:.1f}s",
    )
    assert all(r <= 0.7 for r in ratios)
    assert worst_cf < 1e-10
    assert elapsed < 30.0


def test_criterion_06_circular_law(capsys):
    big = make_ginibre(500)
    rep_big = circular_law_distance(big, sample_dpp_many(big, 20, seed=101)[0])
    small = make_ginibre(50)
    rep_small = circular_law_distance(small, sample_dpp_many(small, 20, seed=101)[0])
    ok = rep_big.distance < 0.05 and rep_big.distance < rep_small.distance
    _report(
        capsys,
        6,
        ok,
        f"KS at N=500 {rep_big.distance:.4f} (< 0.05), at N=50 {rep_small.distance:.4f}",
    )
    assert rep_big.distance < 0.05
    assert rep_big.distance < rep_small.distance


def test_criterion_07_equilibrium_convergence(capsys):
    spaces = [(k, make_fubini_study(k)) for k in (5, 10, 20)]
    report = measure_convergence(spaces, Region.disk(1.0), reps=200, seed=103)
    worst_quad = max(abs(r.quadrature_mass - 0.5) for r in report.rows)
    worst_z = max(abs(r.mc_mass - 0.5) / r.mc_se for r in report.rows)
    variances = [r.replicate_variance for r in report.rows]
    decreasing = all(a > b for a, b in zip(variances, variances[1:]))
    ok = worst_quad < 1e-8 and worst_z < 3.0 and decreasing
    _report(
        capsys,
        7,
        ok,
        f"quadrature mass err {worst_quad:.1e}, mc max |z| {worst_z:.2f}, "
        f"variances {' > '.join(f'{v:.4f}' for v in variances)}",
    )
    assert worst_quad < 1e-8
    assert worst_z < 3.0
    assert decreasing


def test_criterion_08_cgf_derivative(capsys):
    space = make_fubini_study(10)
    path = GramPath(space, psi=parse_weight("r2 / (1 + r2)"))
    checks = [path.derivative_check(t) for t in (0.0, 0.5)]
    worst_rel = max(c["rel_gap"] for c in checks)
    value_gap = abs(path.bergman_derivative(0.0) - (-5.5))
    ok = worst_rel < 1e-4 and value_gap < 1e-6
    _report(
        capsys,
        8,
        ok,
        f"derivative rel gap {worst_rel:.2e} at t in {{0, 0.5}}, "
        f"|K'(0) + 5.5| = {value_gap:.1e}",
    )
    assert worst_rel < 1e-4
    assert value_gap < 1e-6


def test_criterion_09_mabuchi_limit(capsys):
    f = parse_weight("0.2 / (1 + r2)")
    spaces = [(k, make_fubini_study(k)) for k in (10, 20, 40)]
    report = lambda_report(spaces, f)
    gaps = [r.gap for r in report.rows]
    strictly_decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] < max(0.05 * abs(report.target), 0.01)

    const = parse_weight("0.37")
    worst_const = max(
        abs(lambda_k(make_fubini_study(k), const) - 0.37) for k in (10, 20, 40)
    )
    ok = strictly_decreasing and final_ok and worst_const < 1e-12
    _report(
        capsys,
        9,
        ok,
        f"gaps {' > '.join(f'{g:.2e}' for g in gaps)}, target {report.target:.6f}, "
        f"constant case err {worst_const:.1e}",
    )
    assert strictly_decreasing
    assert final_ok
    assert worst_const < 1e-12


def test_criterion_10_reproducibility(tmp_path, capsys):
    def run_twice(argv_tail, name):
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}.json"
            assert run(argv_tail + ["--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        return payloads[0] == payloads[1], payloads[0]

    exact_same, exact_bytes = run_twice(
        ["sample", "--space", "fs", "--k", "4", "--reps", "6",
         "--seed", "11", "--workers", "1"],
        "exact",
    )
    mcmc_same, _ = run_twice(
        ["sample", "--space", "fs", "--k", "3", "--seed", "11",
         "--weight-expr", "r2/(1+r2)", "--mcmc-steps", "200", "--workers", "1"],
        "mcmc",
    )
    doc = json.loads(exact_bytes)
    ok = exact_same and mcmc_same and doc["seed"] == 11
    _report(
        capsys,
        10,
        ok,
        f"exact sampler byte-identical: {exact_same}, "
        f"mcmc sampler byte-identical: {mcmc_same}",
    )
    assert exact_same
    assert mcmc_same
