"""Partition functions, cumulant paths, and Monge-Ampere energies.

Hand-derived references for the Fubini-Study chart with f = 0.2/(1+r2):
the per-k Hessian of phi - s f is (1+t)^{-3} [(1+0.2 s) + t (1-0.2 s)]
with t = r^2, which integrates to total mass 1 for every s, gives a disk
mass of 0.525 at s = 0.5 inside r < 1, and gives
int f dmu_eq(s) = 0.1 + s/150, so the limit functional is 0.1 + 1/300.
"""

import functools
import math
from dataclasses import asdict

import numpy as np
import pytest

from bergdpp.energy import (
    GramPath,
    PositivityError,
    equilibrium_mass,
    lambda_k,
    lambda_limit,
    lambda_report,
    mabuchi,
    monge_ampere_density,
    partition_function,
)
from bergdpp.exprs import parse_weight, weight_sum, weight_values
from bergdpp.quadrature import Region, build_grid, gram, weighted_gram_matrix
from bergdpp.sampler import sample_dpp_many
from bergdpp.spaces import make_fubini_study, make_ginibre, make_product
from law_oracles import grid_mass

F_EXPR = parse_weight("0.2/(1+r2)")
S_EXPR = parse_weight("r2/(1+r2)")


# ---------------------------------------------------------------------------
# partition function


@pytest.mark.parametrize(
    "space,factorial",
    [(make_fubini_study(3), 24.0), (make_ginibre(4), 24.0), (make_product((1, 1), 1), 24.0)],
    ids=["fs3", "gin4", "prod11"],
)
def test_partition_equals_factorial_without_weight(space, factorial):
    pv = partition_function(space)
    assert abs(pv.value - factorial) / factorial < 1e-10
    assert pv.rank == space.rank
    assert pv.log_value == pytest.approx(math.log(factorial), abs=1e-10)
    assert abs(pv.logdet_gram) < 1e-9


def test_partition_ratio_is_weighted_gram_det():
    space = make_fubini_study(3)
    grid = build_grid(space)
    pv0 = partition_function(space, grid=grid)
    pvw = partition_function(space, psi=S_EXPR, grid=grid)
    det = math.exp(gram(space, grid, psi=S_EXPR).logdet)
    assert pvw.value / pv0.value == pytest.approx(det, rel=1e-10)


def test_ginibre_grid_refuses_a_weight_it_was_not_built_for():
    # e^{-psi} = e^{(r^2 - 1)/2} exceeds 1 on the unweighted edge, and the
    # weighted tail beyond it is not bounded: Z would read 1.8171e+77
    # against the exact N! det diag(2^(a+1) e^{-1/2}) = 1.8175e+77
    n, psi = 20, parse_weight("(1 - r2)/2")
    space = make_ginibre(n)
    plain = build_grid(space)
    with pytest.raises(ValueError, match=r"\(1 - r2\)/2"):
        partition_function(space, psi, grid=plain)
    for assemble in (gram, weighted_gram_matrix):
        with pytest.raises(ValueError, match=r"\(1 - r2\)/2"):
            assemble(space, plain, psi)
    exact = math.lgamma(n + 1) + sum((a + 1) * math.log(2.0) - 0.5 for a in range(n))
    for grid in (None, build_grid(space, psi=psi)):
        assert partition_function(space, psi, grid=grid).log_value == pytest.approx(exact, rel=1e-13)
    # weights whose own edge is the plain one are accepted on the plain grid,
    # re_1/(1+r2) although its e^{-psi} exceeds 1 on part of that edge
    for expr in ("r2/(1+r2)", "re_1/(1+r2)"):
        gram(space, plain, parse_weight(expr))


def mc_partition_ratio(points, psi) -> tuple[float, float]:
    """Monte Carlo estimate of det G(psi) = E[exp(-sum psi(X_i))].

    Takes exact unweighted draws as a point array; returns (mean, standard error).
    """
    P = np.asarray(points)
    if P.ndim != 3 or P.shape[0] == 0:
        raise ValueError("need at least one configuration")
    reps, n, dim = P.shape
    sums = weight_values(psi, P.reshape(-1, dim)).reshape(reps, n).sum(axis=1)
    vals = np.array([math.exp(-float(s)) for s in sums])
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return float(vals.mean()), se


def test_mc_partition_ratio_matches_quadrature():
    # Monte Carlo E[e^{-sum psi}] vs det of the weighted Gram, fixed seed
    space = make_fubini_study(3)
    det = math.exp(gram(space, build_grid(space), psi=S_EXPR).logdet)
    points, _ = sample_dpp_many(space, reps=3000, seed=63)
    mean, se = mc_partition_ratio(points, S_EXPR)
    assert se > 0.0
    assert abs(mean - det) < 3.0 * se


def test_mc_partition_ratio_needs_samples():
    with pytest.raises(ValueError):
        mc_partition_ratio([], S_EXPR)


# ---------------------------------------------------------------------------
# cumulant generating function along a weight path


def test_cgf_vanishes_at_origin():
    path = GramPath(make_fubini_study(4), S_EXPR)
    assert path.cgf(0.0) == 0.0


def test_cgf_derivative_routes_agree():
    path = GramPath(make_fubini_study(6), S_EXPR)
    for t in (0.0, 0.5):
        chk = path.derivative_check(t)
        assert chk["rel_gap"] < 1e-6


def test_derivative_check_of_a_zero_derivative_reads_agreement():
    # re_1 is odd under z -> -z, so K'(0) = 0 and both routes read rounding
    # noise; the gap is taken relative to the floor N eps / h^3 there
    path = GramPath(make_fubini_study(5), parse_weight("re_1/(1+r2)"))
    zero = path.derivative_check(0.0)
    assert abs(zero["finite_difference"]) < 1e-10
    assert abs(zero["bergman_integral"]) < 1e-14
    assert zero["rel_gap"] <= 1e-3
    # above the floor the gap is relative to the larger route
    chk = path.derivative_check(0.5)
    fd, bg = chk["finite_difference"], chk["bergman_integral"]
    assert chk["rel_gap"] == abs(fd - bg) / max(abs(fd), abs(bg)) < 1e-6


def test_cgf_initial_slope_closed_form():
    # K'(0) = -int psi B dmu = -(k+1) int_0^1 s ds = -(k+1)/2
    k = 6
    path = GramPath(make_fubini_study(k), S_EXPR)
    assert path.bergman_derivative(0.0) == pytest.approx(-(k + 1) / 2.0, abs=1e-10)


def test_bergman_derivative_is_rotation_invariant():
    # a quarter turn takes re_1 to im_1; both weights give the same K'(t)
    space = make_fubini_study(5)
    want = GramPath(space, parse_weight("re_1/(1+r2)")).bergman_derivative(0.5)
    got = GramPath(space, parse_weight("im_1/(1+r2)")).bergman_derivative(0.5)
    assert got == pytest.approx(want, abs=1e-10)


def test_ginibre_cgf_grid_follows_the_weight():
    # at t = -1/2, e^{-t r^2} = e^{r^2/2}: G_aa = 2^(a+1), so the CGF is
    # sum_a (a + 1) log 2, which needs a grid twice as long as at t = 0
    path = GramPath(make_ginibre(20), parse_weight("r2"))
    assert path.cgf(-0.5) == pytest.approx(210 * math.log(2.0), rel=1e-12)
    assert grid_mass(path.at(-0.5).grid) > 1.9 * grid_mass(path.at(0.0).grid)


def _node_sum_derivative(path, t):
    """-tr(G_t^{-1} G~) from M x N section matrices on the path's grid at t."""
    grid = path.at(t).grid
    V = path.space.section_matrix(grid.nodes)
    psi = path.psi(grid.nodes)
    c = grid.weights * grid.density * np.exp(-t * psi)
    G = (c[:, None] * V).T @ V.conj()
    G_psi = ((c * psi)[:, None] * V).T @ V.conj()
    return -float(np.trace(np.linalg.solve(G, G_psi)).real)


@pytest.mark.parametrize(
    "space,expr",
    [(make_fubini_study(10), "r2/(1+r2)"), (make_ginibre(20), "r2/(1+r2)"),
     (make_product((1, 2), 2), "r2_1*r2_2/(1+r2_1)")],
    ids=["fs10", "gin20", "prod12k2"],
)
def test_radial_cgf_path_is_diagonal_end_to_end(space, expr, monkeypatch):
    # a radial psi keeps every Gram of the path diagonal, G~ (masked by psi)
    # included: _assemble returns band 0 alone, as an (N,) array
    import bergdpp.quadrature as quadrature

    shapes = []
    assemble = quadrature._assemble

    def recorded(*args, **kwargs):
        A = assemble(*args, **kwargs)
        shapes.append(A.shape)
        return A

    monkeypatch.setattr(quadrature, "_assemble", recorded)
    path = GramPath(space, parse_weight(expr))
    for t in (0.0, 0.5):
        path.derivative_check(t)
        assert path.at(t).route == "diagonal"
        got = path.bergman_derivative(t)
        assert got == pytest.approx(_node_sum_derivative(path, t), rel=1e-12)
    assert shapes and all(shape == (space.rank,) for shape in shapes)
    if space.kind == "fs":
        assert path.bergman_derivative(0.0) == pytest.approx(-5.5, abs=1e-13)


@pytest.mark.parametrize(
    "source", ["re_1/(1+r2_1)", "re_1/(1+r2_1)+im_2*im_2/(1+r2_2)", "2 + re_1/(1+r2_1)"]
)
@pytest.mark.parametrize("mults", [(1, 2), (1, 1, 1)], ids=["12", "111"])
def test_factored_cgf_path_matches_dense(mults, source, monkeypatch):
    # a separating psi keeps one path per factor; the same values through an
    # opaque callable take the dense route on the product grid, here of 8
    # radii per factor (the default three-factor grid has 1.7e7 nodes)
    import bergdpp.energy as energy

    monkeypatch.setattr(energy, "build_grid", functools.partial(build_grid, radial=8))
    space = make_product(mults, 1)
    psi = parse_weight(source)
    factored, dense = GramPath(space, psi), GramPath(space, psi.evaluate)
    for t in (0.0, 0.5, 1.0):
        got, want = factored.derivative_check(t), dense.derivative_check(t)
        assert (factored.at(t).route, dense.at(t).route) == (
            ("diagonal", "diagonal") if t == 0.0 else ("factored", "dense")
        )
        assert factored.cgf(t) == pytest.approx(dense.cgf(t), rel=1e-12, abs=1e-12)
        assert got["bergman_integral"] == pytest.approx(want["bergman_integral"], rel=1e-12)
        # the central difference carries N eps / h of rounding, and rel_gap
        # is that noise over |K'|: both routes agree to it, not to 1e-12
        noise = space.rank * np.finfo(float).eps / factored.fd_step(t)
        assert abs(got["finite_difference"] - want["finite_difference"]) <= 10 * noise
        assert abs(got["rel_gap"] - want["rel_gap"]) <= 20 * noise / abs(want["bergman_integral"])
        assert got["rel_gap"] < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
def test_factored_logdet_with_power_exp_and_log_terms(k):
    # each term reads one factor through ^, exp or log: moved onto factor 1's
    # chart and re-parsed, it keeps its value, so the factored log det is
    # the dense one of the same values through an opaque callable
    space = make_product((1, 2), k)
    psi = parse_weight("0.3*exp(re_1/(1+r2_1)) + (im_2/(1+r2_2))^2 - 0.2*log(1+r2_2)")
    factored, dense = GramPath(space, psi), GramPath(space, psi.evaluate)
    assert (factored.at(1.0).route, dense.at(1.0).route) == ("factored", "dense")
    assert factored.logdet(1.0) == pytest.approx(dense.logdet(1.0), rel=1e-12)


def test_compact_product_cgf_path_builds_one_grid(monkeypatch):
    # the factor traces are taken on slices of the product's one grid
    # (QuadratureGrid.factor), and no GramPath is built inside another
    import bergdpp.energy as energy

    grids, paths = [], []
    build_grid, init = energy.build_grid, GramPath.__init__

    def recorded_build(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    def recorded_init(self, *args, **kwargs):
        paths.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(energy, "build_grid", recorded_build)
    monkeypatch.setattr(GramPath, "__init__", recorded_init)
    path = GramPath(make_product((1, 2), 3), parse_weight("re_1/(1+r2_1)+im_2*im_2/(1+r2_2)"))
    for t in (0.0, 0.5, 1.0):
        path.derivative_check(t)
    assert (len(grids), len(paths)) == (1, 1)
    assert grids[0].psi is None
    assert all(path.at(t).grid is grids[0] for t in (0.0, 0.5, 1.0))


def test_cgf_is_convex():
    path = GramPath(make_fubini_study(4), S_EXPR)
    ts = np.linspace(-0.5, 1.5, 5)
    vals = [path.cgf(t) for t in ts]
    h = ts[1] - ts[0]
    second = np.diff(vals, 2) / h**2
    assert np.all(second > 0.0)


# ---------------------------------------------------------------------------
# Monge-Ampere density


def test_fs_equilibrium_density_is_base_measure():
    space = make_fubini_study(5)
    pts = np.array([[0.3 + 0.4j], [1.0 - 1.0j], [2.0 + 0j]])
    ma = monge_ampere_density(space, pts)
    assert np.allclose(ma, space.base_density(pts), rtol=1e-12)


def test_product_equilibrium_density_scale():
    # det of the diagonal Hessian brings n! prod m_i against the base measure
    space = make_product((1, 2), 3)
    pts = np.array([[0.3 + 0.1j, 0.5 - 0.5j]])
    ma = monge_ampere_density(space, pts)
    want = 2.0 * 1.0 * 2.0 * space.base_density(pts)
    assert np.allclose(ma, want, rtol=1e-12)


def test_shifted_density_closed_form():
    # phi - 0.5 f with f = 0.2/(1+t): density (1/pi)(1+t)^{-3}(1.1 + 0.9 t)
    space = make_fubini_study(3)
    t = 0.7
    pts = np.array([[math.sqrt(t) + 0j]])
    ma = monge_ampere_density(space, pts, weight_sum((-0.5, F_EXPR)))
    want = (1.1 + 0.9 * t) / (math.pi * (1.0 + t) ** 3)
    assert ma[0] == pytest.approx(want, rel=1e-12)


def test_losing_positivity_raises():
    space = make_fubini_study(3)
    pts = np.array([[2.0 + 0j]])
    with pytest.raises(PositivityError, match="Kahler cone"):
        monge_ampere_density(space, pts, weight_sum((-2.0, parse_weight("log(1+r2)"))))


# ---------------------------------------------------------------------------
# equilibrium masses


def test_fs_equilibrium_masses():
    space = make_fubini_study(4)
    assert equilibrium_mass(space) == pytest.approx(1.0, abs=1e-12)
    assert equilibrium_mass(space, Region.disk(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert equilibrium_mass(space, Region.annulus(1.0, 3.0)) == pytest.approx(
        0.9 - 0.5, abs=1e-12
    )


def test_product_equilibrium_mass_factorizes():
    space = make_product((1, 2), 2)
    reg = Region(bounds=((0.0, 1.0), (0.0, math.inf)))
    assert equilibrium_mass(space, reg) == pytest.approx(0.5, abs=1e-10)


def test_shifted_equilibrium_mass_closed_form():
    space = make_fubini_study(3)
    got = equilibrium_mass(space, Region.disk(1.0), weight_sum((-0.5, F_EXPR)))
    assert got == pytest.approx(0.525, abs=1e-12)


def test_ginibre_equilibrium_uniform_disk():
    space = make_ginibre(4)
    assert equilibrium_mass(space, Region.disk(1.0)) == pytest.approx(0.25)
    assert equilibrium_mass(space, Region.annulus(1.0, 3.0)) == pytest.approx(0.75)
    assert equilibrium_mass(space) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        equilibrium_mass(space, Region.disk(1.0), weight_sum((0.1, F_EXPR)))


# ---------------------------------------------------------------------------
# Mabuchi functional


def test_mabuchi_constant_direction_is_identity():
    space = make_fubini_study(4)
    c = 0.37
    got = mabuchi(space, direction=parse_weight(f"{c}"))
    assert got == pytest.approx(c, abs=1e-12)
    # a coefficient folds into the direction linearly for constants
    two_c = weight_sum((2.0, parse_weight(f"{c}")))
    assert mabuchi(space, direction=two_c) == pytest.approx(2 * c)


def test_mabuchi_zero_direction():
    assert mabuchi(make_fubini_study(3)) == 0.0
    assert mabuchi(make_fubini_study(3), direction=weight_sum((0.0, F_EXPR))) == 0.0


def test_mabuchi_closed_form_value():
    # L(phi, -f) = -int_0^1 (0.1 + s/150) ds = -(0.1 + 1/300)
    space = make_fubini_study(3)
    got = mabuchi(space, direction=weight_sum((-1.0, F_EXPR)), s_nodes=24)
    assert got == pytest.approx(-(0.1 + 1.0 / 300.0), abs=1e-9)


def test_mabuchi_cocycle_identity():
    # L(phi, u + v) = L(phi, u) + L(phi + u, v)
    space = make_fubini_study(3)
    u = parse_weight("0.1*r2/(1+r2)")
    v = parse_weight("0.2/(1+r2)")
    uv = parse_weight("0.1*r2/(1+r2) + 0.2/(1+r2)")
    lhs = mabuchi(space, direction=uv, s_nodes=32)
    rhs = mabuchi(space, direction=u, s_nodes=32) + mabuchi(
        space, psi_prime=u, direction=v, s_nodes=32
    )
    assert abs(lhs - rhs) < 1e-6


def test_mabuchi_quadrature_insensitive_to_s_nodes():
    space = make_fubini_study(3)
    a = mabuchi(space, direction=F_EXPR, s_nodes=16)
    b = mabuchi(space, direction=F_EXPR, s_nodes=32)
    assert abs(a - b) < 1e-12


def test_mabuchi_guards():
    with pytest.raises(ValueError):
        mabuchi(make_ginibre(3), direction=F_EXPR)
    with pytest.raises(ValueError):
        mabuchi(make_fubini_study(3), direction=F_EXPR, s_nodes=8)
    with pytest.raises(PositivityError, match="path parameter"):
        mabuchi(make_fubini_study(3), direction=weight_sum((-1.0, parse_weight("3*log(1+r2)"))))


def test_mabuchi_computes_each_hessian_once(monkeypatch):
    # the Hessians of psi' and of the direction do not depend on s, and the
    # hoisted sum must equal the per-s monge_ampere_density route exactly
    import bergdpp.energy as energy

    space = make_product((1, 2), 2)
    psi_prime = parse_weight("0.1*log(1+r2_1*r2_2)")
    direction = weight_sum((-1.0, parse_weight("0.2/(1+r2_1) + 0.1*r2_2/(1+r2_2)")))
    calls = []
    real = energy.complex_hessian

    def counting(expr, Z):
        if expr is not None:  # the zero form's Hessian is zeros, not a computation
            calls.append(expr)
        return real(expr, Z)

    monkeypatch.setattr(energy, "complex_hessian", counting)
    got = mabuchi(space, psi_prime=psi_prime, direction=direction)
    assert len(calls) <= 2
    assert mabuchi(space, direction=direction) != 0.0
    assert len(calls) <= 3

    pts, wts = build_grid(space).radial_rule
    x, w = np.polynomial.legendre.leggauss(16)
    u = direction(pts)
    want = 0.0
    for s, ws in zip(0.5 * (x + 1.0), 0.5 * w):
        wma = wts * monge_ampere_density(
            space, pts, weight_sum((1.0, psi_prime), (float(s), direction))
        )
        want += float(ws) * float(np.sum(wma * u)) / float(wma.sum())
    assert got == want


@pytest.mark.parametrize("space", [make_fubini_study(4), make_product((1, 2), 2)], ids=["fs", "product"])
def test_monge_ampere_quantities_never_build_the_nodes(space, monkeypatch):
    # equilibrium masses and the Mabuchi functional sum on the radial rule
    from bergdpp.quadrature import QuadratureGrid

    def refuse(grid):
        raise AssertionError("the node arrays were built")

    for name in ("nodes", "weights", "density"):
        monkeypatch.setattr(QuadratureGrid, name, property(refuse))
    dim = space.dim
    f = parse_weight("0.2/(1+r2_1)")
    disk = Region(((0.0, 1.0),) * dim)
    assert 0.0 < equilibrium_mass(space, disk) < 1.0
    assert 0.0 < equilibrium_mass(space, disk, weight_sum((-0.5, f))) < 1.0
    assert mabuchi(space, psi_prime=parse_weight("0.1*log(1+r2_1)"), direction=f) > 0.0


def test_mabuchi_rejects_a_non_finite_direction():
    # log(r2 - 1) is NaN on the grid nodes inside the unit disk
    with pytest.raises(ValueError, match=r"log\(r2 - 1\).* at point \d+, z = "):
        mabuchi(make_fubini_study(3), direction=parse_weight("0.1*log(r2 - 1)"))


# ---------------------------------------------------------------------------
# rescaled cumulant functional


def test_lambda_k_on_ginibre_follows_the_weight_edge():
    # at k = N = 20, -k f = -0.2 r2 widens the Ginibre profile past the
    # unweighted edge, and the path's grid for that weight reaches it.  The
    # Gram is diagonal with entries (1 - 0.2)^-(j+1), j < N, so Lambda_k is
    # -(N+1)/(2N) log 0.8
    got = lambda_k(make_ginibre(20), parse_weight("0.01*r2"))
    assert got == pytest.approx(-(21 / 40) * math.log(0.8), rel=1e-13)


def test_lambda_k_constant_direction_exact():
    space = make_fubini_study(5)
    got = lambda_k(space, parse_weight("0.37"))
    assert got == pytest.approx(0.37, abs=1e-10)


def test_lambda_limit_closed_form():
    space = make_fubini_study(3)
    got = lambda_limit(space, F_EXPR)
    assert got == pytest.approx(0.1 + 1.0 / 300.0, abs=1e-9)


def test_lambda_report_converges():
    spaces = [(10, make_fubini_study(10)), (20, make_fubini_study(20))]
    report = lambda_report(spaces, F_EXPR, psi=None, psi_prime=None)
    gaps = [row.gap for row in report.rows]
    assert gaps[1] < gaps[0]
    assert report.target == pytest.approx(0.1 + 1.0 / 300.0, abs=1e-9)
    d = asdict(report)
    assert len(d["rows"]) == 2
