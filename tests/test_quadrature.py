"""Quadrature grids and Gram matrices against scipy.integrate oracles.

The radial substitution s = t/(1+t) makes Fubini-Study Gram integrands
polynomial in s, so the default grids reproduce them to machine precision;
weighted entries are compared against adaptive quadrature instead.  The
polar-factorised assembly, on both its dense and its diagonal route, is
checked against the plain node sum (dense_gram), which evaluates every
section at every node.
"""

import csv
import math
import tracemalloc

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from bergdpp import cli, energy, spaces
from bergdpp.exprs import factor_weights, parse_weight, weight_sum
from bergdpp.quadrature import (
    TAIL,
    GramDegenerateError,
    Region,
    _diagonal,
    _ginibre_edge,
    _judged,
    _kron,
    _tail_edge,
    _unjudged,
    build_grid,
    gram,
    gram_to_csv,
    region_grid,
    weighted_gram_matrix,
)
from bergdpp.spaces import (
    MIN_PANEL,
    gauss_legendre,
    make_fubini_study,
    make_ginibre,
    make_product,
    space_to_config,
)
from law_oracles import grid_mass


# ---------------------------------------------------------------------------
# grid mass


def test_fs_grid_mass_is_one():
    grid = build_grid(make_fubini_study(3))
    assert abs(grid_mass(grid) - 1.0) < 1e-13


def test_product_grid_mass_is_one():
    grid = build_grid(make_product((1, 2), 2))
    assert abs(grid_mass(grid) - 1.0) < 1e-12


def test_ginibre_grid_mass_is_truncation_area():
    # dmu = dm/pi, so the grid on t = r^2 in [0, t_max] has mass t_max,
    # where Q(N, t_max) = TAIL bounds the Gram tail
    grid = build_grid(make_ginibre(4))
    assert abs(grid_mass(grid) - special.gammainccinv(4, TAIL)) < 1e-9
    assert special.gammaincc(4, grid_mass(grid)) == pytest.approx(TAIL, rel=1e-6)


def test_radial_rule_matches_the_node_sum():
    # an integrand of the moduli alone (base density x region mask x
    # Monge-Ampere density) sums the same on the radial rule as on the nodes
    from bergdpp.energy import monge_ampere_density

    space = make_product((1, 2), 3)
    region = Region(((0.5, 1.2), (0.0, 0.8)))
    grid = build_grid(space, breaks=region.break_radii())

    def integral(points, weights):
        f = space.base_density(points) * region.mask(points) * monge_ampere_density(space, points)
        return float(np.sum(weights * f))

    points, weights = grid.radial_rule
    assert points.shape == (grid.radii[0].size * grid.radii[1].size, 2)
    assert np.all(points.imag == 0.0)
    want = integral(grid.nodes, grid.weights)
    assert abs(integral(points, weights) - want) <= 1e-13 * abs(want)


def test_tail_edge_matches_gammainccinv():
    # the library solves Q(N, t) = TAIL through the Poisson sum; scipy inverts Q itself
    n = np.arange(1, 3001)
    got = np.array([_tail_edge(int(m)) for m in n])
    want = special.gammainccinv(n, TAIL)
    assert np.max(np.abs(got - want) / want) < 1e-14


@pytest.mark.parametrize("breaks", [(), (1.0,)], ids=["alone", "panels"])
def test_truncation_beyond_tail_edge_is_the_default_grid(breaks):
    # the grid ends at its tail edge t_max: a panel edge past it is dropped
    space = make_ginibre(50)
    default = build_grid(space, breaks=(breaks,))
    assert grid_mass(default) < 30.0**2
    past = build_grid(space, breaks=(breaks + (30.0,),))
    assert np.array_equal(past.radii[0], default.radii[0])
    assert np.array_equal(past.radial_weights[0], default.radial_weights[0])
    assert past.radial == default.radial


def test_default_radial_count_is_one_rule():
    # max(F, d // 2 + 8) Legendre nodes per factor of degree d, F = 96 on
    # Ginibre and 32 on compact factors, on each side of each floor; region
    # grids take the same count
    cases = [
        (make_fubini_study(49), (32,)),
        (make_fubini_study(50), (33,)),
        (make_ginibre(178), (96,)),
        (make_ginibre(179), (97,)),
        (make_product((1, 2), 4), (32, 32)),
    ]
    for space, want in cases:
        assert build_grid(space).radial == want
        assert region_grid(space, Region.disk(0.5, space.dim)).radial == want


def test_weighted_ginibre_gram_matches_closed_form():
    # e^{-psi} = e^{(r^2 - 1)/2} grows, so the weighted top-index tail beyond
    # the unweighted edge would be Q(N, t_max / 2), 85% at N = 150.  The
    # grid built for psi reaches about twice as far; exactly,
    # G_ab = delta_ab e^{-1/2} int t^a e^{-t/2} dt / a! = delta_ab 2^(a+1) e^{-1/2}.
    psi = parse_weight("(1 - r2)/2")
    for n in (50, 150):
        space = make_ginibre(n)
        grid = build_grid(space, psi=psi)
        # the weighted top-index share beyond the edge t_max is Q(N, t_max / 2)
        t_max = grid_mass(grid)
        assert special.gammaincc(n, t_max / 2.0) <= TAIL
        assert t_max < 2.1 * special.gammainccinv(n, TAIL)
        want = math.exp(-0.5) * 2.0 ** (np.arange(n) + 1.0)
        scaled = np.diag(weighted_gram_matrix(space, grid, psi)) / np.sqrt(np.outer(want, want))
        assert np.max(np.abs(scaled - np.eye(n))) < 1e-11


def test_weight_at_most_one_on_the_edge_keeps_the_unweighted_grid():
    space = make_ginibre(50)
    plain = build_grid(space)
    for expr in ("r2/(1+r2)", "re_1/(1+r2)", "0"):
        weighted = build_grid(space, psi=parse_weight(expr))
        assert np.array_equal(weighted.nodes, plain.nodes)
        assert np.array_equal(weighted.weights, plain.weights)


@pytest.mark.parametrize(
    "n, expr",
    [(500, "re_1/(1+r2)"), (150, "(1 - r2)/2"), (50, "3*re_1"), (100, "re_1*im_1/(1+r2)")],
)
def test_edge_search_does_not_depend_on_its_slabs(n, expr, monkeypatch):
    # the weight is evaluated one slab of circles at a time; slabs of four
    # circles (the least budget) move no edge by a bit.  All four weights
    # exceed 1 somewhere on the unweighted edge circle, so the search runs,
    # and the last three move the edge past it
    psi, n_angular = parse_weight(expr), 2 * n - 1
    whole = _ginibre_edge(n, psi, n_angular)
    monkeypatch.setattr(spaces, "SLAB_ENTRIES", 1)
    assert _ginibre_edge(n, psi, n_angular) == whole >= _tail_edge(n)


def test_edge_search_names_a_failing_point_among_all_circles(monkeypatch):
    # nan for 100 < t < 200 only, so the failure falls in a later slab: its
    # index counts the points of every circle before it, whatever the slabs
    psi = parse_weight("log((r2-100)*(r2-200)) - r2/2")
    with pytest.raises(ValueError) as whole:
        _ginibre_edge(300, psi, 599)
    assert "is nan at point 64692, z = [(10.00089324641736+0j)]" in str(whole.value)
    monkeypatch.setattr(spaces, "SLAB_ENTRIES", 1)
    with pytest.raises(ValueError) as small:
        _ginibre_edge(300, psi, 599)
    assert str(small.value) == str(whole.value)


def test_weight_growing_like_the_gaussian_is_refused():
    # e^{-psi} = e^{r^2} cancels the Gaussian: the Gram diverges
    with pytest.raises(ValueError, match="may diverge"):
        build_grid(make_ginibre(5), psi=parse_weight("0 - r2"))


def test_ginibre_panels_share_the_radial_nodes():
    # panels split [0, t_max] and share its nodes by width, MIN_PANEL at least
    space = make_ginibre(300)
    t_max = special.gammainccinv(300, TAIL)
    edges = np.array([0.0, 1.0, 100.0, 300.0, t_max])
    grid = build_grid(space, breaks=((1.0, 10.0, math.sqrt(300.0), 40.0),))
    radial = grid.radial[0]
    assert radial == 299 // 2 + 8
    want = [max(MIN_PANEL, math.ceil(radial * w / t_max)) for w in np.diff(edges)]
    assert grid.radii[0].size == sum(want) < 2 * radial
    assert grid_mass(grid) == pytest.approx(t_max, rel=1e-12)


def test_gauss_legendre_is_memoised_and_read_only():
    x, w = gauss_legendre(24)
    ref_x, ref_w = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert gauss_legendre(24) is gauss_legendre(24)


# ---------------------------------------------------------------------------
# grid sums


def test_integrate_uniform_in_s():
    # pushforward of mu under s = r^2/(1+r^2) is uniform on (0, 1)
    space = make_fubini_study(4)
    grid = build_grid(space)
    s = np.abs(grid.nodes[:, 0]) ** 2 / (1.0 + np.abs(grid.nodes[:, 0]) ** 2)
    val = np.sum(grid.weights * grid.density * s**3)
    assert abs(val - 0.25) < 1e-12


# ---------------------------------------------------------------------------
# unweighted Gram matrices are identities


_IDENTITY_SPACES = {
    **{f"fs{k}": make_fubini_study(k) for k in (0, 3, 10, 49, 50, 400)},
    **{f"gin{n}": make_ginibre(n) for n in (1, 5, 178, 179, 500)},
    **{f"prod12k{k}": make_product((1, 2), k) for k in (3, 4)},
}


# the default node count on each side of each floor, and at the largest sizes
@pytest.mark.parametrize("case", sorted(_IDENTITY_SPACES))
def test_gram_is_identity(case):
    space = _IDENTITY_SPACES[case]
    g = gram(space, build_grid(space))
    err = np.max(np.abs(g.matrix - np.eye(space.rank)))
    assert err <= 1e-11
    assert abs(g.logdet) < 1e-9
    assert g.matrix.shape == (space.rank, space.rank)


# ---------------------------------------------------------------------------
# factorised assembly vs the dense node sum


def dense_gram(space, grid, psi=None, mask=None):
    """Hermitianized sum_m c_m v_i(z_m) conj(v_j(z_m)) over all M grid nodes.

    The M x N section matrix route, O(M N^2) time and O(M N) memory: a
    reference for the factorised assembly, on small grids only.  mask is
    given as values at the nodes.
    """
    V = space.section_matrix(grid.nodes)
    c = grid.weights * grid.density
    if psi is not None:
        c = c * np.exp(-psi(grid.nodes))
    if mask is not None:
        c = c * mask
    A = (c[:, None] * V).T @ V.conj()
    return 0.5 * (A + A.conj().T)


_SPACES = {
    "fs": (make_fubini_study(6), "r2/(1+r2)", "re_1/(1+r2)", "im_1/(1+r2)"),
    "gin": (make_ginibre(7), "r2/(1+r2)", "re_1/(1+r2)", "im_1/(1+r2)"),
    "prod": (make_product((1, 2), 2), "r2_1*r2_2/(1+r2_1)", "re_1/(1+r2_1)", "im_1/(1+r2_2)"),
}


def _node_values(grid, mask):
    """A Region's indicator or a weight form's values at the grid's nodes."""
    if mask is None:
        return None
    return mask.mask(grid.nodes) if isinstance(mask, Region) else mask(grid.nodes)


def _as_matrix(G):
    """weighted_gram_matrix's result as (N, N): np.diag of the diagonal route's (N,) diagonal."""
    return np.diag(G) if G.ndim == 1 else G


def _assert_matches_dense(space, grid, psi=None, mask=None):
    want = dense_gram(space, grid, psi, _node_values(grid, mask))
    got = _as_matrix(weighted_gram_matrix(space, grid, psi, mask))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("weight", [None, 1, 2, 3], ids=["plain", "radial", "re", "im"])
@pytest.mark.parametrize("family", sorted(_SPACES))
def test_factorised_gram_matches_dense(family, weight):
    space, *weights = _SPACES[family]
    psi = None if weight is None else parse_weight(weights[weight - 1])
    _assert_matches_dense(space, build_grid(space), psi)


@pytest.mark.parametrize("family", sorted(_SPACES))
def test_factorised_masked_gram_on_panels_matches_dense(family):
    space, _, re_weight, _ = _SPACES[family]
    disk, annulus = Region.disk(0.8, space.dim), Region.annulus(0.5, 1.7, space.dim)
    grid = region_grid(space, disk, annulus)  # panels split at 0.5, 0.8 and 1.7
    if space.kind == "ginibre":  # the panels share the nodes of [0, t_max]
        t_max = special.gammainccinv(space.rank, TAIL)
        widths = np.diff([0.0, 0.25, 0.64, 2.89, t_max])
        counts = [max(MIN_PANEL, math.ceil(grid.radial[0] * w / t_max)) for w in widths]
        assert len(grid.radii[0]) == sum(counts)
    else:
        assert len(grid.radii[0]) == 4 * grid.radial[0]
    for region in (disk, annulus):
        _assert_matches_dense(space, grid, parse_weight(re_weight), region)


@pytest.mark.parametrize("family", sorted(_SPACES))
def test_factorised_gram_aliases_like_dense(family):
    # angular < 2 * degree + 1: frequencies a - b alias onto each other
    space, _, _, im_weight = _SPACES[family]
    grid = build_grid(space, radial=6, angular=4)
    assert all(n < 2 * d + 1 for n, d in zip(grid.angular, (f.degree for f in space.factors)))
    _assert_matches_dense(space, grid)
    _assert_matches_dense(space, grid, parse_weight(im_weight))


# ---------------------------------------------------------------------------
# the diagonal route: torus-invariant Grams, decided from the inputs


def _radial_weights(family):
    """None, the family's radial weight, and a weight_sum of two radial terms."""
    space, radial, *_ = _SPACES[family]
    second = "r2/(2+r2)" if space.dim == 1 else "r2_2/(1+r2_2)"
    sum_ = weight_sum((0.5, parse_weight(radial)), (0.25, parse_weight(second)))
    return [None, parse_weight(radial), sum_]


def _panel_grid(space, *regions):
    """region_grid's panels; product factors take 8 nodes per panel, as the
    M x N dense reference on the default product panels would take 0.3 GB."""
    if space.dim == 1:
        return region_grid(space, *regions)
    breaks = [sorted({r for reg in regions for r in reg.break_radii()[i]}) for i in range(space.dim)]
    return build_grid(space, radial=8, breaks=breaks)


@pytest.mark.parametrize("family", sorted(_SPACES))
def test_diagonal_route_matches_dense(family):
    # radial weights, sums of them, disk, annulus and overlap masks and a
    # radial weight form as mask keep c free of the angles: the assembly
    # returns band 0 alone, as an (N,) diagonal, and the dense node sum agrees
    space, radial, *_ = _SPACES[family]
    disk, annulus = Region.disk(0.8, space.dim), Region.annulus(0.5, 1.7, space.dim)
    overlap = disk.overlap(annulus)
    assert overlap == Region.annulus(0.5, 0.8, space.dim)
    grid = _panel_grid(space, disk, annulus)
    for psi in _radial_weights(family):
        for mask in (None, disk, annulus, overlap, parse_weight(radial)):
            assert _diagonal(space, grid, psi, mask)
            want = dense_gram(space, grid, psi, _node_values(grid, mask))
            got = weighted_gram_matrix(space, grid, psi, mask)
            assert got.shape == (space.rank,)
            assert np.max(np.abs(np.diag(got) - want)) <= 1e-12 * np.max(np.abs(want))
        g = gram(space, grid, psi)
        assert g.route == "diagonal"
        assert np.array_equal(g.matrix, np.diag(weighted_gram_matrix(space, grid, psi)))
        assert g.logdet == pytest.approx(np.linalg.slogdet(dense_gram(space, grid, psi))[1], abs=1e-12)
        assert np.array_equal(g.whiten(np.eye(space.rank)), np.diag(1.0 / np.sqrt(g.matrix.diagonal().real)))


@pytest.mark.parametrize("family", sorted(_SPACES))
def test_dense_route_is_kept_unless_the_inputs_are_torus_invariant(family):
    # decided from the weight's and the mask's forms and the angular counts,
    # never from the size of the off-diagonal entries: a 1e-9 angular term,
    # an opaque callable, an angular weight form as mask, or angular =
    # degree (band a - b = degree aliases onto band 0) each keep the dense route
    space, radial, re_weight, _ = _SPACES[family]
    grid = build_grid(space)
    assert gram(space, grid).route == "diagonal"
    tiny = weight_sum((1e-9, parse_weight(re_weight)), (1.0, parse_weight(radial)))
    callable_ = parse_weight(radial).evaluate  # the same values, not a WeightExpr
    for psi in (tiny, callable_):
        assert not _diagonal(space, grid, psi, None)
        assert gram(space, grid, psi).route == "dense"
    angular_mask = parse_weight(re_weight)
    assert not _diagonal(space, grid, None, angular_mask)
    _assert_matches_dense(space, grid, None, angular_mask)
    aliasing = build_grid(space, angular=max(f.degree for f in space.factors))
    assert not _diagonal(space, aliasing, None, None)
    g = gram(space, aliasing)
    assert g.route == "dense"
    assert np.max(np.abs(g.matrix - dense_gram(space, aliasing))) <= 1e-12


def test_diagonal_gram_builds_no_node_arrays():
    # the radial rules alone carry a diagonal Gram: the M-node arrays are
    # never built, and build_grid + gram stay small (the node arrays of this
    # grid and their DFT took 21 MB)
    space = make_product((1, 2), 4)
    tracemalloc.start()
    try:
        grid = build_grid(space)
        g = gram(space, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.route == "diagonal"
    assert peak < 1_000_000
    assert grid.size == 32 * 9 * 32 * 17
    assert not {"nodes", "weights", "density"} & set(vars(grid))
    assert grid.nodes.shape == (grid.size, 2)  # built on first use


def test_factored_gram_builds_no_product_node_arrays(monkeypatch):
    # a separating weight on a product takes one Gram per factor on the
    # factor's own rule: the product grid's 3.4e6-node arrays are never built,
    # and the Kronecker matrix, 861 x 861 complex or 11.9 MB, is not formed
    seen = []

    def spy(space, grid, psi=None):
        seen.append((grid, gram(space, grid, psi)))
        return seen[-1][1]

    monkeypatch.setattr(energy, "gram", spy)
    argv = ["check", "partition", "--space", "product", "--mults", "1,2", "--k", "20",
            "--weight-expr", "re_1/(1+r2_1)"]
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((grid, g),) = seen
    assert g.route == "factored"
    assert grid.size == 32 * 41 * 32 * 81
    assert not {"nodes", "weights", "density"} & set(vars(grid))
    assert "matrix" not in vars(g)
    assert peak < 10_000_000
    assert out.getvalue() == "log Z = 4965.278785\n"


@pytest.mark.parametrize(
    "space, argv",
    [(make_product((1, 1), 50), ["--space", "product", "--mults", "1,1", "--k", "50"]),
     (make_ginibre(2000), ["--space", "ginibre", "--n", "2000"])],
    ids=["product11k50", "ginibre2000"],
)
def test_diagonal_partition_holds_no_n_by_n_matrix(space, argv):
    # a diagonal-route Gram is its (N,) diagonal from assembly on: N x N
    # complex matrices holding only a diagonal took 109 MB at rank 2601 and
    # 64 MB at Ginibre N = 2000.  What is left is each factor's real radial
    # table R (n_r, N_f), cached on the grid, and R**2 beside it while D is
    # contracted: 2 n_r N_f floats per factor, with 1 MB for the (n_r,) and
    # (N,) vectors.  A product's tables are 2 x 33 x 51 floats, so 2 MB there
    tables = sum(2 * r.size * (f.degree + 1) * 8 for f, r in zip(space.factors, build_grid(space).radii))
    bound = 2_000_000 if space.dim > 1 else tables + 1_000_000
    for _ in range(2):  # the first run fills the per-rank caches (the Ginibre edge, the norms)
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert cli.run(["check", "partition", *argv]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert "relative error" in out.getvalue()
    assert peak < bound


# ---------------------------------------------------------------------------
# the factored route: separable weights on products


_FACTORED_WEIGHTS = ["re_1/(1+r2_1)", "re_1/(1+r2_1)+im_2*im_2/(1+r2_2)", "2 + re_1/(1+r2_1)"]


@pytest.mark.parametrize("source", _FACTORED_WEIGHTS)
@pytest.mark.parametrize("mults", [(1, 2), (1, 1, 1)], ids=["12", "111"])
def test_factored_gram_matches_dense(mults, source):
    space = make_product(mults, 2)
    psi = parse_weight(source)
    grid = build_grid(space, radial=8, psi=psi)  # the dense reference on 8 radii per factor
    g = gram(space, grid, psi)
    dense = gram(space, grid, psi.evaluate)  # the same values, an opaque callable: dense route
    assert (g.route, dense.route) == ("factored", "dense")
    assert len(g.factors) == space.dim
    # log det, and so Z = N! det G, to 1e-12 relative
    assert abs(g.logdet - dense.logdet) <= 1e-12 * max(1.0, abs(dense.logdet))
    A = dense.matrix
    assert np.max(np.abs(g.matrix - A)) <= 1e-12 * np.max(np.abs(A))
    # the kernels V conj(A)^{-1} V^H of both routes' whitened section rows
    rng = np.random.default_rng(3)
    V = space.section_matrix(rng.normal(size=(20, space.dim)) + 1j * rng.normal(size=(20, space.dim)))
    K, want = [W @ W.conj().T for W in (g.whiten(V), dense.whiten(V))]
    assert np.max(np.abs(K - want)) <= 1e-12 * np.max(np.abs(want))
    lo, hi = g.spectrum  # the Kronecker spectrum of S is the dense S's
    scale = 1.0 / np.sqrt(A.diagonal().real)
    eigs = np.linalg.eigvalsh(A * scale[:, None] * scale[None, :])
    assert lo == pytest.approx(eigs[0], rel=1e-10) and hi == pytest.approx(eigs[-1], rel=1e-10)


def test_each_factor_grid_is_sliced_once(monkeypatch):
    # QuadratureGrid.factor(i) is one object per grid and factor, so gram()'s
    # factor Grams, the grids they keep and bergman_trace's factor traces share
    # its radial_tables: the factored CGF path on one product grid evaluates
    # each factor's magnitudes once, and the product grid's own (t = 0, the
    # diagonal route) once more
    grid = build_grid(make_product((1, 2), 3))
    assert grid.factor(0) is grid.factor(0) and grid.factor(1) is not grid.factor(0)
    calls = []
    magnitudes = spaces._Factor.magnitudes
    monkeypatch.setattr(spaces._Factor, "magnitudes", lambda f, r: calls.append(f) or magnitudes(f, r))
    argv = ["energy", "cgf", "--space", "product", "--mults", "1,2", "--k", "20",
            "--weight-expr", "re_1/(1+r2_1)", "--t", "0,0.5,1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0
    assert len(calls) == 4


def test_whiten_at_the_verdict_bound():
    # a Gram that gram() accepts with lambda_min / lambda_max just above 1e-12
    # has a Cholesky factor, and its whitened rows are orthonormal, T^H
    # conj(S) T = I, to u kappa(S): storing S alone moves lambda_min by u
    # |S|, which the map scales by 1 / lambda_min.  S0 = Q diag(lambda) Q^H
    # has an eigenvalue 0 and unit diagonal once scaled; (S0 + tau I) / (1 +
    # tau) keeps the diagonal and puts the ratio at tau / lambda_max
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(500, 500)) + 1j * rng.normal(size=(500, 500)))
    S0 = (Q * np.append(np.geomspace(1.0, 1e-3, 499), 0.0)) @ Q.conj().T
    S0 = S0 / np.sqrt(np.outer(S0.diagonal().real, S0.diagonal().real))
    tau = 1.01e-12 * np.linalg.eigvalsh(S0)[-1]
    S = (S0 + tau * np.eye(500)) / (1.0 + tau)
    S = 0.5 * (S + S.conj().T)
    g = _judged(_unjudged(S, None, None), "here")
    lo, hi = g.spectrum
    assert 1e-12 < lo / hi < 1.02e-12
    T = g.whiten(np.eye(500))
    u = np.finfo(float).eps / 2
    assert np.linalg.norm(T.conj().T @ S.conj() @ T - np.eye(500), 2) <= u * hi / lo


@pytest.mark.parametrize("source", ["re_1*re_2/(1+r2_1+r2_2)", "im_1/(1+r2_2)"])
def test_non_separable_weights_keep_the_dense_route(source):
    space = make_product((1, 2), 2)
    psi = parse_weight(source)
    assert factor_weights(psi, space.dim) is None
    grid = build_grid(space, psi=psi)
    g, opaque = gram(space, grid, psi), gram(space, grid, psi.evaluate)
    assert g.route == "dense" and not g.factors
    assert g.logdet == opaque.logdet
    assert np.array_equal(g.matrix, opaque.matrix)


_TERMS = ["re_{i}/(1+r2_{i})", "im_{i}*re_{i}/(1+r2_{i})", "r2_{i}/(1+r2_{i})",
          "im_{i}/(1+r2_{j})", "re_{i}*re_{j}/(1+r2_{i}+r2_{j})", "0.5"]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_TERMS), st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1)]),
                  st.sampled_from(["0.3", "1", "2"]), st.sampled_from("+-")),
        min_size=1, max_size=4,
    ),
    st.booleans(),
)
def test_separable_weights_have_kronecker_grams(terms, scaled):
    # whenever the detector splits a weight, the full dense Gram is the
    # Kronecker product of the factor Grams to rounding
    source = "".join(f"{sign}{coef}*{kind.format(i=i, j=j)}" for kind, (i, j), coef, sign in terms)
    source = source.lstrip("+")
    if source.startswith("-"):
        source = "0" + source
    if scaled:  # a top-level product is one term: split only if it reads one factor
        source = f"({source})*0.5"
    psi = parse_weight(source)
    space = make_product((1, 2), 1)
    grid = build_grid(space, psi=psi)
    parts = factor_weights(psi, space.dim)
    if parts is None:
        return
    A = _as_matrix(weighted_gram_matrix(space, grid, psi))
    K = np.kron(*[_as_matrix(weighted_gram_matrix(space.factor_space(f), grid.factor(f), w))
                  for f, w in enumerate(parts)])
    assert np.max(np.abs(A - K)) <= 1e-13 * np.max(np.abs(A))


def _unit_diagonal(ratio: float) -> np.ndarray:
    """A 2 x 2 Hermitian Gram with unit diagonal whose eigenvalue ratio is ratio."""
    c = (1.0 - ratio) / (1.0 + ratio)
    return np.array([[1.0, 1j * c], [-1j * c, 1.0]])


@pytest.mark.parametrize("share", [0.98, 1.02])
def test_factored_verdict_is_the_dense_verdict(share):
    # each factor alone is far from the 1e-12 bound (ratio 1e-6 each), and
    # their Kronecker product sits just inside or just outside it
    A1, A2 = _unit_diagonal(1e-6), _unit_diagonal(share * 1e-6)
    factored = _kron([_unjudged(A1, None, None), _unjudged(A2, None, None)], None, None)
    dense = _unjudged(np.kron(A1, A2), None, None)
    for part in factored.factors:
        _judged(part, "alone")
    lo, hi = factored.spectrum
    # eigvalsh resolves the dense 1e-12 eigenvalue to about eps / 1e-12
    assert lo / hi == pytest.approx(dense.spectrum[0] / dense.spectrum[1], rel=1e-3)
    assert lo / hi == pytest.approx(share * 1e-12, rel=1e-6)
    if share < 1.0:
        for g in (factored, dense):
            with pytest.raises(GramDegenerateError, match="scaled-Gram eigenvalue range"):
                _judged(g, "here")
    else:
        assert _judged(factored, "here") is factored
        assert _judged(dense, "here") is dense


def test_factored_verdict_with_a_degenerate_factor():
    # a factor Gram with a zero diagonal entry gives S the eigenvalue 0,
    # whatever the other factors
    bad = _unjudged(np.array([1.0, 0.0]), None, None)
    good = _unjudged(_unit_diagonal(0.5), None, None)
    with pytest.raises(GramDegenerateError):
        _judged(_kron([good, bad], None, None), "here")
    with pytest.raises(GramDegenerateError):
        _judged(_unjudged(np.kron(good.matrix, bad.matrix), None, None), "here")


# ---------------------------------------------------------------------------
# weighted Gram entries vs adaptive quadrature


def test_weighted_fs_gram_diagonal_matches_quad():
    k = 3
    space = make_fubini_study(k)
    psi = parse_weight("r2/(1+r2)")
    grid = build_grid(space)
    G = np.diag(weighted_gram_matrix(space, grid, psi))
    # angular symmetry kills off-diagonal entries
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-12
    cj2 = (k + 1.0) * special.comb(k, np.arange(k + 1))
    for j in range(k + 1):
        want, err = integrate.quad(
            lambda t, j=j: cj2[j] * t**j * (1.0 + t) ** (-k - 2) * math.exp(-t / (1.0 + t)),
            0.0,
            np.inf,
        )
        assert abs(G[j, j].real - want) < 1e-9


def test_weighted_ginibre_gram_diagonal_matches_quad():
    n = 4
    space = make_ginibre(n)
    grid = build_grid(space)
    psi = parse_weight("r2/(1+r2)")
    G = np.diag(weighted_gram_matrix(space, grid, psi))
    for j in range(n):
        want, err = integrate.quad(
            lambda t, j=j: t**j / special.factorial(j) * math.exp(-t - t / (1.0 + t)),
            0.0,
            np.inf,
        )
        assert abs(G[j, j].real - want) < 1e-8


def test_weighted_gram_accepts_callable():
    space = make_fubini_study(2)
    grid = build_grid(space)
    expr = parse_weight("0.3*r2/(1+r2)")
    G1 = _as_matrix(weighted_gram_matrix(space, grid, expr))
    G2 = _as_matrix(weighted_gram_matrix(space, grid, lambda Z: 0.3 * np.abs(Z[:, 0]) ** 2 / (1 + np.abs(Z[:, 0]) ** 2)))
    assert np.max(np.abs(G1 - G2)) < 1e-14


def test_gram_logdet_matches_slogdet():
    space = make_fubini_study(4)
    grid = build_grid(space)
    g = gram(space, grid, psi=parse_weight("r2/(1+r2)"))
    sign, ld = np.linalg.slogdet(g.matrix)
    assert sign == pytest.approx(1.0)
    assert g.logdet == pytest.approx(ld, abs=1e-12)


def test_gram_logdet_does_not_depend_on_the_basis_scale():
    # under (1 - r2)/2 the exact Gram is diag(2^(a+1) e^{-1/2}): its eigenvalue
    # ratio 2^(N-1) passes 1e12 from N = 41, but the scaled Gram is near I
    psi = parse_weight("(1 - r2)/2")
    n = 50
    space = make_ginibre(n)
    g = gram(space, build_grid(space, psi=psi), psi=psi)
    want = float(np.sum((np.arange(n) + 1.0) * math.log(2.0) - 0.5))
    assert g.logdet == pytest.approx(want, rel=1e-12)


def test_degenerate_gram_raises():
    # two radial nodes cannot resolve a rank-4 section family
    space = make_fubini_study(3)
    grid = build_grid(space, radial=1, angular=1)
    with pytest.raises(GramDegenerateError):
        gram(space, grid)


# ---------------------------------------------------------------------------
# the record: a Gram keeps its grid and weight, and a grid serves its own space


@pytest.mark.parametrize(
    "space, source, route",
    [
        (make_fubini_study(5), "r2/(1+r2)", "diagonal"),
        (make_fubini_study(5), "re_1/(1+r2)", "dense"),
        (make_product((1, 2), 2), "re_1/(1+r2_1)+im_2*im_2/(1+r2_2)", "factored"),
    ],
    ids=["diagonal", "dense", "factored"],
)
def test_gram_records_its_grid_and_weight(space, source, route):
    psi = parse_weight(source)
    grid = build_grid(space, psi=psi)
    g = gram(space, grid, psi)
    assert g.route == route and g.grid is grid and g.weight is psi
    if route != "factored":
        return
    # each factor Gram records factor i's slice of the grid and factor i's
    # term, read on its own chart
    Z = np.array([[0.3 + 0.4j, -1.1 + 0.2j], [2.0 - 0.5j, 0.1 - 0.7j], [-0.6j, 1.5]])
    terms = [parse_weight("re_1/(1+r2_1)"), parse_weight("im_2*im_2/(1+r2_2)")]
    assert len(g.factors) == space.dim == len(terms)
    for i, (part, term) in enumerate(zip(g.factors, terms)):
        assert part.grid.space == space.factor_space(i)
        assert part.grid.radii[0] is grid.radii[i] and part.grid.angular == (grid.angular[i],)
        assert np.allclose(part.weight(Z[:, [i]]), term(Z), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "assemble, space, other",
    [
        (gram, make_fubini_study(40), make_fubini_study(3)),
        (weighted_gram_matrix, make_ginibre(60), make_ginibre(10)),
    ],
    ids=["gram-fs", "weighted-ginibre"],
)
def test_a_grid_built_for_another_space_is_refused(assemble, space, other):
    # the parent returned log det -5.41 (fs k = 40 on a k = 3 grid, where
    # the identity Gram gives 0) and -6.06 (Ginibre N = 60 on an N = 10 grid)
    with pytest.raises(ValueError) as info:
        assemble(space, build_grid(other))
    assert str(space_to_config(space)) in str(info.value)
    assert str(space_to_config(other)) in str(info.value)


@pytest.mark.parametrize(
    "refused, named",
    [(lambda: Region.disk(1.0, 2).mask([0.1, 0.2, 0.3]), "points have 1 factors, region has 2"),
     (lambda: build_grid(make_product((1, 2), 2), breaks=[(1.0,)]), "need breaks for 2 factors, got 1")],
    ids=["region-mask", "grid-breaks"],
)
def test_a_wrong_factor_count_is_refused(refused, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        refused()


# ---------------------------------------------------------------------------
# CSV export


def test_gram_to_csv_round_trip(tmp_path):
    space = make_fubini_study(2)
    g = gram(space, build_grid(space))
    path = tmp_path / "gram.csv"
    gram_to_csv(g, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == space.rank
    # cells are quoted "re,im" pairs with full repr precision
    back = np.empty((space.rank, space.rank), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            re, im = cell.split(",")
            back[i, j] = complex(float(re), float(im))
    assert np.max(np.abs(back - g.matrix)) == 0.0
