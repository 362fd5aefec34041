"""Quadrature grids and Gram matrices against scipy.integrate oracles.

The radial substitution s = t/(1+t) makes Fubini-Study Gram integrands
polynomial in s, so the default grids reproduce them to machine precision;
weighted entries are compared against adaptive quadrature instead.  The
polar-factorised assembly is checked against the plain node sum
(dense_gram), which evaluates every section at every node.
"""

import csv
import math

import numpy as np
import pytest
from scipy import integrate, special

from bergdpp.exprs import parse_weight
from bergdpp.quadrature import (
    GramDegenerateError,
    build_grid,
    gram,
    gram_to_csv,
    integrate_lebesgue,
    weighted_gram_matrix,
)
from bergdpp.quadrature import integrate as grid_integrate
from bergdpp.spaces import make_fubini_study, make_ginibre, make_product
from bergdpp.stats import Region, region_grid


# ---------------------------------------------------------------------------
# grid mass


def test_fs_grid_mass_is_one():
    grid = build_grid(make_fubini_study(3))
    assert abs(grid.mass() - 1.0) < 1e-13


def test_product_grid_mass_is_one():
    grid = build_grid(make_product((1, 2), 2))
    assert abs(grid.mass() - 1.0) < 1e-12


def test_ginibre_grid_mass_is_truncation_area():
    # dmu = dm/pi, so the truncated chart has mass R^2
    space = make_ginibre(4)
    grid = build_grid(space)
    assert abs(grid.mass() - space.truncation_radius**2) < 1e-9


def test_custom_truncation():
    grid = build_grid(make_ginibre(3), truncation=2.0)
    assert abs(grid.mass() - 4.0) < 1e-10


# ---------------------------------------------------------------------------
# integration helpers


def test_integrate_uniform_in_s():
    # pushforward of mu under s = r^2/(1+r^2) is uniform on (0, 1)
    space = make_fubini_study(4)
    grid = build_grid(space)
    val = grid_integrate(grid, lambda Z: (np.abs(Z[:, 0]) ** 2 / (1.0 + np.abs(Z[:, 0]) ** 2)) ** 3)
    assert abs(val - 0.25) < 1e-12


def test_integrate_lebesgue_disk_area():
    space = make_ginibre(2)
    grid = build_grid(space, truncation=1.5)
    val = integrate_lebesgue(grid, lambda Z: np.ones(Z.shape[0]))
    assert abs(val - math.pi * 2.25) < 1e-9


# ---------------------------------------------------------------------------
# unweighted Gram matrices are identities


@pytest.mark.parametrize(
    "space",
    [make_fubini_study(3), make_fubini_study(10), make_ginibre(5), make_product((1, 2), 3)],
    ids=["fs3", "fs10", "gin5", "prod12k3"],
)
def test_gram_is_identity(space):
    g = gram(space, build_grid(space))
    err = np.max(np.abs(g.matrix - np.eye(space.rank)))
    assert err < 1e-10
    assert abs(g.logdet) < 1e-9
    assert g.matrix.shape == (space.rank, space.rank)


# ---------------------------------------------------------------------------
# factorised assembly vs the dense node sum


def dense_gram(space, grid, psi=None, mask=None):
    """Hermitianized sum_m c_m v_i(z_m) conj(v_j(z_m)) over all M grid nodes.

    The M x N section matrix route, O(M N^2) time and O(M N) memory: a
    reference for the factorised assembly, on small grids only.
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


def _assert_matches_dense(space, grid, psi=None, mask=None):
    want = dense_gram(space, grid, psi, mask)
    got = weighted_gram_matrix(space, grid, psi, mask)
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
    assert len(grid.radii[0]) == 4 * grid.radial[0]
    for region in (disk, annulus):
        _assert_matches_dense(space, grid, parse_weight(re_weight), region.mask(grid.nodes))


@pytest.mark.parametrize("family", sorted(_SPACES))
def test_factorised_gram_aliases_like_dense(family):
    # angular < 2 * degree + 1: frequencies a - b alias onto each other
    space, _, _, im_weight = _SPACES[family]
    grid = build_grid(space, radial=6, angular=4)
    assert all(n < 2 * d + 1 for n, d in zip(grid.angular, space.factor_degrees))
    _assert_matches_dense(space, grid)
    _assert_matches_dense(space, grid, parse_weight(im_weight))


# ---------------------------------------------------------------------------
# weighted Gram entries vs adaptive quadrature


def test_weighted_fs_gram_diagonal_matches_quad():
    k = 3
    space = make_fubini_study(k)
    psi = parse_weight("r2/(1+r2)")
    grid = build_grid(space)
    G = weighted_gram_matrix(space, grid, psi)
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
    G = weighted_gram_matrix(space, grid, psi)
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
    G1 = weighted_gram_matrix(space, grid, expr)
    G2 = weighted_gram_matrix(space, grid, lambda Z: 0.3 * np.abs(Z[:, 0]) ** 2 / (1 + np.abs(Z[:, 0]) ** 2))
    assert np.max(np.abs(G1 - G2)) < 1e-14


def test_gram_logdet_matches_slogdet():
    space = make_fubini_study(4)
    grid = build_grid(space)
    g = gram(space, grid, psi=parse_weight("r2/(1+r2)"))
    sign, ld = np.linalg.slogdet(g.matrix)
    assert sign == pytest.approx(1.0)
    assert g.logdet == pytest.approx(ld, abs=1e-12)


def test_degenerate_gram_raises():
    # two radial nodes cannot resolve a rank-4 section family
    space = make_fubini_study(3)
    grid = build_grid(space, radial=1, angular=1)
    with pytest.raises(GramDegenerateError):
        gram(space, grid)


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
