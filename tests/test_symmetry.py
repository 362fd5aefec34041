"""Exact symmetry oracles for the weighted layers.

The model spaces have exact symmetries, so a non-radial weight has a closed
form or a radial twin to be checked against, sharing no code with the
route that computes it (Hough, Krishnapur, Peres and Virág, *Zeros of
Gaussian Analytic Functions and Determinantal Point Processes*, 2009).

Ginibre translation.  e^{-|z|^2 - c Re z} = e^{c^2/4} e^{-|z + c/2|^2}, and
translation maps the polynomials of degree < N to themselves by a
unipotent change of basis (the Weyl translations of Fock space).  So
log Z(c re_1) = log Z(0) + N c^2/4: the CGF of sum Re z_i is N t^2/4, with
K'(t) = N t/2.

Sphere rotation.  The Fubini-Study sections of degree d carry a unitary
SU(2) action, so Z(psi o g) = Z(psi) for every rotation g of the sphere,
one factor at a time on a product.  On the unit sphere re_1/(1+r2) = X/2,
im_1/(1+r2) = Y/2 and r2/(1+r2) - 1/2 = Z/2: a weight along X or Y (the
dense or the factored route) has the values of its rotation along Z (the
diagonal route).

Every identity is exact, so a bound covers only the rounding of log det G
(a few N eps per unit of log det) and the angular rule's aliasing of the
non-radial factor e^{-t psi}, which ROADMAP item 13 sizes.  Each bound on
a named weight holds the worst error seen at these parameters with at least
2x headroom.  The weights drawn by hypothesis, moved by
tests/symmetry_oracles.py, take their bounds from the grid's exactness and
the rounding of log det instead (the comment above their tests).  A fault in
a route is far outside them: a quadrature._bands that drops the transposed
band fails every test here, and a product bergman_trace that drops the
N/N_f factor fails the product one.

Chain oracles.  The same two symmetries give the weighted chain exact means:
each chain test compares the means over the configurations of one
sample_weighted chain with closed forms that share no code with it.  A chain
that forgets the base density reads mean Z = +0.311 on the sphere, 29
standard deviations off, and one that ignores the weight reads mean Re z
and mean X near 0.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergdpp.energy import GramPath, lambda_k, partition_function
from bergdpp.exprs import parse_weight, weight_sum
from bergdpp.quadrature import bergman_trace, build_grid, gram
from bergdpp.sampler import McmcConfig, rng_stream, sample_weighted
from bergdpp.spaces import make_fubini_study, make_ginibre, make_product
from symmetry_oracles import rotate, shifted, translate


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# the worst case seen is 8.6e-13 relative (N = 50, c = 1): log Z is about
# 150 there, and log det G is rounded a few N eps per unit of it
@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("c", [0.5, 1.0])
def test_ginibre_translation_shifts_log_z_by_n_c2_over_4(n, c):
    space = make_ginibre(n)
    shift = partition_function(space, parse_weight(f"{c}*re_1")).log_value
    shift -= partition_function(space).log_value
    assert _rel(shift, n * c * c / 4) < 1e-11


# the worst case seen is 4.5e-12 relative, K'(1) at N = 50: the Bergman
# trace adds the grid's error in psi B_t to that of log det
@pytest.mark.parametrize("n", [20, 50])
def test_ginibre_translation_cgf_is_n_t2_over_4(n):
    path = GramPath(make_ginibre(n), parse_weight("re_1"))
    for t in (0.5, 1.0):
        assert _rel(path.cgf(t), n * t * t / 4) < 1e-11, t
        assert _rel(path.bergman_derivative(t), n * t / 2) < 1e-11, t


# the worst case seen is 4.2e-13 relative; the radial path along Z is taken
# on the diagonal route, where S = I and only its diagonal is rounded
@pytest.mark.parametrize("k", [10, 60])
@pytest.mark.parametrize("direction", ["re_1/(1+r2)", "im_1/(1+r2)"])
def test_sphere_rotation_takes_x_and_y_to_z(k, direction):
    space = make_fubini_study(k)
    along_z = GramPath(space, parse_weight("r2/(1+r2)-0.5"))
    rotated = GramPath(space, parse_weight(direction))
    assert along_z.at(1.0).route == "diagonal" and rotated.at(1.0).route == "dense"
    for t in (0.5, 1.0, 3.0):
        assert _rel(rotated.cgf(t), along_z.cgf(t)) < 1e-12, t
        assert _rel(rotated.bergman_derivative(t), along_z.bergman_derivative(t)) < 1e-12, t


# factor 2 of (1, 2) at k = 3 has degree 6.  The worst CGF error seen is
# 3.4e-13 relative (t = 3).  The trace integrand psi B_t spans one more
# band of the weight than a Gram entry, so its aliasing floor sits higher:
# 3.0e-12 at t = 3, held by 1e-11
def test_product_rotation_of_one_factor_takes_x_to_z():
    space = make_product((1, 2), 3)
    along_z = GramPath(space, parse_weight("r2_2/(1+r2_2)-0.5"))
    rotated = GramPath(space, parse_weight("re_2/(1+r2_2)"))
    assert along_z.at(1.0).route == "diagonal" and rotated.at(1.0).route == "factored"
    for t in (0.5, 1.0, 3.0):
        assert _rel(rotated.cgf(t), along_z.cgf(t)) < 1e-12, t
        assert _rel(rotated.bergman_derivative(t), along_z.bergman_derivative(t)) < 1e-11, t


# Lambda_k divides a difference of two log dets by k N.  The worst error
# seen is 7.5e-13 relative at k = 10; at k = 20 the eigenvalues of S along
# X spread by about e^{k osc f}, and the eigenvalue route loses digits to
# that spread (ROADMAP item 14): 3.7e-11 relative
@pytest.mark.parametrize("k, bound", [(10, 1e-11), (20, 1e-10)])
@pytest.mark.parametrize("direction", ["re_1/(1+r2)", "im_1/(1+r2)"])
def test_lambda_k_along_x_and_y_is_lambda_k_along_z(k, bound, direction):
    space = make_fubini_study(k)
    along_z = lambda_k(space, parse_weight("r2/(1+r2)-0.5"))
    assert _rel(lambda_k(space, parse_weight(direction)), along_z) < bound


# ---------------------------------------------------------------------------
# drawn weights, moved by a symmetry applied as an opaque callable
# (tests/symmetry_oracles.py), which sends the moved weight to the dense route.
#
# Bounds from the grid's exactness.  The default grid integrates every
# unweighted Gram integrand exactly (quadrature module docstring); a weight
# adds its angular spectrum, which the rule aliases onto a Gram entry only
# from frequencies |delta| >= n_theta - d = d + 1, and onto log det, to first
# order in the entries near the diagonal, only from |delta| >= n_theta.  Each
# drawn example checks that this aliasing is below rounding: twice the
# angles moves the moved weight's log det by at most its rounding floor.
# What is left is the rounding of log det A = log det S + sum log D.  The
# rounded entries of S and a backward-stable eigensolver each move an
# eigenvalue of S by about eps |S|, so log det S moves by at most about
# 2 N eps cond(S), and each term of sum log D by about eps.  So one log det's
# floor is 2 N eps (cond(S) + |log det A|), and an identity between two sides
# holds to the sum of their floors.

EPS = np.finfo(float).eps
_COEF = st.floats(-1.0, 1.0)
_SHIFT = st.floats(-0.5, 0.5)
_GINIBRE_TERMS = tuple(parse_weight(t) for t in ("r2/(1+r2)", "re_1/(1+r2)", "im_1/(2+r2)"))
_SPHERE_TERMS = (parse_weight("r2/(1+r2)"), parse_weight("(r2/(1+r2))^2"))


def _floor(g) -> float:
    """The rounding floor of g.logdet: 2 N eps (cond(S) + |log det A|)."""
    lo, hi = g.spectrum
    return 2.0 * g.grid.space.rank * EPS * (hi / lo + abs(g.logdet))


def _gram(space, psi, angular=None):
    return gram(space, build_grid(space, angular=angular, psi=psi), psi)


def _check_identity(space, psi, moved, route) -> None:
    """log det G(psi) = log det G(moved) to the sum of their floors, on a grid that resolves moved."""
    want, got = _gram(space, psi), _gram(space, moved)
    assert (want.route, got.route) == (route, "dense")
    finer = _gram(space, moved, angular=2 * got.grid.angular[0])
    assert abs(finer.logdet - got.logdet) <= _floor(got)
    assert abs(got.logdet - want.logdet) <= _floor(got) + _floor(want)


def _check_cgf(path, moved_path, t: float) -> None:
    """K(t) = K~(t), each a difference of two log dets, to the sum of the four floors."""
    floor = sum(_floor(p.at(s)) for p in (path, moved_path) for s in (0.0, t))
    assert abs(moved_path.cgf(t) - path.cgf(t)) <= floor


@settings(max_examples=10, derandomize=True, deadline=None)
@given(n=st.sampled_from([20, 50]), c=st.tuples(_COEF, _COEF, _COEF), a=st.tuples(_SHIFT, _SHIFT))
def test_ginibre_translation_keeps_log_z_of_a_drawn_weight(n, c, a):
    # psi = c_1 r2/(1+r2) + c_2 re_1/(1+r2) + c_3 im_1/(2+r2) and its translate
    # psi~(w) = psi(w - a) - 2 Re(conj(a) w) + |a|^2: Z(psi) = Z(psi~); along
    # the path t psi the translate is translate(None, a) + t shifted(psi, a)
    space, a = make_ginibre(n), complex(*a)
    psi = weight_sum(*zip(c, _GINIBRE_TERMS))
    _check_identity(space, psi, translate(psi, a), "diagonal" if c[1] == c[2] == 0.0 else "dense")
    _check_cgf(GramPath(space, psi), GramPath(space, shifted(psi, a), base=translate(None, a)), 1.0)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(k=st.sampled_from([10, 60]), c=st.tuples(_COEF, _COEF), theta=st.floats(0.0, 2.0 * np.pi))
def test_sphere_rotation_keeps_log_z_of_a_drawn_radial_weight(k, c, theta):
    # psi = c_1 r2/(1+r2) + c_2 (r2/(1+r2))^2 is radial (the diagonal route),
    # and psi o g, g the rotation by theta about the Y axis, is not: Z(psi) = Z(psi o g)
    space = make_fubini_study(k)
    psi = weight_sum(*zip(c, _SPHERE_TERMS))
    _check_identity(space, psi, rotate(psi, theta), "diagonal")
    _check_cgf(GramPath(space, psi), GramPath(space, rotate(psi, theta)), 1.0)


# Product (1, 2), a weight of factor 1 alone.  rotate moves both factors, which
# such a weight reads as the rotation of factor 1.  The moved side is assembled on
# one grid for every t: 10 radii per factor, 9 angles on factor 2 (degree 2k <= 4,
# which the weight does not read) and 23 on factor 1 (degree k <= 2), which keep 20
# frequencies of e^{-t psi o g} clear of aliasing, one fewer in the trace integrand.
# Each example checks that twice the angles and twice the radii move its log det
# by at most the two grids' floors.  The radial side is a GramPath on the diagonal
# route, whose K' is the N-sum of bergman_trace.  K'(t) = -tr(S^{-1} M), M the
# scaled psi-masked Gram, and -max|psi| S <= M <= max|psi| S, so |K'| <= N max|psi|.
# The solve moves S^{-1} by about eps cond(S) relative, and the scaling and the
# sum round each term by about eps, so K''s floor is 2 N eps (cond(S) + 1) max|psi|,
# here max|psi| <= |c_1| + |c_2|.  Below the smallest normal number rounding is
# absolute (gradual underflow), so a drawn c near 1e-313 adds that number,
# np.finfo(float).tiny, to the floor.  500 random examples passed in a trial run.
_FACTOR_1_TERMS = (parse_weight("r2_1/(1+r2_1)"), parse_weight("(r2_1/(1+r2_1))^2"))


def _factor_1_grid(space, radial: int, angular: int):
    """A grid with `radial` radii per factor and `angular` angles on factor 1, 9 on factor 2."""
    grid = build_grid(space, radial=radial, angular=9)
    return dataclasses.replace(grid, angular=(angular, *grid.angular[1:]))


def _trace_floor(g, top: float) -> float:
    """The rounding floor of bergman_trace(g, psi) with max|psi| <= top: 2 N eps (cond(S) + 1) top + tiny."""
    lo, hi = g.spectrum
    return 2.0 * g.grid.space.rank * EPS * (hi / lo + 1.0) * top + np.finfo(float).tiny


@settings(max_examples=10, derandomize=True, deadline=None)
@given(k=st.sampled_from([1, 2]), c=st.tuples(_COEF, _COEF), theta=st.floats(0.0, 2.0 * np.pi))
def test_product_rotation_of_factor_1_keeps_a_drawn_radial_weight(k, c, theta):
    # psi = c_1 s_1 + c_2 s_1^2, s_1 = r2_1/(1+r2_1), is radial (the diagonal
    # route), and psi o g is not: log det, K(1) and K'(1) agree
    space = make_product((1, 2), k)
    psi = weight_sum(*zip(c, _FACTOR_1_TERMS))
    moved = rotate(psi, theta)
    path = GramPath(space, psi)
    assert path.at(1.0).route == "diagonal"
    grids = [_factor_1_grid(space, r, a) for r, a in ((10, 23), (10, 47), (20, 23))]
    got, *finer = (gram(space, grid, weight_sum((1.0, moved))) for grid in grids)
    assert got.route == "dense"
    assert all(abs(f.logdet - got.logdet) <= _floor(got) + _floor(f) for f in finer)
    assert abs(got.logdet - path.logdet(1.0)) <= _floor(got) + _floor(path.at(1.0))
    at_0 = gram(space, grids[0])
    floor = sum(_floor(g) for g in (got, at_0, path.at(0.0), path.at(1.0)))
    assert abs(got.logdet - at_0.logdet - path.cgf(1.0)) <= floor
    top = abs(c[0]) + abs(c[1])
    floor = _trace_floor(got, top) + _trace_floor(path.at(1.0), top)
    assert abs(-bergman_trace(got, moved) - path.bergman_derivative(1.0)) <= floor


# ---------------------------------------------------------------------------
# chain oracles: exact means over one fixed-seed chain of 900 configurations.
# Each bound is at least 5 standard deviations of its mean, measured over 20
# seeds, so a correct chain on a new stream fails one of the six with
# probability about 3e-6 (normal approximation); a 3-sigma gate would fail a
# correct chain on about one stream in 60.

_CHAIN = McmcConfig(20000, 2000, 20)


def test_ginibre_translation_shifts_the_chain_by_minus_one():
    # e^{-|z|^2 - 2 Re z} = e e^{-|z + 1|^2}: the Ginibre process shifted by
    # -1, so mean Re z = -1, mean Im z = 0 and mean |z + 1|^2 = (N + 1)/2.
    # Standard deviations over 20 seeds: 0.022, 0.019 and 0.036
    n = 10
    z = sample_weighted(make_ginibre(n), _CHAIN, parse_weight("2*re_1"), rng_stream(1)).points[:, :, 0]
    assert abs(z.real.mean() + 1.0) < 0.11
    assert abs(z.imag.mean()) < 0.10
    assert abs((np.abs(z + 1.0) ** 2).mean() - (n + 1) / 2) < 0.18


def _kostlan_mean_z(k: int, c: float) -> float:
    """Mean Z = 2s - 1 per point of fs k under the weight c Z, Z the sphere's height.

    By Kostlan's theorem the moduli s_j = |z_j|^2/(1 + |z_j|^2) of the radial
    process are independent, s_j with density prop. to s^j (1 - s)^(k - j)
    e^{-c (2s - 1)} on [0, 1]; 40 Gauss-Legendre nodes integrate each mean.
    """
    x, w = np.polynomial.legendre.leggauss(40)
    s = 0.5 * (x + 1.0)
    means = []
    for j in range(k + 1):
        density = w * s**j * (1.0 - s) ** (k - j) * np.exp(-c * (2.0 * s - 1.0))
        means.append(np.sum(density * (2.0 * s - 1.0)) / np.sum(density))
    return float(np.mean(means))


def test_sphere_rotation_takes_the_chain_along_x_to_the_radial_law():
    # 4 re_1/(1+r2) = 2X on the unit sphere: the rotation of the radial
    # process under 2Z, so mean X is the radial mean Z, -0.188816, and mean
    # Y and mean Z are 0.  Standard deviations over 20 seeds: 0.0046,
    # 0.0043 and 0.0107
    want = _kostlan_mean_z(5, 2.0)
    assert want == pytest.approx(-0.188816, abs=1e-6)
    space = make_fubini_study(5)
    z = sample_weighted(space, _CHAIN, parse_weight("4*re_1/(1+r2)"), rng_stream(1)).points[:, :, 0]
    q = 1.0 + np.abs(z) ** 2
    assert abs((2.0 * z.real / q).mean() - want) < 0.023
    assert abs((2.0 * z.imag / q).mean()) < 0.022
    assert abs(((np.abs(z) ** 2 - 1.0) / q).mean()) < 0.054
