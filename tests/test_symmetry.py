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
non-radial factor e^{-t psi}, which ROADMAP item 13 sizes.  Each bound
holds the worst error seen at these parameters with at least 2x headroom.
A fault in a route is far outside them: a quadrature._bands that drops the
transposed band fails every test here, and a product bergman_trace that
drops the N/N_f factor fails the product one.

Chain oracles.  The same two symmetries give the weighted chain exact means:
each chain test compares the means over the configurations of one
sample_weighted chain with closed forms that share no code with it.  A chain
that forgets the base density reads mean Z = +0.311 on the sphere, 29
standard deviations off, and one that ignores the weight reads mean Re z
and mean X near 0.
"""

import numpy as np
import pytest

from bergdpp.energy import GramPath, lambda_k, partition_function
from bergdpp.exprs import parse_weight
from bergdpp.sampler import McmcConfig, rng_stream, sample_weighted
from bergdpp.spaces import make_fubini_study, make_ginibre, make_product


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
