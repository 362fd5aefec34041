"""Model spaces: section bases, weights, measures, normal frames.

Closed-form references: Fubini-Study basis norms are binomial numbers,
the weighted density of states is constant k+1 on the Fubini-Study chart
and an incomplete-gamma tail for the Ginibre family.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from bergdpp.exprs import complex_hessian, parse_weight
from bergdpp.spaces import (
    limit_frame,
    make_fubini_study,
    make_ginibre,
    make_product,
    space_from_config,
    space_to_config,
)


# ---------------------------------------------------------------------------
# factories and validation


def test_fs_shape():
    space = make_fubini_study(7)
    assert space.kind == "fs"
    assert space.rank == 8
    assert space.dim == 1
    assert tuple(f.degree for f in space.factors) == (7,)


def test_ginibre_shape():
    space = make_ginibre(5)
    assert space.rank == 5
    assert space.power == 5
    assert tuple(f.degree for f in space.factors) == (4,)


def test_product_rank_multiplies():
    space = make_product((1, 2), 3)
    assert space.dim == 2
    assert tuple(f.degree for f in space.factors) == (3, 6)
    assert space.rank == 4 * 7


@pytest.mark.parametrize(
    "bad",
    [lambda: make_ginibre(0), lambda: make_ginibre(2.5), lambda: make_fubini_study(-1),
     lambda: make_product((), 3), lambda: make_product((1, 0), 3), lambda: make_product((1,), 0)],
)
def test_factory_validation(bad):
    with pytest.raises(ValueError):
        bad()


# ---------------------------------------------------------------------------
# basis normalizations


def test_fs_log_norms_are_binomial():
    space = make_fubini_study(3)
    want = np.log(np.sqrt(4.0 * special.comb(3, np.arange(4))))
    assert np.allclose(space.factors[0].log_norms, want, atol=1e-14)
    # c_j = (log(K+1) + log K! - log j! - log (K-j)!)/2 cancels terms of size
    # log K! on both sides, so the bound scales with log K!, not with |c_j|
    for k in range(401):
        j = np.arange(k + 1.0)
        want = 0.5 * (math.log(k + 1.0) + special.gammaln(k + 1.0) - special.gammaln(j + 1.0)
                      - special.gammaln(k - j + 1.0))
        got = make_fubini_study(k).factors[0].log_norms
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, special.gammaln(k + 1.0))


def test_fs_log_norms_match_mpmath():
    # c_j = (log(K+1) + log C(K, j))/2 against 30-digit arithmetic on the
    # exact binomial: no cancellation, so the bound scales with |c_j| alone
    # (the factorial form was off by up to 4.5e-14 |c_j| at K <= 400)
    with mpmath.workdps(30):
        for k in range(401):
            half = [float(mpmath.log(mpmath.mpf(k + 1) * math.comb(k, j)) / 2) for j in range(k // 2 + 1)]
            want = np.array(half + half[: (k + 1) // 2][::-1])
            got = make_fubini_study(k).factors[0].log_norms
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want))), k


def test_ginibre_log_norms_are_factorial():
    space = make_ginibre(4)
    want = -0.5 * np.log([1.0, 1.0, 2.0, 6.0])
    assert np.allclose(space.factors[0].log_norms, want, atol=1e-14)
    # the norms of N = 1000 hold those of every smaller N as a prefix
    want = -0.5 * special.gammaln(np.arange(1000.0) + 1.0)
    got = make_ginibre(1000).factors[0].log_norms
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_fs_sections_match_direct_formula():
    # direct complex arithmetic route, no log-magnitude splitting
    k = 4
    space = make_fubini_study(k)
    z = np.array([0.3 + 0.7j, 2.0 - 1.0j, 0j])
    V = space.section_matrix(z)
    j = np.arange(k + 1)
    cj = np.sqrt((k + 1.0) * special.comb(k, j))
    direct = cj[None, :] * z[:, None] ** j[None, :] / (1.0 + np.abs(z[:, None]) ** 2) ** (k / 2.0)
    assert np.max(np.abs(V - direct)) < 1e-13


def test_ginibre_sections_match_direct_formula():
    n = 5
    space = make_ginibre(n)
    z = np.array([1.0 + 2.0j, 0.5j])
    V = space.section_matrix(z)
    j = np.arange(n)
    direct = (
        z[:, None] ** j[None, :]
        / np.sqrt(special.factorial(j))[None, :]
        * np.exp(-0.5 * np.abs(z[:, None]) ** 2)
    )
    assert np.max(np.abs(V - direct)) < 1e-13


def _mp_factor_values(kind, d, z):
    """v_j(z), j = 0..d, of one factor in 30-digit arithmetic, as complex numbers."""
    with mpmath.workdps(30):
        w = mpmath.mpc(z.real, z.imag)
        t = abs(w) ** 2
        if kind == "ginibre":
            vals = [w**j / mpmath.sqrt(mpmath.factorial(j)) * mpmath.exp(-t / 2) for j in range(d + 1)]
        else:
            scale = (1 + t) ** (-mpmath.mpf(d) / 2)
            vals = [mpmath.sqrt((d + 1) * mpmath.binomial(d, j)) * w**j * scale for j in range(d + 1)]
        return np.array([complex(v) for v in vals])


@pytest.mark.parametrize(
    "space,points",
    [
        # bulk, near the origin, and past the edge sqrt(N) = 17.3, with
        # angles near +-pi, where theta j is largest
        (make_ginibre(300), [[0.05 + 0.01j], [5 * np.exp(3.1j)], [12 * np.exp(-2.9j)],
                             [17.3 * np.exp(0.7j)], [20 * np.exp(3.14j)], [24 * np.exp(-1.6j)]]),
        (make_fubini_study(400), [[0.01 * np.exp(-3.0j)], [0.3 * np.exp(3.1j)], [np.exp(-2.5j)],
                                  [3 * np.exp(1.3j)], [30 * np.exp(3.13j)]]),
        (make_product((1, 2), 20), [[0.5 * np.exp(3.1j), 2 * np.exp(-3.1j)],
                                    [4 * np.exp(1j), 0.2 * np.exp(2.9j)],
                                    [30 * np.exp(-3.13j), 25 * np.exp(3.0j)]]),
    ],
    ids=["gin300", "fs400", "prod12k20"],
)
def test_sections_match_mpmath_at_large_degree(space, points):
    # the error order stated in the factors' values(): a phase is off by
    # O(eps |theta| d), a magnitude by O(eps (d |log r| + |c_j| + w(r)));
    # on a product the factor orders add.  Relative to each row's largest
    # entry, the measured errors sit at a third of eps times that order or less
    eps = np.finfo(float).eps
    Z = np.array(points, dtype=complex)
    V = space.section_matrix(Z)
    kind = "ginibre" if space.kind == "ginibre" else "fs"
    for row, z in zip(V, Z):
        want, order = np.ones(1, dtype=complex), 0.0
        for i, d in enumerate(f.degree for f in space.factors):
            want = np.outer(want, _mp_factor_values(kind, d, z[i])).ravel()
            r = abs(z[i])
            w = r * r if kind == "ginibre" else d * math.log1p(r * r)
            c = np.max(np.abs(space.factors[i].log_norms))
            order += 1.0 + d * (abs(np.angle(z[i])) + abs(math.log(r))) + c + w
        assert np.max(np.abs(row - want)) <= eps * order * np.max(np.abs(want)), z


@pytest.mark.parametrize(
    "space",
    [make_ginibre(7), make_fubini_study(1), make_fubini_study(9), make_product((1, 2), 3)],
    ids=["gin7", "fs1", "fs9", "prod12k3"],
)
def test_factor_hessians_match_their_weight_expressions(space):
    # an oracle that shares no code with the factors: the forward-mode
    # Hessian of each factor's weight written as an expression, per k
    z = (0.05 + 0.37 * np.arange(20)) * np.exp(1j * np.linspace(-3.0, 3.0, 20))
    for f in space.factors:
        expr, k = (f"{f.degree}*log(1+r2)", space.power) if f.compact else ("r2", 1)
        want = complex_hessian(parse_weight(expr), z)[:, 0, 0]
        assert np.max(np.abs(f.hessian(np.abs(z) ** 2) - want / k)) <= 1e-13


def test_product_sections_factorize():
    space = make_product((1, 2), 2)
    f1 = make_fubini_study(2)   # m=1, degree 2
    f2 = make_fubini_study(4)   # m=2 at k=2 has degree 4
    Z = np.array([[0.4 + 0.1j, 1.0 - 0.5j]])
    V = space.section_matrix(Z)
    V1 = f1.section_matrix(Z[:, 0])
    V2 = f2.section_matrix(Z[:, 1])
    want = (V1[:, :, None] * V2[:, None, :]).reshape(1, -1)
    assert np.max(np.abs(V - want)) < 1e-13


# ---------------------------------------------------------------------------
# weights and measures


def test_factor_spaces_are_the_product_factors():
    space = make_product((1, 2), 3)
    Z = np.array([[0.3 + 0.1j, -0.7j], [1.2 - 0.4j, 0.2 + 0.5j]])
    parts = [space.factor_space(i) for i in range(space.dim)]
    assert [p.factors for p in parts] == [(f,) for f in space.factors]
    assert [p.rank for p in parts] == [4, 7]
    kron = np.einsum("ma,mb->mab", *[p.section_matrix(Z[:, [i]]) for i, p in enumerate(parts)])
    assert np.max(np.abs(kron.reshape(2, -1) - space.section_matrix(Z))) < 1e-13
    assert space_to_config(parts[1]) == {"kind": "product", "multiplicities": [2], "k": 3}


def test_weight_hessian_per_k():
    Z = np.array([[1.0 + 1.0j, 0.5 + 0j]])
    H = make_product((1, 2), 3).weight_hessian_per_k(Z)
    assert H[0, 0, 0] == pytest.approx(1.0 / 9.0)
    assert H[0, 1, 1] == pytest.approx(2.0 / (1.25) ** 2)
    assert H[0, 0, 1] == 0.0
    Hg = make_ginibre(4).weight_hessian_per_k(np.array([2.0 + 0j]))
    assert Hg[0, 0, 0] == pytest.approx(1.0)


def test_fs_base_density_integrates_to_one():
    # independent quadrature route for int dmu = int_0^inf 2 r dr / (1+r^2)^2
    space = make_fubini_study(3)
    val, err = integrate.quad(
        lambda r: float(space.base_density(np.array([r + 0j]))[0]) * 2.0 * math.pi * r,
        0.0,
        np.inf,
    )
    assert abs(val - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# density of states


def normalized_section_values(space, z) -> np.ndarray:
    """Half-weighted section values v_i(z) = f_i(z) exp(-Phi(z)/2) at one point."""
    pt = np.atleast_1d(np.asarray(z, dtype=complex))
    if not (np.all(np.isfinite(pt.real)) and np.all(np.isfinite(pt.imag))):
        raise ValueError(f"point must be finite, got {z!r}")
    V = space.section_matrix(pt)
    if V.shape[0] != 1:
        raise ValueError("normalized_section_values takes a single chart point")
    return V[0]


def test_fs_density_of_states_is_constant():
    # sum_j |v_j(z)|^2 = k+1 for every z on the Fubini-Study chart
    space = make_fubini_study(6)
    for z in [0j, 0.5 + 0.5j, 3.0 - 2.0j]:
        v = normalized_section_values(space, z)
        assert abs(np.sum(np.abs(v) ** 2) - 7.0) < 1e-12


def test_ginibre_density_of_states_is_gamma_tail():
    # sum_{j<N} r^{2j}/j! e^{-r^2} = Q(N, r^2), the regularized upper gamma
    n = 6
    space = make_ginibre(n)
    for r in [0.5, 1.5, 3.0]:
        v = normalized_section_values(space, r + 0j)
        want = special.gammaincc(n, r * r)
        assert abs(np.sum(np.abs(v) ** 2) - want) < 1e-12


def test_product_density_of_states_multiplies():
    space = make_product((1, 2), 3)
    v = normalized_section_values(space, np.array([0.3 + 0.2j, 1.0 - 1.0j]))
    want = 4.0 * 7.0  # (m1 k + 1)(m2 k + 1)
    assert abs(np.sum(np.abs(v) ** 2) - want) < 1e-11


# ---------------------------------------------------------------------------
# normal frames and config round trip


def test_limit_frame_curvatures():
    frame = limit_frame(make_product((1, 2), 5), np.zeros(2))
    assert np.allclose(frame.lam, [1.0, 2.0], atol=1e-12)
    # off-center curvature is m/(1+|c|^2)^2; here |c|^2 = 0.5
    framec = limit_frame(make_fubini_study(5), np.array([0.7 + 0.1j]))
    assert np.allclose(framec.lam, [1.0 / 2.25], atol=1e-12)


def test_space_config_round_trip():
    for space in [make_ginibre(4), make_fubini_study(3), make_product((2, 1), 2)]:
        back = space_from_config(space_to_config(space))
        assert back == space
