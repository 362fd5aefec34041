"""Kernel evaluation against closed forms, reproducing identities, scaling.

Closed forms used as oracles:
  Fubini-Study, half-weighted against mu:
      B(x, y) = (k+1) (1 + x conj(y))^k / ((1+|x|^2)(1+|y|^2))^{k/2}
  Ginibre, half-weighted against mu = dm/pi:
      B(x, y) = exp(x conj(y) - |x|^2/2 - |y|^2/2) sum_{j<N} (x conj(y))^j / j!
                with the polynomial part left as a finite sum.
Both are densities against the base measure mu, so no chart-Lebesgue factors.
The stacked correlations are checked against determinants assembled entry by
entry from the scalar oracles of kernel_oracles.
"""

import math

import numpy as np
import pytest
from scipy import special

from bergdpp.kernel import (
    DET_FLOOR,
    default_test_points,
    evaluator,
    kernel_det,
    kernel_matrix,
    limit_correlation,
    rescaled_correlation,
    reweighted_evaluator,
    scaling_errors,
)
from bergdpp.quadrature import build_grid
from bergdpp.spaces import limit_frame, make_fubini_study, make_ginibre, make_product
from kernel_oracles import kernel_eval, limit_kernel


def fs_kernel_closed_form(k, x, y):
    num = (k + 1.0) * (1.0 + x * np.conj(y)) ** k
    den = ((1.0 + abs(x) ** 2) * (1.0 + abs(y) ** 2)) ** (k / 2.0)
    return num / den


def ginibre_kernel_closed_form(n, x, y):
    w = x * np.conj(y)
    poly = sum(w**j / math.factorial(j) for j in range(n))
    return poly * np.exp(-0.5 * abs(x) ** 2 - 0.5 * abs(y) ** 2)


# ---------------------------------------------------------------------------
# pointwise values


def test_fs_kernel_matches_closed_form():
    k = 4
    ev = evaluator(make_fubini_study(k))
    for x, y in [(0.3 + 0.2j, -0.5 + 1.0j), (0j, 2.0 - 1.0j), (1.5j, 1.5j)]:
        got = kernel_eval(ev, x, y)
        assert abs(got - fs_kernel_closed_form(k, x, y)) < 1e-12


def test_ginibre_kernel_matches_closed_form():
    n = 5
    ev = evaluator(make_ginibre(n))
    for x, y in [(0.5 + 0.5j, 1.0 - 0.2j), (0j, 0j), (2.0 + 1.0j, -1.0j)]:
        got = kernel_eval(ev, x, y)
        assert abs(got - ginibre_kernel_closed_form(n, x, y)) < 1e-12


def test_product_kernel_multiplies_factors():
    space = make_product((1, 2), 3)
    ev = evaluator(space)
    x = np.array([0.2 + 0.1j, 0.5 - 0.5j])
    y = np.array([1.0 + 0j, 0.3j])
    got = kernel_eval(ev, x, y)
    want = fs_kernel_closed_form(3, x[0], y[0]) * fs_kernel_closed_form(6, x[1], y[1])
    assert abs(got - want) < 1e-11


def test_kernel_is_hermitian():
    ev = evaluator(make_fubini_study(5))
    x, y = 0.4 + 0.7j, -1.1 + 0.3j
    assert abs(kernel_eval(ev, x, y) - np.conj(kernel_eval(ev, y, x))) < 1e-13


# ---------------------------------------------------------------------------
# reproducing identities by quadrature


def test_trace_identity():
    for space in [make_fubini_study(6), make_ginibre(4), make_product((1, 2), 2)]:
        grid = build_grid(space)
        ev = evaluator(space)
        rows = ev.section_rows(grid.nodes)
        diag = np.einsum("mi,mi->m", rows, rows.conj()).real
        val = float(np.sum(grid.weights * grid.density * diag))
        assert abs(val - space.rank) < 1e-9


def test_semigroup_identity():
    # int B(x, z) B(z, y) dmu(z) = B(x, y)
    space = make_fubini_study(4)
    grid = build_grid(space)
    ev = evaluator(space)
    rows = ev.section_rows(grid.nodes)
    c = grid.weights * grid.density
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        vx = ev.section_rows(np.array([x]))[0]
        vy = ev.section_rows(np.array([y]))[0]
        bxz = rows @ vx.conj()
        bzy = vy @ rows.conj().T
        val = complex(np.sum(c * bxz.conj() * bzy.conj()))
        want = fs_kernel_closed_form(4, x, y)
        assert abs(val - want) / abs(want) < 1e-10


# ---------------------------------------------------------------------------
# determinants


def test_kernel_det_two_points_manual():
    space = make_ginibre(3)
    ev = evaluator(space)
    x, y = 0.3 + 0.4j, -0.7 + 0.1j
    got = kernel_det(ev, np.array([x, y]))
    bxx = kernel_eval(ev, x, x).real
    byy = kernel_eval(ev, y, y).real
    bxy = kernel_eval(ev, x, y)
    assert abs(got - (bxx * byy - abs(bxy) ** 2)) < 1e-14


def test_kernel_det_one_point_is_diagonal():
    ev = evaluator(make_fubini_study(3))
    z = 0.8 - 0.6j
    assert kernel_det(ev, np.array([z])) == pytest.approx(
        kernel_eval(ev, z, z).real, rel=1e-13
    )


def test_kernel_matrix_agrees_with_eval():
    ev = evaluator(make_fubini_study(3))
    pts = np.array([0.1 + 0.2j, 0.5 - 0.1j, 1.0 + 1.0j])
    K = kernel_matrix(ev, pts)
    for a in range(3):
        for b in range(3):
            assert abs(K[a, b] - kernel_eval(ev, pts[a], pts[b])) < 1e-12


def test_repulsion_vanishes_at_coincidence():
    ev = evaluator(make_fubini_study(5))
    z = 0.4 + 0.9j
    val = kernel_det(ev, np.array([z, z]))
    assert abs(val) < 1e-8


# ---------------------------------------------------------------------------
# reweighted kernels


def test_reweighted_evaluator_at_t_zero_is_plain():
    # the weight t * psi at t = 0
    space = make_fubini_study(4)
    grid = build_grid(space)
    ev0 = evaluator(space)
    evw = reweighted_evaluator(space, grid, psi=lambda Z: np.zeros(len(Z)))
    pts = np.array([0.3 + 0.1j, 1.2 - 0.4j])
    assert np.max(np.abs(evw.section_rows(pts) @ evw.section_rows(pts).conj().T
                         - ev0.section_rows(pts) @ ev0.section_rows(pts).conj().T)) < 1e-10


def test_reweighted_trace_counts_rank():
    from bergdpp.exprs import parse_weight

    space = make_fubini_study(4)
    grid = build_grid(space)
    evw = reweighted_evaluator(space, grid, psi=parse_weight("r2/(1+r2)"))
    rows = evw.section_rows(grid.nodes)
    # rows carry e^{-psi/2}, so their squared norm is the intensity against dmu
    diag = np.einsum("mi,mi->m", rows, rows.conj()).real
    val = float(np.sum(grid.weights * grid.density * diag))
    assert abs(val - space.rank) < 1e-9


@pytest.mark.parametrize(
    "space, source",
    [
        pytest.param(make_fubini_study(4), "im_1/(1+r2)", id="im_1/(1+r2)"),
        pytest.param(make_fubini_study(4), "(re_1+im_1)/(1+r2)", id="(re_1+im_1)/(1+r2)"),
        pytest.param(make_ginibre(50), "(1 - r2)/2", id="gin50-(1 - r2)/2"),
    ],
)
def test_reweighted_rows_orthonormal_under_complex_gram(space, source):
    # an im_ weight makes the Gram complex, so the orthonormalizing map must
    # turn conj(A) into I; conj dropped leaves max |G - I| near 0.4 here.  On
    # Ginibre N = 50 the Gram diagonal 2^(a+1) e^{-1/2} spans a factor 2^49,
    # which the map must absorb by its diagonal scaling
    from bergdpp.exprs import parse_weight

    psi = parse_weight(source)
    grid = build_grid(space, psi=psi)
    rows = reweighted_evaluator(space, grid, psi=psi).section_rows(grid.nodes)
    G = rows.conj().T @ ((grid.weights * grid.density)[:, None] * rows)
    assert np.max(np.abs(G - np.eye(space.rank))) < 1e-12


def test_reweighted_rows_reject_a_non_finite_weight():
    # log(r2) is finite on the grid, whose radii are all positive, and -inf at 0
    from bergdpp.exprs import parse_weight

    space = make_fubini_study(4)
    ev = reweighted_evaluator(space, build_grid(space), psi=parse_weight("0.1*log(r2)"))
    assert np.all(np.isfinite(ev.section_rows(np.array([0.5 + 0.5j]))))
    with pytest.raises(ValueError, match=r"log\(r2\).* at point 1, z = \[0j\]"):
        ev.section_rows(np.array([0.5 + 0.5j, 0.0]))


# ---------------------------------------------------------------------------
# scaling limit


def test_limit_kernel_closed_form():
    lam = (1.0,)
    u, v = 0.5 + 0.2j, -0.3 + 0.7j
    got = limit_kernel(lam, u, v)
    want = (1.0 / math.pi) * np.exp(u * np.conj(v) - 0.5 * abs(u) ** 2 - 0.5 * abs(v) ** 2)
    assert abs(got - want) < 1e-15


def test_limit_correlation_two_points_manual():
    lam = (1.0, 2.0)
    U = np.array([[0.1 + 0.2j, 0.3j], [-0.4 + 0j, 0.5 - 0.5j]])
    got = limit_correlation(lam, U)
    K = np.array([[limit_kernel(lam, U[a], U[b]) for b in range(2)] for a in range(2)])
    assert abs(got - np.linalg.det(K).real) < 1e-14


def test_default_test_points_deterministic():
    a = default_test_points(2)
    b = default_test_points(2)
    assert a.shape == (25, 2)
    assert np.array_equal(a, b)


def test_rescaled_correlation_converges_to_limit():
    # one-point value at the origin: k^{-1} B_k(0,0) kappa -> lam/pi
    space = make_fubini_study(200)
    frame = limit_frame(space, np.zeros(1))
    got = rescaled_correlation(space, frame, np.array([[0.3 + 0.1j]]))
    want = limit_correlation(frame.lam, np.array([[0.3 + 0.1j]]))
    assert abs(got - want) < 2e-3


def test_scaling_errors_check_every_group_once_across_chunks(monkeypatch):
    # 150 test points are three chunks of 64, the last one 22: each point
    # alone and each consecutive pair, those across a chunk's edge included,
    # is checked once, and the sup error is the group-by-group loop's float
    import bergdpp.kernel as kernel

    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (150, 1)) + 1j * rng.uniform(-1.5, 1.5, (150, 1))
    seen = []

    def spy(lam, stack):
        seen.extend(tuple(int(np.flatnonzero(pts[:, 0] == z)[0]) for z in g[:, 0]) for g in stack)
        return limit_correlation(lam, stack)

    monkeypatch.setattr(kernel, "limit_correlation", spy)
    (row,) = scaling_errors([(30, make_fubini_study(30))], points=pts)
    assert sorted(seen) == sorted([(i,) for i in range(150)] + [(i, i + 1) for i in range(149)])
    space = make_fubini_study(30)
    frame = limit_frame(space, np.zeros(1))
    groups = [pts[i : i + 1] for i in range(150)] + [pts[i : i + 2] for i in range(149)]
    want = max(abs(rescaled_correlation(space, frame, g) - limit_correlation(frame.lam, g)) for g in groups)
    assert row["sup_error"] == want


def test_scaling_errors_decrease():
    rows = scaling_errors([(k, make_fubini_study(k)) for k in (16, 64)])
    assert rows[1]["sup_error"] < 0.7 * rows[0]["sup_error"]
    assert rows[0]["k"] == 16 and rows[1]["k"] == 64
    assert rows[1]["ratio_to_prev"] == pytest.approx(
        rows[1]["sup_error"] / rows[0]["sup_error"], rel=1e-12
    )


# ---------------------------------------------------------------------------
# stacks of groups against the scalar oracles


def _frame_stack(dim: int, m: int, groups: int = 4) -> np.ndarray:
    """(groups, m, dim) frame points, spread so that no determinant is near the floor."""
    rng = np.random.default_rng(100 * dim + m)
    return rng.uniform(-1.0, 1.0, (groups, m, dim)) + 1j * rng.uniform(-1.0, 1.0, (groups, m, dim))


def _oracle_det(entry, group) -> float:
    return float(np.linalg.det(np.array([[entry(a, b) for b in group] for a in group])).real)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize(
    "space",
    [make_fubini_study(6), make_product((1, 2), 2), make_ginibre(8)],
    ids=["fs6", "prod12k2", "gin8"],
)
def test_stacked_correlations_match_entrywise_oracles(space, m):
    ev = evaluator(space)
    frame = limit_frame(space, np.zeros(space.dim))
    U = _frame_stack(space.dim, m)
    compact = space.factors[0].compact
    chart = U / np.sqrt(space.power) if compact else U
    scale = float(space.power) ** (-space.dim * m) if compact else 1.0

    dets = kernel_det(ev, chart)
    rescaled = rescaled_correlation(space, frame, U)
    limits = limit_correlation(frame.lam, U)
    for got in (dets, rescaled, limits):
        assert isinstance(got, np.ndarray) and got.shape == (len(U),)
    for g in range(len(U)):
        det = _oracle_det(lambda a, b: kernel_eval(ev, a, b), chart[g])
        want = det * scale * float(np.prod(space.base_density(chart[g])))
        limit = _oracle_det(lambda a, b: limit_kernel(frame.lam, a, b), U[g])
        assert dets[g] == pytest.approx(det, rel=1e-12)
        assert rescaled[g] == pytest.approx(want, rel=1e-12)
        assert limits[g] == pytest.approx(limit, rel=1e-12)
        # one (m, dim) group is a stack of one and gives a float
        single = kernel_det(ev, chart[g])
        assert isinstance(single, float) and single == pytest.approx(det, rel=1e-12)


def test_kernel_matrix_of_a_stack_holds_each_group_matrix():
    ev = evaluator(make_product((1, 2), 2))
    stack = _frame_stack(2, 3)
    K = kernel_matrix(ev, stack)
    assert K.shape == (4, 3, 3)
    for g in range(4):
        assert np.max(np.abs(K[g] - kernel_matrix(ev, stack[g]))) < 1e-13


def test_stacked_det_is_zero_above_the_rank_and_snaps_coincident_groups():
    ev = evaluator(make_ginibre(2))
    assert np.array_equal(kernel_det(ev, _frame_stack(1, 3)), np.zeros(4))
    z = 0.4 + 0.9j
    stack = np.array([[[z], [z]], [[z], [-z]]])
    dets = kernel_det(ev, stack)
    assert dets[0] == 0.0  # coincident points: |det| below DET_FLOOR times the diagonal
    assert dets[1] > DET_FLOOR
