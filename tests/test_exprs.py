"""Weight-expression DSL: parsing, evaluation, validated values, Hessians.

Reference values are computed by hand or by finite differences of
evaluate, so the forward-mode Hessian is checked against an independent
route.
"""

import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergdpp.exprs import (
    ParseError,
    WeightExpr,
    complex_hessian,
    factor_weights,
    is_radial_weight,
    parse_weight,
    weight_sum,
    weight_values,
)


def pts(*zs):
    return np.asarray(zs, dtype=complex).reshape(len(zs), -1)


# ---------------------------------------------------------------------------
# parsing and evaluation


def test_number_and_precedence():
    # 2 + 3 * 4^2 = 50, power binds tighter than product, product than sum
    e = parse_weight("2 + 3*4^2")
    assert e.evaluate(pts(0j))[0] == 50.0


def test_radial_variable():
    e = parse_weight("r2/(1+r2)")
    z = 1.0 + 2.0j  # r2 = 5
    assert abs(e.evaluate(pts(z))[0] - 5.0 / 6.0) < 1e-15


def test_parenthesized_difference():
    e = parse_weight("(1 - r2)/2")
    assert abs(e.evaluate(pts(1.0 + 0j))[0] - 0.0) < 1e-15
    assert abs(e.evaluate(pts(0j))[0] - 0.5) < 1e-15


def test_no_unary_minus_in_grammar():
    with pytest.raises(ParseError):
        parse_weight("-r2")


def test_log_exp_calls():
    e = parse_weight("log(exp(r2))")
    vals = e.evaluate(pts(0.3 + 0.4j, 1j))
    assert np.allclose(vals, [0.25, 1.0], atol=1e-14)


def test_cartesian_variables():
    e = parse_weight("re_1^2 + im_1^2 - r2_1")
    z = 0.7 - 1.3j
    assert abs(e.evaluate(pts(z))[0]) < 1e-14


def test_two_factor_variables():
    e = parse_weight("r2_1 * r2_2")
    Z = np.array([[1.0 + 1.0j, 2.0 + 0j]])
    assert abs(e.evaluate(Z)[0] - 8.0) < 1e-14


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0, 3, allow_nan=False),
    b=st.floats(0, 3, allow_nan=False),
    c=st.floats(0, 3, allow_nan=False),
)
def test_polynomial_matches_numpy(a, b, c):
    # literals are nonnegative; '-' only exists as a binary operator
    e = parse_weight(f"{a} + {b}*r2 - {c}*r2^2")
    z = np.array([0.1 + 0.2j, 1.5 - 0.5j, 2.0 + 0j])
    t = np.abs(z) ** 2
    got = e.evaluate(z[:, None])
    assert np.allclose(got, a + b * t - c * t * t, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# validated values


def test_evaluate_leaves_no_reference_cycle():
    # a cycle would keep the points and their columns alive until a gc pass
    expr = parse_weight("log(1+r2_1)/(1+re_2*im_2) + r2_2^2")
    Z = np.ones((50, 2), dtype=complex)
    gc.collect()
    gc.disable()
    try:
        expr.evaluate(Z)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weight_values_of_none_are_zeros():
    assert np.array_equal(weight_values(None, pts(1j, 2.0)), np.zeros(2))


def test_weight_values_pass_finite_values_through():
    e = parse_weight("r2/(1+r2)")
    Z = pts(0.3 + 0.4j, 2.0)
    assert np.array_equal(weight_values(e, Z), e.evaluate(Z))
    assert np.array_equal(weight_values(lambda Z: np.full(len(Z), 2.5), Z), [2.5, 2.5])


def test_weight_values_name_the_weight_and_first_bad_point():
    # log(r2 - 1): finite outside the unit circle, NaN inside, -inf on it
    e = parse_weight("log(r2 - 1)")
    with pytest.raises(ValueError, match=r"'log\(r2 - 1\)'\) is nan at point 1, z = \[0.5j\]"):
        weight_values(e, pts(2.0, 0.5j, 1.0))
    with pytest.raises(ValueError, match=r"is -inf at point 0, z = \[\(1\+0j\)\]"):
        weight_values(e, pts(1.0, 0.5j))


def test_weight_values_reject_a_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(2,\), got \(2, 1\)"):
        weight_values(lambda Z: np.zeros((len(Z), 1)), pts(1j, 2.0))


# ---------------------------------------------------------------------------
# weight sums


def test_weight_sum_without_a_live_term_is_none():
    e = parse_weight("r2")
    assert weight_sum() is None
    assert weight_sum((1.0, None), (3.0, None)) is None
    assert weight_sum((0.0, e), (2.0, None)) is None


def test_weight_sum_of_one_unit_term_is_that_weight():
    e = parse_weight("r2/(1+r2)")
    assert weight_sum((1.0, e)) is e
    assert weight_sum((1.0, e), (0.0, parse_weight("r2")), (5.0, None)) is e


def test_weight_sum_values_are_the_weighted_sum():
    f, g = parse_weight("r2/(1+r2)"), parse_weight("re_1")
    Z = pts(0.3 + 0.4j, 2.0, -1.5j)
    total = weight_sum((1.0, f), (4.0, g), (-0.5, f))
    want = f.evaluate(Z) + 4.0 * g.evaluate(Z) - 0.5 * f.evaluate(Z)
    assert np.allclose(weight_values(total, Z), want, rtol=1e-15, atol=0)
    # a single term with another coefficient is scaled, not passed through
    assert np.array_equal(weight_values(weight_sum((2.0, f)), Z), 2.0 * f.evaluate(Z))


def test_weight_sum_names_the_term_that_is_not_finite():
    good, bad = parse_weight("r2"), parse_weight("log(r2 - 1)")
    total = weight_sum((1.0, good), (3.0, bad))
    with pytest.raises(ValueError, match=r"'log\(r2 - 1\)'\) is nan at point 1"):
        weight_values(total, pts(2.0, 0.5j))
    # finite terms, but a coefficient that is not: the error names the sum
    overflow = weight_sum((1.0, good), (math.inf, good))
    named = r"weight 1\*WeightExpr\('r2'\) \+ inf\*WeightExpr\('r2'\) is inf at point 0"
    with pytest.raises(ValueError, match=named):
        weight_values(overflow, pts(2.0))


# ---------------------------------------------------------------------------
# parse and validation errors


def test_truncated_input_raises():
    with pytest.raises(ParseError):
        parse_weight("r2 +")


def test_unknown_identifier_raises():
    with pytest.raises(ParseError, match="identifier"):
        parse_weight("q7 + 1")


def test_fractional_exponent_raises():
    with pytest.raises(ParseError, match="integer"):
        parse_weight("r2^1.5")


def test_error_reports_column():
    with pytest.raises(ParseError, match="column 5"):
        parse_weight("1 + * 2")


def test_bare_r2_rejected_on_two_factors():
    e = parse_weight("r2")
    e.validate_for_dim(1)
    with pytest.raises(ValueError):
        e.validate_for_dim(2)


def test_factor_index_out_of_range():
    e = parse_weight("r2_3")
    with pytest.raises(ValueError):
        e.validate_for_dim(2)


def test_cartesian_expression_has_no_hessian():
    e = parse_weight("re_1")
    with pytest.raises(ValueError):
        complex_hessian(e, pts(1.0 + 0j))


# ---------------------------------------------------------------------------
# complex Hessian


def test_hessian_of_log_one_plus_r2():
    # u = log(1+t): H = u' + t u'' = 1/(1+t)^2; at r2 = 2 this is 1/9
    e = parse_weight("log(1+r2)")
    H = complex_hessian(e, pts(1.0 + 1.0j))
    assert H.shape == (1, 1, 1)
    assert abs(H[0, 0, 0] - 1.0 / 9.0) < 1e-14


def test_hessian_off_diagonal_two_factors():
    # u = t1 t2: H_12 = conj(z1) z2 d2u/dt1 dt2 = conj(z1) z2
    e = parse_weight("r2_1 * r2_2")
    z1, z2 = 1.0 + 2.0j, 3.0 - 1.0j
    H = complex_hessian(e, np.array([[z1, z2]]))
    assert H.shape == (1, 2, 2)
    assert abs(H[0, 0, 1] - np.conj(z1) * z2) < 1e-13
    assert abs(H[0, 1, 0] - np.conj(H[0, 0, 1])) < 1e-13
    # diagonal: H_11 = du/dt1 + t1 d2u/dt1^2 = t2 + 0
    assert abs(H[0, 0, 0] - abs(z2) ** 2) < 1e-13


def test_hessian_of_cube_closed_form():
    # u = t^3: H = u' + t u'' = 3t^2 + 6t^2 = 9t^2, which is 36 at t = 2
    e = parse_weight("r2^3")
    z = math.sqrt(2.0) + 0j
    assert abs(complex_hessian(e, pts(z))[0, 0, 0] - 36.0) < 1e-13


def test_hessian_of_quotient_closed_form():
    # u = t/(1+t): H = d/dt (t u') = d/dt (t/(1+t)^2) = (1-t)/(1+t)^3
    e = parse_weight("r2/(1+r2)")
    for t in [0.0, 0.5, 3.0]:
        H = complex_hessian(e, pts(math.sqrt(t) + 0j))[0, 0, 0]
        assert abs(H - (1.0 - t) / (1.0 + t) ** 3) < 1e-14


def wirtinger_hessian_fd(expr, z, h=1e-4):
    """d^2u/dz_i dzbar_j at one point from central differences of evaluate.

    With z = x + iy, d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2,
    so H = (u_xx + u_yy + i (u_xy - u_yx)) / 4 on each factor pair.  Shares
    no code with the forward-mode walk of complex_hessian.
    """
    n = z.size
    # real directions in the order x_1, y_1, x_2, y_2, ...
    steps = np.concatenate([np.eye(n), 1j * np.eye(n)])[[k for i in range(n) for k in (i, n + i)]]
    D = np.empty((2 * n, 2 * n))
    for a in range(2 * n):
        for b in range(2 * n):
            corners = [z + h * (sa * steps[a] + sb * steps[b]) for sa in (1, -1) for sb in (1, -1)]
            f = expr.evaluate(np.array(corners))
            D[a, b] = (f[0] - f[1] - f[2] + f[3]) / (4.0 * h * h)
    xx, yy, xy = D[0::2, 0::2], D[1::2, 1::2], D[0::2, 1::2]
    return 0.25 * (xx + yy + 1j * (xy - xy.T))


# every operator (+ - * / ^ log exp) on one and two factors, r2 mixed with
# r2_1, and the exponents 0 and 1, whose higher derivatives vanish
HESSIAN_CASES = [
    ("r2/(1+r2)", 1),
    ("log(1 + r2^2) - r2_1/(2 + r2)", 1),
    ("exp(0.5*r2) * (1 + r2_1)^3", 1),
    ("r2_1 * r2_2 / (1 + r2_1 + r2_2)^2", 2),
    ("log(1 + r2_1*r2_2) + exp(0 - r2_1) - r2_2^3/7", 2),
    ("exp(r2_1/(1 + r2_2)) * (2 - r2_2)", 2),
    ("(1 + r2_1)^0 * r2_2^1 + r2_1^2", 2),
]

coords = st.floats(-1.5, 1.5, allow_nan=False)


@pytest.mark.parametrize("source,dim", HESSIAN_CASES, ids=[
    "quotient", "log-pow-mixed-r2", "exp-product-pow",
    "two-factor-quotient", "two-factor-log-exp", "two-factor-exp-quotient", "two-factor-pow-0-1",
])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_hessian_matches_wirtinger_finite_difference(source, dim, data):
    e = parse_weight(source)
    z = np.array([complex(data.draw(coords), data.draw(coords)) for _ in range(dim)])
    H = complex_hessian(e, z[None, :])[0]
    want = wirtinger_hessian_fd(e, z)
    assert np.max(np.abs(H - want)) <= 1e-6 * max(1.0, np.max(np.abs(H)))


def test_hessian_rejects_a_weight_that_is_not_finite():
    # log(r2 - 1) is NaN inside the unit disk, and 0.1 * NaN carries it into
    # the derivatives of the product
    with pytest.raises(ValueError, match=r"log\(r2-1\).* non-finite Hessian at point 1"):
        complex_hessian(parse_weight("0.1*log(r2-1)"), pts(2.0, 0.5j))


def test_hessian_takes_weight_forms():
    # None is zero and a weight_sum is the sum of c times its terms' Hessians,
    # as in weight_values; a sum with a re_ term has no Hessian
    f = parse_weight("r2_1 * r2_2 / (1 + r2_1)")
    g = parse_weight("log(1 + r2_2) + exp(0 - r2_1)")
    Z = np.array([[0.5 + 0.5j, 1.0 - 0.3j], [2.0 + 0j, 0.1j], [0.3j, -1.2 + 0.4j]])
    a, b = 0.7, -1.3
    got = complex_hessian(weight_sum((a, f), (b, g)), Z)
    want = a * complex_hessian(f, Z) + b * complex_hessian(g, Z)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    zero = complex_hessian(None, Z)
    assert zero.shape == (3, 2, 2) and not zero.any()
    with pytest.raises(ValueError, match="no analytic complex Hessian"):
        complex_hessian(weight_sum((a, f), (b, parse_weight("re_1 * r2_2"))), Z)


def test_hessian_is_hermitian():
    e = parse_weight("r2_1^2 * r2_2 + log(1 + r2_1 + r2_2)")
    Z = np.array([[0.5 + 0.5j, 1.0 - 0.3j], [2.0 + 0j, 0.1j]])
    H = complex_hessian(e, Z)
    assert np.max(np.abs(H - np.conj(np.transpose(H, (0, 2, 1))))) < 1e-12


# ---------------------------------------------------------------------------
# object protocol


def test_source_reparses_to_same_values():
    e = parse_weight("0.3*r2/(1+r2) + log(1+r2)^2")
    e2 = parse_weight(e.source)
    Z = pts(0.2 + 0.1j, 1.0 - 2.0j)
    assert np.allclose(e.evaluate(Z), e2.evaluate(Z), rtol=0, atol=0)
    assert e.source in repr(e)


def test_pickle_round_trip():
    e = parse_weight("r2_1/(1+r2_2)")
    e2 = pickle.loads(pickle.dumps(e))
    assert isinstance(e2, WeightExpr)
    Z = np.array([[1.0 + 1.0j, 0.5j]])
    assert e.evaluate(Z)[0] == e2.evaluate(Z)[0]


def test_is_radial_flag():
    assert is_radial_weight(parse_weight("r2_1 + r2_2"))
    assert not is_radial_weight(parse_weight("re_1 + r2_1"))


@pytest.mark.parametrize(
    "source,parts",
    [
        ("re_1/(1+r2_1)", ["(re_1 / (1.0 + r2_1))", None]),
        ("re_1/(1+r2_1)+im_2*im_2/(1+r2_2)", ["(re_1 / (1.0 + r2_1))", "((im_1 * im_1) / (1.0 + r2_1))"]),
        ("2 - (re_2 - r2_1)", ["2.0 + r2_1", "0 - re_1"]),  # the constant joins factor 1
        ("r2_2", [None, "r2_1"]),
    ],
)
def test_factor_weights_split_top_level_sums(source, parts):
    psi = parse_weight(source)
    got = factor_weights(psi, 2)
    Z = pts([0.3 - 0.2j, 1.5 + 0.7j], [-2.0 + 0.1j, 0.4j])
    total = sum(weight_values(w, Z[:, [f]]) for f, w in enumerate(got))
    assert np.allclose(total, psi(Z), rtol=1e-15, atol=0)
    for w, want in zip(got, parts):
        if want is None:
            assert w is None
        else:
            assert np.allclose(weight_values(w, Z[:, :1]), parse_weight(want)(Z[:, :1]), rtol=1e-15, atol=0)


def test_factor_weights_of_sums_scale_their_terms():
    psi = weight_sum((0.5, parse_weight("re_1 + im_2")), (2.0, parse_weight("1 - r2_2")))
    first, second = factor_weights(psi, 2)
    z = pts(0.3 - 0.2j)
    assert weight_values(first, z)[0] == pytest.approx(0.5 * 0.3 + 2.0)
    assert weight_values(second, z)[0] == pytest.approx(0.5 * -0.2 - 2.0 * 0.13)
    assert factor_weights(None, 3) == (None, None, None)


@pytest.mark.parametrize(
    "weight",
    [
        parse_weight("re_1*re_2/(1+r2_1+r2_2)"),   # a term reads two factors
        parse_weight("im_1/(1+r2_2)"),
        parse_weight("(re_1 + re_2)*0.5"),          # a product is one term
        parse_weight("r2 + re_2"),                   # bare r2 is refused on a product
        parse_weight("re_3"),                        # beyond the chart
        parse_weight("re_1").evaluate,               # an opaque callable
        weight_sum((1.0, parse_weight("re_1")), (1.0, lambda z: z[:, 1].real)),
    ],
)
def test_factor_weights_refuse_what_does_not_separate(weight):
    assert factor_weights(weight, 2) is None
