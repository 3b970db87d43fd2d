"""Exact polynomial calculus and the expression parser."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowgap.polynomial import (
    ExpressionError,
    PolynomialField,
    RationalField,
    parse_expression,
)


def test_parse_quadratic_coefficient_is_exact():
    p = parse_expression("0.5*x1^2", nvars=1)
    assert p.coefficient((2,)) == Fraction(1, 2)
    assert p.value((3,)) == Fraction(9, 2)


def test_parse_two_variables():
    p = parse_expression("x1^2 - x1*x2", nvars=2)
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == -1
    assert p.coefficient((0, 2)) == 0


def test_parse_decimal_literals_are_rational():
    # 0.1 is not a binary float; the parser must keep it as 1/10
    p = parse_expression("0.1*x1", nvars=1)
    assert p.coefficient((1,)) == Fraction(1, 10)


def test_parse_parentheses_and_signs():
    p = parse_expression("(x1+1)^2", nvars=1)
    assert p.coefficient((2,)) == 1
    assert p.coefficient((1,)) == 2
    assert p.coefficient((0,)) == 1
    q = parse_expression("-x1^2 + 2", nvars=1)
    assert q.coefficient((2,)) == -1
    assert q.coefficient((0,)) == 2


@pytest.mark.parametrize("bad", [
    "x1^2.5",        # fractional exponent
    "1/2",           # no division in the grammar
    "x3",            # undefined variable for nvars=2
    "x1 + + x2",
    "(x1+1^",
    "",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad, nvars=2)


@pytest.mark.parametrize("bad, message", [
    ("(" * 400 + "x1" + ")" * 400, "nested too deeply"),
    ("10^400", "beyond the float range"),
    ("x2 - x1*10^200*10^200", "beyond the float range"),
], ids=["nested", "power", "product"])
def test_parse_rejects_what_evaluation_cannot_take(bad, message):
    with pytest.raises(ExpressionError, match=message):
        parse_expression(bad, nvars=2)
    # a coefficient within the float range parses
    assert float(parse_expression("10^300", nvars=2).coefficient((0, 0))) == 1e300


def test_ring_operations_match_pointwise():
    p = parse_expression("x1^2 + 2*x2", nvars=2)
    q = parse_expression("x1*x2 - 3", nvars=2)
    pt = (Fraction(2, 3), Fraction(-1, 7))
    assert (p + q).value(pt) == p.value(pt) + q.value(pt)
    assert (p - q).value(pt) == p.value(pt) - q.value(pt)
    assert (p * q).value(pt) == p.value(pt) * q.value(pt)


def test_derivatives_are_exact():
    p = parse_expression("x1^3*x2 - 2*x1*x2^2", nvars=2)
    d1 = p.deriv(0)
    d2 = p.deriv(1)
    assert d1.coefficient((2, 1)) == 3
    assert d1.coefficient((0, 2)) == -2
    assert d2.coefficient((3, 0)) == 1
    assert d2.coefficient((1, 1)) == -4
    hess = p.hessian()
    assert hess[0][1] == hess[1][0]


small_polys = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3),
              st.integers(-4, 4)),
    min_size=1, max_size=5,
)


def _from_terms(terms):
    p = PolynomialField.zero(2)
    x1 = PolynomialField.variable(2, 0)
    x2 = PolynomialField.variable(2, 1)
    for e1, e2, c in terms:
        term = PolynomialField.constant(2, c)
        for _ in range(e1):
            term = term * x1
        for _ in range(e2):
            term = term * x2
        p = p + term
    return p


@settings(max_examples=50, deadline=None)
@given(small_polys, small_polys)
def test_product_rule_property(terms_p, terms_q):
    p, q = _from_terms(terms_p), _from_terms(terms_q)
    lhs = (p * q).deriv(0)
    rhs = p.deriv(0) * q + p * q.deriv(0)
    assert lhs == rhs


def test_value_many_matches_scalar_value():
    p = parse_expression("x1^2 - x1*x2 + 3", nvars=2)
    pts = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 0.0]])
    vals = p.value_many(pts)
    for k, pt in enumerate(pts):
        assert vals[k] == pytest.approx(float(p.value(tuple(pt))), abs=1e-14)


def _value_many_by_terms(poly, pts):
    """The general evaluation: sum over terms of c * prod_i x_i^e_i."""
    expos = np.array(sorted(poly.terms), dtype=np.int64).reshape(
        len(poly.terms), poly.nvars)
    coefs = np.array([float(poly.terms[tuple(e)]) for e in expos])
    return (coefs * (pts[..., None, :] ** expos).prod(axis=-1)).sum(axis=-1)


@pytest.mark.parametrize("text", ["2.5", "-0.1", "0", "1 + x1*x2 - 0.3*x2^3"])
@pytest.mark.parametrize("shape", [(7,), (3, 4), (0,)])
def test_value_many_fast_paths_match_the_term_sum(text, shape):
    poly = parse_expression(text, nvars=2)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, shape + (2,))
    got = poly.value_many(pts)
    want = _value_many_by_terms(poly, pts)
    assert got.shape == shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_rational_derivative_against_finite_difference():
    den = parse_expression("0.1 + x1^2", nvars=1)
    num = parse_expression("x1^3 + 1", nvars=1)
    r = RationalField.from_poly(num, den)
    dr = r.deriv(0)
    x = np.array([[0.37]])
    h = 1e-6
    fd = (r.value_many(np.array([[0.37 + h]]))
          - r.value_many(np.array([[0.37 - h]]))) / (2 * h)
    assert dr.value_many(x)[0] == pytest.approx(fd[0], rel=1e-8)


def test_lift_embeds_tangential_polynomial():
    g = parse_expression("x1^2", nvars=1)
    lifted = g.lift(2)
    pts = np.array([[0.3, 9.9], [-0.5, 0.0]])
    assert np.allclose(lifted.value_many(pts), [0.09, 0.25])
