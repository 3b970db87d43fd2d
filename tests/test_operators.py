"""Operator tensors, symmetries, and the measured structure constants."""

from fractions import Fraction

import numpy as np
import pytest

from narrowgap import (
    EllipticOperator,
    GapProfile,
    NarrowRegion,
    OperatorError,
    PolynomialField,
    RationalField,
    apply_operator_poly,
    estimate_bounds,
    estimate_ellipticity,
    make_builtin,
    parse_expression,
)
from narrowgap.geometry import vertical_jets
from narrowgap.operators import _divfree_basis, _quadrature_nodes, _stream_jets

from conftest import p1, quad_profile


def p2(text):
    return parse_expression(text, nvars=2)


@pytest.fixture(scope="module")
def reg():
    return NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())


@pytest.fixture(scope="module")
def reg_curved():
    """A gap that is not a quadratic: quartic top, cubic bottom."""
    profile = GapProfile(h1=p1("0.5*x1^2 + 0.3*x1^4"), h2=p1("-x1^2 + 0.2*x1^3"))
    return NarrowRegion(n=2, epsilon=0.1, profile=profile)


@pytest.fixture(scope="module")
def reg3():
    profile = GapProfile(h1=p2("0.5*x1^2 + 0.5*x2^2"),
                         h2=p2("-0.5*x1^2 - 0.5*x2^2"))
    return NarrowRegion(n=3, epsilon=0.1, profile=profile)


def test_laplace_structure():
    op = make_builtin("laplace", n=2)
    assert op.N == 1
    assert (op.lambda_claim, op.Lambda_claim, op.kappa2_claim) == (1.0, 1.0, 1.0)
    assert op.is_symmetric()
    assert not op.has_lower_order_terms()
    # A is the identity in the gradient indices
    for a in range(2):
        for b in range(2):
            assert op.A[0, 0, a, b].constant_term() == (1 if a == b else 0)


def test_lame_structure():
    op = make_builtin("lame", n=2, lame_mu=1.0, lame_lambda=1.0)
    assert op.N == 2
    assert (op.lambda_claim, op.Lambda_claim, op.kappa2_claim) == (1.0, 3.0, 3.0)
    assert op.has_elasticity_symmetries()
    assert not op.has_lower_order_terms()


def test_lame_divergence_identity():
    # div(A grad u) must equal mu*Lap(u) + (lam+mu)*grad(div u) for polynomials
    mu, lam = 2.0, 3.0
    op = make_builtin("lame", n=2, lame_mu=mu, lame_lambda=lam)
    u1 = parse_expression("x1^2*x2 + x2^2", nvars=2)
    u2 = parse_expression("x1*x2^2 - x1^2", nvars=2)
    got = apply_operator_poly(op, [u1, u2])
    div_u = u1.deriv(0) + u2.deriv(1)
    for i, ui in enumerate((u1, u2)):
        lap_ui = ui.deriv(0).deriv(0) + ui.deriv(1).deriv(1)
        expect = (PolynomialField.constant(2, Fraction(mu)) * lap_ui
                  + PolynomialField.constant(2, Fraction(lam + mu))
                  * div_u.deriv(i))
        assert got[i] == expect


def test_laplace_of_quadratic():
    op = make_builtin("laplace", n=2)
    out = apply_operator_poly(op, [parse_expression("x1^2", nvars=2)])
    assert out[0] == PolynomialField.constant(2, 2)


def test_ellipticity_estimate_laplace_is_one(reg):
    est = estimate_ellipticity(make_builtin("laplace", n=2), reg, seed=0)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_ellipticity_estimate_lame_tight(reg):
    # integral constant is mu = 1; divergence-free candidates reach it
    est = estimate_ellipticity(make_builtin("lame", n=2), reg, seed=0)
    assert 1.0 - 1e-9 <= est <= 1.01


def test_ellipticity_estimate_scales_exactly(reg):
    one = estimate_ellipticity(make_builtin("laplace", n=2), reg, seed=0)
    three = PolynomialField.constant(2, 3)
    zero = PolynomialField.zero(2)
    scaled = EllipticOperator(2, 1, A=[[[[three, zero], [zero, three]]]])
    est = estimate_ellipticity(scaled, reg, seed=0)
    assert est == pytest.approx(3.0 * one, abs=1e-12)


def test_ellipticity_estimate_deterministic(reg):
    op = make_builtin("lame", n=2)
    assert (estimate_ellipticity(op, reg, seed=3)
            == estimate_ellipticity(op, reg, seed=3))


# lambda_estimate of the exact-rational stream-function construction (the
# oracle below) with the sine modes evaluated on all flattened nodes
PINNED_LAME = {
    ("quad", 0): 1.0003321446775049,
    ("quad", 1): 1.000329986097417,
    ("quad", 7): 1.0003338229532597,
    ("curved", 0): 1.0004121410093307,
    ("curved", 1): 1.0004054903141617,
    ("curved", 7): 1.0004058531847964,
    ("quad3", 1): 1.1412827864185893,
}


@pytest.mark.parametrize("case,seed", sorted(PINNED_LAME))
def test_ellipticity_estimate_pinned(case, seed, reg, reg_curved, reg3):
    region = {"quad": reg, "curved": reg_curved, "quad3": reg3}[case]
    est = estimate_ellipticity(make_builtin("lame", n=region.n), region, seed=seed)
    assert est == pytest.approx(PINNED_LAME[case, seed], rel=1e-12, abs=0)


def exact_divfree_field(coefs, region, points):
    """Field (Phi_n, -Phi_1) and its gradient at ``points`` from the stream
    function built in exact rational arithmetic.

    Phi = (r^2-x1^2)^2 * (ubar(1-ubar))^2 * (G + c3*ubar) with
    ubar = (xn - bottom)/delta and G = c0 + c1*x1 + c2*x1^2.
    """
    n = region.n
    x1 = PolynomialField.variable(n, 0)
    xn = PolynomialField.variable(n, 1)
    den = region.delta_poly.lift(n)
    ubar = RationalField(xn - region.bottom_poly.lift(n), den, 1)
    bump = (PolynomialField.constant(n, Fraction(region.r_solve) ** 2)
            - x1 * x1) ** 2
    tt = ubar * (1 - ubar)
    c0, c1, c2, c3 = (int(v) for v in coefs)
    G = PolynomialField.constant(n, c0) + c1 * x1 + c2 * (x1 * x1)
    Phi = tt * tt * (bump * G) + tt * tt * ubar * (bump * c3)
    xi = [Phi.deriv(1), -1 * Phi.deriv(0)]
    field = np.array([c.value_many(points) for c in xi])
    grad = np.array([[c.deriv(a).value_many(points) for a in range(2)]
                     for c in xi])
    return field, grad


@pytest.mark.parametrize("seed", [0, 4])
def test_divfree_candidate_matches_exact_construction(reg_curved, seed):
    quad = _quadrature_nodes(reg_curved, (49, 25))
    x1 = quad.axes[0][:, None]
    ujets = vertical_jets(reg_curved, x1[..., None], quad.t)
    coefs = np.random.default_rng(seed).integers(-3, 4, size=4)
    # the candidate's gradient as the combination of the basis gradients
    grad = np.tensordot(coefs, _divfree_basis(reg_curved, quad), axes=1)
    field_ex, grad_ex = exact_divfree_field(coefs, reg_curved, quad.points)
    scale = np.abs(grad_ex).max()
    assert scale > 0
    assert np.abs(grad - grad_ex).max() <= 1e-10 * scale
    # zero divergence by construction
    assert np.all(grad[0, 0] + grad[1, 1] == 0)

    p_1, p_n, _, _, _ = _stream_jets(coefs, reg_curved.r_solve, x1, quad.t, ujets)
    field = np.stack([p_n, -p_1])
    assert np.abs(field.reshape(2, -1) - field_ex).max() \
        <= 1e-10 * np.abs(field_ex).max()
    # zero trace on x1 = -r, x1 = r (rows) and on the bottom and top (columns)
    for piece in (field[:, 0, :], field[:, -1, :], field[:, :, 0], field[:, :, -1]):
        assert np.all(piece == 0)


def test_ellipticity_estimate_laplace_3d_is_one(reg3):
    est = estimate_ellipticity(make_builtin("laplace", n=3), reg3, seed=2)
    assert est == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, -1.5)])
def test_ellipticity_estimate_lame_3d_above_mu(reg3, mu, lam):
    # int A grad v grad v = mu |grad v|^2 + (lam + mu) (div v)^2 >= mu |grad v|^2
    op = make_builtin("lame", n=3, lame_mu=mu, lame_lambda=lam)
    assert estimate_ellipticity(op, reg3, seed=0) >= mu * (1 - 1e-9)


def test_estimate_bounds_builtin(reg):
    assert estimate_bounds(make_builtin("laplace", n=2), reg) == (1.0, 1.0)
    assert estimate_bounds(make_builtin("lame", n=2), reg) == (3.0, 3.0)


def test_estimate_bounds_sees_polynomial_growth(reg):
    varying = parse_expression("1 + x1^2", nvars=2)
    zero = PolynomialField.zero(2)
    op = EllipticOperator(2, 1, A=[[[[varying, zero], [zero, varying]]]])
    Lam, kap = estimate_bounds(op, reg)
    assert Lam > 1.0
    assert kap > Lam


def test_estimate_bounds_builtin_3d(reg3):
    assert estimate_bounds(make_builtin("laplace", n=3), reg3) == (1.0, 1.0)
    assert estimate_bounds(make_builtin("lame", n=3), reg3) == (3.0, 3.0)


def test_estimate_bounds_sees_polynomial_growth_3d(reg3):
    varying = parse_expression("1 + x1^2 + x2*x3", nvars=3)
    zero = PolynomialField.zero(3)
    A = [[[[varying if a == b else zero for b in range(3)] for a in range(3)]]]
    Lam, kap = estimate_bounds(EllipticOperator(3, 1, A=A), reg3)
    assert Lam > 1.0
    assert kap > Lam


def test_operator_validation_errors(reg):
    with pytest.raises(OperatorError):
        EllipticOperator(4, 1, A=None)
    with pytest.raises(OperatorError):
        zero = PolynomialField.zero(2)
        EllipticOperator(2, 1, A=[[[zero, zero]]])   # wrong tensor shape
    with pytest.raises(OperatorError):
        make_builtin("biharmonic")
    with pytest.raises(OperatorError):
        estimate_ellipticity(make_builtin("laplace", n=2), reg, trials=2)


def test_lower_order_terms_detected():
    zero = PolynomialField.zero(2)
    one = PolynomialField.constant(2, 1)
    op = EllipticOperator(2, 1, A=[[[[one, zero], [zero, one]]]],
                          D=[[one]])
    assert op.has_lower_order_terms()
