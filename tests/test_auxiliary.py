"""Auxiliary fields ubar / utilde / ftilde and their derivative bounds."""

from fractions import Fraction

import numpy as np
import pytest

from narrowgap import (
    AuxiliaryEvaluator,
    BoundaryData,
    GapProfile,
    NarrowRegion,
    OperatorError,
    PolynomialField,
    RationalField,
    apply_operator_jets,
    make_builtin,
    parse_expression,
)
from narrowgap.geometry import vertical_jets

from bound_oracle import check_derivative_bounds, component_norms
from conftest import component, flat_profile, mismatch_data, p1, quad_profile


@pytest.fixture(scope="module")
def reg():
    return NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())


def boundary_points(reg, x1):
    x1 = np.asarray(x1, dtype=float)[:, None]
    bot = reg.bottom_poly.value_many(x1)
    top = (reg.profile.h1 + Fraction(reg.epsilon) / 2).value_many(x1)
    return (np.concatenate([x1, bot[:, None]], axis=1),
            np.concatenate([x1, top[:, None]], axis=1))


def test_ubar_normalized_vertical_coordinate(reg):
    aux = AuxiliaryEvaluator(reg)
    center, off = aux.ubar_values(np.array([[0.0, 0.0], [0.3, 0.02]]))
    assert center == pytest.approx(0.5, abs=1e-15)
    # (x_n - bottom)/delta at (0.3, 0.02): (0.02 + 0.095)/0.19
    assert off == pytest.approx(23 / 38, abs=1e-14)
    bots, tops = boundary_points(reg, [-0.4, 0.0, 0.7])
    np.testing.assert_allclose(aux.ubar_values(bots), 0.0, atol=1e-14)
    np.testing.assert_allclose(aux.ubar_values(tops), 1.0, atol=1e-14)


def test_ubar_second_vertical_derivative_is_exactly_zero(reg):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(50, 2))
    hess = AuxiliaryEvaluator(reg).ubar_hess(pts)
    assert np.abs(hess[1, 1]).max() == 0.0


def test_utilde_interpolates_traces(reg):
    data = BoundaryData((p1("x1"),), (p1("2*x1"),))
    aux = AuxiliaryEvaluator(reg, data)
    bots, tops = boundary_points(reg, [-0.3, 0.2, 0.6])
    np.testing.assert_allclose(aux.utilde_values(tops)[0],
                               tops[:, 0], atol=1e-13)
    np.testing.assert_allclose(aux.utilde_values(bots)[0],
                               2 * bots[:, 0], atol=1e-13)


def test_utilde_matched_data_is_the_trace_everywhere(reg):
    data = BoundaryData((p1("x1^2"),), (p1("x1^2"),))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.4, 0.4, size=(40, 2))
    vals = AuxiliaryEvaluator(reg, data).utilde_values(pts)
    np.testing.assert_allclose(vals[0], pts[:, 0] ** 2, atol=1e-13)


def test_utilde_jet_values(reg):
    data = BoundaryData((p1("x1"),), (p1("2*x1"),))
    aux = AuxiliaryEvaluator(reg, data)
    pt = np.array([[0.3, 0.02]])
    # g- + (g+ - g-)*ubar = 0.6 - 0.3*(23/38)
    assert aux.utilde_values(pt)[0, 0] == pytest.approx(0.6 - 0.3 * 23 / 38,
                                                        abs=1e-14)
    assert aux.utilde_grad(pt).shape == (1, 2, 1)
    # second vertical derivative vanishes identically
    assert check_derivative_bounds(reg, data).c210_residual == 0.0


def test_ftilde_matched_quadratic_is_constant(reg):
    op = make_builtin("laplace", n=2)
    data = BoundaryData((p1("x1^2"),), (p1("x1^2"),))
    pts = np.array([[0.1, 0.0], [0.3, 0.02], [-0.2, -0.01]])
    # utilde = x1^2, so the source is -div(grad x1^2) = -2
    np.testing.assert_allclose(
        AuxiliaryEvaluator(reg, data, op=op).ftilde_values(pts)[0], -2.0,
        rtol=0, atol=1e-13)


def test_ftilde_flat_constant_data_vanishes():
    flat = NarrowRegion(n=2, epsilon=0.1, profile=flat_profile())
    op = make_builtin("laplace", n=2)
    data = BoundaryData((p1("1"),), (PolynomialField.zero(1),))
    val = AuxiliaryEvaluator(flat, data, op=op).ftilde_values(
        np.array([[0.2, 0.01]]))
    assert val[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_ftilde_rejects_mismatched_operator(reg):
    data = BoundaryData((p1("x1"),), (p1("0"),))
    pts = np.array([[0.1, 0.0]])
    for op in (make_builtin("laplace", n=3), make_builtin("lame", n=2)):
        with pytest.raises(OperatorError):
            AuxiliaryEvaluator(reg, data, op=op).ftilde_values(pts)


def test_derivative_bound_constants_frozen(reg):
    # on the quadratic gap the 3-D constants are the 2-D ones
    reg3 = NarrowRegion(n=3, epsilon=0.1, profile=quad_profile(2))
    for region in (reg, reg3):
        data = mismatch_data(make_builtin("laplace", n=region.n))
        rep = check_derivative_bounds(region, data)
        consts = rep.constants()
        assert consts["c23"] == pytest.approx(1.0, rel=1e-9)
        assert consts["c26"] == pytest.approx(1.0, rel=1e-9)
        assert consts["c27_lower"] == pytest.approx(1.0, rel=1e-9)
        assert consts["c27_upper"] == pytest.approx(1.0, rel=1e-9)
        assert consts["c28"] == pytest.approx(2.636363636364, rel=1e-9)
        assert consts["c29"] == pytest.approx(2.0, rel=1e-9)
        assert rep.c24_residual == 0.0
        assert rep.c210_residual == 0.0


def test_derivative_bound_constants_stable_in_epsilon():
    data = mismatch_data(make_builtin("laplace", n=2))
    c28 = []
    for eps in (0.1, 0.05, 0.025):
        reg = NarrowRegion(n=2, epsilon=eps, profile=quad_profile())
        rep = check_derivative_bounds(reg, data)
        consts = rep.constants()
        assert consts["c23"] == pytest.approx(1.0, rel=1e-9)
        assert consts["c29"] == pytest.approx(2.0, rel=1e-9)
        c28.append(consts["c28"])
    spread = (max(c28) - min(c28)) / np.mean(c28)
    assert spread < 0.10


def test_c2_norm_of_quadratic_trace():
    data = BoundaryData((p1("x1^2"),), (PolynomialField.zero(1),))
    norms = component_norms(data)["plus"]
    assert norms["c0"][0] == pytest.approx(1.0, abs=1e-12)
    assert norms["c1"][0] == pytest.approx(2.0, abs=1e-12)
    assert norms["c2"][0] == pytest.approx(2.0, abs=1e-12)
    assert data.c2_norm("plus") == pytest.approx(5.0, abs=1e-12)
    assert data.c2_norm("minus") == 0.0


def test_mismatch_and_component_split():
    zero = PolynomialField.zero(1)
    data = BoundaryData((p1("x1"), p1("1")), (p1("2*x1"), zero))
    miss = data.mismatch_poly(0)
    assert miss.coefficient((1,)) == -1
    only1 = component(data, 1)
    assert only1.g_plus[0].is_zero() and only1.g_minus[0].is_zero()
    assert only1.g_plus[1] == data.g_plus[1]


def test_boundary_data_validation():
    with pytest.raises(ValueError):
        BoundaryData((), ())
    with pytest.raises(ValueError):
        BoundaryData((p1("x1"),), (parse_expression("x1", nvars=2),))
    with pytest.raises(ValueError):
        # the product is exact polynomial arithmetic, which has no degree cap
        BoundaryData((p1("x1^8") * p1("x1"),), (p1("0"),))


def exact_auxiliary(region, data, op):
    """ubar, utilde and ftilde = -L[utilde] built in exact rational
    arithmetic: the jets (value, gradient, Hessian) of ubar and of each
    utilde component, and the ftilde components."""
    n = region.n
    den = region.delta_poly.lift(n)
    ubar = RationalField(PolynomialField.variable(n, n - 1)
                         - region.bottom_poly.lift(n), den, 1)

    def jets(f):
        grad = [f.deriv(a) for a in range(n)]
        return f, grad, [[g.deriv(b) for b in range(n)] for g in grad]

    utilde = [jets(ubar * (gp.lift(n) - gm.lift(n)) + gm.lift(n))
              for gp, gm in zip(data.g_plus, data.g_minus)]
    zero = RationalField.from_poly(PolynomialField.zero(n), den)
    ftilde = [-f for f in apply_operator_jets(op, utilde, zero)]
    return jets(ubar), utilde, ftilde


def values(fields, points):
    return np.array([values(f, points) if isinstance(f, (list, tuple))
                     else f.value_many(points) for f in fields])


def assert_rel(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_jets_match_exact_rationals(n):
    # curved profiles of each dimension, Lame with full polynomial traces
    h1, h2, gp, gm = {
        2: ("0.5*x1^2 + 0.3*x1^4", "-x1^2 + 0.2*x1^3",
            ("1 + x1^3", "0.5*x1"), ("0.5*x1 - x1^2", "x1^2")),
        3: ("0.5*x1^2 + 0.3*x1^4 + 0.5*x2^2", "-x1^2 + 0.2*x1^3 - x2^2 + 0.1*x1*x2^2",
            ("1 + x1*x2", "x1^2 - 0.5*x2", "x2^3"), ("x1", "0", "x1^2*x2")),
    }[n]
    nd = n - 1
    poly = [parse_expression(text, nvars=nd) for text in (h1, h2)]
    region = NarrowRegion(n=n, epsilon=0.1, profile=GapProfile(
        poly[0], poly[1], kappa0=1.0, kappa1=10.0))
    data = BoundaryData(*([parse_expression(text, nvars=nd) for text in side]
                          for side in (gp, gm)))
    op = make_builtin("lame", n=n, lame_mu=1.0, lame_lambda=1.5)
    rng = np.random.default_rng(n)
    tang = rng.uniform(-0.6, 0.6, size=(40, nd))
    t = rng.uniform(0.0, 1.0, size=40)
    xn = region.bottom_poly.value_many(tang) + t * region.delta_poly.value_many(tang)
    pts = np.concatenate([tang, xn[:, None]], axis=-1)

    (ubar, ubar_grad, ubar_hess), utilde, ftilde = exact_auxiliary(region, data, op)
    grad, hess = vertical_jets(region, tang, t)
    assert_rel(grad, values(ubar_grad, pts))
    assert_rel(hess, values(ubar_hess, pts))
    aux = AuxiliaryEvaluator(region, data, op=op)
    assert_rel(aux.ubar_values(pts), ubar.value_many(pts))
    assert_rel(aux.ubar_grad(pts), values(ubar_grad, pts))
    assert_rel(aux.ubar_hess(pts), values(ubar_hess, pts))
    assert_rel(aux.utilde_values(pts), values([u for u, _, _ in utilde], pts))
    assert_rel(aux.utilde_grad(pts), values([g for _, g, _ in utilde], pts))
    assert_rel(aux.ftilde_values(pts), values(ftilde, pts))
