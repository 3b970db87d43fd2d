"""Auxiliary fields ubar / utilde / ftilde and their derivative bounds."""

import numpy as np
import pytest

from narrowgap import (
    AuxiliaryEvaluator,
    BoundaryData,
    NarrowRegion,
    PolynomialField,
    check_derivative_bounds,
    make_builtin,
    parse_expression,
)

from conftest import flat_profile, mismatch_data, p1, quad_profile


@pytest.fixture(scope="module")
def reg():
    return NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())


def boundary_points(reg, x1):
    x1 = np.asarray(x1, dtype=float)[:, None]
    bot = reg.bottom_poly.value_many(x1)
    top = reg.top_poly.value_many(x1)
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


def test_derivative_bound_constants_frozen(reg):
    data = mismatch_data(make_builtin("laplace", n=2))
    rep = check_derivative_bounds(reg, data)
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
    norms = data.norms()["plus"]
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
    only1 = data.component(1)
    assert only1.g_plus[0].is_zero() and only1.g_minus[0].is_zero()
    assert only1.g_plus[1] == data.g_plus[1]


def test_boundary_data_validation():
    with pytest.raises(ValueError):
        BoundaryData((), ())
    with pytest.raises(ValueError):
        BoundaryData((p1("x1"),), (parse_expression("x1", nvars=2),))
    with pytest.raises(ValueError):
        deg9 = parse_expression("x1^9", nvars=1)
        BoundaryData((deg9,), (p1("0"),))
