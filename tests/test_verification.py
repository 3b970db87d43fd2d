"""Manufactured solutions, the independent FD operator oracle, convergence."""

import numpy as np
import pytest

from narrowgap import (
    BoundaryData,
    EllipticOperator,
    MappedGrid,
    NarrowRegion,
    convergence_study,
    fd_apply_operator,
    make_builtin,
    manufactured_problem,
    parse_expression,
)
from narrowgap.verification import Factor1D, ManufacturedProblem

from conftest import flat_profile, quad_profile


@pytest.fixture(scope="module")
def reg():
    return NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())


def test_factor_jets():
    poly = Factor1D("poly", coeffs=(1.0, 0.5, 0.25))
    v, d1, d2 = poly.jet(np.array([0.0, 2.0]))
    np.testing.assert_allclose(v, [1.0, 3.0])
    np.testing.assert_allclose(d1, [0.5, 1.5])
    np.testing.assert_allclose(d2, [0.5, 0.5])
    sin = Factor1D("sin", freq=2.0)
    v, d1, d2 = sin.jet(np.array([0.3]))
    assert v[0] == pytest.approx(np.sin(0.6))
    assert d1[0] == pytest.approx(2 * np.cos(0.6))
    assert d2[0] == pytest.approx(-4 * np.sin(0.6))


def test_constant_field_has_zero_source(reg):
    op = make_builtin("laplace", n=2)
    problem = manufactured_problem(op, reg, [[(3.0, [("poly", 1.0),
                                                     ("poly", 1.0)])]])
    pts = np.array([[0.2, 0.01], [-0.4, -0.02]])
    assert np.abs(problem.source(pts)).max() < 1e-13
    assert np.abs(problem.values(pts) - 3.0).max() < 1e-13


def test_linear_vertical_field_on_flat_gap_has_zero_source():
    flat = NarrowRegion(n=2, epsilon=0.1, profile=flat_profile())
    op = make_builtin("laplace", n=2)
    # u = t is linear in x_n when the gap is flat
    problem = manufactured_problem(op, flat, [[(1.0, [("poly", 1.0),
                                                      ("poly", 0.0, 1.0)])]])
    pts = np.array([[0.2, 0.01], [-0.4, -0.02], [0.0, 0.03]])
    assert np.abs(problem.source(pts)).max() < 1e-12


def lower_order_operator():
    """Scalar operator with a variable principal part and every lower-order
    tensor nonzero."""
    def p(text):
        return parse_expression(text, nvars=2)

    return EllipticOperator(
        2, 1, A=[[[[p("1 + 0.5*x1^2"), p("0.25*x2")],
                   [p("0.25*x2"), p("2 + x1*x2")]]]],
        B=[[[p("x1*x2"), p("0.5*x1 + x2")]]], Cc=[[[p("0.5*x1"), p("x1^2")]]],
        D=[[p("0.25 + x1")]])


def test_manufactured_source_against_fd_oracle(reg):
    scalar = [[(1.0, [("sin", 1.0), ("poly", 0.0, 1.0)])]]
    cases = {
        "laplace": (make_builtin("laplace", n=2), scalar),
        "lame": (make_builtin("lame", n=2),
                 [[(1.0, [("sin", 1.0), ("poly", 0.0, 1.0)])],
                  [(1.0, [("cos", 0.7), ("poly", 1.0, 0.5, 0.25)])]]),
        "lower_order": (lower_order_operator(), scalar),
    }
    rng = np.random.default_rng(5)
    x1 = rng.uniform(-0.6, 0.6, 40)
    tt = rng.uniform(0.15, 0.85, 40)
    bot = reg.bottom_poly.value_many(x1[:, None])
    dlt = reg.delta_poly.value_many(x1[:, None])
    pts = np.stack([x1, bot + tt * dlt], axis=-1)
    # central-difference truncation measures 1.2e-6 / 1.8e-5 / 1.2e-6 on
    # these fields
    tols = {"laplace": 5e-6, "lame": 5e-5, "lower_order": 5e-6}
    for kind, (op, spec) in cases.items():
        problem = manufactured_problem(op, reg, spec)
        fd = fd_apply_operator(op, reg, problem.values, pts)
        assert np.abs(fd - problem.source(pts)).max() < tols[kind]


def test_fd_apply_operator_annihilates_linear_fields(reg):
    op = make_builtin("laplace", n=2)

    def linear(pts):
        return (2.0 * pts[:, 0] - 0.5 * pts[:, 1])[None, :]

    pts = np.array([[0.1, 0.0], [0.25, 0.02]])
    assert np.abs(fd_apply_operator(op, reg, linear, pts)).max() < 1e-9


def test_convergence_study_orders(reg):
    op = make_builtin("laplace", n=2)
    problem = manufactured_problem(
        op, reg, [[(1.0, [("sin", 1.0), ("poly", 1.0, 0.5, 0.25)])]])
    study = convergence_study(problem, [(9, 9), (17, 17), (33, 33)])
    assert study.monotone
    assert len(study.orders_inf) == 2
    for order in study.orders_inf:
        assert 1.6 <= order <= 2.4


def test_convergence_study_orders_on_a_ladder_that_is_not_2_to_1(reg):
    # the order divides by log2 of each refinement ratio (24/16, then 32/24);
    # the bare log2 of the error ratios reads about 1.14 and 0.83 here
    op = make_builtin("laplace", n=2)
    problem = manufactured_problem(
        op, reg, [[(1.0, [("sin", 1.0), ("poly", 1.0, 0.5, 0.25)])]])
    study = convergence_study(problem, [(17, 17), (25, 25), (33, 33)])
    assert study.monotone
    for order in study.orders_inf + study.orders_l2:
        assert 1.8 <= order <= 2.2


def test_convergence_study_exact_field_floors_at_rounding():
    flat = NarrowRegion(n=2, epsilon=0.1, profile=flat_profile())
    op = make_builtin("laplace", n=2)
    problem = manufactured_problem(op, flat, [[(1.0, [("poly", 1.0),
                                                      ("poly", 0.0, 1.0)])]])
    study = convergence_study(problem, [(9, 9), (17, 17)])
    assert max(study.errors_inf) < 1e-10


def test_convergence_study_evaluates_the_jets_once_per_grid(reg, monkeypatch):
    op = make_builtin("lame", n=2)
    problem = manufactured_problem(
        op, reg, [[(1.0, [("sin", 1.0), ("poly", 1.0, 0.5, 0.25)])],
                  [(1.0, [("cos", 0.7, 0.2), ("poly", 0.5, 0.25)])]])
    grids = [(9, 9), (17, 17), (33, 33)]
    calls = []
    jets = ManufacturedProblem.jets

    def counted(self, points):
        calls.append(len(points))
        return jets(self, points)

    monkeypatch.setattr(ManufacturedProblem, "jets", counted)
    convergence_study(problem, grids)
    assert calls == [nx * nt for nx, nt in grids]

    monkeypatch.undo()
    grid = MappedGrid(reg, 17, 17)
    vals, src = problem.nodal_fields(grid)
    shape = (op.N,) + grid.dims
    assert np.array_equal(vals, problem.values(grid.points).reshape(shape))
    assert np.array_equal(src, problem.source(grid.points).reshape(shape))
