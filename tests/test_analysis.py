"""Gradient recovery, bound constants, window energies, rate fitting."""

import numpy as np
import pytest

from narrowgap import (
    AnalysisError,
    BoundaryData,
    NarrowRegion,
    PolynomialField,
    SweepProblem,
    analysis,
    analyze_solution,
    build_grid,
    centerline_lower_constant,
    correction_field,
    energy,
    fit_rate,
    gradient,
    make_builtin,
    parse_expression,
    pointwise_w_check,
    solve_dirichlet,
    superposition_check,
    sweep_grid,
    sweep_and_fit,
    sweep_member,
)

from conftest import flat_profile, mismatch_data, p1, quad_profile


@pytest.fixture(scope="module")
def lap():
    return make_builtin("laplace", n=2)


def solve_case(op, eps=0.1, profile=None, data=None, nx=33, nt=17):
    reg = NarrowRegion(n=op.n, epsilon=eps,
                       profile=profile or quad_profile(op.n - 1))
    grid = build_grid(reg, nx, nt)
    data = data or mismatch_data(op)
    sol = solve_dirichlet(op, grid, data)
    return reg, grid, data, sol


def test_gradient_flat_gap_is_one_over_eps(lap):
    reg, grid, data, sol = solve_case(lap, eps=0.05, profile=flat_profile())
    gf = gradient(sol)
    np.testing.assert_allclose(gf.values[0, 1], 20.0, rtol=1e-8)
    assert np.abs(gf.values[0, 0]).max() < 1e-7


def test_gradient_of_linear_solution_is_exact(lap):
    data = BoundaryData((p1("x1"),), (p1("x1"),))
    reg, grid, _, sol = solve_case(lap, data=data)
    gf = gradient(sol)
    np.testing.assert_allclose(gf.values[0, 0], 1.0, atol=1e-9)
    np.testing.assert_allclose(gf.values[0, 1], 0.0, atol=1e-9)
    np.testing.assert_allclose(gf.norm(), 1.0, atol=1e-9)


def test_correction_vanishes_for_matched_linear_data(lap):
    data = BoundaryData((p1("x1"),), (p1("x1"),))
    reg, grid, _, sol = solve_case(lap, data=data)
    w = correction_field(sol, data)
    assert np.abs(w.values).max() < 1e-10
    assert energy(gradient(w)) < 1e-18


@pytest.mark.parametrize("kind, n, traces", [
    ("lame", 2, (("1", "0.5*x1"), ("x1^2", "0"))),
    ("laplace", 3, (("1 + x1*x2",), ("x1^2",))),
], ids=["lame2d", "laplace3d"])
def test_correction_is_zero_on_the_boundary(kind, n, traces):
    # u and utilde share one nodal interpolant, so under the utilde closure
    # w = u - utilde is exactly zero on every boundary node
    op = make_builtin(kind, n=n)
    gp, gm = ([parse_expression(t, nvars=n - 1) for t in side] for side in traces)
    data = BoundaryData(tuple(gp), tuple(gm))
    reg, grid, _, sol = solve_case(op, data=data, nx=17, nt=9)
    w = correction_field(sol, data)
    assert np.count_nonzero(w.values.reshape(op.N, -1)[:, grid.boundary_mask]) == 0


def test_centerline_constant_flat_gap_is_one(lap):
    reg, grid, data, sol = solve_case(lap, profile=flat_profile())
    c_low = centerline_lower_constant(gradient(sol), data, reg)
    assert c_low == pytest.approx(1.0, rel=1e-9)


def test_centerline_constant_matched_is_none(lap):
    data = BoundaryData((p1("x1"),), (p1("x1"),))
    reg, grid, _, sol = solve_case(lap, data=data)
    assert centerline_lower_constant(gradient(sol), data, reg) is None


@pytest.mark.parametrize("n", [2, 3])
def test_energy_windows_nest(n):
    op = make_builtin("laplace", n=n)
    nx, nt = (33, 17) if n == 2 else (17, 9)
    reg, grid, data, sol = solve_case(op, nx=nx, nt=nt)
    gw = gradient(correction_field(sol, data))
    center = np.zeros(n - 1)
    values = [energy(gw, window=(center, s)) for s in (0.05, 0.1, 0.2, 0.4)]
    assert 0 < values[0] and all(b > a for a, b in zip(values, values[1:]))
    # a window wider than the analysis region is the half-region energy
    assert energy(gw, window=(center, 10.0)) == energy(gw)


def test_3d_energies_converge():
    # each energy and k220 moves one way under nx refinement, by shrinking steps
    op = make_builtin("laplace", n=3)
    reports = []
    for nx in (17, 25, 33):
        reg, grid, data, sol = solve_case(op, eps=0.05, nx=nx, nt=9)
        reports.append(analyze_solution(sol, data, reg))
    for name in ("energy_half", "F_delta0", "k220"):
        values = [getattr(rep, name) for rep in reports]
        steps = np.diff(values)
        assert np.all(steps > 0) or np.all(steps < 0), (name, values)
        assert abs(steps[1]) < abs(steps[0]), (name, values)


def test_pointwise_band_applicability(lap):
    reg, grid, data, sol = solve_case(lap, eps=0.1)
    gw = gradient(correction_field(sol, data))
    m_inner, m_outer = pointwise_w_check(gw, data, reg)
    assert m_inner is not None
    assert m_outer is None          # sqrt(0.1) > R0 = 0.25: band is empty

    reg, grid, data, sol = solve_case(lap, eps=0.05, nx=45)
    gw = gradient(correction_field(sol, data))
    m_inner, m_outer = pointwise_w_check(gw, data, reg)
    assert m_inner is not None and m_outer is not None


def test_analyze_solution_report_fields(lap):
    reg, grid, data, sol = solve_case(lap, eps=0.05, nx=45, nt=33)
    rep = analyze_solution(sol, data, reg, scenario="unit")
    assert rep.epsilon == 0.05
    assert rep.grid == (45, 33)
    assert rep.scenario == "unit"
    assert rep.sup_grad > 0 and rep.C_emp > 0 and rep.c_low > 0
    assert rep.energy_half >= rep.F_delta0 >= 0
    keys = set(rep.lemma_constants())
    assert keys == {"k213", "k219", "k220", "k225", "k226"}


def test_fit_rate_exact_doubling():
    fit = fit_rate([(0.1, 10.0), (0.05, 20.0), (0.025, 40.0)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r2 == 1.0
    assert fit.conclusive


def test_fit_rate_flat_series():
    fit = fit_rate([(0.1, 7.0), (0.05, 7.0), (0.025, 7.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_fit_rate_input_validation():
    with pytest.raises(AnalysisError):
        fit_rate([(0.1, 1.0), (0.05, 2.0)])
    with pytest.raises(AnalysisError):
        fit_rate([(0.025, 1.0), (0.05, 2.0), (0.1, 3.0)])
    with pytest.raises(AnalysisError):
        fit_rate([(0.1, 1.0), (0.05, 0.0), (0.025, 2.0)])


def test_sweep_grid_schedule():
    assert sweep_grid(0.1) == 45
    assert sweep_grid(0.05) == 65
    assert sweep_grid(0.025) == 91
    assert sweep_grid(0.0125) == 127
    assert sweep_grid(0.001) == 129      # cap
    assert sweep_grid(10.0) == 9         # floor


def test_sweep_member_richardson_gate(lap, monkeypatch):
    monkeypatch.setattr(analysis, "RICHARDSON_TOL", 1e-12)
    problem = SweepProblem(op=lap, profile=quad_profile(),
                           data=mismatch_data(lap))
    with pytest.raises(AnalysisError):
        sweep_member(problem, 0.1)


def test_sweep_member_unknown_metric(lap):
    problem = SweepProblem(op=lap, profile=quad_profile(),
                           data=mismatch_data(lap))
    with pytest.raises(AnalysisError):
        sweep_member(problem, 0.1, metric="median_grad")


def test_report_scales_linearly_with_data(lap):
    reg, grid, data, sol = solve_case(lap, nx=45, nt=33)
    doubled = BoundaryData((p1("2"),), (PolynomialField.zero(1),))
    sol2 = solve_dirichlet(lap, grid, doubled)
    rep1 = analyze_solution(sol, data, reg)
    rep2 = analyze_solution(sol2, doubled, reg)
    assert rep2.sup_grad == pytest.approx(2 * rep1.sup_grad, rel=1e-9)
    # normalized constants are invariant under data scaling
    assert rep2.c_low == pytest.approx(rep1.c_low, rel=1e-9)
    assert rep2.C_emp == pytest.approx(rep1.C_emp, rel=1e-9)
    assert rep2.F_delta0 == pytest.approx(4 * rep1.F_delta0, rel=1e-8)


def test_superposition_zero_for_single_component(lap):
    reg = NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())
    grid = build_grid(reg, 17, 9)
    disc = superposition_check(lap, reg, mismatch_data(lap), grid)
    assert disc < 1e-11


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_and_fit_rejects_jobs_below_one(lap, monkeypatch, jobs):
    pools = []
    monkeypatch.setattr(analysis, "ProcessPoolExecutor",
                        lambda *a, **kw: pools.append(kw))
    monkeypatch.setattr(analysis, "sweep_member",
                        lambda *a: pytest.fail("a member was solved"))
    problem = SweepProblem(op=lap, profile=quad_profile(), data=mismatch_data(lap))
    with pytest.raises(ValueError, match=f"got {jobs}"):
        sweep_and_fit(problem, [0.1, 0.05, 0.025], jobs=jobs)
    assert pools == []
