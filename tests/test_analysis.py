"""Gradient recovery, bound constants, window energies, rate fitting."""

import concurrent.futures

import numpy as np
import pytest

from narrowgap import (
    AnalysisError,
    BoundaryData,
    MappedGrid,
    NarrowRegion,
    PolynomialField,
    SolutionField,
    SweepProblem,
    analysis,
    analyze_solution,
    correction_field,
    energy,
    fit_rate,
    gradient,
    make_builtin,
    mesh_solver,
    parse_expression,
    quadrature_weights,
    solve_dirichlet,
    sweep_grid,
    sweep_and_fit,
    sweep_member,
)

from conftest import flat_profile, mismatch_data, p1, quad_profile, superposition_gap


@pytest.fixture(scope="module")
def lap():
    return make_builtin("laplace", n=2)


def solve_case(op, eps=0.1, profile=None, data=None, nx=33, nt=17):
    reg = NarrowRegion(n=op.n, epsilon=eps,
                       profile=profile or quad_profile(op.n - 1))
    grid = MappedGrid(reg, nx, nt)
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
    w = correction_field(sol)
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
    w = correction_field(sol)
    assert np.count_nonzero(w.values.reshape(op.N, -1)[:, grid.boundary_mask]) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_correction_is_u_minus_the_interpolant_of_the_traces(n):
    # under the constant closure the lateral boundary differs from utilde,
    # but the end rows t = 0 and t = 1 still hold the traces exactly
    op = make_builtin("lame", n=n)
    gp = [parse_expression(t, nvars=n - 1) for t in ("1", "x1^2", "0.5")[:n]]
    gm = [parse_expression(t, nvars=n - 1) for t in ("0", "0.25*x1", "x1")[:n]]
    data = BoundaryData(gp, gm)
    reg = NarrowRegion(n=n, epsilon=0.1, profile=quad_profile(n - 1))
    grid = MappedGrid(reg, 17, 9)
    sol = solve_dirichlet(op, grid, data, lateral_closure="constant")
    ut = mesh_solver.boundary_values(grid, data).reshape(sol.values.shape)
    assert np.array_equal(correction_field(sol).values, sol.values - ut)


def test_centerline_constant_flat_gap_is_one(lap):
    reg, grid, data, sol = solve_case(lap, profile=flat_profile())
    c_low = analyze_solution(sol, data).c_low
    assert c_low == pytest.approx(1.0, rel=1e-9)


def test_centerline_constant_matched_is_none(lap):
    data = BoundaryData((p1("x1"),), (p1("x1"),))
    reg, grid, _, sol = solve_case(lap, data=data)
    assert analyze_solution(sol, data).c_low is None


@pytest.mark.parametrize("n", [2, 3])
def test_energy_windows_nest(n):
    op = make_builtin("laplace", n=n)
    nx, nt = (33, 17) if n == 2 else (17, 9)
    reg, grid, data, sol = solve_case(op, nx=nx, nt=nt)
    gw = gradient(correction_field(sol))
    center = np.zeros(n - 1)
    values = [energy(gw, window=(center, s)) for s in (0.05, 0.1, 0.2, 0.4)]
    assert 0 < values[0] and all(b > a for a, b in zip(values, values[1:]))
    # a window wider than the analysis region is the half-region energy
    assert energy(gw, window=(center, 10.0)) == energy(gw)


def test_3d_energies_converge():
    # each energy and k220 moves one way under nx refinement, by shrinking
    # steps, on the graded grid of eps 0.05 and the uniform one of eps 0.1
    # (where 2 sqrt(eps) lies beyond r_analyze, so k220 is None)
    op = make_builtin("laplace", n=3)
    for eps, names in ((0.05, ("energy_half", "F_delta0", "k220")),
                       (0.1, ("energy_half", "F_delta0"))):
        reports = []
        for nx in (17, 25, 33):
            reg, grid, data, sol = solve_case(op, eps=eps, nx=nx, nt=9)
            assert (grid.dX[nx // 2] < 1) == (eps < 0.1)
            reports.append(analyze_solution(sol, data))
        for name in names:
            values = [getattr(rep, name) for rep in reports]
            steps = np.diff(values)
            assert np.all(steps > 0) or np.all(steps < 0), (eps, name, values)
            assert abs(steps[1]) < abs(steps[0]), (eps, name, values)


def test_chord_integrals_on_graded_nodes():
    # a piecewise-linear row on non-uniform x2 nodes, integrated exactly
    # over chords that start and end inside cells
    x2 = np.array([-1.0, -0.4, -0.1, 0.0, 0.05, 0.3, 1.0])
    rows = np.array([[1.0, 2.0, -1.0, 0.5, 3.0, 0.0, 2.0],
                     [0.0, 1.0, 1.0, 4.0, -2.0, 1.0, 1.0]])
    xs = np.array([0.0, 0.1])
    c, s, ra = np.array([0.0, 0.02]), 0.3, 0.9
    got = analysis._chord_integrals(rows, x2, xs, c, s, ra)
    fine = np.linspace(-1.0, 1.0, 200001)
    for k, x1 in enumerate(xs):
        inside = np.abs(fine - c[1]) <= np.sqrt(s**2 - x1**2)
        inside &= np.abs(fine) <= np.sqrt(ra**2 - x1**2)
        want = np.trapezoid(np.where(inside, np.interp(fine, x2, rows[k]), 0.0), fine)
        assert got[k] == pytest.approx(want, abs=1e-4)


@pytest.mark.parametrize("eps", [0.05, 0.025])
def test_graded_values_converge_to_the_uniform_limit(lap, monkeypatch, eps):
    # the report of the pinned laplace2d sweep (nt = 17) on the graded grid
    # and on the uniform one (GRADING = 0) at the same nx: their gap closes
    # from the pinned nx = 33 to nx = 1025.  k225 and k226 are maxima over
    # the nodes of a band whose edges the two grids place differently, so
    # theirs closes only about as fast as the spacing at the band edges and
    # not monotonically; it is checked on the finest grid alone.
    data = BoundaryData((p1("1.25"),), (p1("-0.5"),))
    problems = [SweepProblem(op=lap, data=data, nx=nx, nt=17) for nx in (33, 1025)]
    region = NarrowRegion(n=2, epsilon=eps, profile=quad_profile())
    graded = [analysis.solve_epsilon(p, region)[2] for p in problems]
    monkeypatch.setattr(mesh_solver, "GRADING", 0.0)
    uniform = [analysis.solve_epsilon(p, region)[2] for p in problems]
    for name in ("sup_grad", "C_emp", "c_low", "energy_half", "F_delta0",
                 "k213", "k219", "k220", "k225", "k226"):
        g, u = getattr(graded[-1], name), getattr(uniform[-1], name)
        gap = abs(g - u) / u
        if name in ("k225", "k226"):
            assert gap <= 0.02, (name, g, u)
            continue
        coarse = abs(getattr(graded[0], name) - getattr(uniform[0], name)) / u
        assert gap <= 5e-3 and gap <= coarse / 10, (name, gap, coarse)


def test_pointwise_band_applicability(lap):
    reg, grid, data, sol = solve_case(lap, eps=0.1)
    rep = analyze_solution(sol, data)
    assert rep.k225 is not None
    assert rep.k226 is None         # sqrt(0.1) > R0 = 0.25: band is empty

    reg, grid, data, sol = solve_case(lap, eps=0.05, nx=45)
    rep = analyze_solution(sol, data)
    assert rep.k225 is not None and rep.k226 is not None


@pytest.mark.parametrize("kind, n, eps, nx, nt, traces", [
    ("lame", 2, 0.05, 45, 17, (("1 + x1", "0.5*x1^2"), ("-0.5", "x1"))),
    ("laplace", 3, 0.1, 17, 9, (("1 + x1*x2",), ("x1^2 - 0.5",))),
], ids=["lame2d", "laplace3d"])
def test_column_constants_match_the_readme_formulas(kind, n, eps, nx, nt, traces):
    # sup_grad, C_emp, c_low, k225 and k226 recomputed node by node from the
    # README formulas; in 3-D at eps 0.1 the outer band is empty (k226 None)
    op = make_builtin(kind, n=n)
    gp, gm = ([parse_expression(t, nvars=n - 1) for t in side] for side in traces)
    data = BoundaryData(tuple(gp), tuple(gm))
    reg, grid, _, sol = solve_case(op, eps=eps, data=data, nx=nx, nt=nt)
    rep = analyze_solution(sol, data)
    w = correction_field(sol)

    x = grid.tang                                   # one row per node
    r = np.sqrt((x**2).sum(axis=-1))
    gu, gw = gradient(sol).norm().ravel(), gradient(w).norm().ravel()
    diff = np.array([g.value_many(x) - h.value_many(x)
                     for g, h in zip(data.g_plus, data.g_minus)])
    mm = np.sqrt((diff**2).sum(axis=0))
    weights = quadrature_weights(grid)

    def l2(field):
        return np.sqrt((field.values.reshape(op.N, -1) ** 2 * weights).sum())

    c2 = data.c2_norm("plus") + data.c2_norm("minus")
    R0, se = 0.25, np.sqrt(eps)
    inside = r <= R0 + 1e-12
    origin = r == 0.0
    want = {
        "sup_grad": gu[inside].max(),
        "C_emp": (gu / (mm / (eps + r**2) + c2 + l2(sol)))[inside].max(),
        "c_low": gu[origin].min() * eps / np.abs(diff[:, origin]).max(),
        "k225": (gw * se / (mm + c2 + l2(w)))[r <= se].max(),
    }
    outer = (r > se) & inside
    want["k226"] = (gw * r / (mm + c2 + l2(w)))[outer].max() if outer.any() else None
    assert origin.sum() == nt
    assert (want["k226"] is None) == (n == 3)
    for name, value in want.items():
        got = getattr(rep, name)
        if value is None:
            assert got is None, name
        else:
            assert got == pytest.approx(value, rel=1e-14, abs=0), name


def test_analyze_solution_report_fields(lap):
    reg, grid, data, sol = solve_case(lap, eps=0.05, nx=45, nt=33)
    rep = analyze_solution(sol, data)
    assert rep.epsilon == 0.05
    assert rep.grid == (45, 33)
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


def test_sweep_grid_schedule(lap, monkeypatch):
    # one node count at every eps; the tangential map follows eps instead
    assert {sweep_grid(eps) for eps in (10.0, 0.1, 0.05, 0.00625, 0.001)} == {45}

    def grid_at(eps, nx=45, nt=33):
        return MappedGrid(NarrowRegion(n=2, epsilon=eps, profile=quad_profile()),
                          nx, nt)

    for eps in (0.1, 0.4):
        grid = grid_at(eps)
        assert np.array_equal(grid.axes[0], np.linspace(-1.0, 1.0, 45))
        assert np.array_equal(grid.dX, np.ones(45))
    xi = np.linspace(-1.0, 1.0, 1001)
    for eps in (0.05, 0.00625):
        grid = grid_at(eps)
        x, dx = mesh_solver.tangential_map(xi, 1.0, eps)
        xm, dxm = mesh_solver.tangential_map(-xi, 1.0, eps)
        assert np.array_equal(xm, -x) and np.array_equal(dxm, dx)  # odd
        assert np.all(np.diff(x) > 0) and np.all(dx > 0)            # monotone
        assert x[0] == -1.0 and x[-1] == 1.0 and x[500] == 0.0
        axis = grid.axes[0]
        assert axis[22] == 0.0 and np.all(np.diff(axis) > 0)
        # the centre spacing is (eps/0.1)^GRADING of the uniform one
        ratio = (eps / 0.1) ** mesh_solver.GRADING
        assert dx[500] == pytest.approx(ratio, rel=1e-12)
        # the recovered gradient of the nodal field x1 is exactly (1, 0)
        x1 = np.broadcast_to(axis[:, None], grid.dims)[None]
        gx = gradient(SolutionField(values=x1, grid=grid, residual=0.0)).values[0]
        np.testing.assert_allclose(gx[0], 1.0, rtol=1e-13)
        np.testing.assert_allclose(gx[1], 0.0, atol=1e-13)

    # sweep_member's Richardson grid (23 x 17) carries the same map
    built = []

    def recording(region, nx, nt):
        built.append(mesh_solver.MappedGrid(region, nx, nt))
        return built[-1]

    monkeypatch.setattr(analysis, "MappedGrid", recording)
    problem = SweepProblem(op=lap, data=mismatch_data(lap))
    sweep_member(problem, NarrowRegion(n=2, epsilon=0.025, profile=quad_profile()))
    fine, coarse = built
    assert (fine.nx, coarse.nx) == (45, 23)
    assert fine.dX[22] < 1
    np.testing.assert_allclose(coarse.axes[0], fine.axes[0][::2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(coarse.faces, fine.axes[0][1::2], rtol=0, atol=1e-15)


def test_sweep_member_richardson_gate(lap, monkeypatch):
    monkeypatch.setattr(analysis, "RICHARDSON_TOL", 1e-12)
    problem = SweepProblem(op=lap, data=mismatch_data(lap))
    with pytest.raises(AnalysisError):
        sweep_member(problem, NarrowRegion(n=2, epsilon=0.1, profile=quad_profile()))


def test_sweep_member_unknown_metric(lap):
    problem = SweepProblem(op=lap, data=mismatch_data(lap))
    region = NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())
    with pytest.raises(AnalysisError):
        sweep_member(problem, region, metric="median_grad")


def test_report_scales_linearly_with_data(lap):
    reg, grid, data, sol = solve_case(lap, nx=45, nt=33)
    doubled = BoundaryData((p1("2"),), (PolynomialField.zero(1),))
    sol2 = solve_dirichlet(lap, grid, doubled)
    rep1 = analyze_solution(sol, data)
    rep2 = analyze_solution(sol2, doubled)
    assert rep2.sup_grad == pytest.approx(2 * rep1.sup_grad, rel=1e-9)
    # normalized constants are invariant under data scaling
    assert rep2.c_low == pytest.approx(rep1.c_low, rel=1e-9)
    assert rep2.C_emp == pytest.approx(rep1.C_emp, rel=1e-9)
    assert rep2.F_delta0 == pytest.approx(4 * rep1.F_delta0, rel=1e-8)


def test_superposition_zero_for_single_component(lap):
    reg = NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())
    grid = MappedGrid(reg, 17, 9)
    disc = superposition_gap(lap, mismatch_data(lap), grid)
    assert disc < 1e-11


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_and_fit_rejects_jobs_below_one(lap, monkeypatch, jobs):
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **kw: pools.append(kw))
    monkeypatch.setattr(analysis, "sweep_member",
                        lambda *a: pytest.fail("a member was solved"))
    problem = SweepProblem(op=lap, data=mismatch_data(lap))
    regions = [NarrowRegion(n=2, epsilon=eps, profile=quad_profile())
               for eps in (0.1, 0.05, 0.025)]
    with pytest.raises(ValueError, match=f"got {jobs}"):
        sweep_and_fit(problem, regions, jobs=jobs)
    assert pools == []
