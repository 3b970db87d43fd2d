"""Mapped-grid assembly and the Dirichlet solve paths."""

import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from narrowgap import (
    AuxiliaryEvaluator,
    BoundaryData,
    GapProfile,
    GeometryError,
    NarrowRegion,
    PolynomialField,
    SolverError,
    boundary_values,
    make_builtin,
    parse_expression,
    quadrature_weights,
    solve_dirichlet,
)
from narrowgap.mesh_solver import (KRYLOV_MAX_ITERS, MappedGrid, _band_lu,
                                   _bicgstab, _face_geometry, _refine,
                                   assemble, solve_system)

from conftest import flat_profile, p1, quad_profile
import solver_oracle as oracle
from solver_oracle import _central_diff, _face_to_node_div


@pytest.fixture(scope="module")
def reg():
    return NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())


@pytest.fixture(scope="module")
def grid(reg):
    return MappedGrid(reg, 33, 17)


def test_grid_layout(reg, grid):
    assert grid.dims == (33, 17)
    assert grid.axes[0][0] == -1.0 and grid.axes[0][-1] == 1.0
    assert grid.axes[1][0] == 0.0 and grid.axes[1][-1] == 1.0
    assert grid.points.shape == (33 * 17, 2)
    np.testing.assert_allclose(
        grid.delta_flat, 0.1 + grid.tang[:, 0] ** 2, atol=1e-15)
    assert grid.center_index() == (16,)


def test_grid_masks_partition(grid):
    union = grid.lateral_mask | grid.bottom_mask | grid.top_mask
    assert np.array_equal(union, grid.boundary_mask)
    assert np.array_equal(grid.interior_mask, ~grid.boundary_mask)
    assert grid.bottom_mask.sum() == 33
    assert grid.top_mask.sum() == 33
    assert grid.lateral_mask.sum() == 2 * 17
    assert grid.boundary_mask.sum() == 2 * 17 + 2 * 33 - 4


def test_grid_rejects_bad_resolution(reg):
    with pytest.raises(GeometryError):
        MappedGrid(reg, 10, 17)
    with pytest.raises(GeometryError):
        MappedGrid(reg, 33, 7)


# the quartic/cubic profile of the pinned curved Lame case; in 3-D with
# x2 terms that break the symmetry between the tangential axes
CURVED = {2: ("0.5*x1^2 + 0.3*x1^4", "-x1^2 + 0.2*x1^3"),
          3: ("0.5*x1^2 + 0.3*x1^4 + 0.5*x2^2", "-x1^2 + 0.2*x1^3 - x2^2 + 0.1*x1*x2^2")}


def _per_node_geometry(region, axes):
    """Tangential points, t, delta, xn and dT evaluated node by node on the
    tensor grid of ``axes``."""
    nd = region.nd
    grids = np.meshgrid(*axes, indexing="ij")
    tang = np.stack([g.ravel() for g in grids[:nd]], axis=-1)
    tvals = grids[nd].ravel()
    delta = region.delta_poly.value_many(tang)
    xn = region.bottom_poly.value_many(tang) + tvals * delta
    dT = np.stack([region.bottom_poly.deriv(a).value_many(tang)
                   + tvals * region.delta_poly.deriv(a).value_many(tang)
                   for a in range(nd)], axis=0)
    return tang, tvals, delta, xn, dT


def _per_node_stretch(stretch):
    """X'_a (nd, M) at every node of the tensor grid whose per-axis X' are
    ``stretch`` (the last axis, t, is not mapped)."""
    grids = np.meshgrid(*stretch, indexing="ij")
    return np.stack([g.ravel() for g in grids[:-1]], axis=0)


@pytest.mark.parametrize("eps", [0.1, 0.00625])
@pytest.mark.parametrize("n, nx, nt", [(2, 33, 17), (3, 13, 9)])
def test_column_geometry_equals_per_node_evaluation(n, nx, nt, eps):
    h1, h2 = CURVED[n]
    prof = GapProfile(h1=parse_expression(h1, nvars=n - 1),
                      h2=parse_expression(h2, nvars=n - 1))
    region = NarrowRegion(n=n, epsilon=eps, profile=prof)
    grid = MappedGrid(region, nx, nt)
    tang, tvals, delta, xn, dT = _per_node_geometry(region, grid.axes)
    assert np.array_equal(grid.tang, tang) and np.array_equal(grid.tvals, tvals)
    assert np.array_equal(grid.delta_flat, delta)
    assert np.array_equal(grid.xn_flat, xn)
    assert np.array_equal(grid.dT_flat, dT)
    assert np.array_equal(grid.points, np.column_stack([tang, xn]))
    nd = n - 1
    stretch = [grid.dX] * nd + [np.ones(nt)]
    assert np.array_equal(grid.dX_flat, _per_node_stretch(stretch))
    for a in range(n):
        axes, face_stretch = list(grid.axes), list(stretch)
        if a < nd:
            axes[a], face_stretch[a] = grid.faces, grid.dX_faces
        else:
            axes[a] = 0.5 * (axes[a][:-1] + axes[a][1:])
            face_stretch[a] = np.ones(nt - 1)
        tang, _, delta, xn, dT = _per_node_geometry(region, axes)
        points_f, delta_f, dT_f, dX_f = _face_geometry(grid, a)
        assert np.array_equal(points_f, np.column_stack([tang, xn]))
        assert np.array_equal(delta_f, delta) and np.array_equal(dT_f, dT)
        assert np.array_equal(dX_f, _per_node_stretch(face_stretch))


@pytest.mark.parametrize("m", [3, 4, 9, 33])
def test_difference_blocks_match_their_entrywise_construction(m):
    h = 2.0 / (m - 1)
    cen = sp.lil_matrix((m, m))
    div = sp.lil_matrix((m, m - 1))
    for k in range(1, m - 1):
        cen[k, k - 1], cen[k, k + 1] = -0.5 / h, 0.5 / h
        div[k, k - 1], div[k, k] = -1.0 / h, 1.0 / h
    cen[0, 0], cen[0, 1], cen[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    cen[m - 1, m - 1], cen[m - 1, m - 2], cen[m - 1, m - 3] = 1.5 / h, -2.0 / h, 0.5 / h
    for got, want in ((_central_diff(m, h), cen.tocsr()),
                      (_face_to_node_div(m, h), div.tocsr())):
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), attr


def test_quadrature_weights_measure_the_region(reg, grid):
    # integral of delta over [-1, 1] is 2*eps + 2/3
    area = quadrature_weights(grid).sum()
    assert area == pytest.approx(0.2 + 2 / 3, rel=2e-3)
    fine = quadrature_weights(MappedGrid(reg, 129, 17)).sum()
    assert abs(fine - (0.2 + 2 / 3)) < abs(area - (0.2 + 2 / 3))


def test_flat_gap_solution_is_exact():
    flat = NarrowRegion(n=2, epsilon=0.05, profile=flat_profile())
    grid = MappedGrid(flat, 17, 9)
    data = BoundaryData((p1("1"),), (PolynomialField.zero(1),))
    sol = solve_dirichlet(make_builtin("laplace", n=2), grid, data)
    exact = AuxiliaryEvaluator(flat, data).utilde_values(grid.points)
    assert np.abs(sol.values - exact.reshape(sol.values.shape)).max() < 1e-11
    assert sol.residual < 1e-10


def test_matched_linear_data_solves_exactly(reg, grid):
    # u = x1 has telescoping fluxes on the quadratic gap: nodal exactness
    data = BoundaryData((p1("x1"),), (p1("x1"),))
    sol = solve_dirichlet(make_builtin("laplace", n=2), grid, data)
    expect = grid.reshape(grid.tang[:, 0])
    assert np.abs(sol.values[0] - expect).max() < 1e-11


def test_constant_data_in_kernel(reg, grid):
    data = BoundaryData((p1("2"),), (p1("2"),))
    sol = solve_dirichlet(make_builtin("laplace", n=2), grid, data)
    assert np.abs(sol.values - 2.0).max() < 1e-10


def test_discrete_maximum_principle(reg, grid):
    data = BoundaryData((p1("x1^2"),), (PolynomialField.zero(1),))
    sol = solve_dirichlet(make_builtin("laplace", n=2), grid, data)
    bc = boundary_values(grid, data)[0][grid.boundary_mask]
    assert sol.values.min() >= bc.min() - 1e-10
    assert sol.values.max() <= bc.max() + 1e-10


def test_boundary_rows_reproduce_data(reg, grid):
    data = BoundaryData((p1("x1^2"),), (p1("x1"),))
    sol = solve_dirichlet(make_builtin("laplace", n=2), grid, data)
    flat_vals = sol.values[0].ravel()
    x1 = grid.tang[:, 0]
    np.testing.assert_allclose(flat_vals[grid.top_mask],
                               x1[grid.top_mask] ** 2, atol=1e-12)
    np.testing.assert_allclose(flat_vals[grid.bottom_mask],
                               x1[grid.bottom_mask], atol=1e-12)


def test_lateral_closures_differ_only_laterally(reg, grid):
    data = BoundaryData((p1("x1^2"),), (PolynomialField.zero(1),))
    bu = boundary_values(grid, data, "utilde")[0]
    bc = boundary_values(grid, data, "constant")[0]
    inner = grid.lateral_mask & ~grid.top_mask & ~grid.bottom_mask
    assert np.abs(bu[inner] - bc[inner]).max() > 0.1
    assert np.array_equal(bu[grid.top_mask], bc[grid.top_mask])
    assert np.array_equal(bu[grid.bottom_mask], bc[grid.bottom_mask])


@pytest.mark.parametrize("n", [2, 3])
def test_nodal_interpolant_matches_the_exact_rationals(n):
    # the closure-free nodal utilde against its exact rational oracle, on a
    # curved 2-D gap and a 3-D one
    if n == 2:
        profile = GapProfile(h1=p1("0.5*x1^2 + 0.3*x1^4"),
                             h2=p1("-x1^2 + 0.2*x1^3"), kappa0=1.0, kappa1=10.0)
        traces = ("1 + x1^3", "0.5*x1 - x1^2")
        nx, nt = 33, 17
    else:
        profile = quad_profile(2)
        traces = ("1 + x1*x2", "x1^2 - 0.5*x2")
        nx, nt = 17, 9
    gp, gm = (parse_expression(t, nvars=n - 1) for t in traces)
    data = BoundaryData((gp,), (gm,))
    grid = MappedGrid(NarrowRegion(n=n, epsilon=0.05, profile=profile), nx, nt)
    exact = AuxiliaryEvaluator(grid.region, data).utilde_values(grid.points)
    np.testing.assert_allclose(boundary_values(grid, data), exact, rtol=0,
                               atol=1e-14)


@pytest.mark.parametrize("kind", ["laplace", "lame"])
def test_flat_gap_3d_is_exact_under_auto(kind):
    zero = PolynomialField.zero(2)
    op = make_builtin(kind, n=3)
    gp = tuple(parse_expression("1", nvars=2) if l == 0 else zero
               for l in range(op.N))
    data = BoundaryData(gp, (zero,) * op.N)
    flat = NarrowRegion(n=3, epsilon=0.05,
                        profile=GapProfile(h1=zero, h2=zero))
    grid = MappedGrid(flat, 13, 9)
    sol = solve_dirichlet(op, grid, data)
    # on a flat gap with constant traces the column interpolant BiCGSTAB
    # starts from is already the discrete solution
    assert sol.method == "krylov"
    assert sol.iterations == 0
    exact = AuxiliaryEvaluator(flat, data).utilde_values(grid.points)
    assert np.abs(sol.values - exact.reshape(sol.values.shape)).max() < 1e-9


def p2(text):
    return parse_expression(text, nvars=2)


def quad_grid_3d(nx, nt, eps=0.05):
    profile = GapProfile(h1=p2("0.5*x1^2 + 0.5*x2^2"),
                         h2=p2("-0.5*x1^2 - 0.5*x2^2"))
    return MappedGrid(NarrowRegion(n=3, epsilon=eps, profile=profile), nx, nt)


def test_direct_and_krylov_paths_agree_3d():
    # BiCGSTAB, the 3-D path, against the sparse LU of the reference solver
    zero = PolynomialField.zero(2)
    grid = quad_grid_3d(13, 9)
    op = make_builtin("lame", n=3)
    data = BoundaryData((p2("1"), zero, p2("x1")), (zero, p2("x2"), zero))
    d = oracle.solve_dirichlet(op, grid, data)
    k = solve_dirichlet(op, grid, data)
    assert d.method == "direct" and d.iterations == 0
    assert k.method == "krylov" and k.iterations > 0
    assert np.abs(d.values - k.values).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_residual_is_relative_to_the_system_rhs(n, grid):
    # one rule in both dimensions: ||b - A x|| / ||b|| <= tol with
    # b = b_I - A_IB b_B, the right-hand side the solve actually sees
    op = make_builtin("lame", n=n)
    if n == 2:
        zero, g = PolynomialField.zero(1), grid
        data = BoundaryData((p1("x1^2"), p1("1")), (zero, p1("x1")))
    else:
        zero, g = PolynomialField.zero(2), quad_grid_3d(13, 9)
        data = BoundaryData((p2("1"), zero, p2("x1")), (zero, p2("x2"), zero))
    system = assemble(op, g, boundary_values(g, data))
    sol = solve_system(system, tol=1e-10)
    x = sol.values.reshape(op.N, -1).T[g.interior_mask].ravel()
    b = system.b
    expect = np.linalg.norm(b - system.matrix @ x) / np.linalg.norm(b)
    assert sol.residual == pytest.approx(expect, rel=1e-12)
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("tol", [np.inf, 1.0, 2.0, -1.0, 0.0, np.nan])
def test_solve_rejects_a_tolerance_outside_the_unit_interval(tol):
    # a tol of 1 or more would accept a loose answer, and one of 0 or less
    # (or nan) would run BiCGSTAB into a breakdown
    data = BoundaryData((p2("1"),), (PolynomialField.zero(2),))
    grid = quad_grid_3d(9, 9)
    system = assemble(make_builtin("laplace", n=3), grid, boundary_values(grid, data))
    with pytest.raises(ValueError, match="tol must be in"):
        solve_system(system, tol=tol)


def test_krylov_failure_carries_its_history():
    data = BoundaryData((p2("1"),), (PolynomialField.zero(2),))
    with pytest.raises(SolverError) as info:
        solve_dirichlet(make_builtin("laplace", n=3), quad_grid_3d(9, 9), data,
                        tol=1e-30)
    history = info.value.residual_history
    assert history and all(np.isfinite(history))
    again = pickle.loads(pickle.dumps(info.value))
    assert str(again) == str(info.value)
    assert again.residual_history == history


def _diagonally_dominant(n, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A += np.diag(np.abs(A).sum(axis=1))
    return A, rng.normal(size=n)


def test_bicgstab_matches_a_dense_solve():
    A, b = _diagonally_dominant(60)
    jacobi = 1.0 / np.diag(A)
    history = []
    x, converged = _bicgstab(A, b, lambda v: jacobi * v,
                             1e-12 * np.linalg.norm(b), history, np.zeros_like(b))
    expect = np.linalg.solve(A, b)
    assert converged
    assert np.linalg.norm(x - expect) <= 1e-10 * np.linalg.norm(expect)
    assert 0 < len(history) < KRYLOV_MAX_ITERS


def test_bicgstab_without_tolerance_runs_to_the_cap():
    # unpreconditioned, the 1-D Laplacian converges slowly enough that the
    # recurrence residual stays above zero for every iteration of the cap
    n = 200
    A = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.ones(n)
    history = []
    x, converged = _bicgstab(A, b, lambda v: v, 0.0, history, np.zeros_like(b))
    assert not converged
    assert len(history) == KRYLOV_MAX_ITERS
    assert np.all(np.isfinite(history)) and np.all(np.isfinite(x))


def test_bicgstab_converges_on_the_true_residual():
    # unpreconditioned convection-diffusion: the recurrence residual drifts
    # four orders below b - A x before it reaches atol
    n = 100
    A = 2 * np.eye(n) - 1.3 * np.eye(n, k=-1) - 0.7 * np.eye(n, k=1)
    b = np.ones(n)
    atol = 1e-10 * np.linalg.norm(b)
    x, converged = _bicgstab(A, b, lambda v: v, atol, [], np.zeros_like(b))
    assert converged
    assert np.linalg.norm(b - A @ x) <= atol


def test_bicgstab_breakdown_returns_unconverged():
    # skew-symmetric A gives rhat . A p = 0 at the first step
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([1.0, 2.0])
    history = []
    x, converged = _bicgstab(A, b, lambda v: v, 1e-12, history,
                             np.zeros_like(b))
    assert not converged
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(history))


def test_bicgstab_returns_a_start_that_already_converged():
    # a start within atol comes back as it is, converged, after no iteration;
    # in the loop an exact start (r = 0) would meet the rhat.v = 0 breakdown
    # test and come back unconverged
    A, b = _diagonally_dominant(30)
    x0 = np.linalg.solve(A, b)
    history = []
    x, converged = _bicgstab(A, b, lambda v: v, 1e-8 * np.linalg.norm(b),
                             history, x0.copy())
    assert converged
    assert np.array_equal(x, x0)
    assert history == []


@pytest.mark.parametrize("kind, nx, nt", [("laplace", 17, 9), ("lame", 13, 9)])
def test_interpolant_start_cuts_the_iterations(kind, nx, nt):
    # BiCGSTAB from the column interpolant utilde against the same solve
    # from 0: utilde carries the 1/eps gradient, so only the bounded
    # correction is left to iterate on (12 against 19 iterations for
    # Laplace, 15 against 22 for Lame)
    grid = quad_grid_3d(nx, nt, eps=0.1)
    op = make_builtin(kind, n=3)
    zero = PolynomialField.zero(2)
    data = BoundaryData((p2("1"),) + (zero,) * (op.N - 1), (zero,) * op.N)
    system = assemble(op, grid, boundary_values(grid, data))
    tol = 1e-10
    sol = solve_system(system, tol=tol)
    A = system.matrix
    b = system.b
    columns = _band_lu(A, 2 * op.N - 1)
    cold = []
    x, converged = _bicgstab(A, b, columns, tol * np.linalg.norm(b), cold,
                             np.zeros_like(b))
    assert converged
    assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b)
    assert sol.residual <= tol
    assert 0 < sol.iterations <= 0.75 * len(cold)


# most = 1.5x the iterations measured at one and at two BLAS threads
# (17, 20, 38, 42), so that a doubling of the count fails; with the float32
# column LU they read 17, 19, 33 to 39 and 35 to 37
@pytest.mark.parametrize("kind, eps, nx, nt, most", [
    ("laplace", 0.1, 25, 17, 26),   # the two solves of the solve3d workload
    ("lame", 0.1, 17, 13, 30),
    ("laplace", 0.05, 49, 17, 57),
    ("lame", 0.05, 33, 17, 63),
])
def test_bicgstab_iterations(kind, eps, nx, nt, most):
    grid = quad_grid_3d(nx, nt, eps)
    op = make_builtin(kind, n=3)
    zero = PolynomialField.zero(2)
    data = BoundaryData((p2("1"),) + (zero,) * (op.N - 1), (zero,) * op.N)
    sol = solve_system(assemble(op, grid, boundary_values(grid, data)), tol=1e-10)
    assert sol.method == "krylov"
    assert 0 < sol.iterations <= most
    assert sol.residual <= 1e-10


def test_component_split_matches_full_solve(reg, grid):
    op = make_builtin("lame", n=2)
    zero = PolynomialField.zero(1)
    data = BoundaryData((p1("1"), zero), (zero, zero))
    full = solve_dirichlet(op, grid, data)
    part = solve_dirichlet(op, grid, data.component(0))
    assert np.abs(full.values - part.values).max() < 1e-12


def test_assemble_shapes(reg, grid):
    op = make_builtin("lame", n=2)
    zero = PolynomialField.zero(1)
    data = BoundaryData((p1("1"), zero), (zero, zero))
    system = assemble(op, grid, boundary_values(grid, data))
    n_in = grid.interior_mask.sum()
    assert n_in == 31 * 15
    assert system.unknowns == 2 * n_in
    assert system.matrix.shape == (2 * n_in, 2 * n_in)
    assert system.b.shape == (2 * n_in,)
    # the nodal boundary values assemble was given
    bc = boundary_values(grid, data)[:, grid.boundary_mask]
    assert np.array_equal(system.bc[:, grid.boundary_mask], bc)
    # (column, t, component) order: a row reaches the next column's nodes
    # one level up, so kl = ku = N*(nt - 1) + N - 1
    coo = system.matrix.tocoo()
    assert np.abs(coo.row - coo.col).max() == 2 * 16 + 1


def test_solve_dirichlet_rejects_data_of_another_component_count(grid):
    zero = PolynomialField.zero(1)
    data = BoundaryData((p1("1"), zero), (zero, zero))
    with pytest.raises(ValueError, match="data has 2 components, operator wants 1"):
        solve_dirichlet(make_builtin("laplace", n=2), grid, data)


@pytest.mark.parametrize("shape", [(1, 10), (2, 33 * 17), (33 * 17, 1), (17, 33)])
def test_assemble_rejects_boundary_values_of_another_shape(grid, shape):
    # one component on 33 x 17 takes (1, 561) or (1, 33, 17)
    with pytest.raises(ValueError, match=r"bc has shape .*, want \(1, 561\)"):
        assemble(make_builtin("laplace", n=2), grid, np.zeros(shape))


def test_singular_system_raises():
    mat = sp.eye(4, format="lil")
    mat[2, 2] = 0.0
    with pytest.raises(SolverError, match="zero pivot"):
        _band_lu(mat.tocsr())


def test_band_lu_solves_a_nonsymmetric_band():
    # the float32 factors alone are good to about 1e-7; refined in float64
    # they reach the float64 solve
    rng = np.random.default_rng(5)
    n, kl, ku = 40, 2, 5
    dense = np.zeros((n, n))
    for k in range(-kl, ku + 1):
        dense += np.diag(rng.normal(size=n - abs(k)), k)
    b = rng.normal(size=n)
    A = sp.csr_matrix(dense)
    x, history = _refine(A, b, _band_lu(A))
    expect = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)
    assert 1 < len(history) <= 6


@pytest.mark.parametrize("n, nx, nt", [(2, 17, 9), (3, 9, 9)])
def test_column_preconditioner_is_the_block_inverse(n, nx, nt):
    def p(text):
        return parse_expression(text, nvars=n - 1)

    zero = PolynomialField.zero(n - 1)
    prof = GapProfile(h1=p(CURVED[n][0]), h2=p(CURVED[n][1]))
    grid = MappedGrid(NarrowRegion(n=n, epsilon=0.1, profile=prof), nx, nt)
    op = make_builtin("lame", n=n)
    data = BoundaryData((p("1"),) + (zero,) * (n - 1), (zero,) * n)
    A = assemble(op, grid, boundary_values(grid, data)).matrix
    block = n * (nt - 2)
    # the entries within 2N - 1 of the diagonal are exactly the column blocks
    coo = A.tocoo()
    offsets = coo.col - coo.row
    near = np.abs(offsets) <= 2 * n - 1
    assert np.array_equal(near, coo.row // block == coo.col // block)
    assert offsets[near].min() == -(2 * n - 1) and offsets[near].max() == 2 * n - 1
    apply = _band_lu(A, 2 * n - 1)
    # refining against the block-diagonal part of A gives its exact inverse
    blocks = sp.csr_matrix((coo.data[near], (coo.row[near], coo.col[near])),
                           shape=A.shape)
    V = np.random.default_rng(1).normal(size=(A.shape[0], 3))
    for v in V.T:
        expect = np.concatenate([
            np.linalg.solve(A[k:k + block, k:k + block].toarray(), v[k:k + block])
            for k in range(0, A.shape[0], block)])
        x, _ = _refine(blocks, v, apply)
        assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)


def _lame_2d_system(eps, nx, nt, lam=1.0):
    zero = PolynomialField.zero(1)
    grid = MappedGrid(NarrowRegion(n=2, epsilon=eps, profile=quad_profile()),
                      nx, nt)
    data = BoundaryData((p1("1"), p1("x1")), (zero, p1("x1^2")))
    return assemble(make_builtin("lame", n=2, lame_lambda=lam), grid,
                    boundary_values(grid, data))


@pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_refinement_reaches_the_float64_floor(eps):
    # 4 or 5 float32 solves from eps 0.1 down to 1e-5 (the tangential map
    # grades the axes below 0.1), ending below 1e-15 of ||b||
    sol = solve_system(_lame_2d_system(eps, 45, 33))
    assert sol.method == "direct"
    assert 1 < sol.iterations <= 6
    assert sol.residual <= 1e-15


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_refinement_holds_at_any_scale_of_b(scale):
    # b is divided by its norm before the float32 cast: 1e-30 * b would
    # otherwise leave residuals below the float32 range, and 1e30 * b
    # solutions above it
    system = _lame_2d_system(0.01, 17, 9)
    A, b = system.matrix, system.b
    x, history = _refine(A, b, _band_lu(A))
    xs, hs = _refine(A, scale * b, _band_lu(A))
    assert np.linalg.norm(xs / scale - x) <= 1e-12 * np.linalg.norm(x)
    assert hs[-1] <= 1e-15 * scale * np.linalg.norm(b)
    assert len(hs) == len(history)


@pytest.mark.parametrize("scale", [1e-50, 1e-40, 1e40, 1e50])
def test_band_lu_holds_at_any_scale_of_a(scale):
    # the band is divided by a power of two near its largest entry: 1e-50 * A
    # would otherwise underflow float32, and 1e40 * A overflow it
    system = _lame_2d_system(0.01, 17, 9)
    A, b = system.matrix, system.b
    x, _ = _refine(A, b, _band_lu(A))
    xs, hs = _refine(scale * A, b, _band_lu(scale * A))
    assert np.linalg.norm(scale * xs - x) <= 1e-12 * np.linalg.norm(x)
    assert hs[-1] <= 1e-15 * np.linalg.norm(b)


def test_stalled_refinement_goes_on_with_bicgstab():
    # nearly incompressible Lame (lam/mu = 1e10) at eps = 1e-5: cond(A) times
    # the float32 rounding nears 1, and refinement stops near 1e-5 of ||b||;
    # BiCGSTAB preconditioned by the same float32 LU then meets tol
    system = _lame_2d_system(1e-5, 129, 65, lam=1e10)
    A, b = system.matrix, system.b
    _, history = _refine(A, b, _band_lu(A))
    assert history[-1] > 1e-6 * np.linalg.norm(b)
    sol = solve_system(system)
    assert sol.residual <= 1e-10
    assert sol.iterations > len(history)


def test_refinement_of_zero_is_zero():
    A = _lame_2d_system(0.1, 17, 9).matrix
    M = _band_lu(A)
    zero = np.zeros(A.shape[0])
    assert M(zero).dtype == np.float64 and not M(zero).any()
    x, history = _refine(A, zero, M)
    assert not x.any() and history == [0.0]


def test_band_lu_stores_its_band_in_float32():
    # 2-D Lame 65 x 65: kl = ku = 2*64 + 1, and the peak is the float32 band
    # plus one block of rows of A, about half the float64 band; a copy of all
    # of A's entries next to it took 0.546 of it
    A = _lame_2d_system(0.1, 65, 65).matrix
    kl = 2 * 64 + 1
    float64_band = (3 * kl + 1) * A.shape[0] * 8
    tracemalloc.start()
    try:
        _band_lu(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.53 * float64_band


def test_assembly_memory_stays_within_two_matrices():
    # 3-D Lame 25^2 x 17, from the boundary values through the factored
    # column blocks, against A_II alone; the full matrix with Dirichlet rows,
    # reduced afterwards, took 4.6x of A_II + A_IB, and one dense array of
    # all the offset coefficients 2.8x of A_II
    def p(text):
        return parse_expression(text, nvars=2)

    zero = PolynomialField.zero(2)
    prof = GapProfile(h1=p("0.5*x1^2 + 0.5*x2^2"), h2=p("-0.5*x1^2 - 0.5*x2^2"))
    grid = MappedGrid(NarrowRegion(n=3, epsilon=0.1, profile=prof), 25, 17)
    op = make_builtin("lame", n=3)
    data = BoundaryData((p("1"), zero, zero), (zero,) * 3)
    tracemalloc.start()
    try:
        system = assemble(op, grid, boundary_values(grid, data))
        _band_lu(system.matrix, 2 * 3 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = system.matrix
    csr = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert peak <= 2 * csr
