"""Gradient recovery, empirical bound constants, window energies, and
blow-up-rate fits over epsilon sweeps.

The measured quantities mirror the a-priori estimates for the narrow-gap
Dirichlet problem: the pointwise gradient bound with the mismatch kernel
1/(eps+|x'|^2), the centerline lower bound of order 1/eps, energy bounds for
the correction w = u - utilde on the half region and on thin vertical
windows, and the two-regime pointwise bounds for |grad w| on either side of
the |x'| = sqrt(eps) transition.  Each constant is reported as the smallest
value making the corresponding inequality hold on the discrete solution;
stability of these constants as eps shrinks is the empirical content.

analyze_solution computes one column profile per solve: |grad u| and
|grad w| on every tangential column, |x'|^2 and the trace mismatch there,
the mismatch at the origin, and the norm budgets (data C2 norms plus the
L2 norm of u or w).  sup_grad, C_emp, c_low, k225 and k226 are each a max
or min over that profile (formulas in README "Outputs").  Every energy,
for n = 2 and n = 3 alike, is one quadrature of the column density
delta(x') int |grad w|^2 dt over its window (see energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh_solver import (MappedGrid, SolutionField, _column_interpolant,
                          quadrature_weights, solve_dirichlet)

__all__ = [
    "GradientField",
    "BoundReport",
    "RateFit",
    "SweepProblem",
    "AnalysisError",
    "gradient",
    "correction_field",
    "energy",
    "analyze_solution",
    "sweep_grid",
    "solve_epsilon",
    "sweep_member",
    "sweep_and_fit",
    "fit_rate",
    "superposition_check",
]


# default tangential node count of a solve (SweepProblem.nx), one count at
# every eps.  The grid's tangential map (mesh_solver.tangential_map) follows
# eps instead: uniform for eps >= 0.1, below that clustered at x' = 0, where
# the window |x'| < delta(0) = eps and the transition band |x'| ~ sqrt(eps)
# of the two-regime pointwise bounds lie.
NX_BASE = 45
# largest relative drift of a sweep metric between a member's grid and the
# half-resolution check grid
RICHARDSON_TOL = 0.02


class AnalysisError(RuntimeError):
    pass


@dataclass
class GradientField:
    values: np.ndarray       # (N, n, *dims) physical derivatives
    grid: MappedGrid

    def norm(self):
        """Pointwise Euclidean norm over components and directions, shape dims."""
        return np.sqrt((self.values**2).sum(axis=(0, 1)))

    @cached_property
    def _column_density(self):
        """q(x') = delta(x') int |grad|^2 dt (trapezoid in t), shape
        (nx, nx^(nd-1)): computed once, shared by every window energy."""
        grid = self.grid
        q = np.trapezoid((self.values**2).sum(axis=(0, 1)),
                         dx=grid.hx[grid.nd], axis=-1)
        return (q * grid.reshape(grid.delta_flat)[..., 0]).reshape(grid.nx, -1)


def gradient(solution):
    """Physical-space gradient of a nodal field by mapped central differences.

    Interior stencils are second-order central in the computational
    coordinates (np.gradient with edge_order=2, one-sided second order at
    the boundary rows), combined with the metric: d/dxn = (1/delta) d/dt
    and d/dx_a = (1/X'_a) d/dxi_a - (dT_a/delta) d/dt.  Here X'_a is the
    same difference of the node coordinates x_a(xi_a), so the gradient of
    a field linear in x' is exact on a graded axis too (and X' = 1 on a
    uniform one).
    """
    grid = solution.grid
    vals = solution.values
    N = vals.shape[0]
    nd = grid.nd
    n = grid.n
    delta = grid.reshape(grid.delta_flat)
    dT = [grid.reshape(grid.dT_flat[a]) for a in range(nd)]
    slope = (np.gradient(grid.axes[0], grid.hx[0], edge_order=2)
             / np.gradient(grid.xi, grid.hx[0], edge_order=2))
    dX = [slope.reshape([-1 if d == a else 1 for d in range(n)]) for a in range(nd)]
    out = np.zeros((N, n) + grid.dims)
    for j in range(N):
        comp = [np.gradient(vals[j], grid.hx[d], axis=d, edge_order=2)
                for d in range(nd + 1)]
        dn = comp[nd] / delta
        for a in range(nd):
            out[j, a] = comp[a] / dX[a] - dT[a] * dn
        out[j, nd] = dn
    return GradientField(values=out, grid=grid)


def correction_field(solution):
    """w = u - utilde as a nodal field on the same grid, utilde the column
    interpolant of u's rows t = 0 and t = 1 (g- and g+).  w vanishes on
    those rows, and on the lateral columns under the utilde closure."""
    u = solution.values
    w = u - _column_interpolant(u, solution.grid).reshape(u.shape)
    return SolutionField(values=w, grid=solution.grid,
                         residual=solution.residual, method="derived")


def _mismatch_norms(data, tang):
    """Euclidean and max-component mismatch magnitude at tangential points."""
    m = np.stack([data.mismatch_poly(l).value_many(tang) for l in range(data.N)])
    return np.sqrt((m**2).sum(axis=0)), np.abs(m).max(axis=0)


def _l2(field):
    """Jacobian-weighted L2 norm of a nodal field over the grid box."""
    v = field.values.reshape(field.values.shape[0], -1)
    return float(np.sqrt(((v**2) * quadrature_weights(field.grid)).sum()))


# trapezoid samples along x1 in every window-energy quadrature
ENERGY_SAMPLES = 513


def _chord_integrals(rows, x2, xs, c, s, ra):
    """Exact integral of each piecewise-linear row ``rows[j]`` (the column
    density at x1 = xs[j] on the x2 nodes) over the chord that the window
    |x' - c| < s and the disk |x'| <= ra cut at that x1: the difference of the
    row's cumulative trapezoid at the chord's ends.  The x2 nodes need not
    be uniform."""
    hw = np.sqrt(np.maximum(s**2 - (xs - c[0]) ** 2, 0.0))
    ha = np.sqrt(np.maximum(ra**2 - xs**2, 0.0))
    a = np.maximum(np.maximum(c[1] - hw, -ha), x2[0])
    b = np.maximum(np.minimum(np.minimum(c[1] + hw, ha), x2[-1]), a)
    h = np.diff(x2)
    cum = np.zeros_like(rows)
    cum[:, 1:] = np.cumsum(0.5 * h * (rows[:, 1:] + rows[:, :-1]), axis=1)
    j = np.arange(len(xs))

    def primitive(x):
        k = np.minimum(np.searchsorted(x2, x, side="right") - 1, len(x2) - 2)
        d = x - x2[k]
        r0, r1 = rows[j, k], rows[j, k + 1]
        return cum[j, k] + d * (r0 + 0.5 * (r1 - r0) * d / h[k])

    return primitive(b) - primitive(a)


def energy(gradfield, window=None):
    """Jacobian-weighted integral of |grad field|^2.

    window=None integrates over the half region |x'| <= r_analyze; otherwise
    window is (x0_prime, s) and the integral runs over the vertical window
    |x' - x0'| < s intersected with the half region.  One quadrature serves
    n = 2 and n = 3: the column density q(x') = delta(x') int_t |grad|^2 dt
    (trapezoid in t), computed once per GradientField and shared by all its
    windows, is taken linear between grid columns and integrated by
    an ENERGY_SAMPLES-point trapezoid along x1 over the window; for n = 3 the
    value at each x1 sample is the exact integral of the interpolated row
    along x2 over the chord the window cuts there.  So a window narrower
    than a tangential spacing (delta0 = eps at small eps) still gets its
    share, and as the no-window case is the same path with s = inf, a window
    wider than r_analyze equals the half-region integral exactly.
    """
    grid = gradfield.grid
    nd = grid.nd
    c, s = np.zeros(nd), np.inf
    if window is not None:
        x0, s = window
        if x0 is not None:
            c = np.asarray(x0, dtype=float).ravel()
    ra = grid.region.r_analyze
    ax = grid.axes[0]
    lo = max(c[0] - s, -ra, ax[0])
    hi = min(c[0] + s, ra, ax[-1])
    if hi <= lo:
        return 0.0
    q = gradfield._column_density
    xs = np.linspace(lo, hi, ENERGY_SAMPLES)
    # q interpolated along x1 to each sample: one row of x2 nodes per sample
    rows = np.stack([np.interp(xs, ax, col) for col in q.T], axis=-1)
    if nd == 1:
        vals = rows[:, 0]
    else:
        vals = _chord_integrals(rows, grid.axes[1], xs, c, s, ra)
    return float(np.trapezoid(vals, xs))


@dataclass
class BoundReport:
    epsilon: float
    sup_grad: float
    C_emp: float
    c_low: float | None
    energy_half: float
    F_delta0: float
    k213: float
    k219: float
    k220: float | None
    k225: float | None
    k226: float | None
    grid: tuple
    R0: float

    def lemma_constants(self):
        return {"k213": self.k213, "k219": self.k219, "k220": self.k220,
                "k225": self.k225, "k226": self.k226}


def analyze_solution(solution, data, R0=0.25, grad_u=None):
    """Full per-epsilon report on the region the solution was solved on:
    gradient bounds for u, energy and pointwise bounds for the correction w.
    ``grad_u`` is gradient(solution) when the caller already has it.

    sup_grad, C_emp, c_low, k225 and k226 are maxima or minima over the
    tangential columns of the grid (README "Outputs" gives each formula);
    they share one column profile: |grad u| and |grad w| per column, |x'|^2
    and the Euclidean mismatch there, and the norm budgets.
    """
    grid = solution.grid
    region = grid.region
    eps = region.epsilon
    nd = grid.nd
    if grad_u is None:
        grad_u = gradient(solution)
    w = correction_field(solution)
    grad_w = gradient(w)

    cols = grid.tang[::grid.nt]
    r2 = (cols**2).sum(axis=-1)
    r = np.sqrt(r2)
    gu = grad_u.norm().reshape(len(cols), grid.nt)
    gw = grad_w.norm().reshape(len(cols), grid.nt)
    mm, _ = _mismatch_norms(data, cols)
    mx0 = _mismatch_norms(data, np.zeros((1, nd)))[1][0]
    c2p, c2m = data.c2_norm("plus"), data.c2_norm("minus")
    wl2 = _l2(w)
    budget2 = c2p**2 + c2m**2 + wl2**2

    inside = r2 <= R0**2 + 1e-15
    sup_grad = float(gu[inside].max())
    den = mm / (eps + r2) + ((c2p + c2m) + _l2(solution))
    C_emp = float((gu[inside] / den[inside, None]).max())
    c_low = None
    if mx0 != 0.0:
        center = gu.reshape(grid.dims)[grid.center_index()]
        c_low = float(center.min() * eps / mx0)

    # the two-regime pointwise bound on |grad w|: |x'| <= sqrt(eps) and
    # sqrt(eps) < |x'| <= R0; None when the band holds no column
    se = math.sqrt(eps)
    den_w = (mm + ((c2p + c2m) + wl2))[:, None]
    inner = r <= se + 1e-15
    outer = (r > se) & (r <= R0 + 1e-15)
    k225 = float((gw[inner] * se / den_w[inner]).max()) if inner.any() else None
    k226 = float((gw[outer] * r[outer, None] / den_w[outer]).max()) \
        if outer.any() else None

    energy_half = energy(grad_w)
    delta0 = eps  # profiles vanish at the origin, so delta(0') = eps
    F_delta0 = energy(grad_w, window=(None, delta0))
    k213 = energy_half / (wl2**2 + c2p**2 + c2m**2)
    k219 = F_delta0 / (eps ** (nd) * (mx0 ** 2 + eps * budget2)) \
        if (mx0 ** 2 + eps * budget2) > 0 else 0.0
    # outer window at |x0'| = 2 sqrt(eps) along the first axis, when the
    # band sqrt(eps) < |x0'| <= r_analyze reaches that far
    k220 = None
    if 2 * se <= region.r_analyze:
        x0 = np.zeros(nd)
        x0[0] = 2 * se
        delta_x0 = float(region.delta_poly.value_many(x0[None, :])[0])
        Fx0 = energy(grad_w, window=(x0, delta_x0))
        _, mmx0 = _mismatch_norms(data, x0[None, :])
        r0n = float(np.sqrt((x0**2).sum()))
        den = r0n ** (2 * nd) * (mmx0[0] ** 2 + r0n**2 * budget2)
        k220 = Fx0 / den if den > 0 else 0.0

    return BoundReport(
        epsilon=eps, sup_grad=sup_grad, C_emp=C_emp, c_low=c_low,
        energy_half=energy_half, F_delta0=F_delta0,
        k213=k213, k219=k219, k220=k220, k225=k225, k226=k226,
        grid=(grid.nx, grid.nt), R0=R0,
    )


@dataclass
class RateFit:
    points: list            # [(eps, metric value)]
    slope: float
    intercept: float
    r2: float
    conclusive: bool = True
    reports: list = field(default_factory=list)


def fit_rate(points):
    """Least squares for log M = p log eps + q; R^2 >= 0.98 is conclusive."""
    if len(points) < 3:
        raise AnalysisError("rate fit needs at least 3 points")
    eps = np.array([p[0] for p in points], dtype=float)
    vals = np.array([p[1] for p in points], dtype=float)
    if not np.all(np.diff(eps) < 0):
        raise AnalysisError("epsilons must be strictly decreasing")
    if np.any(vals <= 0):
        raise AnalysisError("rate fit needs positive metric values")
    lx, ly = np.log(eps), np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-24 else 1.0
    return RateFit(points=[(float(e), float(v)) for e, v in points],
                   slope=float(slope), intercept=float(intercept), r2=float(r2),
                   conclusive=bool(r2 >= 0.98))


@dataclass
class SweepProblem:
    """Everything a solve at one epsilon needs besides its NarrowRegion."""
    op: object
    data: object
    lateral_closure: str = "utilde"
    R0: float = 0.25
    nx: int = NX_BASE
    nt: int = 33
    tol: float = 1e-10


def sweep_grid(eps):
    """NX_BASE, the default nx at every eps.  Kept because
    bench/make_references.py imports it."""
    return NX_BASE


def _metric_value(grad_u, metric, R0):
    """The max of |grad u| over the center column (center_grad) or over
    |x'| <= R0 (sup_grad, as analyze_solution reports it)."""
    grid = grad_u.grid
    gn = grad_u.norm()
    if metric == "center_grad":
        return float(gn[grid.center_index()].max())
    if metric == "sup_grad":
        r2 = (grid.tang**2).sum(axis=-1)
        return float(gn.ravel()[r2 <= R0**2 + 1e-15].max())
    raise AnalysisError(f"unknown metric {metric!r}")


def _solve_one(problem, region, nx, nt):
    grid = MappedGrid(region, nx, nt)
    return solve_dirichlet(problem.op, grid, problem.data,
                           lateral_closure=problem.lateral_closure,
                           tol=problem.tol)


def solve_epsilon(problem, region):
    """Solve on ``region`` with a problem.nx x problem.nt grid and analyze it.

    The gradient is taken once and shared with analyze_solution.  Returns
    (solution, gradient, BoundReport).
    """
    sol = _solve_one(problem, region, problem.nx, problem.nt)
    grad_u = gradient(sol)
    report = analyze_solution(sol, problem.data, problem.R0, grad_u=grad_u)
    return sol, grad_u, report


def sweep_member(problem, region, metric="center_grad"):
    """solve_epsilon with an a-posteriori Richardson check on the same region.

    The metric is recomputed on a half-resolution grid; a drift beyond
    RICHARDSON_TOL means the member is not trustworthy at this resolution
    and raises.  No axis goes below 9 nodes, so a 9 x 9 solve grid has no
    coarser check grid: that raises as well, rather than comparing the grid
    with itself.  Returns (metric value, BoundReport).
    """
    sol, grad_u, report = solve_epsilon(problem, region)
    value = _metric_value(grad_u, metric, problem.R0)

    nx, nt = sol.grid.nx, sol.grid.nt
    nx_c = max(9, (nx // 2) | 1)
    nt_c = max(9, (nt // 2) | 1)
    if (nx_c, nt_c) == (nx, nt):
        raise AnalysisError(
            f"Richardson check impossible at eps={region.epsilon:g}: the check grid "
            f"({nx_c},{nt_c}) equals the solve grid ({nx},{nt}); it needs "
            f"nx or nt above 9")
    sol_c = _solve_one(problem, region, nx_c, nt_c)
    value_c = _metric_value(gradient(sol_c), metric, problem.R0)
    drift = abs(value - value_c) / abs(value) if value != 0 else abs(value_c)
    if drift > RICHARDSON_TOL:
        raise AnalysisError(
            f"Richardson check failed at eps={region.epsilon:g}: {metric} moved "
            f"{drift:.1%} between ({nx_c},{nt_c}) and ({nx},{nt})")
    return value, report


def sweep_and_fit(problem, regions, metric="center_grad", jobs=1):
    """Run sweep_member on each region, largest epsilon first, and fit the
    log-log rate.  With jobs > 1 the members run in that many worker processes,
    each sent the pickled problem and region; the results equal a serial run."""
    regions = sorted(regions, key=lambda region: region.epsilon, reverse=True)
    args = [(problem, region, metric) for region in regions]
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1:
        # imported here: only a parallel sweep needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            results = list(pool.map(sweep_member, *zip(*args)))
    else:
        results = [sweep_member(*a) for a in args]
    fit = fit_rate([(r.epsilon, value) for r, (value, _) in zip(regions, results)])
    fit.reports = [report for _, report in results]
    return fit


def superposition_check(op, data, grid, lateral_closure="utilde", tol=1e-10):
    """Max-norm gap between the full solve and the sum of component solves."""
    full = solve_dirichlet(op, grid, data, lateral_closure=lateral_closure, tol=tol)
    total = np.zeros_like(full.values)
    for l in range(data.N):
        part = solve_dirichlet(op, grid, data.component(l),
                               lateral_closure=lateral_closure, tol=tol)
        total += part.values
    return float(np.abs(full.values - total).max())
