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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import AuxiliaryEvaluator
from .geometry import NarrowRegion
from .mesh_solver import (MappedGrid, SolutionField, quadrature_weights,
                          solve_dirichlet)

__all__ = [
    "GradientField",
    "BoundReport",
    "RateFit",
    "SweepProblem",
    "AnalysisError",
    "gradient",
    "correction_field",
    "sup_bound_constant",
    "centerline_lower_constant",
    "energy",
    "local_energy_profile",
    "pointwise_w_check",
    "analyze_solution",
    "sweep_grid",
    "sweep_member",
    "sweep_and_fit",
    "fit_rate",
    "superposition_check",
]


class AnalysisError(RuntimeError):
    pass


@dataclass
class GradientField:
    values: np.ndarray       # (N, n, *dims) physical derivatives
    grid: MappedGrid
    solution: SolutionField  # the field the gradient was taken of

    def norm(self):
        """Pointwise Euclidean norm over components and directions, shape dims."""
        return np.sqrt((self.values**2).sum(axis=(0, 1)))

    def l2_of_field(self):
        """Jacobian-weighted L2 norm of the underlying field over the grid box."""
        w = quadrature_weights(self.grid)
        v = self.solution.values.reshape(self.solution.values.shape[0], -1)
        return float(np.sqrt(((v**2) * w).sum()))


def gradient(solution, grid=None):
    """Physical-space gradient of a nodal field by mapped central differences.

    Interior stencils are second-order central in the computational
    coordinates (np.gradient with edge_order=2, one-sided second order at
    the boundary rows), combined with the exact metric: d/dxn = (1/delta)
    d/dt and d/dx_a = d/dx_a|comp - (dT_a/delta) d/dt.
    """
    if grid is None:
        grid = solution.grid
    vals = solution.values
    N = vals.shape[0]
    nd = grid.nd
    n = grid.n
    delta = grid.reshape(grid.delta_flat)
    dT = [grid.reshape(grid.dT_flat[a]) for a in range(nd)]
    out = np.zeros((N, n) + grid.dims)
    for j in range(N):
        comp = [np.gradient(vals[j], grid.hx[d], axis=d, edge_order=2)
                for d in range(nd + 1)]
        dn = comp[nd] / delta
        for a in range(nd):
            out[j, a] = comp[a] - dT[a] * dn
        out[j, nd] = dn
    return GradientField(values=out, grid=grid, solution=solution)


def correction_field(solution, data):
    """w = u - utilde as a nodal field on the same grid."""
    grid = solution.grid
    aux = AuxiliaryEvaluator(grid.region, data)
    ut = aux.utilde_values(grid.points).reshape(solution.values.shape)
    return SolutionField(values=solution.values - ut, grid=grid,
                         residual=solution.residual, method="derived")


def _mismatch_norms(data, tang):
    """Euclidean and max-component mismatch magnitude at tangential points."""
    sq = np.zeros(len(tang))
    mx = np.zeros(len(tang))
    for l in range(data.N):
        m = data.mismatch_poly(l).value_many(tang)
        sq += m**2
        mx = np.maximum(mx, np.abs(m))
    return np.sqrt(sq), mx


def _norm_budget(data, gradfield):
    return (data.c2_norm("plus") + data.c2_norm("minus")
            + gradfield.l2_of_field())


def sup_bound_constant(gradfield, data, region, R0=0.25):
    """Smallest C with |grad u| <= C*mismatch/(eps+|x'|^2) + C*norm budget
    on |x'| <= R0; the budget is the data C2 norms plus the solution's L2
    norm over the solve box.
    """
    grid = gradfield.grid
    gn = gradfield.norm().ravel()
    r2 = (grid.tang**2).sum(axis=-1)
    mask = r2 <= R0**2 + 1e-15
    mm, _ = _mismatch_norms(data, grid.tang)
    kernel = mm / (region.epsilon + r2)
    den = kernel + _norm_budget(data, gradfield)
    ratios = gn[mask] / den[mask]
    return float(ratios.max())


def centerline_lower_constant(gradfield, data, region):
    """min over the center column of |grad u|*eps/mismatch, or None when all
    components match at the origin (the lower bound then says nothing)."""
    zero = np.zeros((1, data.nd))
    _, mx = _mismatch_norms(data, zero)
    if mx[0] == 0.0:
        return None
    grid = gradfield.grid
    gn = gradfield.norm()
    col = gn[grid.center_index()]
    return float(col.min() * region.epsilon / mx[0])


def _window_mask(grid, x0_prime, s):
    """Nodes with |x' - x0'| < s intersected with |x'| <= r_analyze."""
    x0 = np.zeros(grid.nd) if x0_prime is None else np.asarray(x0_prime, dtype=float)
    d2 = ((grid.tang - x0[None, :]) ** 2).sum(axis=-1)
    r2 = (grid.tang**2).sum(axis=-1)
    return (d2 < s**2) & (r2 <= grid.region.r_analyze**2 + 1e-15)


def energy(gradfield, window=None, refine=513):
    """Jacobian-weighted integral of |grad field|^2.

    window=None integrates over the half region |x'| <= r_analyze; otherwise
    window is (x0_prime, s) and the integral runs over the vertical slab
    |x' - x0'| < s intersected with the half region.  Slab windows can be
    narrower than a tangential spacing at small eps, so for n=2 the column
    density delta(x1)*int_t |grad|^2 dt is interpolated onto a refined
    tangential sampling before the trapezoid sum; the no-window case takes
    the same path with the slab widened past r_analyze, so a wide window
    and the half-region integral agree exactly.  For n=3 a masked node sum
    is used.
    """
    grid = gradfield.grid
    dens2 = (gradfield.values**2).sum(axis=(0, 1))
    if grid.nd == 1:
        if window is None:
            c, s = 0.0, np.inf
        else:
            x0, s = window
            c = 0.0 if x0 is None else float(np.asarray(x0).ravel()[0])
        ra = grid.region.r_analyze
        lo = max(c - s, -ra, grid.axes[0][0])
        hi = min(c + s, ra, grid.axes[0][-1])
        if hi <= lo:
            return 0.0
        q = np.trapezoid(dens2, dx=grid.hx[1], axis=1)
        q = q * grid.reshape(grid.delta_flat)[:, 0]
        xs = np.linspace(lo, hi, refine)
        return float(np.trapezoid(np.interp(xs, grid.axes[0], q), xs))
    dens = dens2.ravel()
    w = quadrature_weights(grid)
    if window is None:
        mask = (grid.tang**2).sum(axis=-1) <= grid.region.r_analyze**2 + 1e-15
    else:
        x0, s = window
        mask = _window_mask(grid, x0, s)
    return float((dens * w * mask).sum())


def local_energy_profile(gradfield, x0_prime, t_list):
    """[(t, F(t))] with F(t) the window energy about x0'; monotone in t."""
    return [(float(t), energy(gradfield, window=(x0_prime, float(t))))
            for t in t_list]


def pointwise_w_check(gradfield_w, data, region, R0=0.25):
    """Empirical constants of the two-regime pointwise bound on |grad w|.

    m_inner: max of |grad w|*sqrt(eps)/(mismatch + budget) over |x'| <= sqrt(eps);
    m_outer: max of |grad w|*|x'|/(mismatch + budget) over sqrt(eps) < |x'| <= R0.
    Either is None when its band contains no grid column.
    """
    grid = gradfield_w.grid
    gn = gradfield_w.norm().ravel()
    r = np.sqrt((grid.tang**2).sum(axis=-1))
    se = math.sqrt(region.epsilon)
    mm, _ = _mismatch_norms(data, grid.tang)
    budget = _norm_budget(data, gradfield_w)
    den = mm + budget
    inner = r <= se + 1e-15
    outer = (r > se) & (r <= R0 + 1e-15)
    m_inner = float((gn[inner] * se / den[inner]).max()) if inner.any() else None
    m_outer = float((gn[outer] * r[outer] / den[outer]).max()) if outer.any() else None
    return m_inner, m_outer


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
    scenario: str = ""

    def lemma_constants(self):
        return {"k213": self.k213, "k219": self.k219, "k220": self.k220,
                "k225": self.k225, "k226": self.k226}


def _sup_grad(grad_u, R0):
    """max |grad u| over the nodes with |x'| <= R0."""
    gn = grad_u.norm().ravel()
    r2 = (grad_u.grid.tang**2).sum(axis=-1)
    return float(gn[r2 <= R0**2 + 1e-15].max())


def analyze_solution(solution, data, region, R0=0.25, scenario="", grad_u=None):
    """Full per-epsilon report: gradient bounds for u, energy and pointwise
    bounds for the correction w.  ``grad_u`` is gradient(solution) when the
    caller already has it."""
    grid = solution.grid
    eps = region.epsilon
    if grad_u is None:
        grad_u = gradient(solution)
    w = correction_field(solution, data)
    grad_w = gradient(w)

    sup_grad = _sup_grad(grad_u, R0)
    C_emp = sup_bound_constant(grad_u, data, region, R0)
    c_low = centerline_lower_constant(grad_u, data, region)

    energy_half = energy(grad_w)
    delta0 = eps  # profiles vanish at the origin, so delta(0') = eps
    F_delta0 = energy(grad_w, window=(None, delta0))

    c2p, c2m = data.c2_norm("plus"), data.c2_norm("minus")
    wl2 = grad_w.l2_of_field()
    budget2 = c2p**2 + c2m**2 + wl2**2
    k213 = energy_half / (wl2**2 + c2p**2 + c2m**2)

    zero = np.zeros((1, data.nd))
    _, mx0 = _mismatch_norms(data, zero)
    nd = grid.nd
    k219 = F_delta0 / (eps ** (nd) * (mx0[0] ** 2 + eps * budget2)) \
        if (mx0[0] ** 2 + eps * budget2) > 0 else 0.0
    # outer window at |x0'| = 2 sqrt(eps) along the first axis, when the
    # band sqrt(eps) < |x0'| <= r_analyze reaches that far
    se = math.sqrt(eps)
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

    k225, k226 = pointwise_w_check(grad_w, data, region, R0)

    return BoundReport(
        epsilon=eps, sup_grad=sup_grad, C_emp=C_emp, c_low=c_low,
        energy_half=energy_half, F_delta0=F_delta0,
        k213=k213, k219=k219, k220=k220, k225=k225, k226=k226,
        grid=(grid.nx, grid.nt), R0=R0, scenario=scenario,
    )


@dataclass
class RateFit:
    points: list            # [(eps, metric value)]
    slope: float
    intercept: float
    r2: float
    metric: str = ""
    conclusive: bool = True
    reports: list = field(default_factory=list)


def fit_rate(points, metric=""):
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
                   metric=metric, conclusive=bool(r2 >= 0.98))


@dataclass
class SweepProblem:
    """Everything an epsilon sweep needs except epsilon itself."""
    op: object
    profile: object
    data: object
    n: int = 2
    r_solve: float = 1.0
    r_analyze: float = 0.5
    lateral_closure: str = "utilde"
    R0: float = 0.25
    nt: int = 33
    nx_base: int = 45
    eps_base: float = 0.1
    nx_cap: int = 129
    richardson_tol: float = 0.02
    scenario: str = ""
    tol: float = 1e-10
    method: str | None = None

    def region(self, eps):
        return NarrowRegion(n=self.n, epsilon=eps, profile=self.profile,
                            r_solve=self.r_solve, r_analyze=self.r_analyze)


def sweep_grid(eps, nx_base=45, eps_base=0.1, cap=129):
    """Tangential resolution growing like 1/sqrt(eps), kept odd and capped.

    The sqrt scaling tracks the width of the transition band |x'| ~ sqrt(eps)
    that the two-regime pointwise bounds hinge on.
    """
    nx = int(round(nx_base * math.sqrt(eps_base / eps)))
    nx = min(nx, cap)
    if nx % 2 == 0:
        nx += 1
    return max(nx, 9)


def _metric_value(grad_u, metric, R0):
    if metric == "center_grad":
        return float(grad_u.norm()[grad_u.grid.center_index()].max())
    if metric == "sup_grad":
        return _sup_grad(grad_u, R0)
    raise AnalysisError(f"unknown metric {metric!r}")


def _solve_one(problem, eps, nx, nt):
    grid = MappedGrid(problem.region(eps), nx, nt)
    return solve_dirichlet(problem.op, grid, problem.data,
                           lateral_closure=problem.lateral_closure,
                           tol=problem.tol, method=problem.method)


def sweep_member(problem, eps, metric="center_grad", nx=None):
    """Solve one sweep member with an a-posteriori Richardson check.

    The metric is recomputed on a half-resolution grid; a drift beyond
    richardson_tol means the member is not trustworthy at this resolution
    and raises.  Returns (metric value, BoundReport).
    """
    if nx is None:
        nx = sweep_grid(eps, problem.nx_base, problem.eps_base, problem.nx_cap)
    sol = _solve_one(problem, eps, nx, problem.nt)
    grad_u = gradient(sol)
    report = analyze_solution(sol, problem.data, sol.grid.region, problem.R0,
                              problem.scenario, grad_u=grad_u)
    value = _metric_value(grad_u, metric, problem.R0)

    nx_c = max(9, (nx // 2) | 1)
    nt_c = max(9, (problem.nt // 2) | 1)
    sol_c = _solve_one(problem, eps, nx_c, nt_c)
    value_c = _metric_value(gradient(sol_c), metric, problem.R0)
    drift = abs(value - value_c) / abs(value) if value != 0 else abs(value_c)
    if drift > problem.richardson_tol:
        raise AnalysisError(
            f"Richardson check failed at eps={eps:g}: {metric} moved "
            f"{drift:.1%} between ({nx_c},{nt_c}) and ({nx},{problem.nt})")
    return value, report


def sweep_and_fit(problem, eps_list, metric="center_grad"):
    """Solve each epsilon on its sweep grid, Richardson-check the metric
    against a half-resolution solve, and fit the log-log rate."""
    eps_list = sorted(eps_list, reverse=True)
    points, reports = [], []
    for eps in eps_list:
        value, report = sweep_member(problem, eps, metric)
        points.append((eps, value))
        reports.append(report)
    fit = fit_rate(points, metric=metric)
    fit.reports = reports
    return fit


def superposition_check(op, region, data, grid, lateral_closure="utilde", tol=1e-10):
    """Max-norm gap between the full solve and the sum of component solves."""
    full = solve_dirichlet(op, grid, data, lateral_closure=lateral_closure, tol=tol)
    total = np.zeros_like(full.values)
    for l in range(data.N):
        part = solve_dirichlet(op, grid, data.component(l),
                               lateral_closure=lateral_closure, tol=tol)
        total += part.values
    return float(np.abs(full.values - total).max())
