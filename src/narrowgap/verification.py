"""Independent oracles: manufactured problems and grid-convergence studies.

A manufactured field is its term-list spec: per component, a sum of
coefficients times products of per-coordinate factors in the computational
coordinates (x', t), each factor a polynomial or a sine or cosine wave.
The factors' jets are closed form, and physical-space derivatives come
from auxiliary.chain_rule through t = (x_n - bottom)/delta, whose jets
geometry.vertical_jets gives in closed form, so the induced source
f* = L u* is exact up to rounding.  A separate nested finite-difference
application of the operator, working purely in physical coordinates with
its own stencils, cross-checks f* without sharing any code with the
assembly path."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import chain_rule
from .geometry import vertical_coordinate, vertical_jets
from .mesh_solver import MappedGrid, assemble, quadrature_weights, solve_system
from .operators import apply_operator_jets

__all__ = [
    "ManufacturedProblem",
    "ConvergenceStudy",
    "manufactured_problem",
    "fd_apply_operator",
    "convergence_study",
]


def _factor_jet(spec, s):
    """Value, first and second derivative at ``s`` of one factor spec:
    ("poly", c0, c1, ...) with coefficients low order first, or
    ("sin"|"cos", freq[, phase]) for sin/cos(freq*s + phase)."""
    kind, *args = spec
    if kind == "poly":
        c = np.array(args or [0.0])
        d1 = np.polynomial.polynomial.polyder(c)
        d2 = np.polynomial.polynomial.polyder(c, 2)
        pv = np.polynomial.polynomial.polyval
        return pv(s, c), pv(s, d1) if len(d1) else np.zeros_like(s), \
            pv(s, d2) if len(d2) else np.zeros_like(s)
    w = args[0] if args else 1.0
    arg = w * s + (args[1] if len(args) > 1 else 0.0)
    if kind == "sin":
        return np.sin(arg), w * np.cos(arg), -w * w * np.sin(arg)
    return np.cos(arg), -w * np.sin(arg), -w * w * np.cos(arg)


@dataclass
class ManufacturedProblem:
    op: object
    region: object
    spec: tuple  # per component, a tuple of (coef, factor specs) terms

    def jets(self, points):
        """Values, physical gradients and Hessians of u* at physical points,
        shapes (N, M), (N, n, M) and (N, n, n, M): each component's sum of
        products of factor jets in (x', t), carried to x by
        auxiliary.chain_rule."""
        tang, t = vertical_coordinate(self.region, points)
        tjets = vertical_jets(self.region, tang, t)
        comp = np.concatenate([tang, t[:, None]], axis=-1)
        M, n = comp.shape
        vals, grads, hesss = [], [], []
        for terms in self.spec:
            val = np.zeros(M)
            grad = np.zeros((n, M))
            hess = np.zeros((n, n, M))
            for coef, factors in terms:
                jets = [_factor_jet(fs, comp[:, d]) for d, fs in enumerate(factors)]

                def partial(*axes):
                    # coef times each factor differentiated once per listed axis
                    out = coef * np.ones(M)
                    for k, jet in enumerate(jets):
                        out = out * jet[axes.count(k)]
                    return out

                val += coef * np.prod([j[0] for j in jets], axis=0)
                for d in range(n):
                    grad[d] += partial(d)
                    for e in range(d, n):
                        h = partial(d, e)
                        hess[d, e] += h
                        if e != d:
                            hess[e, d] += h
            grad, hess = chain_rule(grad, hess, *tjets)
            vals.append(val)
            grads.append(grad)
            hesss.append(hess)
        return np.array(vals), np.array(grads), np.array(hesss)

    def nodal_fields(self, grid):
        """(u*, f*) at the grid nodes, shapes (N, *dims), from one
        evaluation of the jets; f* = L u* is exact up to rounding."""
        pts = np.asarray(grid.points, dtype=float)
        jets = self.jets(pts)
        source = np.array(apply_operator_jets(self.op, list(zip(*jets)), np.zeros(len(pts)),
                                              lambda p: p.value_many(pts)))
        shape = (len(self.spec),) + grid.dims
        return jets[0].reshape(shape), source.reshape(shape)


def manufactured_problem(op, region, u_star_spec):
    """Validate a term-list specification into a ManufacturedProblem.

    u_star_spec: per component, a list of (coef, factor_specs) where each
    factor spec is ("poly", c0, c1, ...), ("sin", freq[, phase]) or
    ("cos", freq[, phase]), one per computational coordinate with t last.
    """
    if len(u_star_spec) != op.N:
        raise ValueError(f"expected {op.N} components, got {len(u_star_spec)}")
    for comp in u_star_spec:
        for coef, fspecs in comp:
            if len(fspecs) != region.n:
                raise ValueError(f"need {region.n} factors per term, got {len(fspecs)}")
            for fs in fspecs:
                if fs[0] not in ("poly", "sin", "cos"):
                    raise ValueError(f"unknown factor spec {fs!r}")
    spec = tuple(tuple((coef, tuple(fspecs)) for coef, fspecs in comp)
                 for comp in u_star_spec)
    return ManufacturedProblem(op=op, region=region, spec=spec)


_STENCILS = {
    2: ((-1, -0.5), (1, 0.5)),
    4: ((-2, 1 / 12), (-1, -2 / 3), (1, 2 / 3), (2, -1 / 12)),
}


def _fd_grad(u_func, points, steps, order, N):
    """Central-difference physical gradient of a callable field."""
    pts = np.asarray(points, dtype=float)
    M, n = pts.shape
    out = np.zeros((N, M, n))
    for d in range(n):
        h = steps[d]
        for off, wgt in _STENCILS[order]:
            shifted = pts.copy()
            shifted[:, d] += off * h
            out[:, :, d] += (wgt / h) * u_func(shifted)
    return out


def fd_apply_operator(op, region, u_func, points, h=None, order=4):
    """Apply the divergence-form operator to a callable by nested physical-
    space differences; independent of both the symbolic jets and the solver
    assembly.  u_func maps (M, n) points to (N, M) values.  The vertical
    step scales with the local gap so the stencil stays adapted to the thin
    direction.
    """
    pts = np.asarray(points, dtype=float)
    M, n = pts.shape
    N = op.N
    if h is None:
        h = 5e-3
    delta0 = region.delta_poly.value_many(pts[:, :-1]).min()
    steps = [h] * (n - 1) + [h * min(1.0, delta0)]

    def grad_at(q):
        return _fd_grad(u_func, q, steps, order, N)

    def flux(a):
        # G_a^i(x) = A^{ab}_{ij} d_b u^j + B^a_{ij} u^j at arbitrary points
        def G(q):
            vals = u_func(q)
            grads = grad_at(q)
            out = np.zeros((N, q.shape[0]))
            for i in range(N):
                for j in range(N):
                    for b in range(n):
                        Aab = op.A[i, j, a, b]
                        if not Aab.is_zero():
                            out[i] += Aab.value_many(q) * grads[j, :, b]
                    Ba = op.B[i, j, a]
                    if not Ba.is_zero():
                        out[i] += Ba.value_many(q) * vals[j]
            return out
        return G

    result = np.zeros((N, M))
    for a in range(n):
        Ga = flux(a)
        hstep = steps[a]
        for off, wgt in _STENCILS[order]:
            shifted = pts.copy()
            shifted[:, a] += off * hstep
            result += (wgt / hstep) * Ga(shifted)
    if op.has_lower_order_terms():
        vals = u_func(pts)
        grads = grad_at(pts)
        for i in range(N):
            for j in range(N):
                for b in range(n):
                    Cb = op.Cc[i, j, b]
                    if not Cb.is_zero():
                        result[i] += Cb.value_many(pts) * grads[j, :, b]
                Dij = op.D[i, j]
                if not Dij.is_zero():
                    result[i] += Dij.value_many(pts) * vals[j]
    return result


@dataclass
class ConvergenceStudy:
    grids: list
    errors_inf: list
    errors_l2: list
    orders_inf: list = field(default_factory=list)
    orders_l2: list = field(default_factory=list)
    monotone: bool = True


def convergence_study(problem, sizes, tol=1e-10):
    """Solve the manufactured problem on each m x m grid and report errors.

    sizes: node counts m, strictly increasing, else ValueError before any
    solve.  Errors are nodal L-infinity and Jacobian-weighted L2 against u*;
    the order between successive grids is log2 of their error ratio over
    log2 of their refinement ratio (m_{k+1} - 1)/(m_k - 1).  ``tol`` goes
    to solve_system.
    """
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"grids must strictly increase in nx, got {list(sizes)}")
    steps = [math.log2((b - 1) / (a - 1)) for a, b in zip(sizes, sizes[1:])]
    region = problem.region
    errors_inf, errors_l2 = [], []
    for m in sizes:
        grid = MappedGrid(region, m, m)
        exact, src = problem.nodal_fields(grid)
        system = assemble(problem.op, grid, exact, source=src)
        sol = solve_system(system, tol=tol)
        diff = sol.values - exact
        errors_inf.append(float(np.abs(diff).max()))
        w = quadrature_weights(grid)
        errors_l2.append(float(np.sqrt((diff.reshape(len(diff), -1) ** 2 * w).sum())))
    orders_inf = [math.log2(errors_inf[k] / errors_inf[k + 1]) / steps[k]
                  for k in range(len(steps))]
    orders_l2 = [math.log2(errors_l2[k] / errors_l2[k + 1]) / steps[k]
                 for k in range(len(steps))]
    monotone = all(errors_inf[k + 1] < errors_inf[k] for k in range(len(errors_inf) - 1))
    return ConvergenceStudy(grids=[(m, m) for m in sizes], errors_inf=errors_inf,
                            errors_l2=errors_l2, orders_inf=orders_inf,
                            orders_l2=orders_l2, monotone=monotone)
