"""Independent oracles: manufactured problems and grid-convergence studies.

The manufactured fields are separable in the computational coordinates
(x', t): each component is a sum of products of per-coordinate factors,
polynomial in the tangential directions and polynomial or trigonometric in
t.  Physical-space derivatives come from auxiliary.chain_rule through
t = (x_n - bottom)/delta, whose jets geometry.vertical_jets gives in closed
form, so the induced source f* = L u* is exact up to rounding.  A
separate nested finite-difference application of the operator, working
purely in physical coordinates with its own stencils, cross-checks f*
without sharing any code with the assembly path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import chain_rule
from .geometry import vertical_coordinate, vertical_jets
from .mesh_solver import MappedGrid, assemble, quadrature_weights, solve_system
from .operators import apply_operator_jets

__all__ = [
    "Factor1D",
    "SeparableField",
    "ManufacturedProblem",
    "ConvergenceStudy",
    "manufactured_problem",
    "fd_apply_operator",
    "convergence_study",
]


class Factor1D:
    """One factor of a separable field: polynomial coefficients (low order
    first) or a trigonometric wave sin/cos(freq*s + phase).  Jets are closed
    form through second order.
    """

    def __init__(self, kind, coeffs=None, freq=1.0, phase=0.0):
        if kind not in ("poly", "sin", "cos"):
            raise ValueError(f"unknown factor kind {kind!r}")
        self.kind = kind
        self.coeffs = tuple(float(c) for c in (coeffs or ()))
        self.freq = float(freq)
        self.phase = float(phase)

    def jet(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "poly":
            c = np.array(self.coeffs if self.coeffs else (0.0,))
            d1 = np.polynomial.polynomial.polyder(c)
            d2 = np.polynomial.polynomial.polyder(c, 2)
            pv = np.polynomial.polynomial.polyval
            return pv(s, c), pv(s, d1) if len(d1) else np.zeros_like(s), \
                pv(s, d2) if len(d2) else np.zeros_like(s)
        arg = self.freq * s + self.phase
        w = self.freq
        if self.kind == "sin":
            return np.sin(arg), w * np.cos(arg), -w * w * np.sin(arg)
        return np.cos(arg), -w * np.sin(arg), -w * w * np.cos(arg)


class SeparableField:
    """Sum of products of per-coordinate factors over (x_1..x_{n-1}, t)."""

    def __init__(self, n, terms):
        # terms: list of (coef, (factor_0, ..., factor_{n-1})), one factor
        # per computational coordinate, t last
        self.n = n
        self.terms = []
        for coef, factors in terms:
            if len(factors) != n:
                raise ValueError(f"need {n} factors per term, got {len(factors)}")
            self.terms.append((float(coef), tuple(factors)))

    def jets(self, comp_points):
        """Value, gradient and Hessian w.r.t. the computational coordinates.

        comp_points: (M, n) with t in the last slot.  Returns (M,), (n, M),
        (n, n, M).
        """
        pts = np.asarray(comp_points, dtype=float)
        M, n = pts.shape
        val = np.zeros(M)
        grad = np.zeros((n, M))
        hess = np.zeros((n, n, M))
        for coef, factors in self.terms:
            jets = [f.jet(pts[:, d]) for d, f in enumerate(factors)]

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
        return val, grad, hess


@dataclass
class ManufacturedProblem:
    op: object
    region: object
    fields: tuple  # SeparableField per component

    def jets(self, points):
        """Values, physical gradients and Hessians of u* at physical points,
        shapes (N, M), (N, n, M) and (N, n, n, M): the jets of each field in
        (x', t) carried to x by auxiliary.chain_rule."""
        tang, t = vertical_coordinate(self.region, points)
        tjets = vertical_jets(self.region, tang, t)
        comp = np.concatenate([tang, t[:, None]], axis=-1)
        vals, grads, hesss = [], [], []
        for f in self.fields:
            V, G, H = f.jets(comp)
            grad, hess = chain_rule(G, H, *tjets)
            vals.append(V)
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
        shape = (len(self.fields),) + grid.dims
        return jets[0].reshape(shape), source.reshape(shape)


def manufactured_problem(op, region, u_star_spec):
    """Build a ManufacturedProblem from a term-list specification.

    u_star_spec: per component, a list of (coef, factor_specs) where each
    factor spec is ("poly", c0, c1, ...), ("sin", freq[, phase]) or
    ("cos", freq[, phase]), one per computational coordinate with t last.
    """
    if len(u_star_spec) != op.N:
        raise ValueError(f"expected {op.N} components, got {len(u_star_spec)}")
    fields = []
    for comp in u_star_spec:
        terms = []
        for coef, fspecs in comp:
            factors = []
            for fs in fspecs:
                kind = fs[0]
                if kind == "poly":
                    factors.append(Factor1D("poly", coeffs=fs[1:]))
                elif kind in ("sin", "cos"):
                    freq = fs[1] if len(fs) > 1 else 1.0
                    phase = fs[2] if len(fs) > 2 else 0.0
                    factors.append(Factor1D(kind, freq=freq, phase=phase))
                else:
                    raise ValueError(f"unknown factor spec {fs!r}")
            terms.append((coef, factors))
        fields.append(SeparableField(region.n, terms))
    return ManufacturedProblem(op=op, region=region, fields=tuple(fields))


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


def convergence_study(problem, grid_list, tol=1e-10):
    """Solve the manufactured problem on each grid and report errors.

    grid_list: (nx, nt) pairs with nx strictly increasing, else ValueError
    before any solve.  Errors are nodal L-infinity and Jacobian-weighted L2
    against u*; the order between successive grids is log2 of their error
    ratio over log2 of their refinement ratio (nx_{k+1} - 1)/(nx_k - 1).
    ``tol`` goes to solve_system.
    """
    nxs = [nx for nx, _ in grid_list]
    if any(b <= a for a, b in zip(nxs, nxs[1:])):
        raise ValueError(f"grids must strictly increase in nx, got {nxs}")
    steps = [math.log2((b - 1) / (a - 1)) for a, b in zip(nxs, nxs[1:])]
    region = problem.region
    errors_inf, errors_l2, grids = [], [], []
    for nx, nt in grid_list:
        grid = MappedGrid(region, nx, nt)
        exact, src = problem.nodal_fields(grid)
        system = assemble(problem.op, grid, exact, source=src)
        sol = solve_system(system, tol=tol)
        diff = sol.values - exact
        errors_inf.append(float(np.abs(diff).max()))
        w = quadrature_weights(grid)
        errors_l2.append(float(np.sqrt((diff.reshape(len(problem.fields), -1) ** 2 * w).sum())))
        grids.append((nx, nt))
    orders_inf = [math.log2(errors_inf[k] / errors_inf[k + 1]) / steps[k]
                  for k in range(len(steps))]
    orders_l2 = [math.log2(errors_l2[k] / errors_l2[k + 1]) / steps[k]
                 for k in range(len(steps))]
    monotone = all(errors_inf[k + 1] < errors_inf[k] for k in range(len(errors_inf) - 1))
    return ConvergenceStudy(grids=grids, errors_inf=errors_inf, errors_l2=errors_l2,
                            orders_inf=orders_inf, orders_l2=orders_l2,
                            monotone=monotone)
