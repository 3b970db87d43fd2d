"""Mapped-grid finite differences for the thin-domain Dirichlet problem.

The vertical coordinate is t = (xn - bottom(x')) / delta(x'), so the domain
becomes the unit box in (x', t) and the gap thickness moves into the metric.
Each tangential axis is mapped as well: x_a = X(xi_a) with xi_a uniform, the
same one-dimensional stretching X on every axis (tangential_map).  It is the
identity for eps >= EPS_BASE and clusters nodes at x' = 0 below.  With
T(x', t) = bottom + t*delta the physical derivatives of a field known in
computational coordinates are

    d/dxn     = (1/delta) d/dt
    d/dx_a    = (1/X'_a) d/dxi_a - (dT_a/delta) d/dt,   dT_a = d bottom/dx_a + t d delta/dx_a.

The divergence-form operator transforms conservatively: multiplying by the
Jacobian J = delta * prod_b X'_b, the equation becomes
sum_a dG_a/dxi_a + dG_t/dt + J*(lower order) = J*f with computational
fluxes G_a = delta * prod_{b != a} X'_b * F_a (tangential) and
G_t = prod_b X'_b * (F_n - sum_a dT_a F_a), where F are the physical
fluxes A du + B u.  Every metric factor is diagonal per axis, so the
stencils and the unknown ordering do not depend on the map.  Assembly
discretizes each G at cell faces with compact differences in the face
direction and averaged central differences across it, then differences the
fluxes back to nodes: second order, exact for fields linear in the
computational coordinates.  Only interior nodes get equations; the Dirichlet
values of the boundary nodes enter through the coupling block A_IB.

Every factorization is one banded LU (LAPACK dgbtrf).  In 2-D it factors
all of A_II.  In 3-D BiCGSTAB solves A_II, right-preconditioned by the band
LU of the vertical column blocks: no restart and no coarse level.  It starts
from the column interpolant utilde, linear in t between each column's
boundary values, which carries the 1/eps gradient of the solution u =
utilde + w, so the iterations only have to find the bounded correction w.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .geometry import GeometryError

__all__ = [
    "MappedGrid",
    "LinearSystem",
    "SolutionField",
    "SolverError",
    "assemble",
    "solve_system",
    "solve_dirichlet",
    "quadrature_weights",
    "tangential_map",
]

# iteration cap of the 3-D BiCGSTAB
KRYLOV_MAX_ITERS = 500
# the tangential map is the identity for eps >= EPS_BASE.  Below, its
# spacing at x' = 0 is (eps/EPS_BASE)^GRADING times the uniform one and stays
# close to that over a core |x'| < CORE*sqrt(eps) (tangential_map)
EPS_BASE = 0.1
GRADING = 1.0
CORE = 1.2


class SolverError(RuntimeError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])

    def __reduce__(self):
        # keep the history when a sweep worker process sends the error back
        return SolverError, (str(self), self.residual_history)


def tangential_map(xi, r, eps):
    """x' = X(xi) and its slope X'(xi) on [-r, r] for gap width ``eps``.

    X(xi) = r F(xi)/F(r) with F(xi) = xi - s w tanh(xi/w): odd, increasing
    and fixing 0 and +-r exactly.  X' = r (1 - s sech^2(xi/w))/F(r) is
    c = (eps/EPS_BASE)^GRADING at the centre (s is chosen so) and rises to a
    constant over |xi| ~ w = CORE sqrt(eps)/c.  So the spacing is about c
    times the uniform one over the core |x'| < CORE sqrt(eps), where the
    window |x'| < eps and the transition band |x'| ~ sqrt(eps) lie, and 1.4
    (eps = 0.05) to 2.6 (eps = 0.00625) times the uniform one near +-r for
    r = 1.  For eps >= EPS_BASE (c >= 1) X is exactly the identity: ``xi``
    itself and X' = 1.  A one-dimensional stretching function in the sense
    of Vinokur (J. Comput. Phys. 50, 1983).

    >>> xi = np.linspace(-1.0, 1.0, 5)
    >>> tangential_map(xi, 1.0, 0.1)[0] is xi
    True
    >>> x, dx = tangential_map(xi, 1.0, 0.025)
    >>> print(np.round(x, 4), np.round(dx, 4))
    [-1.   -0.26  0.    0.26  1.  ] [1.8924 0.9803 0.25   0.9803 1.8924]
    """
    c = (eps / EPS_BASE) ** GRADING
    if c >= 1.0:
        return xi, np.ones_like(xi)
    w = CORE * math.sqrt(eps) / c
    s = r * (1.0 - c) / (r - c * w * math.tanh(r / w))
    th = np.tanh(xi / w)
    # the same operations as F at xi = r, so that X(+-r) = +-r exactly
    f_r = r - s * w * np.tanh(r / w)
    return r * ((xi - s * w * th) / f_r), r * ((1.0 - s * (1.0 - th * th)) / f_r)


class MappedGrid:
    """Tensor grid over (x', t) in [-r_solve, r_solve]^(n-1) x [0, 1].

    nx nodes per tangential direction, nt vertical levels, both odd so the
    center column x' = 0 and the mid level t = 1/2 are nodes.  The nodes are
    uniform in (xi, t); each tangential axis holds x' = X(xi) of
    tangential_map, which depends on the region only (its epsilon and
    r_solve), so every grid of one region shares the map.  ``xi`` are the
    computational tangential nodes, ``axes`` the physical node coordinates,
    ``hx`` the uniform computational spacings, ``dX`` X' at the nodes,
    ``faces`` X at the cell faces xi_{i+1/2} and ``dX_faces`` X' there.
    Caches the gap geometry and metric arrays every consumer needs.
    """

    def __init__(self, region, nx, nt):
        self.check_nodes("nx", nx)
        self.check_nodes("nt", nt)
        self.region = region
        self.nx = int(nx)
        self.nt = int(nt)
        nd = region.nd
        self.nd = nd
        self.n = region.n
        self.dims = (self.nx,) * nd + (self.nt,)
        r, eps = region.r_solve, region.epsilon
        self.xi = np.linspace(-r, r, nx)
        x, self.dX = tangential_map(self.xi, r, eps)
        self.faces, self.dX_faces = tangential_map(
            0.5 * (self.xi[:-1] + self.xi[1:]), r, eps)
        self.axes = [x] * nd + [np.linspace(0.0, 1.0, nt)]
        self.hx = [self.xi[1] - self.xi[0]] * nd + [self.axes[nd][1] - self.axes[nd][0]]

        # delta, bottom, their slopes and X' depend on x' only: evaluate them
        # once per column and repeat over the levels
        self._columns = _column_values(region, self.axes[:nd], [self.dX] * nd)
        self.tang, self.tvals, self.delta_flat, self.xn_flat, self.dT_flat, \
            self.dX_flat = _stack_levels(self._columns, self.axes[nd])
        self.points = np.concatenate([self.tang, self.xn_flat[:, None]], axis=-1)

        idx = np.unravel_index(np.arange(self.nodes), self.dims)
        bnd = np.zeros(self.nodes, dtype=bool)
        for d in range(nd):
            bnd |= (idx[d] == 0) | (idx[d] == self.dims[d] - 1)
        self.lateral_mask = bnd.copy()
        self.bottom_mask = idx[nd] == 0
        self.top_mask = idx[nd] == self.nt - 1
        bnd |= self.bottom_mask | self.top_mask
        self.boundary_mask = bnd
        self.interior_mask = ~bnd

    @staticmethod
    def check_nodes(name, m):
        """Raise GeometryError unless ``m`` nodes can span one axis."""
        if m < 9 or m % 2 == 0:
            raise GeometryError(f"{name} must be odd and >= 9, got {m}")

    @property
    def nodes(self):
        return int(np.prod(self.dims))

    def reshape(self, flat):
        return np.asarray(flat).reshape(self.dims)

    def center_index(self):
        return (self.nx // 2,) * self.nd

    @property
    def jacobian_flat(self):
        """delta * prod_a X'_a at every node: dx = jacobian dxi dt."""
        return self.delta_flat * np.prod(self.dX_flat, axis=0)


def _column_values(region, tang_axes, stretch_axes):
    """The C-ordered tensor columns over ``tang_axes`` with delta, bottom,
    d bottom/dx_a, d delta/dx_a and the map's X'_a (``stretch_axes``, one
    1-D array per axis) there."""
    grids = np.meshgrid(*tang_axes, indexing="ij")
    cols = np.stack([g.ravel() for g in grids], axis=-1)  # (columns, nd)
    delta, bottom = region.delta_poly, region.bottom_poly
    nd = len(tang_axes)
    return (cols, delta.value_many(cols), bottom.value_many(cols),
            [bottom.deriv(a).value_many(cols) for a in range(nd)],
            [delta.deriv(a).value_many(cols) for a in range(nd)],
            [g.ravel() for g in np.meshgrid(*stretch_axes, indexing="ij")])


def _stack_levels(columns, tax):
    """Column values repeated over the levels ``tax``, t fastest: flattened
    tangential points, t, delta, xn = bottom + t*delta, dT (nd, M) with
    dT_a = d bottom/dx_a + t d delta/dx_a, and X' (nd, M)."""
    cols, delta_c, bottom_c, dbottom_c, ddelta_c, dX_c = columns
    m = len(tax)
    tvals = np.tile(tax, len(cols))
    delta = np.repeat(delta_c, m)
    xn = np.repeat(bottom_c, m) + tvals * delta
    dT = np.stack([np.repeat(db, m) + tvals * np.repeat(dd, m)
                   for db, dd in zip(dbottom_c, ddelta_c)], axis=0)
    dX = np.stack([np.repeat(g, m) for g in dX_c], axis=0)
    return np.repeat(cols, m, axis=0), tvals, delta, xn, dT, dX


def quadrature_weights(grid):
    """Flattened trapezoid weights in (xi, t) times the Jacobian
    delta(x') * prod_a X'_a, so that (w * field).sum() approximates the
    physical-domain integral."""
    w = np.ones(grid.dims)
    ndim = len(grid.dims)
    for d in range(ndim):
        wd = np.full(grid.dims[d], grid.hx[d])
        wd[0] *= 0.5
        wd[-1] *= 0.5
        shape = [1] * ndim
        shape[d] = grid.dims[d]
        w = w * wd.reshape(shape)
    return w.ravel() * grid.jacobian_flat


@dataclass
class LinearSystem:
    """The interior system A_II x_I = b_I - A_IB b_B of one Dirichlet
    problem, unknowns in (tangential column, t, component) order."""
    matrix: sp.csr_matrix    # A_II
    coupling: sp.csr_matrix  # A_IB
    rhs: np.ndarray          # b_I
    bc: np.ndarray           # b_B, the boundary values
    grid: MappedGrid
    N: int

    @property
    def unknowns(self):
        return self.matrix.shape[0]


@dataclass
class SolutionField:
    values: np.ndarray  # (N, *dims)
    grid: MappedGrid
    residual: float
    method: str
    iterations: int = 0

    @property
    def N(self):
        return self.values.shape[0]


def _face_geometry(grid, a):
    """Coordinates and metric arrays at the faces of family ``a``.

    a is a dim index (tangential 0..nd-1, or nd for the vertical family).
    Returns flattened face physical points, delta, dT and X' (nd, M) in
    C-order over the face grid (the node grid with one node fewer along a).
    Tangential faces sit at x_a = X(xi_{i+1/2}), with X'_a taken there.
    Vertical faces sit on the node columns, so they reuse the grid's column
    values.
    """
    nd = grid.nd
    tax = grid.axes[nd]
    if a < nd:
        axes, stretch = list(grid.axes[:nd]), [grid.dX] * nd
        axes[a], stretch[a] = grid.faces, grid.dX_faces
        columns = _column_values(grid.region, axes, stretch)
    else:
        columns = grid._columns
        tax = 0.5 * (tax[:-1] + tax[1:])
    tang, _, delta, xn, dT, dX = _stack_levels(columns, tax)
    points = np.concatenate([tang, xn[:, None]], axis=-1)
    return points, delta, dT, dX


def boundary_values(grid, data, lateral_closure="utilde"):
    """The interpolant utilde = g- + t*(g+ - g-) of the traces at every node,
    shape (N, nodes), with g+ and g- evaluated once per tangential column.

    The vertical coordinate makes the interpolant linear in t, so this is
    exact up to rounding, and its rows t = 0 and t = 1 are exactly g- and g+.
    On the lateral columns between those rows the closure applies: ``utilde``
    keeps the interpolant, ``constant`` takes the vertical average
    (g+ + g-)/2.  assemble reads the boundary nodes only; the correction
    field subtracts the whole array.
    """
    if lateral_closure not in ("utilde", "constant"):
        raise ValueError(f"unknown lateral closure {lateral_closure!r}")
    cols = grid.tang[::grid.nt]
    gp = np.stack([g.value_many(cols) for g in data.g_plus])[..., None]
    gm = np.stack([g.value_many(cols) for g in data.g_minus])[..., None]
    ut = gm + grid.axes[grid.nd] * (gp - gm)
    if lateral_closure == "constant":
        lateral = grid.lateral_mask[::grid.nt]
        ut[:, lateral] = 0.5 * (gp + gm)[:, lateral]
    ut[..., 0], ut[..., -1] = gm[..., 0], gp[..., 0]
    return ut.reshape(data.N, grid.nodes)


def _derivative_stencil(e, a, c, h):
    """The computational derivative d/dy_c at the faces of family ``a``
    (between node p and p + e_a) as (offset from p, weight) pairs: a forward
    difference across the face when c == a, else the face average of the
    central differences in c.  ``e`` holds the unit offsets."""
    if c == a:
        return [(0 * e[a], -1.0 / h[a]), (e[a], 1.0 / h[a])]
    w = 0.25 / h[c]
    return [(-e[c], -w), (e[c], w), (e[a] - e[c], -w), (e[a] + e[c], w)]


def _conormal_weight(coeffs, a, points, delta, dT):
    """The weight of the computational flux G_a on a physical flux with
    components ``coeffs[al]`` (al = 0..n-1): delta*F_a for a tangential
    family, F_n - sum_al dT_al F_al for the vertical one."""
    nd = len(dT)
    if a < nd:
        return delta * coeffs[a].value_many(points)
    w = coeffs[nd].value_many(points)
    for al in range(nd):
        w = w - dT[al] * coeffs[al].value_many(points)
    return w


def _computational(W, delta, dT, dX):
    """Weights W_b of the physical derivatives d/dx_b rewritten as weights of
    the computational derivatives d/dxi_a and d/dt, with d/dx_a =
    (1/X'_a) d/dxi_a - (dT_a/delta) d/dt and d/dxn = (1/delta) d/dt."""
    nd = len(dT)
    vertical = W[nd]
    for b in range(nd):
        vertical = vertical - W[b] * dT[b]
    return [W[a] / dX[a] for a in range(nd)] + [vertical / delta]


def assemble(op, grid, data=None, source=None, nodal_bc=None, lateral_closure="utilde"):
    """Assemble the interior system A_II x_I = b_I - A_IB b_B.

    Exactly one of ``data`` (composed boundary traces) or ``nodal_bc``
    (explicit (N, nodes) or (N, *dims) boundary values, used on every
    boundary node) must be given.  ``source`` is an optional nodal field f
    with the equation convention L u = f; it enters b_I multiplied by the
    Jacobian delta * prod_a X'_a.  Interior and boundary unknowns are both
    numbered in (tangential column, t, component) order, so every interior
    column is one contiguous block of N*(nt-2) unknowns.  An interior row
    reaches only the nodes p + o with o in {-1, 0, 1}^n, at most two entries
    of o nonzero; the coefficients of those offsets are accumulated in one
    dense array over the interior nodes and split into A_II and A_IB once.
    The map's factors (module docstring) scale the coefficients, not the
    stencils.
    """
    if op.n != grid.n:
        raise GeometryError("operator dimension does not match the grid")
    if (data is None) == (nodal_bc is None):
        raise ValueError("exactly one of data / nodal_bc must be given")
    if data is not None and data.N != op.N:
        raise ValueError(f"data has {data.N} components, operator wants {op.N}")
    N, nd, n = op.N, grid.nd, grid.n
    dims, h = grid.dims, grid.hx
    e = np.eye(n, dtype=int)
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=n)
               if np.count_nonzero(o) <= 2]
    slot = {o: k for k, o in enumerate(offsets)}
    coef = np.zeros(tuple(m - 2 for m in dims) + (N, len(offsets), N))

    def add(i, j, stencil, K):
        """Add ``weight * K`` at each (offset, weight) of the stencil."""
        if np.any(K):
            for off, w in stencil:
                coef[..., i, slot[tuple(off)], j] += w * K

    has_lower = op.has_lower_order_terms()
    for a in range(n):
        # the faces of family a next to an interior node: every face across
        # a, the interior index along the other directions
        fdims = list(dims)
        fdims[a] -= 1
        sel = tuple(slice(None) if d == a else slice(1, -1) for d in range(n))
        points, delta, dT, dX = _face_geometry(grid, a)
        points = points.reshape(fdims + [n])[sel]
        delta = delta.reshape(fdims)[sel]
        dT = dT.reshape([nd] + fdims)[(slice(None),) + sel]
        dX = dX.reshape([nd] + fdims)[(slice(None),) + sel]
        # G_a carries prod_{b != a} X'_b, G_t all of prod_b X'_b
        scale = np.prod([dX[b] for b in range(nd) if b != a], axis=0)
        upper = tuple(slice(1, None) if d == a else slice(None) for d in range(n))
        lower = tuple(slice(None, -1) if d == a else slice(None) for d in range(n))
        stencils = [_derivative_stencil(e, a, c, h) for c in range(n)]
        for i in range(N):
            for j in range(N):
                W = [scale * _conormal_weight(op.A[i, j, :, b], a, points, delta, dT)
                     for b in range(n)]
                terms = list(zip(stencils, _computational(W, delta, dT, dX)))
                if has_lower:
                    wb = scale * _conormal_weight(op.B[i, j], a, points, delta, dT)
                    terms.append(([(0 * e[a], 0.5), (e[a], 0.5)], wb))
                # (G_a at the upper face - G_a at the lower face) / h_a
                for stencil, K in terms:
                    add(i, j, [(off, w / h[a]) for off, w in stencil], K[upper])
                    add(i, j, [(off - e[a], -w / h[a]) for off, w in stencil], K[lower])

    jacobian = grid.jacobian_flat
    if has_lower:
        inner = (slice(1, -1),) * n
        points = grid.points.reshape(dims + (n,))[inner]
        delta = grid.delta_flat.reshape(dims)[inner]
        jac = jacobian.reshape(dims)[inner]
        dT = grid.dT_flat.reshape((nd,) + dims)[(slice(None),) + inner]
        dX = grid.dX_flat.reshape((nd,) + dims)[(slice(None),) + inner]
        central = [[(-e[c], -0.5 / h[c]), (e[c], 0.5 / h[c])] for c in range(n)]
        for i in range(N):
            for j in range(N):
                W = [jac * op.Cc[i, j, b].value_many(points) for b in range(n)]
                for stencil, K in zip(central, _computational(W, delta, dT, dX)):
                    add(i, j, stencil, K)
                add(i, j, [(0 * e[0], 1.0)], jac * op.D[i, j].value_many(points))

    if nodal_bc is not None:
        bc = np.asarray(nodal_bc, dtype=float).reshape(N, grid.nodes)
    else:
        bc = boundary_values(grid, data, lateral_closure)
    interior = grid.interior_mask
    rhs = np.zeros((N, int(interior.sum())))
    if source is not None:
        src = np.asarray(source, dtype=float).reshape(N, grid.nodes)
        rhs = (jacobian * src)[:, interior]

    matrix, coupling = _split_columns(coef, grid, offsets)
    return LinearSystem(matrix=matrix, coupling=coupling, rhs=rhs.T.ravel(),
                        bc=bc[:, ~interior].T.ravel(), grid=grid, N=N)


def _split_columns(coef, grid, offsets):
    """CSR matrices A_II and A_IB from the offset coefficients ``coef`` of
    shape (*interior dims, N, offsets, N), keeping the nonzero entries."""
    N = coef.shape[-1]
    interior = grid.interior_mask
    rank = np.empty(grid.nodes, dtype=np.int32)
    rank[interior] = np.arange(interior.sum())
    rank[~interior] = np.arange(grid.nodes - interior.sum())
    strides = [int(np.prod(grid.dims[d + 1:])) for d in range(grid.n)]
    nodes = np.flatnonzero(interior)[:, None] + np.asarray(offsets) @ strides
    col = (rank[nodes] * N)[:, None, :, None] + np.arange(N, dtype=np.int32)
    coef = coef.reshape(len(nodes), N, len(offsets), N)
    nonzero = coef != 0

    def pick(inside, ncols):
        keep = nonzero & inside[:, None, :, None]
        indptr = np.zeros(keep.shape[0] * N + 1, dtype=np.int32)
        np.cumsum(keep.reshape(len(indptr) - 1, -1).sum(axis=1), out=indptr[1:])
        return sp.csr_matrix((coef[keep], np.broadcast_to(col, coef.shape)[keep],
                              indptr), shape=(len(indptr) - 1, ncols * N))

    inside = interior[nodes]
    return pick(inside, len(nodes)), pick(~inside, grid.nodes - len(nodes))


def _band_lu(A):
    """LU factorization of the sparse square matrix A stored as one band
    (LAPACK dgbtrf, partial pivoting), its widths kl and ku read from A's
    sparsity.  Returns the solve x = A^-1 b (dgbtrs)."""
    A = A.tocoo(copy=False)
    n = A.shape[0]
    kl = int((A.row - A.col).max(initial=0))
    ku = int((A.col - A.row).max(initial=0))
    # Fortran order, so that dgbtrf factors this array in place
    band = np.zeros((2 * kl + ku + 1, n), order="F")
    band[kl + ku + A.row - A.col, A.col] = A.data
    lu, piv, info = dgbtrf(band, kl, ku, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"band LU failed (dgbtrf info={info}): "
                          f"{'zero pivot' if info > 0 else 'bad argument'}")

    def solve(b):
        x, info = dgbtrs(lu, kl, ku, b, piv)
        if info != 0:
            raise SolverError(f"band solve failed (dgbtrs info={info})")
        return x

    return solve


def _column_blocks(A, block):
    """The entries of A whose row and column lie in the same diagonal block
    of size ``block``."""
    coo = A.tocoo(copy=False)
    same = coo.row // block == coo.col // block
    return sp.coo_matrix((coo.data[same], (coo.row[same], coo.col[same])),
                         shape=A.shape)


def _bicgstab(A, b, M, atol, history, x0):
    """BiCGSTAB for A x = b, right-preconditioned by the fixed map M (van der
    Vorst, SIAM J. Sci. Stat. Comput. 13, 1992; Saad, Iterative Methods for
    Sparse Linear Systems, 2003, Alg. 7.7 applied to A M).

    Starts from x = x0 (updated in place) with the shadow residual rhat =
    r = b - A x0, and returns (x0, True) at once, ``history`` left empty, if
    ||r|| is already at most ``atol``.  Each iteration applies M and A twice:
    a BiCG step along p, then a one-dimensional minimal-residual step along
    s.  The norm of the recurrence residual (not recomputed, and not
    monotone) is appended to ``history`` at every iteration.  Once it is at
    most ``atol``, r is replaced by the recomputed b - A x (van der Vorst &
    Ye, SIAM J. Sci. Comput. 22, 2000), and (x, True) is returned if that is
    at most ``atol`` too.  After KRYLOV_MAX_ITERS iterations, or at a
    breakdown (rhat.v = 0, omega = 0 or a non-finite scalar), returns the
    last iterate unconverged.
    """
    x = x0
    r = b - A @ x
    if np.linalg.norm(r) <= atol:
        return x, True
    rhat = r.copy()
    p = v = np.zeros_like(b)
    rho = alpha = omega = 1.0
    for _ in range(KRYLOV_MAX_ITERS):
        rho, previous = rhat @ r, rho
        p = r + rho / previous * alpha / omega * (p - omega * v)
        phat = M(p)
        v = A @ phat
        rv = rhat @ v
        if rv == 0 or not np.isfinite(rho / rv):
            break
        alpha = rho / rv
        x += alpha * phat
        s = r - alpha * v
        shat = M(s)
        t = A @ shat
        omega = (t @ s) / (t @ t)
        if omega == 0 or not np.isfinite(omega):
            break
        x += omega * shat
        r = s - omega * t
        history.append(np.linalg.norm(r))
        if history[-1] <= atol:
            # the recurrence drifts from b - A x: go on from the true
            # residual unless that has converged too
            r = b - A @ x
            if np.linalg.norm(r) <= atol:
                return x, True
    return x, False


def _column_interpolant(system):
    """The interior unknowns of the column interpolant: in every interior
    column, bottom + t*(top - bottom) between its boundary values at t = 0
    and t = 1, read from ``system.bc`` alone.  For composed traces these are
    the bits of boundary_values at the interior nodes."""
    grid, N = system.grid, system.N
    bc = system.bc.reshape(-1, N)
    # boundary nodes are numbered in node order, as bc is
    rank = np.cumsum(grid.boundary_mask) - 1
    bottom = np.flatnonzero(~grid.lateral_mask[::grid.nt]) * grid.nt
    lo = bc[rank[bottom]][:, None]
    hi = bc[rank[bottom + grid.nt - 1]][:, None]
    t = grid.axes[grid.nd][1:-1, None]
    return (lo + t * (hi - lo)).ravel()


def solve_system(system, tol=1e-10):
    """Solve the interior system A_II x_I = b_I - A_IB b_B.

    In 2-D the band LU factors all of A_II in its (column, t, component)
    order, with kl = ku = N*(nt-1) + N - 1 (``direct``).  In 3-D that band
    would grow like N*(nt-2)*(nx-2), so BiCGSTAB (``_bicgstab``) runs,
    right-preconditioned by the same band LU applied to the vertical column
    blocks (all components along one column in t, band width 2N-1;
    ``krylov``).  The mapped equation couples far more strongly in t than
    across columns, so those blocks carry most of the operator.  BiCGSTAB
    starts from the column interpolant utilde (``_column_interpolant``); the
    iteration count is 0 when utilde already meets ``tol``, as on a flat gap
    with constant traces.

    Returns the solution per component, boundary values included, with the
    relative residual ||b - A x|| / ||b|| on the system's own right-hand side
    b = b_I - A_IB b_B (||b|| read as 1 when b = 0).  The solve is accepted
    if that is at most ``tol``, in either dimension; BiCGSTAB stops once it
    is there.  Otherwise raises SolverError, with the BiCGSTAB recurrence
    residual of every iteration divided by the same ||b||.  A ``tol``
    outside (0, 1), nan and inf included, raises ValueError.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    A = system.matrix
    grid = system.grid
    b = system.rhs - system.coupling @ system.bc
    scale = float(np.linalg.norm(b)) or 1.0
    history = []

    if grid.n == 2:
        method, solver = "direct", "banded LU"
        x = _band_lu(A)(b)
    else:
        method, solver = "krylov", "BiCGSTAB"
        columns = _band_lu(_column_blocks(A, system.N * (grid.nt - 2)))
        x, _ = _bicgstab(A, b, columns, tol * scale, history,
                         _column_interpolant(system))
        history = [h / scale for h in history]

    residual = float(np.linalg.norm(b - A @ x)) / scale
    if not residual <= tol:
        raise SolverError(
            f"{solver} solution residual {residual:.3e} exceeds tolerance "
            f"{tol:.3e}",
            residual_history=history,
        )
    values = np.empty((grid.nodes, system.N))
    values[grid.interior_mask] = x.reshape(-1, system.N)
    values[grid.boundary_mask] = system.bc.reshape(-1, system.N)
    return SolutionField(
        values=values.T.reshape((system.N,) + grid.dims), grid=grid,
        residual=residual, method=method, iterations=len(history),
    )


def solve_dirichlet(op, grid, data, lateral_closure="utilde", tol=1e-10):
    """Assemble-and-solve convenience for the composed-trace problem."""
    system = assemble(op, grid, data=data, lateral_closure=lateral_closure)
    return solve_system(system, tol=tol)
