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
computational coordinates.  Only interior nodes get equations, each stencil
coefficient summed in its own array and copied into A_II in CSR; the values
b_B of the boundary nodes enter b = b_I - A_IB b_B, so no A_IB is kept.

Every factorization is one banded LU in float32 (LAPACK sgbtrf).  In 2-D it
factors all of A_II, and refinement with float64 residuals restores float64
accuracy; where that stalls above tol, BiCGSTAB preconditioned by the same
LU goes on.  In 3-D BiCGSTAB solves A_II, right-preconditioned by the band
LU of the vertical column blocks: no restart and no coarse level.  It starts
from the column interpolant utilde (_column_interpolant, the one code path
for it), linear in t between each column's boundary values: it carries the
1/eps gradient of u = utilde + w, so the iterations only find the bounded w.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import sgbtrf, sgbtrs

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

# iteration cap of BiCGSTAB
KRYLOV_MAX_ITERS = 500
# entries of A_II copied at a time (_split_columns, _band_lu)
BLOCK = 1 << 14
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
    w = np.ones(())
    for m, h in zip(grid.dims, grid.hx):
        wd = np.full(m, h)
        wd[[0, -1]] *= 0.5
        w = np.multiply.outer(w, wd)
    return w.ravel() * grid.jacobian_flat


@dataclass
class LinearSystem:
    """The interior system A_II x_I = b of one Dirichlet problem, with
    b = b_I - A_IB b_B formed during assembly (no A_IB matrix is kept),
    unknowns in (tangential column, t, component) order."""
    matrix: sp.csr_matrix  # A_II
    b: np.ndarray          # b_I - A_IB b_B
    bc: np.ndarray         # (N, nodes) as given to assemble, b_B on the boundary
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
    The vertical coordinate makes it linear in t, so it is exact up to rounding.

    On the lateral columns between the rows t = 0 and t = 1 the closure
    applies: ``utilde`` keeps the interpolant, ``constant`` takes the
    vertical average (g+ + g-)/2.  assemble reads the boundary nodes only.
    """
    if lateral_closure not in ("utilde", "constant"):
        raise ValueError(f"unknown lateral closure {lateral_closure!r}")
    cols = grid.tang[::grid.nt]
    gm, gp = (np.stack([g.value_many(cols) for g in side])
              for side in (data.g_minus, data.g_plus))
    ut = _column_interpolant(np.stack([gm, gp], axis=-1), grid)
    if lateral_closure == "constant":
        lateral = grid.lateral_mask[::grid.nt]
        ut[:, lateral, 1:-1] = 0.5 * (gp + gm)[:, lateral, None]
    return ut.reshape(data.N, grid.nodes)


def _column_interpolant(values, grid):
    """bottom + t*(top - bottom), shape (N, columns, nt), between the first
    (t = 0) and last (t = 1) entry of each column of ``values``: a nodal
    field, (N, nodes) or (N, *dims), or those two ends, (N, columns, 2).
    Its rows t = 0 and t = 1 are the ends themselves, bit for bit."""
    v = np.reshape(values, (len(values), grid.nodes // grid.nt, -1))
    ut = v[..., :1] + grid.axes[grid.nd] * (v[..., -1:] - v[..., :1])
    ut[..., 0], ut[..., -1] = v[..., 0], v[..., -1]
    return ut


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


def assemble(op, grid, bc, source=None):
    """Assemble the interior system A_II x_I = b with b = b_I - A_IB b_B.

    ``bc`` holds the nodal values, shape (N, nodes) or (N, *dims), of which
    the boundary nodes are the Dirichlet values b_B.  ``source`` is an
    optional nodal field f with the equation convention L u = f; it enters
    b_I multiplied by the Jacobian delta * prod_a X'_a.  Interior and
    boundary unknowns are both numbered in (tangential column, t, component)
    order, so every interior column is one contiguous block of N*(nt-2)
    unknowns.  An interior row reaches only the nodes p + o with o in
    {-1, 0, 1}^n, at most two entries of o nonzero.  Each slot (o, column
    component j, row component i) is summed in its own array over the
    interior nodes, made at its first nonzero term; _split_columns turns
    them into A_II and A_IB b_B.  The map's factors (module docstring)
    scale the coefficients, not the stencils.
    """
    if op.n != grid.n:
        raise GeometryError("operator dimension does not match the grid")
    N, nd, n = op.N, grid.nd, grid.n
    if np.shape(bc) not in ((N, grid.nodes), (N,) + grid.dims):
        raise ValueError(f"bc has shape {np.shape(bc)}, want {(N, grid.nodes)}")
    dims, h = grid.dims, grid.hx
    e = np.eye(n, dtype=int)
    slots = defaultdict(lambda: np.zeros(tuple(m - 2 for m in dims)))

    def add(i, j, stencil, K):
        """Add ``weight * K`` at each (offset, weight) of the stencil."""
        if K.any():
            for off, w in stencil:
                acc = slots[tuple(off.tolist()), j, i]
                acc += w * K

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

    del points, delta, dT, dX, W, terms, K  # the face arrays, before the split
    bc = np.asarray(bc, dtype=float).reshape(N, grid.nodes)
    src = np.zeros_like(bc) if source is None else np.asarray(source, dtype=float)
    rhs = (jacobian * src.reshape(N, grid.nodes))[:, grid.interior_mask]

    matrix, coupled = _split_columns(slots, grid, bc.T)
    return LinearSystem(matrix=matrix, b=(rhs.T - coupled).ravel(), bc=bc,
                        grid=grid, N=N)


def _split_columns(slots, grid, bc):
    """A_II in CSR and A_IB b_B, shape (interior nodes, N), from the slots and
    the nodal values ``bc`` (nodes, N).  Row (node, i) holds the nonzero
    values of its slots (o, j, i) at interior neighbours, in (o, j) order,
    and sums A_IB b_B from 0 in that order, bitwise a CSR product with A_IB.
    The values are copied BLOCK at a time, then the slots freed."""
    N, interior = bc.shape[1], grid.interior_mask
    rank = np.cumsum(interior, dtype=np.int32) - 1
    strides = [int(np.prod(grid.dims[d + 1:])) for d in range(grid.n)]
    base = np.flatnonzero(interior)
    pairs = {pair: c for c, pair in enumerate(sorted({key[:2] for key in slots}))}
    shift, pair_j = np.array([(np.dot(o, strides), j) for o, j in pairs],
                             dtype=np.int32).reshape(-1, 2).T
    inside = interior[shift[:, None] + base]
    outside = [np.flatnonzero(~m) for m in inside]
    keep = np.zeros((len(pairs), N, len(base)), dtype=bool)
    coupled = np.zeros((N, len(base)))
    for o, j, i in sorted(slots):
        c, values = pairs[o, j], slots[o, j, i].ravel()
        rows = outside[c]
        coupled[i][rows] += values[rows] * bc[base[rows] + shift[c], j]
        np.not_equal(values, 0, out=keep[c, i])
    keep &= inside[:, None]
    indptr = np.zeros(len(base) * N + 1, dtype=np.int32)
    np.cumsum(np.add.reduce(keep.view(np.int8), dtype=np.int32).T, out=indptr[1:])
    step = max(1, BLOCK // max(1, keep[..., 0].size))
    ends = [*range(0, len(base), step), len(base)]
    blocks = [(slice(a, b), slice(indptr[a * N], indptr[b * N]), keep[..., a:b])
              for a, b in zip(ends, ends[1:])]
    data = np.empty(indptr[-1])
    for rows, span, mask in blocks:
        values = np.zeros(mask.shape)
        for (o, j, i), v in slots.items():
            values[pairs[o, j], i] = v.ravel()[rows]
        data[span] = values.T[mask.T]
    slots.clear()
    indices = np.empty(len(data), dtype=np.int32)
    for rows, span, mask in blocks:
        col = rank[shift[:, None] + base[rows]] * N + pair_j[:, None]
        indices[span] = np.broadcast_to(col[:, None], mask.shape).T[mask.T]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2), coupled.T


def _band_lu(A, width=None):
    """LU factorization of the entries of the square CSR matrix A within
    ``width`` of the diagonal (all of them by default), stored as one float32
    band (LAPACK sgbtrf, partial pivoting), its widths kl and ku read from
    those entries.  Returns the float64 solve x = A^-1 b (sgbtrs) to float32
    accuracy.  The band is divided by about its largest entry, b by its norm
    (0 stays 0) before the float32 casts, so that a large or small scale of
    A or b neither overflows nor underflows them."""
    def entries():
        """(row - column, column, value) of the entries kept, BLOCK at a time."""
        step = max(1, BLOCK * A.shape[0] // max(A.nnz, 1))
        for start in range(0, A.shape[0], step):
            rows = A.indptr[start:start + step + 1]
            col, val = A.indices[rows[0]:rows[-1]], A.data[rows[0]:rows[-1]]
            below = np.repeat(np.arange(start, start + len(rows) - 1,
                                        dtype=col.dtype), np.diff(rows)) - col
            near = slice(None) if width is None else np.abs(below) <= width
            yield below[near], col[near], val[near]

    kl, ku, top = np.max([(0, 0, 0.0)] + [
        (below.max(initial=0), -below.min(initial=0), np.abs(val).max(initial=0.0))
        for below, _, val in entries()], axis=0)
    # the least power of two above the largest entry: dividing by it is exact
    kl, ku, size = int(kl), int(ku), math.ldexp(1.0, math.frexp(top)[1])
    # Fortran order, so that sgbtrf factors this array in place
    band = np.zeros((2 * kl + ku + 1, A.shape[0]), dtype=np.float32, order="F")
    for below, col, val in entries():
        band[below + (kl + ku), col] = (val / size).astype(np.float32)
    lu, piv, info = sgbtrf(band, kl, ku, overwrite_ab=1)
    # the band is well formed, so sgbtrf fails only at a zero pivot
    if info != 0:
        raise SolverError(f"band LU failed: zero pivot (sgbtrf info={info})")

    def solve(b):
        scale = np.linalg.norm(b) or 1.0
        x, info = sgbtrs(lu, kl, ku, (b / scale).astype(np.float32), piv,
                         overwrite_b=1)
        if info != 0:
            raise SolverError(f"band solve failed (sgbtrs info={info})")
        return np.multiply(x, scale / size, dtype=np.float64)

    return solve


def _refine(A, b, M):
    """Mixed-precision refinement of A x = b with the float32 solve M
    (Buttari et al., Int. J. High Perform. Comput. Appl. 21, 2007): x = M(b),
    then x += M(b - A x), the residual formed in float64, while its norm at
    least halves, which the float64 rounding of A x ends after a few solves.
    Returns the iterate of least residual and the residual norm after every
    solve."""
    x = M(b)
    r = b - A @ x
    history = [np.linalg.norm(r)]
    while history[-1] > 0:
        step = x + M(r)
        r_step = b - A @ step
        history.append(np.linalg.norm(r_step))
        if history[-1] < history[-2]:
            x, r = step, r_step
        if not history[-1] <= 0.5 * history[-2]:
            break
    return x, history


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


def solve_system(system, tol=1e-10):
    """Solve the interior system A_II x_I = b, b = b_I - A_IB b_B.

    In 2-D the band LU factors all of A_II in its (column, t, component)
    order, with kl = ku = N*(nt-1) + N - 1 (``direct``), refined by _refine
    (4 to 14 solves for Laplace and Lame up to lam/mu = 1e4).  Where that
    stalls above ``tol``, as when cond(A) times the float32 rounding nears 1
    (Lame at lam/mu = 1e10 and eps = 1e-5), BiCGSTAB preconditioned by the
    same LU goes on from the refined x (GMRES-IR in Carson & Higham, SIAM J.
    Sci. Comput. 40, 2018, with BiCGSTAB for GMRES).  In 3-D that band
    would grow like N*(nt-2)*(nx-2), so BiCGSTAB (``_bicgstab``) runs,
    right-preconditioned by the same band LU of the entries of A_II within
    2N-1 of the diagonal (``krylov``): exactly the vertical column blocks, as
    a coupling across columns sits at least N*(nt-4) + 1 >= 5N + 1 away
    (nt >= 9, MappedGrid.check_nodes).  The mapped equation couples far more
    strongly in t than across columns, so those blocks carry most of the
    operator.  BiCGSTAB starts from the column interpolant utilde of
    ``system.bc``; the iteration count is 0 when utilde already meets
    ``tol``, as on a flat gap with constant traces.

    Returns the solution per component, boundary values included, with the
    relative residual ||b - A x|| / ||b|| on the system's own right-hand side
    b (||b|| read as 1 when b = 0).  The solve is accepted if that is at
    most ``tol``, in either dimension; BiCGSTAB stops once it is there.
    Otherwise raises SolverError, with the residual history divided by the
    same ||b||: the refinement residual after every solve in 2-D, then the
    BiCGSTAB recurrence residual of every iteration.  Its length is the
    iteration count.  A ``tol`` outside (0, 1), nan and inf included, raises
    ValueError.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    A, grid, b = system.matrix, system.grid, system.b
    scale = float(np.linalg.norm(b)) or 1.0
    if grid.n == 2:
        method, solver = "direct", "banded LU"
        M = _band_lu(A)
        start, history = _refine(A, b, M)
    else:
        method, solver = "krylov", "BiCGSTAB"
        M = _band_lu(A, 2 * system.N - 1)
        start = _column_interpolant(system.bc, grid).reshape(system.N, -1)
        start, history = start[:, grid.interior_mask].T.ravel(), []
    # returns the start at once where it already meets tol
    x, _ = _bicgstab(A, b, M, tol * scale, history, start)
    history = [h / scale for h in history]

    residual = float(np.linalg.norm(b - A @ x)) / scale
    if not residual <= tol:
        raise SolverError(
            f"{solver} solution residual {residual:.3e} exceeds tolerance "
            f"{tol:.3e}",
            residual_history=history,
        )
    values = system.bc.copy()
    values[:, grid.interior_mask] = x.reshape(-1, system.N).T
    return SolutionField(
        values=values.reshape((system.N,) + grid.dims), grid=grid,
        residual=residual, method=method, iterations=len(history),
    )


def solve_dirichlet(op, grid, data, lateral_closure="utilde", tol=1e-10):
    """Assemble-and-solve convenience for the composed-trace problem."""
    if data.N != op.N:
        raise ValueError(f"data has {data.N} components, operator wants {op.N}")
    system = assemble(op, grid, boundary_values(grid, data, lateral_closure))
    return solve_system(system, tol=tol)
