"""Mapped-grid finite differences for the thin-domain Dirichlet problem.

The vertical coordinate is t = (xn - bottom(x')) / delta(x'), so the domain
becomes the unit box in (x', t) and the gap thickness moves into the metric.
With T(x', t) = bottom + t*delta the physical derivatives of a field known in
computational coordinates are

    d/dxn     = (1/delta) d/dt
    d/dx_a    = d/dx_a|comp - (dT_a/delta) d/dt,     dT_a = d bottom/dx_a + t d delta/dx_a.

The divergence-form operator transforms conservatively: multiplying by the
Jacobian delta, the equation becomes sum_a dG_a/dy_a + delta*(lower order) =
delta*f with computational fluxes G_a = delta*F_a (tangential) and
G_t = F_n - sum_a dT_a F_a, where F are the physical fluxes A du + B u.
Assembly discretizes each G at cell faces with compact differences in the
face direction and averaged central differences across it, then differences
the fluxes back to nodes: second order, exact for fields linear in the
computational coordinates.  Dirichlet rows are identity rows with the trace
value on the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import GeometryError

__all__ = [
    "MappedGrid",
    "LinearSystem",
    "SolutionField",
    "SolverError",
    "build_grid",
    "assemble",
    "solve_system",
    "solve_dirichlet",
    "quadrature_weights",
]

# restarted GMRES of the krylov path: Krylov basis size and restart cycles
GMRES_RESTART = 30
GMRES_MAX_CYCLES = 30


class SolverError(RuntimeError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])

    def __reduce__(self):
        # keep the history when a sweep worker process sends the error back
        return SolverError, (str(self), self.residual_history)


class MappedGrid:
    """Tensor grid over (x', t) in [-r_solve, r_solve]^(n-1) x [0, 1].

    nx nodes per tangential direction, nt vertical levels, both odd so the
    center column x' = 0 and the mid level t = 1/2 are nodes.  Caches the gap
    geometry and metric arrays every consumer needs.
    """

    def __init__(self, region, nx, nt):
        for name, m in (("nx", nx), ("nt", nt)):
            if m < 9 or m % 2 == 0:
                raise GeometryError(f"{name} must be odd and >= 9, got {m}")
        self.region = region
        self.nx = int(nx)
        self.nt = int(nt)
        nd = region.nd
        self.nd = nd
        self.n = region.n
        self.dims = (self.nx,) * nd + (self.nt,)
        self.axes = [np.linspace(-region.r_solve, region.r_solve, nx) for _ in range(nd)]
        self.axes.append(np.linspace(0.0, 1.0, nt))
        self.hx = [ax[1] - ax[0] for ax in self.axes]

        # delta, bottom and their slopes depend on x' only: evaluate them once
        # per column and repeat over the levels
        self._columns = _column_values(region, self.axes[:nd])
        self.tang, self.tvals, self.delta_flat, self.xn_flat, self.dT_flat = \
            _stack_levels(self._columns, self.axes[nd])
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

    @property
    def nodes(self):
        return int(np.prod(self.dims))

    def reshape(self, flat):
        return np.asarray(flat).reshape(self.dims)

    def center_index(self):
        return (self.nx // 2,) * self.nd


def _column_values(region, tang_axes):
    """The C-ordered tensor columns over ``tang_axes`` with delta, bottom,
    d bottom/dx_a and d delta/dx_a evaluated there."""
    grids = np.meshgrid(*tang_axes, indexing="ij")
    cols = np.stack([g.ravel() for g in grids], axis=-1)  # (columns, nd)
    delta, bottom = region.delta_poly, region.bottom_poly
    nd = len(tang_axes)
    return (cols, delta.value_many(cols), bottom.value_many(cols),
            [bottom.deriv(a).value_many(cols) for a in range(nd)],
            [delta.deriv(a).value_many(cols) for a in range(nd)])


def _stack_levels(columns, tax):
    """Column values repeated over the levels ``tax``, t fastest: flattened
    tangential points, t, delta, xn = bottom + t*delta and dT (nd, M) with
    dT_a = d bottom/dx_a + t d delta/dx_a."""
    cols, delta_c, bottom_c, dbottom_c, ddelta_c = columns
    m = len(tax)
    tvals = np.tile(tax, len(cols))
    delta = np.repeat(delta_c, m)
    xn = np.repeat(bottom_c, m) + tvals * delta
    dT = np.stack([np.repeat(db, m) + tvals * np.repeat(dd, m)
                   for db, dd in zip(dbottom_c, ddelta_c)], axis=0)
    return np.repeat(cols, m, axis=0), tvals, delta, xn, dT


def build_grid(region, nx, nt):
    return MappedGrid(region, nx, nt)


def quadrature_weights(grid):
    """Flattened trapezoid weights including the delta(x') Jacobian, so that
    (w * field).sum() approximates the physical-domain integral."""
    w = np.ones(grid.dims)
    ndim = len(grid.dims)
    for d in range(ndim):
        wd = np.full(grid.dims[d], grid.hx[d])
        wd[0] *= 0.5
        wd[-1] *= 0.5
        shape = [1] * ndim
        shape[d] = grid.dims[d]
        w = w * wd.reshape(shape)
    return w.ravel() * grid.delta_flat


@dataclass
class LinearSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    grid: MappedGrid
    N: int
    boundary_mask: np.ndarray
    label: str = ""

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


# ---------------------------------------------------------------------------
# 1-d building blocks


def _forward_diff(m, h):
    return sp.diags([-np.ones(m - 1) / h, np.ones(m - 1) / h], [0, 1],
                    shape=(m - 1, m), format="csr")


def _face_average(m):
    return sp.diags([0.5 * np.ones(m - 1), 0.5 * np.ones(m - 1)], [0, 1],
                    shape=(m - 1, m), format="csr")


def _central_diff(m, h):
    """Central differences inside, one-sided second order in the end rows."""
    k = np.arange(1, m - 1)
    indices = np.concatenate([[0, 1, 2], np.column_stack([k - 1, k + 1]).ravel(),
                              [m - 3, m - 2, m - 1]])
    data = np.concatenate([[-1.5 / h, 2.0 / h, -0.5 / h],
                           np.tile([-0.5 / h, 0.5 / h], m - 2),
                           [0.5 / h, -2.0 / h, 1.5 / h]])
    # three entries in each end row, two in every row between
    indptr = np.concatenate([[0], 3 + 2 * np.arange(m - 1), [2 * m + 2]])
    return sp.csr_matrix((data, indices, indptr), shape=(m, m))


def _face_to_node_div(m, h):
    """Difference of face fluxes at interior nodes; boundary rows zero."""
    k = np.arange(1, m - 1)
    indices = np.column_stack([k - 1, k]).ravel()
    data = np.tile([-1.0 / h, 1.0 / h], m - 2)
    indptr = np.concatenate([[0], 2 * np.arange(m - 1), [2 * (m - 2)]])
    return sp.csr_matrix((data, indices, indptr), shape=(m, m - 1))


def _kron_chain(mats):
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), mats)


def _chain(grid, which, factory_args=None):
    """Kron chain with one special 1-d operator at position ``which``.

    which maps dim index -> (kind, ...) where kind in {fwd, avg, cen, div}.
    All other dims get identities.
    """
    mats = []
    for d, m in enumerate(grid.dims):
        spec = which.get(d)
        if spec is None:
            mats.append(sp.identity(m, format="csr"))
        else:
            kind = spec
            h = grid.hx[d]
            if kind == "fwd":
                mats.append(_forward_diff(m, h))
            elif kind == "avg":
                mats.append(_face_average(m))
            elif kind == "cen":
                mats.append(_central_diff(m, h))
            elif kind == "div":
                mats.append(_face_to_node_div(m, h))
            else:
                raise ValueError(kind)
    return _kron_chain(mats)


def _face_geometry(grid, a):
    """Coordinates and metric arrays at the faces of family ``a``.

    a is a dim index (tangential 0..nd-1, or nd for the vertical family).
    Returns flattened face physical points, delta, dT, in the same C-order
    as the kron chains.  Vertical faces sit on the node columns, so they
    reuse the grid's column values.
    """
    nd = grid.nd
    tax = grid.axes[nd]
    if a < nd:
        axes = list(grid.axes[:nd])
        axes[a] = 0.5 * (axes[a][:-1] + axes[a][1:])
        columns = _column_values(grid.region, axes)
    else:
        columns = grid._columns
        tax = 0.5 * (tax[:-1] + tax[1:])
    tang, _, delta, xn, dT = _stack_levels(columns, tax)
    points = np.concatenate([tang, xn[:, None]], axis=-1)
    return points, delta, dT


def _face_gradient_ops(grid, a):
    """Sparse node->face operators for all physical derivative directions."""
    nd = grid.nd
    points, delta, dT = _face_geometry(grid, a)
    inv_delta = 1.0 / delta
    ops = {}
    if a < nd:  # tangential face family
        dt_at_face = _chain(grid, {a: "avg", nd: "cen"})
        for b in range(nd):
            if b == a:
                base = _chain(grid, {a: "fwd"})
            else:
                base = _chain(grid, {a: "avg", b: "cen"})
            ops[b] = base - sp.diags(dT[b] * inv_delta) @ dt_at_face
        ops[nd] = sp.diags(inv_delta) @ dt_at_face
        div = _chain(grid, {a: "div"})
    else:  # vertical face family
        dt_at_face = _chain(grid, {nd: "fwd"})
        for b in range(nd):
            base = _chain(grid, {b: "cen", nd: "avg"})
            ops[b] = base - sp.diags(dT[b] * inv_delta) @ dt_at_face
        ops[nd] = sp.diags(inv_delta) @ dt_at_face
        div = _chain(grid, {nd: "div"})
    return points, delta, dT, ops, div


def _node_gradient_ops(grid):
    """Physical gradient at nodes via central differences plus the metric."""
    nd = grid.nd
    inv_delta = 1.0 / grid.delta_flat
    ct = _chain(grid, {nd: "cen"})
    ops = {}
    for b in range(nd):
        ops[b] = _chain(grid, {b: "cen"}) - sp.diags(grid.dT_flat[b] * inv_delta) @ ct
    ops[nd] = sp.diags(inv_delta) @ ct
    return ops


def boundary_values(grid, data, lateral_closure="utilde"):
    """Dirichlet values on the boundary nodes for composed-trace data.

    Top t=1 takes g+, bottom t=0 takes g-.  The lateral closure is either the
    interpolant trace g- + t*(g+ - g-) (the vertical coordinate makes the
    interpolant linear in t, so this is exact) or the t-constant vertical
    average (g+ + g-)/2.  Corners belong to the top/bottom rows.
    """
    if lateral_closure not in ("utilde", "constant"):
        raise ValueError(f"unknown lateral closure {lateral_closure!r}")
    bc = np.zeros((data.N, grid.nodes))
    for i in range(data.N):
        gp = data.g_plus[i].value_many(grid.tang)
        gm = data.g_minus[i].value_many(grid.tang)
        if lateral_closure == "utilde":
            lat = gm + grid.tvals * (gp - gm)
        else:
            lat = 0.5 * (gp + gm)
        bc[i][grid.lateral_mask] = lat[grid.lateral_mask]
        bc[i][grid.bottom_mask] = gm[grid.bottom_mask]
        bc[i][grid.top_mask] = gp[grid.top_mask]
    return bc


def assemble(op, grid, data=None, source=None, nodal_bc=None, lateral_closure="utilde"):
    """Assemble the mapped-coordinate system with Dirichlet identity rows.

    Exactly one of ``data`` (composed boundary traces) or ``nodal_bc``
    (explicit (N, nodes) or (N, *dims) boundary values, used on every
    boundary node) must be given.  ``source`` is an optional nodal field f
    with the equation convention L u = f; it enters the right-hand side
    multiplied by the Jacobian delta.
    """
    if op.n != grid.n:
        raise GeometryError("operator dimension does not match the grid")
    if (data is None) == (nodal_bc is None):
        raise ValueError("exactly one of data / nodal_bc must be given")
    if data is not None and data.N != op.N:
        raise ValueError(f"data has {data.N} components, operator wants {op.N}")
    N, nd = op.N, grid.nd
    M = grid.nodes

    blocks = [[None] * N for _ in range(N)]
    families = [_face_gradient_ops(grid, a) for a in range(nd + 1)]
    has_lower = op.has_lower_order_terms()
    # only B needs the face averages and only C the node gradients
    face_avg = [_chain(grid, {a: "avg"}) for a in range(nd + 1)] if has_lower else None
    node_ops = _node_gradient_ops(grid) if has_lower else None

    for i in range(N):
        for j in range(N):
            acc = None
            for a in range(nd + 1):
                points, delta, dT, ops, div = families[a]
                flux = None
                for b in range(nd + 1):
                    if a < nd:
                        w = delta * op.A[i, j, a, b].value_many(points)
                    else:
                        w = op.A[i, j, nd, b].value_many(points)
                        for al in range(nd):
                            w = w - dT[al] * op.A[i, j, al, b].value_many(points)
                    if not np.any(w):
                        continue
                    term = sp.diags(w) @ ops[b]
                    flux = term if flux is None else flux + term
                if has_lower:
                    if a < nd:
                        wb = delta * op.B[i, j, a].value_many(points)
                    else:
                        wb = op.B[i, j, nd].value_many(points)
                        for al in range(nd):
                            wb = wb - dT[al] * op.B[i, j, al].value_many(points)
                    if np.any(wb):
                        term = sp.diags(wb) @ face_avg[a]
                        flux = term if flux is None else flux + term
                if flux is not None:
                    term = div @ flux
                    acc = term if acc is None else acc + term
            if has_lower:
                for b in range(nd + 1):
                    wc = grid.delta_flat * op.Cc[i, j, b].value_many(grid.points)
                    if np.any(wc):
                        term = sp.diags(wc) @ node_ops[b]
                        acc = term if acc is None else acc + term
                wd = grid.delta_flat * op.D[i, j].value_many(grid.points)
                if np.any(wd):
                    term = sp.diags(wd)
                    acc = term if acc is None else acc + term
            if acc is None:
                acc = sp.csr_matrix((M, M))
            blocks[i][j] = acc

    # Dirichlet rows: zero the assembled boundary rows, add identity there
    keep = sp.diags(grid.interior_mask.astype(float))
    eye_bnd = sp.diags(grid.boundary_mask.astype(float))
    for i in range(N):
        for j in range(N):
            blocks[i][j] = keep @ blocks[i][j]
            if i == j:
                blocks[i][j] = blocks[i][j] + eye_bnd

    if nodal_bc is not None:
        bc = np.asarray(nodal_bc, dtype=float).reshape(N, M)
    else:
        bc = boundary_values(grid, data, lateral_closure)

    rhs = np.zeros((N, M))
    if source is not None:
        src = np.asarray(source, dtype=float).reshape(N, M)
        for i in range(N):
            rhs[i][grid.interior_mask] = (grid.delta_flat * src[i])[grid.interior_mask]
    for i in range(N):
        rhs[i][grid.boundary_mask] = bc[i][grid.boundary_mask]

    matrix = sp.bmat(blocks, format="csr")
    return LinearSystem(
        matrix=matrix,
        rhs=rhs.ravel(),
        grid=grid,
        N=N,
        boundary_mask=grid.boundary_mask,
        label=getattr(op, "label", ""),
    )


def _reduced_ordering(system):
    """Interior unknowns in (column, component, t) order.

    The full vector is component-major over C-ordered nodes, so with a grid
    node k is column k // nt at level k % nt; without a grid the whole node
    range is one column.  Returns the interior and boundary indices and the
    number of interior unknowns per column, so that each column is one
    contiguous block of the interior ordering.
    """
    N = system.N
    bmask = np.asarray(system.boundary_mask, dtype=bool)
    M = bmask.size
    nt = system.grid.nt if system.grid is not None else M
    ncol = M // nt
    idx = (np.arange(N)[None, :, None] * M
           + (np.arange(ncol) * nt)[:, None, None]
           + np.arange(nt)[None, None, :])
    free = ~np.broadcast_to(bmask.reshape(ncol, 1, nt), idx.shape)
    inner = idx[free]
    block = max(int(free.sum(axis=(1, 2)).max()), 1)
    return inner, idx[~free], block


def _column_preconditioner(A, block):
    """Exact inverse of the block-diagonal part of A, blocks of size ``block``
    along the diagonal, all inverted at once as one dense batch."""
    nblocks = A.shape[0] // block
    coo = A.tocoo()
    same = coo.row // block == coo.col // block
    dense = np.zeros((nblocks, block, block))
    dense[coo.row[same] // block, coo.row[same] % block,
          coo.col[same] % block] = coo.data[same]
    inverse = np.linalg.inv(dense)

    def apply(v):
        return np.matmul(inverse, v.reshape(nblocks, block, 1)).ravel()

    return spla.LinearOperator(A.shape, apply)


def solve_system(system, tol=1e-10, method=None):
    """Solve the assembled system over its interior unknowns.

    The Dirichlet rows fix the boundary unknowns, so only
    A_II x_I = b_I - A_IB b_B is solved.  ``direct`` factors that matrix with
    sparse LU.  ``krylov`` runs restarted GMRES preconditioned by the exact
    inverse of each vertical column block (all components along one column
    in t): the mapped equation couples far more strongly in t than across
    columns, so those blocks carry most of the operator.  The default picks
    direct LU for n = 2 (or without a grid) and GMRES for n >= 3.  Returns
    the solution reshaped per component with the achieved relative residual;
    raises SolverError on failure, with the GMRES history of preconditioned
    residual norms relative to the reduced right-hand side.
    """
    A = system.matrix.tocsr()
    b = system.rhs
    if method is None:
        three_d = system.grid is not None and system.grid.n >= 3
        method = "krylov" if three_d else "direct"
    if method not in ("direct", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    bnorm = float(np.linalg.norm(b))
    scale = bnorm if bnorm > 0 else 1.0
    inner, outer, block = _reduced_ordering(system)
    A_I = A[inner]
    A_II = A_I[:, inner]
    rhs = b[inner] - A_I[:, outer] @ b[outer]
    history = []

    if method == "direct":
        try:
            x_I = spla.splu(A_II.tocsc()).solve(rhs)
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"direct factorization failed: {exc}") from exc
    else:
        try:
            precond = _column_preconditioner(A_II, block)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"column preconditioner failed: {exc}") from exc
        x_I, info = spla.gmres(
            A_II, rhs, rtol=0.0, atol=tol * scale, M=precond,
            restart=GMRES_RESTART, maxiter=GMRES_MAX_CYCLES,
            callback=history.append, callback_type="pr_norm",
        )
        if info != 0:
            raise SolverError(
                f"GMRES did not converge (info={info}, {len(history)} "
                f"iterations, last residual "
                f"{history[-1] if history else float('nan'):.3e})",
                residual_history=history,
            )

    x = b.copy()
    x[inner] = x_I
    residual = float(np.linalg.norm(b - A @ x)) / scale
    if not np.isfinite(residual) or residual > max(tol * 100, 1e-6):
        raise SolverError(f"solution residual {residual:.3e} exceeds tolerance",
                          residual_history=history)
    shape = system.grid.dims if system.grid is not None else (-1,)
    return SolutionField(
        values=x.reshape((system.N,) + shape), grid=system.grid,
        residual=residual, method=method, iterations=len(history),
    )


def solve_dirichlet(op, grid, data, source=None, lateral_closure="utilde",
                    tol=1e-10, method=None):
    """Assemble-and-solve convenience for the composed-trace problem."""
    system = assemble(op, grid, data=data, source=source,
                      lateral_closure=lateral_closure)
    return solve_system(system, tol=tol, method=method)
