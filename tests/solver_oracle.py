"""Reference implementation of the solver layer as it was before the interior
system was assembled directly and factored by one banded LU.

``assemble`` builds the full matrix over every node, with each Dirichlet row
an identity row carrying the boundary value; ``solve_system`` strips those
rows again (``_reduced_ordering``) and factors the interior matrix with
``scipy.sparse.linalg.splu`` in every dimension.  The code is kept verbatim
from that version, less the ``method`` argument that selected nothing here
and with the solver's one boundary input (``assemble`` takes nodal values,
``solve_dirichlet`` builds them from the traces), as an oracle for the
assembly, the pinned outputs and the 3-D Krylov path, in the same way as
``ellipticity_oracle`` keeps the nodal ellipticity search.  Since the
tangential map arrived it also carries the map's diagonal factors, as
diagonal matrices around the same chains: each tangential difference is
divided by X' where it is taken, the flux of family a is multiplied by
prod_{b != a} X'_b (every X'_b for the vertical family), and the node terms
and the source by the Jacobian delta * prod_b X'_b.  On a uniform grid every factor is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from narrowgap.geometry import GeometryError
from narrowgap.mesh_solver import (MappedGrid, SolutionField, SolverError,
                                   _face_geometry, boundary_values)


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


def _face_gradient_ops(grid, a):
    """Sparse node->face operators for all physical derivative directions."""
    nd = grid.nd
    points, delta, dT, dX = _face_geometry(grid, a)
    inv_delta = 1.0 / delta
    ops = {}
    if a < nd:  # tangential face family
        dt_at_face = _chain(grid, {a: "avg", nd: "cen"})
        for b in range(nd):
            if b == a:
                base = _chain(grid, {a: "fwd"})
            else:
                base = _chain(grid, {a: "avg", b: "cen"})
            ops[b] = (sp.diags(1.0 / dX[b]) @ base
                      - sp.diags(dT[b] * inv_delta) @ dt_at_face)
        ops[nd] = sp.diags(inv_delta) @ dt_at_face
        div = _chain(grid, {a: "div"})
        scale = np.prod([dX[b] for b in range(nd) if b != a], axis=0)
    else:  # vertical face family
        dt_at_face = _chain(grid, {nd: "fwd"})
        for b in range(nd):
            base = _chain(grid, {b: "cen", nd: "avg"})
            ops[b] = (sp.diags(1.0 / dX[b]) @ base
                      - sp.diags(dT[b] * inv_delta) @ dt_at_face)
        ops[nd] = sp.diags(inv_delta) @ dt_at_face
        div = _chain(grid, {nd: "div"})
        scale = np.prod(dX, axis=0)
    return points, delta, dT, scale, ops, div


def _node_gradient_ops(grid):
    """Physical gradient at nodes via central differences plus the metric."""
    nd = grid.nd
    inv_delta = 1.0 / grid.delta_flat
    ct = _chain(grid, {nd: "cen"})
    ops = {}
    for b in range(nd):
        ops[b] = (sp.diags(1.0 / grid.dX_flat[b]) @ _chain(grid, {b: "cen"})
                  - sp.diags(grid.dT_flat[b] * inv_delta) @ ct)
    ops[nd] = sp.diags(inv_delta) @ ct
    return ops


def assemble(op, grid, bc, source=None):
    """Assemble the mapped-coordinate system with Dirichlet identity rows.

    ``bc`` holds explicit (N, nodes) or (N, *dims) nodal values, used on
    every boundary node.  ``source`` is an optional nodal field f with the
    equation convention L u = f; it enters the right-hand side multiplied by
    the Jacobian delta.
    """
    if op.n != grid.n:
        raise GeometryError("operator dimension does not match the grid")
    N, nd = op.N, grid.nd
    M = grid.nodes

    blocks = [[None] * N for _ in range(N)]
    families = [_face_gradient_ops(grid, a) for a in range(nd + 1)]
    has_lower = op.has_lower_order_terms()
    # only B needs the face averages and only C the node gradients
    face_avg = [_chain(grid, {a: "avg"}) for a in range(nd + 1)] if has_lower else None
    node_ops = _node_gradient_ops(grid) if has_lower else None
    jacobian = grid.delta_flat * np.prod(grid.dX_flat, axis=0)

    for i in range(N):
        for j in range(N):
            acc = None
            for a in range(nd + 1):
                points, delta, dT, scale, ops, div = families[a]
                flux = None
                for b in range(nd + 1):
                    if a < nd:
                        w = delta * op.A[i, j, a, b].value_many(points)
                    else:
                        w = op.A[i, j, nd, b].value_many(points)
                        for al in range(nd):
                            w = w - dT[al] * op.A[i, j, al, b].value_many(points)
                    w = scale * w
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
                    wb = scale * wb
                    if np.any(wb):
                        term = sp.diags(wb) @ face_avg[a]
                        flux = term if flux is None else flux + term
                if flux is not None:
                    term = div @ flux
                    acc = term if acc is None else acc + term
            if has_lower:
                for b in range(nd + 1):
                    wc = jacobian * op.Cc[i, j, b].value_many(grid.points)
                    if np.any(wc):
                        term = sp.diags(wc) @ node_ops[b]
                        acc = term if acc is None else acc + term
                wd = jacobian * op.D[i, j].value_many(grid.points)
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

    bc = np.asarray(bc, dtype=float).reshape(N, M)

    rhs = np.zeros((N, M))
    if source is not None:
        src = np.asarray(source, dtype=float).reshape(N, M)
        for i in range(N):
            rhs[i][grid.interior_mask] = (jacobian * src[i])[grid.interior_mask]
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


def solve_system(system, tol=1e-10):
    """The direct path of the old solver: sparse LU of A_II in the
    (column, component, t) ordering, in every dimension."""
    A = system.matrix.tocsr()
    b = system.rhs
    bnorm = float(np.linalg.norm(b))
    scale = bnorm if bnorm > 0 else 1.0
    inner, outer, block = _reduced_ordering(system)
    A_I = A[inner]
    A_II = A_I[:, inner]
    rhs = b[inner] - A_I[:, outer] @ b[outer]
    try:
        x_I = spla.splu(A_II.tocsc()).solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"direct factorization failed: {exc}") from exc
    x = b.copy()
    x[inner] = x_I
    residual = float(np.linalg.norm(b - A @ x)) / scale
    if not np.isfinite(residual) or residual > max(tol * 100, 1e-6):
        raise SolverError(f"solution residual {residual:.3e} exceeds tolerance")
    shape = system.grid.dims if system.grid is not None else (-1,)
    return SolutionField(
        values=x.reshape((system.N,) + shape), grid=system.grid,
        residual=residual, iterations=0,
    )


def solve_dirichlet(op, grid, data, source=None, lateral_closure="utilde",
                    tol=1e-10):
    """Assemble-and-solve convenience for the composed-trace problem."""
    if data.N != op.N:
        raise ValueError(f"data has {data.N} components, operator wants {op.N}")
    system = assemble(op, grid, boundary_values(grid, data, lateral_closure),
                      source=source)
    return solve_system(system, tol=tol)
