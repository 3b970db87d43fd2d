"""Reference implementation of the ellipticity and bounds search with every
dictionary field built at the quadrature nodes.

``_quadrature_nodes`` evaluates the gap profiles and their derivatives at
every flattened node, with one weight per node.  ``sine_grams`` builds the
physical gradient of every sine mode of the dictionary at the nodes
(``_sine_dictionary``) and each Gram block from one multiply-then-dot per
nonzero entry of A; ``estimate_ellipticity`` takes the smallest eigenvalue
of the pencil (sym K, D) through a Cholesky factor of D and
``numpy.linalg.eigvalsh``, not through ``scipy.linalg.eigh``.  The
quadrature and the bounds search are kept verbatim from the version before
the quadrature geometry was evaluated once per column, as an oracle for the
quadrature arrays, the Gram matrices and the measured constants, in the
same way as ``solver_oracle`` keeps the earlier solver layer.  The sine
tables and the mode caps are shared with the library.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from narrowgap.operators import OperatorError, _sine_tables, _trapezoid_weights


@dataclass(frozen=True)
class _Quadrature:
    axes: tuple
    t: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    delta: np.ndarray
    dT: np.ndarray


def _quadrature_nodes(region, grid_spec):
    nd = region.nd
    mx, mt = grid_spec
    axes = [np.linspace(-region.r_solve, region.r_solve, mx) for _ in range(nd)]
    t_ax = np.linspace(0.0, 1.0, mt)
    grids = np.meshgrid(*axes, t_ax, indexing="ij")
    tang = np.stack([g.ravel() for g in grids[:-1]], axis=-1)
    tvals = grids[-1].ravel()
    delta = region.delta_poly.value_many(tang)
    bottom = region.bottom_poly.value_many(tang)
    xn = bottom + tvals * delta
    points = np.concatenate([tang, xn[:, None]], axis=-1)

    w = _trapezoid_weights(mx)
    weights = w.copy()
    for _ in range(nd - 1):
        weights = np.multiply.outer(weights, w)
    weights = np.multiply.outer(weights, _trapezoid_weights(mt)).ravel()
    hx = axes[0][1] - axes[0][0]
    ht = t_ax[1] - t_ax[0]
    weights = weights * hx**nd * ht * delta  # dx = delta dt dx'

    dT = np.stack(
        [
            region.bottom_poly.deriv(a).value_many(tang)
            + tvals * region.delta_poly.deriv(a).value_many(tang)
            for a in range(nd)
        ]
    )
    return _Quadrature(tuple(axes), t_ax, points, weights, delta, dT)


def _sine_dictionary(tables, quad):
    """Physical gradients (m, n, M) at the nodes of the m sine modes, one
    mode per dictionary index, the first axis slowest and t fastest."""
    nd = len(tables) - 1
    kmax = len(tables[0][0])
    ks = np.array(list(itertools.product(range(kmax), repeat=nd + 1)))
    m = len(ks)
    grad = np.empty((m, nd + 1, len(quad.weights)))
    for d in range(nd + 1):
        factor = [tables[e][int(e == d)][ks[:, e]] for e in range(nd + 1)]
        tang = factor[0]
        for f in factor[1:nd]:
            tang = (tang[:, :, None] * f[:, None, :]).reshape(m, -1)
        grad[:, d] = (tang[:, :, None] * factor[nd][:, None, :]).reshape(m, -1)
    grad[:, nd] /= quad.delta
    grad[:, :nd] -= quad.dT * grad[:, nd:]
    return grad


def sine_grams(op, region, grid_spec=(49, 25)):
    """Gram matrices (K, D), (N*m, N*m) each, of the sine dictionary as
    nodal quadrature sums, component-major like ``operators._sine_grams``."""
    quad = _quadrature_nodes(region, grid_spec)
    modes = _sine_dictionary(_sine_tables(region, quad), quad)
    N, m = op.N, len(modes)
    fields = {}
    K = np.zeros((N, m, N, m))
    for i, j, a, b in np.ndindex(op.A.shape):
        p = op.A[i, j, a, b]
        if not p.is_zero():
            if p not in fields:
                fields[p] = quad.weights * p.value_many(quad.points)
            K[i, :, j, :] += (modes[:, a] * fields[p]) @ modes[:, b].T
    unit = np.einsum("kam,lam->kl", modes * quad.weights, modes)
    return K.reshape(N * m, N * m), np.kron(np.eye(N), unit)


def estimate_ellipticity(op, region, grid_spec=(49, 25)):
    if op.n != region.n:
        raise OperatorError("operator and region dimensions differ")
    K, D = sine_grams(op, region, grid_spec)
    # L^-1 sym(K) L^-T has the eigenvalues of the pencil (sym(K), L L^T)
    L = np.linalg.cholesky(D)
    half = np.linalg.solve(L, (K + K.T) / 2)
    S = np.linalg.solve(L, half.T)
    return float(np.linalg.eigvalsh((S + S.T) / 2)[0])


def estimate_bounds(op, region, samples=(33, 17)):
    points = _quadrature_nodes(region, samples).points

    def distinct_nonzero(tensor):
        return [p for p in set(tensor.ravel()) if not p.is_zero()]

    def tensor_c2(tensor):
        return max((float(sum(p.c2_samples(lambda q: q.value_many(points))).max())
                    for p in distinct_nonzero(tensor)), default=0.0)

    Lambda_est = 0.0
    for p in distinct_nonzero(op.A):
        Lambda_est = max(Lambda_est, float(np.abs(p.value_many(points)).max()))

    kappa2_est = sum(tensor_c2(t) for t in (op.A, op.B, op.Cc, op.D))
    return Lambda_est, kappa2_est
