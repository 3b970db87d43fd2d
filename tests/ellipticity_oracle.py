"""Reference implementation of the ellipticity and bounds search as it was
before the quadrature geometry was evaluated once per column and each
Rayleigh quotient was computed from one weighted gradient, and before the
quotients were computed from Gram matrices.

``_quadrature_nodes`` evaluates the gap profiles and their derivatives at
every flattened node; ``estimate_ellipticity`` builds the gradient of every
trial field at the nodes (``_sine_candidate``, ``_divfree_candidate``) and
each Rayleigh quotient from one multiply-then-dot per nonzero entry of A.
The code is kept verbatim from that version, docstrings and comments aside,
as an oracle for the quadrature arrays, the Gram matrices and the measured
constants, in the same way as ``solver_oracle`` keeps the earlier solver
layer.  The sine tables, the jets of the vertical coordinate and the
stream-function jets are shared with the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from narrowgap.geometry import vertical_jets
from narrowgap.operators import (_SINE_KMAX, OperatorError, _sine_tables,
                                 _stream_jets, _trapezoid_weights)


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


def _sine_candidate(rng, tables, quad, N, nmodes=3):
    nd = len(tables) - 1
    ks = np.empty((N, nmodes, nd + 1), dtype=np.int64)
    c = np.empty((N, nmodes))
    for i in range(N):
        for m in range(nmodes):
            ks[i, m] = rng.integers(1, _SINE_KMAX + 1, size=nd + 1)
            c[i, m] = rng.normal()
    grad = np.empty((N, nd + 1, len(quad.weights)))
    for d in range(nd + 1):
        factor = [tables[e][int(e == d)][ks[..., e] - 1] for e in range(nd + 1)]
        tang = c[..., None] * factor[0]
        for f in factor[1:nd]:
            tang = (tang[..., :, None] * f[..., None, :]).reshape(N, nmodes, -1)
        grad[:, d] = np.matmul(tang.transpose(0, 2, 1), factor[nd]).reshape(N, -1)
    grad[:, nd] /= quad.delta
    grad[:, :nd] -= quad.dT * grad[:, nd:]
    return grad


def _divfree_candidate(rng, r, x1, u, ujets):
    coefs = rng.integers(-3, 4, size=4)
    _, _, p11, p1n, pnn = _stream_jets(coefs, r, x1, u, ujets)
    return np.stack([p1n, pnn, -p11, -p1n]).reshape(2, 2, -1)


def estimate_ellipticity(op, region, grid_spec=(49, 25), trials=64, seed=0):
    if trials < 4:
        raise OperatorError("trials must be >= 4")
    if op.n != region.n:
        raise OperatorError("operator and region dimensions differ")
    rng = np.random.default_rng(seed)
    quad = _quadrature_nodes(region, grid_spec)
    fields = {}
    weighted_a = []
    for idx in np.ndindex(op.A.shape):
        p = op.A[idx]
        if not p.is_zero():
            if p not in fields:
                fields[p] = quad.weights * p.value_many(quad.points)
            weighted_a.append((idx, fields[p]))

    def rayleigh(grad):
        num = 0.0
        for (i, j, a, b), wa in weighted_a:
            num += float(np.dot(wa * grad[i, a], grad[j, b]))
        den = float(np.dot(quad.weights, (grad**2).sum(axis=(0, 1))))
        if den < 1e-14:
            return None
        return num / den

    ndiv = trials // 2 if (region.n == 2 and op.N == 2) else 0
    if ndiv:
        x1 = quad.axes[0][:, None]
        ujets = vertical_jets(region, x1[..., None], quad.t)
    tables = _sine_tables(region, quad)
    best = np.inf
    for k in range(trials):
        if k < ndiv:
            grad = _divfree_candidate(rng, region.r_solve, x1, quad.t, ujets)
        else:
            grad = _sine_candidate(rng, tables, quad, op.N)
        q = rayleigh(grad)
        if q is not None and q < best:
            best = q
    return float(best)


def estimate_bounds(op, region, samples=(33, 17)):
    points = _quadrature_nodes(region, samples).points

    def distinct_nonzero(tensor):
        return [p for p in set(tensor.ravel()) if not p.is_zero()]

    def tensor_c2(tensor):
        return max((float(sum(p.c2_samples(points)).max())
                    for p in distinct_nonzero(tensor)), default=0.0)

    Lambda_est = 0.0
    for p in distinct_nonzero(op.A):
        Lambda_est = max(Lambda_est, float(np.abs(p.value_many(points)).max()))

    kappa2_est = sum(tensor_c2(t) for t in (op.A, op.B, op.Cc, op.D))
    return Lambda_est, kappa2_est
