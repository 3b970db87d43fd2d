"""Divergence-form elliptic systems: coefficient tensors and their measured constants.

An operator is  d/dx_a ( A_ij^{ab} d/dx_b u^j + B_ij^a u^j ) + Cc_ij^b d/dx_b u^j
+ D_ij u^j  with polynomial coefficient entries, i the equation index and j the
component index.  Builtins: the scalar Laplacian and the isotropic elasticity
(Lame) tensor.  The module also measures the constants the estimates depend
on: an integral ellipticity lower bound from a randomized Rayleigh search, a
sampled sup bound for |A|, and a sampled C2 coefficient bound.  The Rayleigh
search evaluates its test fields numerically: separable sine modes built
from sines on the 1-D quadrature axes, and (n=2, N=2) divergence-free fields
from a stream function differentiated by the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import NarrowRegion, GeometryError
from .polynomial import PolynomialField

__all__ = [
    "EllipticOperator",
    "OperatorError",
    "make_builtin",
    "apply_operator_poly",
    "estimate_ellipticity",
    "estimate_bounds",
    "rescale_coefficients",
]


class OperatorError(ValueError):
    pass


def _const(n, c):
    return PolynomialField.constant(n, c)


def _as_poly(n, entry):
    if isinstance(entry, PolynomialField):
        if entry.nvars != n:
            raise OperatorError(f"coefficient over {entry.nvars} vars, expected {n}")
        return entry
    return _const(n, entry)


class EllipticOperator:
    """Coefficient tensors A, B, Cc, D with claimed structure constants.

    A has shape (N, N, n, n) indexed [i][j][a][b], B and Cc shape (N, N, n),
    D shape (N, N); entries are PolynomialField over the n space variables.
    lambda_claim / Lambda_claim / kappa2_claim are the user's claimed
    ellipticity, boundedness and C2 constants; estimate_* measures them.
    """

    def __init__(self, n, N, A, B=None, Cc=None, D=None,
                 lambda_claim=None, Lambda_claim=None, kappa2_claim=None, label=""):
        if n not in (2, 3):
            raise OperatorError("n must be 2 or 3")
        if N < 1:
            raise OperatorError("N must be >= 1")
        self.n = int(n)
        self.N = int(N)
        zero = PolynomialField.zero(n)

        def tensor(src, shape):
            out = np.empty(shape, dtype=object)
            for idx in np.ndindex(shape):
                out[idx] = zero
            if src is not None:
                arr = np.asarray(src, dtype=object)
                if arr.shape != shape:
                    raise OperatorError(f"tensor shape {arr.shape}, expected {shape}")
                for idx in np.ndindex(shape):
                    out[idx] = _as_poly(n, arr[idx])
            return out

        self.A = tensor(A, (N, N, n, n))
        self.B = tensor(B, (N, N, n))
        self.Cc = tensor(Cc, (N, N, n))
        self.D = tensor(D, (N, N))
        self.lambda_claim = lambda_claim
        self.Lambda_claim = Lambda_claim
        self.kappa2_claim = kappa2_claim
        self.label = label
        self._key = (
            n, N,
            tuple(self.A.ravel()), tuple(self.B.ravel()),
            tuple(self.Cc.ravel()), tuple(self.D.ravel()),
        )

    def __eq__(self, other):
        return isinstance(other, EllipticOperator) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def is_symmetric(self):
        """A_ij^{ab} == A_ji^{ba} entrywise (exact polynomial equality)."""
        for i in range(self.N):
            for j in range(self.N):
                for a in range(self.n):
                    for b in range(self.n):
                        if self.A[i, j, a, b] != self.A[j, i, b, a]:
                            return False
        return True

    def has_elasticity_symmetries(self):
        """A_ij^{ab} == A_ji^{ba} == A_aj^{ib}; needs N == n."""
        if self.N != self.n:
            return False
        if not self.is_symmetric():
            return False
        for i in range(self.N):
            for j in range(self.N):
                for a in range(self.n):
                    for b in range(self.n):
                        if self.A[i, j, a, b] != self.A[a, j, i, b]:
                            return False
        return True

    def has_lower_order_terms(self):
        return any(not p.is_zero() for p in
                   list(self.B.ravel()) + list(self.Cc.ravel()) + list(self.D.ravel()))


def make_builtin(kind, n=2, lame_mu=1.0, lame_lambda=1.0):
    """Build a named operator: ``laplace`` (N=1) or ``lame`` (N=n).

    The Lame tensor is the symmetrized isotropic one,
    A_ij^{ab} = lam*d_ai*d_bj + mu*(d_ab*d_ij + d_aj*d_bi),
    whose divergence applied to u is mu*Lap(u) + (lam+mu)*grad(div u) and
    which satisfies all three elasticity symmetries entrywise.
    Requires mu > 0 and lam + mu >= 0.
    """
    if kind == "laplace":
        A = np.empty((1, 1, n, n), dtype=object)
        for a in range(n):
            for b in range(n):
                A[0, 0, a, b] = _const(n, 1 if a == b else 0)
        return EllipticOperator(
            n, 1, A, lambda_claim=1.0, Lambda_claim=1.0, kappa2_claim=1.0,
            label="laplace",
        )
    if kind == "lame":
        mu = Fraction(lame_mu)
        lam = Fraction(lame_lambda)
        if not mu > 0:
            raise OperatorError("lame_mu must be positive")
        if lam + mu < 0:
            raise OperatorError("lame_lambda + lame_mu must be >= 0")
        A = np.empty((n, n, n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                for a in range(n):
                    for b in range(n):
                        c = Fraction(0)
                        if a == i and b == j:
                            c += lam
                        if a == b and i == j:
                            c += mu
                        if a == j and b == i:
                            c += mu
                        A[i, j, a, b] = _const(n, c)
        return EllipticOperator(
            n, n, A,
            lambda_claim=float(mu),
            Lambda_claim=float(lam + 2 * mu),
            kappa2_claim=float(lam + 2 * mu),
            label=f"lame(mu={float(mu):g},lambda={float(lam):g})",
        )
    raise OperatorError(f"unknown builtin operator {kind!r}")


def apply_operator_poly(op, comps):
    """Apply the operator exactly to a polynomial vector field.

    comps is a length-N sequence of PolynomialField over the n space
    variables; returns the length-N list L[u]^i, each an exact polynomial.
    Used as the symbolic oracle for builtin divergences and source terms.
    """
    if len(comps) != op.N:
        raise OperatorError(f"field has {len(comps)} components, operator wants {op.N}")
    comps = [_as_poly(op.n, c) for c in comps]
    grads = [[c.deriv(b) for b in range(op.n)] for c in comps]
    out = []
    for i in range(op.N):
        acc = PolynomialField.zero(op.n)
        for j in range(op.N):
            for a in range(op.n):
                flux = PolynomialField.zero(op.n)
                for b in range(op.n):
                    flux = flux + op.A[i, j, a, b] * grads[j][b]
                flux = flux + op.B[i, j, a] * comps[j]
                acc = acc + flux.deriv(a)
            for b in range(op.n):
                acc = acc + op.Cc[i, j, b] * grads[j][b]
            acc = acc + op.D[i, j] * comps[j]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# measured constants


def _trapezoid_weights(m):
    w = np.ones(m)
    w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class _Quadrature:
    """Tensor trapezoid nodes on the mapped region.

    ``axes`` are the tangential 1-D axes and ``t`` the vertical one; the
    flattened arrays run over their tensor product, t fastest.
    """

    axes: tuple
    t: np.ndarray
    points: np.ndarray   # (M, n) physical nodes
    weights: np.ndarray  # (M,) trapezoid weights times the Jacobian delta
    delta: np.ndarray    # (M,) gap width delta(x')
    dT: np.ndarray       # (nd, M) d xn / d x_a at fixed t


def _quadrature_nodes(region, grid_spec):
    """Tensor trapezoid quadrature over the mapped region.

    Returns the 1-D axes, the flattened physical points, weights including
    the vertical Jacobian delta(x'), and the metric arrays needed to push
    computational gradients to physical ones.  Self-contained on purpose:
    the ellipticity search must not share the solver's code path.
    """
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


_SINE_KMAX = 4  # sine mode numbers are drawn from 1.._SINE_KMAX on each axis


def _sine_tables(region, quad):
    """Per 1-D axis (tangential axes, then t): sin(k pi s) and its derivative
    in the physical tangential variable (in t for the last axis), each of
    shape (_SINE_KMAX, axis length); s is the axis mapped onto [0, 1]."""
    r = region.r_solve
    kpi = np.arange(1, _SINE_KMAX + 1)[:, None] * np.pi
    scaled = [((x + r) / (2 * r), 1.0 / (2 * r)) for x in quad.axes]
    return [(np.sin(kpi * s), kpi * scale * np.cos(kpi * s))
            for s, scale in scaled + [(quad.t, 1.0)]]


def _sine_candidate(rng, tables, quad, N, nmodes=3):
    """Zero-trace sine tensor mode field: physical gradients, shape (N, n, M).

    Each component is a sum of ``nmodes`` products of 1-D sines, so every
    computational derivative is a sum of outer products of rows of the 1-D
    tables; the t-axis factor enters through one batched matmul.
    """
    nd = len(tables) - 1
    ks = np.empty((N, nmodes, nd + 1), dtype=np.int64)
    c = np.empty((N, nmodes))
    for i in range(N):
        for m in range(nmodes):
            ks[i, m] = rng.integers(1, _SINE_KMAX + 1, size=nd + 1)
            c[i, m] = rng.normal()
    grad = np.empty((N, nd + 1, len(quad.weights)))
    for d in range(nd + 1):
        # (N, nmodes, axis length) factor per axis: the derivative on axis d
        factor = [tables[e][int(e == d)][ks[..., e] - 1] for e in range(nd + 1)]
        tang = c[..., None] * factor[0]
        for f in factor[1:nd]:
            tang = (tang[..., :, None] * f[..., None, :]).reshape(N, nmodes, -1)
        grad[:, d] = np.matmul(tang.transpose(0, 2, 1), factor[nd]).reshape(N, -1)
    # computational -> physical: d/dxn = (1/delta) d/dt,
    # d/dx_a = d/dx_a|comp - dT_a d/dxn
    grad[:, nd] /= quad.delta
    grad[:, :nd] -= quad.dT * grad[:, nd:]
    return grad


def _stream_jets(coefs, r, x1, u, bottom, delta):
    """Partials of the stream function Phi = S(u) B(x1) (G(x1) + c3 u) (n=2).

    u = (xn - bottom(x1)) / delta(x1), S = u^2 (1-u)^2, B = (r^2 - x1^2)^2 and
    G = c0 + c1 x1 + c2 x1^2 with coefs = (c0, c1, c2, c3).  ``bottom`` is
    (bottom', bottom'') and ``delta`` is (delta, delta', delta'') at x1; all
    arguments broadcast.  Returns (Phi_1, Phi_n, Phi_11, Phi_1n, Phi_nn), by
    the chain rule through the closed-form jets of u.
    """
    c0, c1, c2, c3 = (float(v) for v in coefs)
    b1, b2 = bottom
    d0, d1, d2 = delta
    # jets of u from u * delta = xn - bottom, differentiated (u_nn = 0)
    un = 1.0 / d0
    u1 = -(b1 + u * d1) * un
    u1n = -d1 * un * un
    u11 = -(b2 + 2 * u1 * d1 + u * d2) * un
    S = u**2 * (1 - u) ** 2
    S1 = 2 * u * (1 - u) * (1 - 2 * u)
    S2 = 2 - 12 * u + 12 * u**2
    q = r * r - x1 * x1
    B, B1, B2 = q * q, -4 * x1 * q, 12 * x1 * x1 - 4 * r * r
    G1, G2 = c1 + 2 * c2 * x1, 2 * c2
    H = c0 + c1 * x1 + c2 * x1 * x1 + c3 * u
    # partials of F(u, x1) = S B H, so that Phi(x1, xn) = F(u(x1, xn), x1)
    Fu = B * (S1 * H + c3 * S)
    Fuu = B * (S2 * H + 2 * c3 * S1)
    Fx = S * (B1 * H + B * G1)
    Fux = S1 * (B1 * H + B * G1) + c3 * S * B1
    Fxx = S * (B2 * H + 2 * B1 * G1 + B * G2)
    return (Fu * u1 + Fx,
            Fu * un,
            Fuu * u1 * u1 + 2 * Fux * u1 + Fxx + Fu * u11,
            Fuu * u1 * un + Fux * un + Fu * u1n,
            Fuu * un * un)


def _profile_jets(region, x1):
    """(bottom', bottom'') and (delta, delta', delta'') at the tangential
    values x1 (n=2), each shaped like x1."""
    b1 = region.bottom_poly.deriv(0)
    d1 = region.delta_poly.deriv(0)
    pts = np.asarray(x1, dtype=float)[..., None]
    return ([p.value_many(pts) for p in (b1, b1.deriv(0))],
            [p.value_many(pts) for p in (region.delta_poly, d1, d1.deriv(0))])


def _divfree_candidate(rng, r, x1, u, bottom, delta):
    """Gradient (2, 2, M) of the divergence-free field (Phi_n, -Phi_1) (n=2).

    Phi is the stream function of ``_stream_jets`` with random integer
    coefficients.  The field has zero trace on all four boundary pieces and
    zero divergence identically, so the Rayleigh quotient of the Lame tensor
    on it equals mu up to quadrature error.
    """
    coefs = rng.integers(-3, 4, size=4)
    _, _, p11, p1n, pnn = _stream_jets(coefs, r, x1, u, bottom, delta)
    return np.stack([p1n, pnn, -p11, -p1n]).reshape(2, 2, -1)


def estimate_ellipticity(op, region, grid_spec=(49, 25), trials=64, seed=0):
    """Randomized lower estimate of the integral ellipticity constant.

    Minimum over seeded random zero-trace test fields of the Rayleigh
    quotient  int A du dv / int |grad v|^2  with trapezoid quadrature on the
    mapped region.  Fields are sine tensor modes, built from sines on the 1-D
    axes; for n=2, N=2 half the trials are exactly divergence-free fields
    from a stream function evaluated by the chain rule, which make the
    estimate tight (approaches mu) for the Lame tensor.  The numerator sums
    only the nonzero entries of A.  Deterministic for fixed seed.
    """
    if trials < 4:
        raise OperatorError("trials must be >= 4")
    if op.n != region.n:
        raise OperatorError("operator and region dimensions differ")
    rng = np.random.default_rng(seed)
    quad = _quadrature_nodes(region, grid_spec)
    # weighted coefficient field of each nonzero entry, one evaluation per
    # distinct polynomial
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
        bottom, delta = _profile_jets(region, x1)
    tables = _sine_tables(region, quad)
    best = np.inf
    for k in range(trials):
        if k < ndiv:
            # u = t at the nodes
            grad = _divfree_candidate(rng, region.r_solve, x1, quad.t, bottom, delta)
        else:
            grad = _sine_candidate(rng, tables, quad, op.N)
        q = rayleigh(grad)
        if q is not None and q < best:
            best = q
    return float(best)


def estimate_bounds(op, region, samples=(33, 17)):
    """Sampled sup |A| and C2 coefficient norm over the mapped region.

    Returns (Lambda_est, kappa2_est): Lambda_est is the sup over samples and
    entries of |A|; kappa2_est sums, over the four tensors, the sup over
    samples of the largest entrywise |f| + |grad f| + |hess f|.
    """
    points = _quadrature_nodes(region, samples).points

    def distinct_nonzero(tensor):
        # a sup over entries needs each distinct polynomial only once
        return [p for p in set(tensor.ravel()) if not p.is_zero()]

    def tensor_c2(tensor):
        worst = 0.0
        for p in distinct_nonzero(tensor):
            v = np.abs(p.value_many(points))
            g = np.zeros_like(v)
            for d in p.grad():
                g = g + d.value_many(points) ** 2
            h = np.zeros_like(v)
            for row in p.hessian():
                for e in row:
                    h = h + e.value_many(points) ** 2
            worst = max(worst, float((v + np.sqrt(g) + np.sqrt(h)).max()))
        return worst

    Lambda_est = 0.0
    for p in distinct_nonzero(op.A):
        Lambda_est = max(Lambda_est, float(np.abs(p.value_many(points)).max()))

    kappa2_est = sum(tensor_c2(t) for t in (op.A, op.B, op.Cc, op.D))
    return Lambda_est, kappa2_est


def rescale_coefficients(op, x0, delta):
    """Exact coefficient transform under x' = x0' + delta y', xn = delta yn.

    A_hat(y) = A(x0' + delta y', delta yn), B_hat = delta B, Cc_hat = delta Cc,
    D_hat = delta^2 D, composed exactly (polynomial substitution with rational
    scale/shift).  The claimed ellipticity constants carry over unchanged.
    """
    if delta <= 0:
        raise OperatorError("delta must be positive")
    x0 = tuple(float(v) for v in np.atleast_1d(x0))
    if len(x0) != op.n - 1:
        raise OperatorError("x0 must be a tangential point")
    d = Fraction(delta)
    scales = [d] * op.n
    shifts = [Fraction(v) for v in x0] + [Fraction(0)]

    def mapped(tensor, factor):
        out = np.empty(tensor.shape, dtype=object)
        for idx in np.ndindex(tensor.shape):
            out[idx] = tensor[idx].compose_affine(scales, shifts) * factor
        return out

    return EllipticOperator(
        op.n, op.N,
        mapped(op.A, Fraction(1)),
        mapped(op.B, d),
        mapped(op.Cc, d),
        mapped(op.D, d * d),
        lambda_claim=op.lambda_claim,
        Lambda_claim=op.Lambda_claim,
        kappa2_claim=op.kappa2_claim,
        label=op.label + "@rescaled",
    )
