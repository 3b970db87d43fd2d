"""Divergence-form elliptic systems: coefficient tensors and their measured constants.

An operator is  d/dx_a ( A_ij^{ab} d/dx_b u^j + B_ij^a u^j ) + Cc_ij^b d/dx_b u^j
+ D_ij u^j  with polynomial coefficient entries, i the equation index and j the
component index.  Builtins: the scalar Laplacian and the isotropic elasticity
(Lame) tensor.  The module also measures the constants the estimates depend
on: an integral ellipticity estimate, a sampled sup bound for |A|, and a
sampled C2 coefficient bound.  The ellipticity estimate is the minimum of
the Rayleigh quotient over the span of a fixed dictionary, the separable
sine modes per component: with the dictionary's Gram matrices K and D it is
the smallest eigenvalue of the pencil (sym K, D).  The Grams use the
separable trapezoid quadrature: sums of Kronecker products of a Gram over
the tangential columns and one over the vertical levels, with the gap
geometry and any varying coefficient expanded per column in powers of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, eigh

from .polynomial import PolynomialField

__all__ = [
    "EllipticOperator",
    "OperatorError",
    "make_builtin",
    "apply_operator_jets",
    "estimate_ellipticity",
    "estimate_bounds",
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
                 lambda_claim=None, Lambda_claim=None, kappa2_claim=None):
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

    @cached_property
    def jet_terms(self):
        """The nonzero products of L[u] expanded over the jets of u.

        Per equation i, a list of (coefficient, j, path) meaning
        coefficient * jets[j][path]: path (1, b) is d_b u^j, (2, a, b) is
        d_a d_b u^j and (0,) is u^j.  The order is the summation order of
        apply_operator_jets, and the coefficient derivatives d_a A^{ab} and
        d_a B^a are taken here, once per operator.
        """
        n = self.n
        lower = self.has_lower_order_terms()
        rows = []
        for i in range(self.N):
            terms = []
            for j in range(self.N):
                for a in range(n):
                    for b in range(n):
                        A = self.A[i, j, a, b]
                        terms += [(A.deriv(a), j, (1, b)), (A, j, (2, a, b))]
                if lower:
                    for a in range(n):
                        B = self.B[i, j, a]
                        terms += [(B, j, (1, a)), (B.deriv(a), j, (0,)),
                                  (self.Cc[i, j, a], j, (1, a))]
                    terms.append((self.D[i, j], j, (0,)))
            rows.append([t for t in terms if not t[0].is_zero()])
        return rows

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
        )
    if kind == "lame":
        if not (math.isfinite(lame_mu) and math.isfinite(lame_lambda)):
            raise OperatorError("lame_mu and lame_lambda must be finite")
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
        )
    raise OperatorError(f"unknown builtin operator {kind!r}")


def apply_operator_jets(op, jets, zero, coef=lambda p: p):
    """L[u]^i for i < N from the jets of u.

    ``jets[j]`` is (u^j, grad, hess) with grad[b] = d_b u^j and
    hess[a][b] = d_a d_b u^j, all of one kind: exact polynomials or
    rationals, or float arrays over a set of points.  ``coef`` maps a
    coefficient polynomial to the factor that multiplies a jet entry (the
    polynomial itself for exact jets, its values at the points for arrays)
    and ``zero`` starts each sum.  Expands
    d_a(A^{ab} d_b u + B^a u) + C^b d_b u + D u by the product rule.
    """
    out = []
    for terms in op.jet_terms:
        acc = zero
        for p, j, path in terms:
            entry = jets[j]
            for k in path:
                entry = entry[k]
            acc = acc + coef(p) * entry
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

    ``axes`` are the tangential 1-D axes and ``t`` the vertical one.  The
    nodal arrays run over their tensor product, t fastest; the column arrays
    run over the tangential columns, the first axis slowest.  The weight of
    the node (column c, level l) is col_weights[c] * level_weights[l].
    """

    axes: tuple
    t: np.ndarray
    points: np.ndarray         # (M, n) physical nodes
    cols: np.ndarray           # (C, nd) tangential columns
    delta: np.ndarray          # (C,) gap width delta(x')
    dbottom: np.ndarray        # (nd, C) d bottom / d x_a
    ddelta: np.ndarray         # (nd, C) d delta / d x_a
    col_weights: np.ndarray    # (C,) tangential trapezoid weights * hx^nd * delta
    level_weights: np.ndarray  # (mt,) trapezoid weights in t * ht


def _quadrature_nodes(region, grid_spec):
    """Tensor trapezoid quadrature over the mapped region.

    Returns the 1-D axes, the flattened physical points, and per tangential
    column the gap width, the profile derivatives and the column weight,
    which includes the vertical Jacobian delta(x').  The profiles
    depend on x' only, so they are evaluated once per column.
    Self-contained on purpose: the ellipticity search must not share the
    solver's code path.
    """
    nd = region.nd
    mx, mt = grid_spec
    axes = [np.linspace(-region.r_solve, region.r_solve, mx) for _ in range(nd)]
    t_ax = np.linspace(0.0, 1.0, mt)
    cols = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    delta = region.delta_poly.value_many(cols)
    bottom = region.bottom_poly.value_many(cols)
    # (columns, mt) arrays flattened to the nodes, t fastest
    xn = bottom[:, None] + t_ax * delta[:, None]
    points = np.concatenate([np.repeat(cols, mt, axis=0), xn.reshape(-1, 1)], axis=-1)

    w = _trapezoid_weights(mx)
    tang = w.copy()
    for _ in range(nd - 1):
        tang = np.multiply.outer(tang, w)
    tang = tang.ravel()
    w_t = _trapezoid_weights(mt)
    hx = axes[0][1] - axes[0][0]
    ht = t_ax[1] - t_ax[0]
    return _Quadrature(
        tuple(axes), t_ax, points, cols, delta,
        np.stack([region.bottom_poly.deriv(a).value_many(cols) for a in range(nd)]),
        np.stack([region.delta_poly.deriv(a).value_many(cols) for a in range(nd)]),
        tang * hx**nd * delta, w_t * ht)  # dx = delta dt dx'


# (tangential points per axis, vertical levels) of the quadratures
ELLIPTICITY_GRID = (49, 25)
BOUNDS_GRID = (33, 17)
# the sine mode numbers 1.._SINE_KMAX[n] on each axis, per dimension n; the
# quadrature under-resolves higher modes, and its integration-by-parts
# error then pulls the Lame estimate below mu
_SINE_KMAX = {2: 6, 3: 3}


def _sine_tables(region, quad):
    """Per 1-D axis (tangential axes, then t): sin(k pi s) and its derivative
    in the physical tangential variable (in t for the last axis), each of
    shape (_SINE_KMAX[n], axis length); s is the axis mapped onto [0, 1]."""
    r = region.r_solve
    kpi = np.arange(1, _SINE_KMAX[region.n] + 1)[:, None] * np.pi
    scaled = [((x + r) / (2 * r), 1.0 / (2 * r)) for x in quad.axes]
    return [(np.sin(kpi * s), kpi * scale * np.cos(kpi * s))
            for s, scale in scaled + [(quad.t, 1.0)]]


def _entry_grams(op, unit, weighted):
    """(Gram, entries) per distinct nonzero polynomial p of A.

    The Gram is ``c * unit`` for a constant c and ``weighted(p)`` otherwise;
    entries are the indices (i, j, a, b) of A where p sits.
    """
    groups = {}
    for idx in np.ndindex(op.A.shape):
        p = op.A[idx]
        if not p.is_zero():
            groups.setdefault(p, []).append(idx)
    for p, entries in groups.items():
        gram = float(p.constant_term()) * unit if p.degree() == 0 else weighted(p)
        yield gram, entries


def _t_expansion(p, region, cols):
    """[(j, alpha_j)] with p(x', bottom(x') + t delta(x')) = sum_j alpha_j(x') t^j:
    the alpha_j are composed exactly and evaluated at the columns ``cols``."""
    n = p.nvars
    xn = (region.bottom_poly.lift(n)
          + region.delta_poly.lift(n) * PolynomialField.variable(n, n - 1))
    composed = PolynomialField.zero(n)
    for e, c in p.terms.items():
        composed = composed + PolynomialField(n, {e[:-1] + (0,): c}) * xn ** e[-1]
    powers = {}
    for e, c in composed.terms.items():
        powers.setdefault(e[-1], {})[e[:-1]] = c
    return [(j, PolynomialField(n - 1, terms).value_many(cols))
            for j, terms in sorted(powers.items())]


def _sine_grams(op, region, quad):
    """Gram matrices (K, D) of the sine-mode dictionary, (N*m, N*m) each.

    The dictionary holds, in every component i, the m = _SINE_KMAX[n]**n tensor
    modes phi_k = prod_e sin(k_e pi s_e), k ravelled with the first axis
    slowest and t fastest.  K[(i, k), (j, l)] is the quadrature of
    A_ij^{ab} d_a phi_k d_b phi_l and D is |grad phi|^2 in every diagonal
    block.  The quadrature is separable: a mode's physical derivative is a
    sum of terms f(x') T(x', k') L(t, k_t), and each Gram is a sum of
    Kronecker products of a tangential Gram over the columns and a level
    Gram over t.  A varying entry of A enters through its expansion in t.
    """
    n, N = op.n, op.N
    nd = n - 1
    tables = _sine_tables(region, quad)
    sin_t, dsin_t = (f.T for f in tables[nd])

    def tangential(d):
        # (C, _SINE_KMAX[n]**nd) products of tangential sines, differentiated
        # on axis d (on none if d == nd)
        out = np.ones((1, 1))
        for e in range(nd):
            out = np.kron(out, tables[e][int(e == d)].T)
        return out

    # d_a = d_a|t + (u_a + t v_a) d_t for a < nd and d_n = d_t / delta, with
    # u_a = -bottom_a / delta and v_a = -delta_a / delta; the terms of each
    # direction as (column factor, tangential factor, level factor)
    inv = 1.0 / quad.delta
    flat = tangential(nd)
    terms = []
    for a in range(nd):
        terms += [(np.ones_like(inv), tangential(a), sin_t),
                  (-quad.dbottom[a] * inv, flat, dsin_t),
                  (-quad.ddelta[a] * inv, flat, quad.t[:, None] * dsin_t)]
    terms.append((inv, flat, dsin_t))
    starts = list(range(0, len(terms), 3))  # first term of each direction
    col = np.stack([f[:, None] * T for f, T, _ in terms])
    lev = np.stack([L for _, _, L in terms])
    R, m = len(terms), _SINE_KMAX[n] ** n

    def pairs(factor, weight):
        # (R, R, k, k) Grams over the first axis of every pair of terms, as
        # one small matrix product per pair: a product big enough for the
        # BLAS to thread leaves its workers spinning on the cores afterwards
        return np.matmul((factor * weight[:, None]).transpose(0, 2, 1)[:, None],
                         factor[None])

    def gram(expansion):
        # (n, m, n, m) direction Grams int w d_a phi_k d_b phi_l for the
        # weight w = sum_j alpha_j(x') t^j
        out = 0.0
        for j, alpha in expansion:
            TG = pairs(col, quad.col_weights * alpha)
            LG = pairs(lev, quad.level_weights * quad.t**j)
            terms_gram = (TG[:, :, :, None, :, None] * LG[:, :, None, :, None, :])
            terms_gram = terms_gram.transpose(0, 2, 3, 1, 4, 5).reshape(R, m, R, m)
            out = out + np.add.reduceat(np.add.reduceat(terms_gram, starts, axis=0),
                                        starts, axis=2)
        return out

    unit = gram([(0, 1.0)])
    K = np.zeros((N, m, N, m))
    for G, entries in _entry_grams(
            op, unit, lambda p: gram(_t_expansion(p, region, quad.cols))):
        for i, j, a, b in entries:
            K[i, :, j, :] += G[a, :, b, :]
    D = sum(unit[a, :, a, :] for a in range(n))
    return K.reshape(N * m, N * m), np.kron(np.eye(N), D)


def estimate_ellipticity(op, region):
    """Estimate of the integral ellipticity constant over a sine dictionary.

    The minimum of the Rayleigh quotient  int A dv dv / int |grad v|^2  with
    trapezoid quadrature on the mapped region, over every zero-trace field v
    in the span of the ``_SINE_KMAX[n]**n`` separable sine modes per
    component.  A field with coefficients c has the quotient c.Kc / c.Dc in
    the Grams of ``_sine_grams``, so by Rayleigh-Ritz the minimum over the
    span is the smallest eigenvalue of the pencil ((K + K^T)/2, D); only the
    symmetric part of K enters a quadratic form, and a custom A need not be
    symmetric.  A minimum over a subspace, so it estimates the constant from
    above, up to quadrature error.  Deterministic.
    """
    if op.n != region.n:
        raise OperatorError("operator and region dimensions differ")
    K, D = _sine_grams(op, region, _quadrature_nodes(region, ELLIPTICITY_GRID))
    try:
        low = eigh((K + K.T) / 2, D, subset_by_index=[0, 0], eigvals_only=True)
    except LinAlgError as exc:
        # the Cholesky factor of D fails when D is not positive definite
        raise OperatorError(f"sine-mode Gram pencil: {exc}") from None
    return float(low[0])


def estimate_bounds(op, region):
    """Sampled sup |A| and C2 coefficient norm over the mapped region.

    Returns (Lambda_est, kappa2_est): Lambda_est is the sup over samples and
    entries of |A|; kappa2_est sums, over the four tensors, the sup over
    samples of the largest entrywise |f| + |grad f| + |hess f|.
    """
    points = _quadrature_nodes(region, BOUNDS_GRID).points

    def values(p):
        return p.value_many(points)

    def distinct_nonzero(tensor):
        # a sup over entries needs each distinct polynomial only once
        return [p for p in set(tensor.ravel()) if not p.is_zero()]

    def tensor_c2(tensor):
        return max((float(sum(p.c2_samples(values)).max())
                    for p in distinct_nonzero(tensor)), default=0.0)

    Lambda_est = 0.0
    for p in distinct_nonzero(op.A):
        Lambda_est = max(Lambda_est, float(np.abs(values(p)).max()))

    kappa2_est = sum(tensor_c2(t) for t in (op.A, op.B, op.Cc, op.D))
    return Lambda_est, kappa2_est
