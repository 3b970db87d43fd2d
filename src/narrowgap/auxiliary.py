"""Auxiliary interpolant machinery: ubar, utilde and the source ftilde.

ubar is the vertical affine coordinate t = (x_n - bottom(x'))/delta(x'), 0 on
the bottom boundary and 1 on the top one; utilde_l = g-_l + t (g+_l - g-_l)
interpolates the component-l boundary traces through the gap; ftilde = -L[utilde]
is the source felt by the correction w = u - utilde.  Every jet is a float
array: the closed-form jets of t (geometry.vertical_jets) carry the jets of a
field given in (x', t) to physical space by one chain rule, so t_nn and the
second vertical derivative of utilde are exactly zero.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import _SampleGrid, vertical_coordinate, vertical_jets
from .operators import OperatorError, apply_operator_jets
from .polynomial import MAX_DEGREE, PolynomialField

__all__ = [
    "BoundaryData",
    "AuxiliaryEvaluator",
    "chain_rule",
]


class BoundaryData:
    """Composed boundary traces g+ (top) and g- (bottom), polynomials in x'.

    Each is a length-N tuple of PolynomialField over the n-1 tangential
    variables.  Norms are sampled sups over the unit ball, cached on first
    use at a fixed resolution.
    """

    def __init__(self, g_plus, g_minus):
        g_plus = tuple(g_plus)
        g_minus = tuple(g_minus)
        if not g_plus or len(g_plus) != len(g_minus):
            raise ValueError("g_plus and g_minus must be nonempty, equal-length")
        nd = g_plus[0].nvars
        for g in g_plus + g_minus:
            if not isinstance(g, PolynomialField):
                raise TypeError("boundary components must be PolynomialField")
            if g.nvars != nd:
                raise ValueError("boundary components over mixed dimensions")
            if g.degree() > MAX_DEGREE:
                raise ValueError(f"boundary data degree {g.degree()} > {MAX_DEGREE}")
        self.g_plus = g_plus
        self.g_minus = g_minus
        self.N = len(g_plus)
        self.nd = nd
        self._mismatch = tuple(p - m for p, m in zip(g_plus, g_minus))

    def mismatch_poly(self, l):
        return self._mismatch[l]

    @cached_property
    def _c2_norms(self):
        pts = _SampleGrid(self.nd, 1.0, 513 if self.nd == 1 else 65).points
        return {side: max(float(sum(g.c2_samples(lambda p: p.value_many(pts))).max())
                          for g in comps)
                for side, comps in (("plus", self.g_plus), ("minus", self.g_minus))}

    def c2_norm(self, side="plus"):
        """Vector C2 norm: max over components of sup(|g|+|grad g|+|hess g|)."""
        return self._c2_norms[side]


def chain_rule(dU, d2U, grad_t, hess_t):
    """Physical gradient and Hessian of u(x) = U(x', t(x)).

    ``dU`` (n, ...) and ``d2U`` (n, n, ...) are the partials of U in the
    computational coordinates (x', t), t last; ``grad_t`` and ``hess_t`` are
    the physical jets of t from geometry.vertical_jets.  With J the Jacobian
    of (x', t) in x, grad = J^T dU and hess = J^T d2U J + U_t hess_t.
    """
    def pull(v, jet):
        # J^T v over the first axis: v_a + v_t t_a tangential, v_t t_n vertical
        out = v[-1] * jet
        out[:-1] += v[:-1]
        return out

    grad = pull(dU, grad_t)
    half = pull(d2U, grad_t[:, None])
    hess = pull(half.swapaxes(0, 1), grad_t[:, None]) + dU[-1] * hess_t
    return grad, hess


class AuxiliaryEvaluator:
    """Vectorized evaluation of ubar / utilde / ftilde over point arrays.

    Points are physical, shape (..., n).  ubar = t is recomputed from them,
    utilde = g- + t (g+ - g-) and its jets come from the trace polynomials
    through chain_rule, and ftilde = -L[utilde] applies the operator to
    those float jets.  They serve the tests; the solver and the analysis
    take the nodal interpolant from mesh_solver.boundary_values.
    """

    def __init__(self, region, data=None, op=None):
        self.region = region
        self.data = data
        self.op = op

    def ubar_values(self, points):
        return vertical_coordinate(self.region, points)[1]

    def ubar_grad(self, points):
        return vertical_jets(self.region, *vertical_coordinate(self.region, points))[0]

    def ubar_hess(self, points):
        return vertical_jets(self.region, *vertical_coordinate(self.region, points))[1]

    def _utilde_jets(self, points):
        """Values (N, ...), gradients (N, n, ...) and Hessians (N, n, n, ...)
        of utilde at ``points``."""
        return self._utilde_jets_at(*vertical_coordinate(self.region, points))

    def _utilde_jets_at(self, tang, t):
        """_utilde_jets at the tangential points ``tang`` (..., n-1) and the
        levels ``t``, which broadcast against tang's leading axes (not only
        its last one, as the jets put derivative axes in front): every
        polynomial is evaluated on ``tang`` only."""
        tjets = vertical_jets(self.region, tang, t)
        shape = tjets[0].shape[1:]
        nd = self.region.nd
        vals, grads, hesss = [], [], []
        for l, gm in enumerate(self.data.g_minus):
            (gm0, gm1, gm2), (m0, m1, m2) = (
                _poly_jets(p, tang) for p in (gm, self.data.mismatch_poly(l)))
            dU = np.empty((nd + 1,) + shape)
            d2U = np.zeros((nd + 1, nd + 1) + shape)
            dU[:nd] = gm1 + t * m1
            dU[nd] = m0
            d2U[:nd, :nd] = gm2 + t * m2
            d2U[:nd, nd] = d2U[nd, :nd] = m1
            grad, hess = chain_rule(dU, d2U, *tjets)
            vals.append(np.broadcast_to(gm0 + t * m0, shape))
            grads.append(grad)
            hesss.append(hess)
        return np.array(vals), np.array(grads), np.array(hesss)

    def utilde_values(self, points):
        """(N, ...) array of interpolant values."""
        return self._utilde_jets(points)[0]

    def utilde_grad(self, points):
        """(N, n, ...) array of physical gradients."""
        return self._utilde_jets(points)[1]

    def ftilde_values(self, points):
        """(N, ...) array of the source -L[utilde]."""
        op, N, pts = self.op, self.data.N, np.asarray(points, dtype=float)
        if op.n != self.region.n:
            raise OperatorError("operator and region dimensions differ")
        if op.N != N:
            raise OperatorError(f"data has {N} components, operator wants {op.N}")
        jets = list(zip(*self._utilde_jets(pts)))
        return -np.array(apply_operator_jets(op, jets, np.zeros(pts.shape[:-1]),
                                             lambda p: p.value_many(pts)))


def _poly_jets(p, points):
    """Value (...), gradient (nd, ...) and Hessian (nd, nd, ...) of the
    polynomial p at ``points``."""
    grad = p.grad()
    return (p.value_many(points), np.array([d.value_many(points) for d in grad]),
            np.array([[d.deriv(b).value_many(points) for b in range(p.nvars)]
                      for d in grad]))
