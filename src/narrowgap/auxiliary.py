"""Auxiliary interpolant machinery: ubar, utilde, the source ftilde, bound shapes.

ubar is the vertical affine coordinate t = (x_n - bottom(x'))/delta(x'), 0 on
the bottom boundary and 1 on the top one; utilde_l = g-_l + t (g+_l - g-_l)
interpolates the component-l boundary traces through the gap; ftilde = -L[utilde]
is the source felt by the correction w = u - utilde.  Every jet is a float
array: the closed-form jets of t (geometry.vertical_jets) carry the jets of a
field given in (x', t) to physical space by one chain rule, so t_nn and the
second vertical derivative of utilde are exactly zero.

check_derivative_bounds measures, per inequality of the derivative-bound
family, the smallest constant C that makes it hold over a sample cloud; the
constants are the sweep-stability quantities the verification layer tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import _sample_ball, vertical_coordinate, vertical_jets
from .operators import OperatorError, apply_operator_jets
from .polynomial import PolynomialField

__all__ = [
    "BoundaryData",
    "AuxiliaryEvaluator",
    "BoundShapeReport",
    "chain_rule",
    "check_derivative_bounds",
]

MAX_DATA_DEGREE = 8
BOUND_SAMPLES = (129, 9)  # tangential points per axis, vertical levels


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
            if g.degree() > MAX_DATA_DEGREE:
                raise ValueError(f"boundary data degree {g.degree()} > {MAX_DATA_DEGREE}")
        self.g_plus = g_plus
        self.g_minus = g_minus
        self.N = len(g_plus)
        self.nd = nd
        self._mismatch = tuple(p - m for p, m in zip(g_plus, g_minus))
        self._norms = None

    def mismatch_poly(self, l):
        return self._mismatch[l]

    def norms(self):
        """Per-component sampled norms on the unit ball.

        Returns a dict with arrays of length N: c0 (sup |g|), c1 (sup |grad|),
        c2 (sup |hess|_F), full (sup of the pointwise sum), for each side.
        """
        if self._norms is not None:
            return self._norms
        pts = _sample_ball(self.nd, 1.0, 513 if self.nd == 1 else 65)

        def side(comps):
            parts = [g.c2_samples(pts) for g in comps]
            c0, c1, c2 = (np.array([part[k].max() for part in parts])
                          for k in range(3))
            full = np.array([sum(part).max() for part in parts])
            return dict(c0=c0, c1=c1, c2=c2, full=full)

        self._norms = {"plus": side(self.g_plus), "minus": side(self.g_minus)}
        return self._norms

    def c2_norm(self, side="plus"):
        """Vector C2 norm: max over components of sup(|g|+|grad g|+|hess g|)."""
        return float(self.norms()[side]["full"].max())

    def component(self, l):
        """Data with all components except l zeroed (for split solves)."""
        zero = PolynomialField.zero(self.nd)
        gp = tuple(g if i == l else zero for i, g in enumerate(self.g_plus))
        gm = tuple(g if i == l else zero for i, g in enumerate(self.g_minus))
        return BoundaryData(gp, gm)


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
    those float jets.  They serve the derivative-bound checks and the tests;
    the solver and the analysis take the nodal interpolant from
    mesh_solver.boundary_values.
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


@dataclass
class BoundShapeReport:
    """Smallest constants making each derivative bound hold over the samples.

    c24_residual and c210_residual are the measured sups of the identically
    vanishing second vertical derivatives (should be rounding-level zero).
    Constants are maxima over components and tangential directions.
    """

    epsilon: float
    n_samples: int
    c23: float = 0.0
    c24_residual: float = 0.0
    c26: float = 0.0
    c27_lower: float = 0.0
    c27_upper: float = 0.0
    c28: float = 0.0
    c29: float = 0.0
    c210_residual: float = 0.0
    per_component: list = field(default_factory=list)

    def constants(self):
        return {
            "c23": self.c23, "c26": self.c26, "c27_lower": self.c27_lower,
            "c27_upper": self.c27_upper, "c28": self.c28, "c29": self.c29,
        }


def _ratio_max(num, den, floor=1e-13):
    """Max of num/den over samples where den is meaningfully positive."""
    den = np.asarray(den)
    num = np.asarray(num)
    ok = den > floor * max(1.0, float(num.max(initial=0.0)))
    if not ok.any():
        return 0.0
    return float((num[ok] / den[ok]).max())


def check_derivative_bounds(region, data):
    """Measure the derivative-bound constants for ubar and utilde.

    The sample cloud is the 129^(n-1) tangential grid points inside the ball
    |x'| <= r_solve, each crossed with 9 uniform levels through the gap.
    Pointwise quantities use the closed-form jets of AuxiliaryEvaluator at
    (x', t), every x'-only polynomial evaluated once per tangential point
    and broadcast over the levels; the right-hand sides use the sampled
    data norms.
    """
    mx, mt = BOUND_SAMPLES
    nd, n = region.nd, region.n
    tang = _sample_ball(nd, region.r_solve, mx)
    shape = (mt, len(tang))
    t = np.linspace(0.0, 1.0, mt)[:, None]
    r2 = np.broadcast_to((tang**2).sum(axis=-1), shape)
    r = np.sqrt(r2)
    peak = region.epsilon + r2

    ev = AuxiliaryEvaluator(region, data)
    report = BoundShapeReport(epsilon=region.epsilon, n_samples=r.size)

    # tang[None] keeps the derivative axes of every jet clear of the levels
    ug, uh = vertical_jets(region, tang[None], t)
    report.c23 = max(
        _ratio_max(np.abs(ug[a]) * peak, r) for a in range(nd)
    )
    report.c24_residual = float(np.abs(uh[n - 1, n - 1]).max())

    norms = data.norms()
    _, grads, hesss = ev._utilde_jets_at(tang[None], t)
    for l, (d1, d2) in enumerate(zip(grads, hesss)):
        mm = np.broadcast_to(np.abs(data.mismatch_poly(l).value_many(tang)), shape)
        n1 = float(norms["plus"]["c1"][l] + norms["minus"]["c1"][l])
        n2 = float(norms["plus"]["c2"][l] + norms["minus"]["c2"][l])
        tang_mag = np.sqrt(sum(d1[a] ** 2 for a in range(nd)))
        comp = {}
        comp["c26"] = _ratio_max(tang_mag, r / peak * mm + n1)
        dn = np.abs(d1[n - 1])
        comp["c27_upper"] = _ratio_max(dn * peak, mm)
        comp["c27_lower"] = _ratio_max(mm, peak * dn)
        c28 = 0.0
        c29 = 0.0
        for a in range(nd):
            for b in range(nd):
                c28 = max(c28, _ratio_max(
                    np.abs(d2[a, b]),
                    mm / peak + (r / peak + 1.0) * n1 + n2,
                ))
            c29 = max(c29, _ratio_max(
                np.abs(d2[a, n - 1]),
                r * mm / peak**2 + n1 / peak,
            ))
        c210 = float(np.abs(d2[n - 1, n - 1]).max())
        comp["c28"], comp["c29"], comp["c210_residual"] = c28, c29, c210
        report.per_component.append(comp)
        report.c26 = max(report.c26, comp["c26"])
        report.c27_lower = max(report.c27_lower, comp["c27_lower"])
        report.c27_upper = max(report.c27_upper, comp["c27_upper"])
        report.c28 = max(report.c28, c28)
        report.c29 = max(report.c29, c29)
        report.c210_residual = max(report.c210_residual, c210)
    return report
