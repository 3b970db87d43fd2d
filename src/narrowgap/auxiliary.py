"""Auxiliary interpolant machinery: ubar, utilde, the source ftilde, bound shapes.

ubar is the vertical affine coordinate that is 0 on the bottom boundary and 1
on the top one; utilde_l interpolates the component-l boundary traces through
the gap; ftilde is what the operator produces when applied to utilde, i.e. the
source felt by the correction w = u - utilde.  All three live in the exact
rational family {p / delta^k} (delta the gap polynomial), so every derivative
here is exact and the structural identities (second vertical derivatives
vanish) hold as polynomial zeros.

check_derivative_bounds measures, per inequality of the derivative-bound
family, the smallest constant C that makes it hold over a sample cloud; the
constants are the sweep-stability quantities the verification layer tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import _sample_ball
from .operators import OperatorError, apply_operator_jets
from .polynomial import PolynomialField, RationalField

__all__ = [
    "BoundaryData",
    "AuxiliaryEvaluator",
    "BoundShapeReport",
    "check_derivative_bounds",
]

MAX_DATA_DEGREE = 8


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
        self._key = (g_plus, g_minus)
        self._mismatch = tuple(p - m for p, m in zip(g_plus, g_minus))
        self._norms = None

    def __eq__(self, other):
        return isinstance(other, BoundaryData) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

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


@lru_cache(maxsize=32)
def _ubar_rational(region):
    n = region.n
    den = region.delta_poly.lift(n)
    num = PolynomialField.variable(n, n - 1) - region.bottom_poly.lift(n)
    return RationalField(num, den, 1)


@lru_cache(maxsize=32)
def _ubar_jet(region):
    u = _ubar_rational(region)
    n = region.n
    d1 = [u.deriv(i) for i in range(n)]
    d2 = [[d1[i].deriv(j) for j in range(n)] for i in range(n)]
    return u, d1, d2


@lru_cache(maxsize=64)
def _utilde_scalars(region, data):
    """Component rationals g+_l * ubar + g-_l * (1 - ubar), all components."""
    u = _ubar_rational(region)
    n = region.n
    out = []
    for l in range(data.N):
        gp = data.g_plus[l].lift(n)
        gm = data.g_minus[l].lift(n)
        out.append(u * (gp - gm) + gm)
    return tuple(out)


@lru_cache(maxsize=64)
def _utilde_jets(region, data):
    n = region.n
    jets = []
    for s in _utilde_scalars(region, data):
        d1 = [s.deriv(i) for i in range(n)]
        d2 = [[d1[i].deriv(j) for j in range(n)] for i in range(n)]
        jets.append((s, d1, d2))
    return tuple(jets)


@lru_cache(maxsize=64)
def _ftilde_rationals(op, region, data):
    """Exact source components  -L[utilde]  in the rational family."""
    if op.n != region.n:
        raise OperatorError("operator and region dimensions differ")
    if op.N != data.N:
        raise OperatorError(f"data has {data.N} components, operator wants {op.N}")
    zero = RationalField.from_poly(PolynomialField.zero(op.n),
                                   region.delta_poly.lift(op.n))
    return tuple(-f for f in apply_operator_jets(op, _utilde_jets(region, data), zero))


class AuxiliaryEvaluator:
    """Vectorized evaluation of ubar / utilde / ftilde over point arrays.

    Builds the exact rational representatives once per (region, data) and
    reuses their cached evaluation tables.  They serve the derivative-bound
    checks, the manufactured-solution jets and the tests; the solver and
    the analysis take the nodal interpolant from mesh_solver.boundary_values.
    """

    def __init__(self, region, data=None, op=None):
        self.region = region
        self.data = data
        self.op = op

    def ubar_values(self, points):
        return _ubar_rational(self.region).value_many(points)

    def ubar_grad(self, points):
        _, d1, _ = _ubar_jet(self.region)
        return np.stack([d.value_many(points) for d in d1], axis=0)

    def ubar_hess(self, points):
        _, _, d2 = _ubar_jet(self.region)
        return np.array([[d.value_many(points) for d in row] for row in d2])

    def utilde_values(self, points):
        """(N, ...) array of interpolant values."""
        scalars = _utilde_scalars(self.region, self.data)
        return np.stack([s.value_many(points) for s in scalars], axis=0)

    def utilde_grad(self, points):
        """(N, n, ...) array of exact physical gradients."""
        jets = _utilde_jets(self.region, self.data)
        return np.array([[d.value_many(points) for d in d1] for _, d1, _ in jets])

    def ftilde_values(self, points):
        fr = _ftilde_rationals(self.op, self.region, self.data)
        return np.stack([f.value_many(points) for f in fr], axis=0)


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


def check_derivative_bounds(region, data, samples=(129, 9)):
    """Measure the derivative-bound constants for ubar and utilde.

    samples = (tangential points per dim, vertical levels).  Sample cloud is
    the tensor grid over the solve box crossed with uniform levels through
    the gap.  Pointwise quantities use exact rational derivatives; the
    right-hand sides use the sampled data norms.
    """
    mx, mt = samples
    nd, n = region.nd, region.n
    tang = _sample_ball(nd, region.r_solve, mx)
    tlev = np.linspace(0.0, 1.0, mt)
    delta = region.delta_poly.value_many(tang)
    bottom = region.bottom_poly.value_many(tang)
    pts = []
    for t in tlev:
        xn = bottom + t * delta
        pts.append(np.concatenate([tang, xn[:, None]], axis=-1))
    pts = np.concatenate(pts, axis=0)
    tang_rep = np.tile(tang, (mt, 1))
    r2 = (tang_rep**2).sum(axis=-1)
    r = np.sqrt(r2)
    peak = region.epsilon + r2

    ev = AuxiliaryEvaluator(region, data)
    report = BoundShapeReport(epsilon=region.epsilon, n_samples=len(pts))

    ug = ev.ubar_grad(pts)
    uh = ev.ubar_hess(pts)
    report.c23 = max(
        _ratio_max(np.abs(ug[a]) * peak, r) for a in range(nd)
    )
    report.c24_residual = float(np.abs(uh[n - 1, n - 1]).max())

    norms = data.norms()
    for l in range(data.N):
        jets = _utilde_jets(region, data.component(l))[l]
        _, d1, d2 = jets
        mm = np.abs(data.mismatch_poly(l).value_many(tang_rep))
        n1 = float(norms["plus"]["c1"][l] + norms["minus"]["c1"][l])
        n2 = float(norms["plus"]["c2"][l] + norms["minus"]["c2"][l])
        dvals = [d1[i].value_many(pts) for i in range(n)]
        tang_mag = np.sqrt(sum(dvals[a] ** 2 for a in range(nd)))
        comp = {}
        comp["c26"] = _ratio_max(tang_mag, r / peak * mm + n1)
        dn = np.abs(dvals[n - 1])
        comp["c27_upper"] = _ratio_max(dn * peak, mm)
        comp["c27_lower"] = _ratio_max(mm, peak * dn)
        c28 = 0.0
        c29 = 0.0
        c210 = 0.0
        for a in range(nd):
            for b in range(nd):
                c28 = max(c28, _ratio_max(
                    np.abs(d2[a][b].value_many(pts)),
                    mm / peak + (r / peak + 1.0) * n1 + n2,
                ))
            c29 = max(c29, _ratio_max(
                np.abs(d2[a][n - 1].value_many(pts)),
                r * mm / peak**2 + n1 / peak,
            ))
        c210 = max(c210, float(np.abs(d2[n - 1][n - 1].value_many(pts)).max()))
        comp["c28"], comp["c29"], comp["c210_residual"] = c28, c29, c210
        report.per_component.append(comp)
        report.c26 = max(report.c26, comp["c26"])
        report.c27_lower = max(report.c27_lower, comp["c27_lower"])
        report.c27_upper = max(report.c27_upper, comp["c27_upper"])
        report.c28 = max(report.c28, c28)
        report.c29 = max(report.c29, c29)
        report.c210_residual = max(report.c210_residual, c210)
    return report
