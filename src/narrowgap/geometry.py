"""Narrow-region geometry: boundary graphs, gap width, validation.

The domain is the strip between two polynomial graphs over the tangential
ball: top boundary xn = eps/2 + h1(x'), bottom boundary xn = -eps/2 + h2(x').
The gap width delta(x') = eps + h1(x') - h2(x') must stay positive and, for
the estimates to apply, the profile pair must separate quadratically at the
origin (Hessian of h1 - h2 bounded below by kappa0) while staying C2-bounded
by kappa1.  validate_profile measures all of that and reports it; the only
constructor-level hard checks are the exact origin conditions, which are
coefficient-level reads on the polynomials.

The convexity check reads the exact Hessian at the origin.  Everything else
the gate samples (the C2 norms and the gap widths on the unit ball, the
comparability ratios on the r_solve ball, and the smallest width on the
solve box at construction) is evaluated on a tensor grid of the box by
_SampleGrid, as outer products of per-axis powers, and masked to the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .polynomial import MAX_DEGREE, PolynomialField

__all__ = [
    "GeometryError",
    "GapProfile",
    "NarrowRegion",
    "ValidationReport",
    "validate_profile",
    "vertical_coordinate",
    "vertical_jets",
]

# validate_profile samples the unit ball and the r_solve ball on this many
# points per tangential axis, and allows the claimed kappa0 and kappa1 this
# much slack
SAMPLES_PER_DIM = 160
CHECK_TOL = 1e-9


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class GapProfile:
    """Pair of boundary graphs h1 (top) and h2 (bottom) over x'.

    kappa0 is the claimed strict-convexity constant for the separation
    h1 - h2 at the origin; kappa1 the claimed C2 bound for both graphs.
    Claims are checked by validate_profile, not here.  Construction enforces
    only the exact origin normalization h_i(0') = 0, grad h_i(0') = 0.
    """

    h1: PolynomialField
    h2: PolynomialField
    kappa0: float = 1e-8
    kappa1: float = 100.0

    def __post_init__(self):
        if self.h1.nvars != self.h2.nvars:
            raise GeometryError("h1 and h2 must share the tangential dimension")
        if self.h1.nvars not in (1, 2):
            raise GeometryError("profiles are functions of 1 or 2 tangential variables")
        for name, h in (("h1", self.h1), ("h2", self.h2)):
            if h.degree() > MAX_DEGREE:
                raise GeometryError(f"{name} has degree {h.degree()} > {MAX_DEGREE}")
            if h.constant_term() != 0:
                raise GeometryError(f"{name}(0') must vanish exactly")
            if any(c != 0 for c in h.linear_coefficients()):
                raise GeometryError(f"grad {name}(0') must vanish exactly")
        if not (self.kappa0 > 0 and self.kappa1 > 0):
            raise GeometryError("kappa0 and kappa1 must be positive")

    @property
    def nd(self):
        """Tangential dimension n-1."""
        return self.h1.nvars

    def separation(self):
        """h1 - h2 as an exact polynomial."""
        return self.h1 - self.h2

    @cached_property
    def measurements(self):
        """The eps-independent measurements of validate_profile: the origin
        normalization residual, the smallest eigenvalue of hess(h1 - h2)(0')
        and the sampled C2 norms of h1 and h2 on the unit ball (sup of
        |h| + |grad h| + |hess h|_F)."""
        # exact origin conditions hold by construction; re-measure for the record
        origin_resid = float(
            abs(self.h1.constant_term())
            + abs(self.h2.constant_term())
            + sum(abs(c) for c in self.h1.linear_coefficients())
            + sum(abs(c) for c in self.h2.linear_coefficients())
        )
        # hess(h1 - h2)(0') from the degree-2 coefficients: 2c on the diagonal, c off it
        sep, nd = self.separation(), self.nd
        sep_hess = [[float(sep.coefficient([(i, j).count(k) for k in range(nd)]) * (1 + (i == j)))
                     for j in range(nd)] for i in range(nd)]
        min_eig = float(np.linalg.eigvalsh(sep_hess).min())
        c2_h1, c2_h2 = (float(sum(h.c2_samples(self.ball.values))[self.ball.inside].max())
                        for h in (self.h1, self.h2))
        return origin_resid, min_eig, c2_h1, c2_h2

    @cached_property
    def ball(self):
        """The unit-ball _SampleGrid that validate_profile samples."""
        return _SampleGrid(self.nd, 1.0, SAMPLES_PER_DIM)


@dataclass(frozen=True)
class NarrowRegion:
    """Thin solve domain over the tangential box of half-width r_solve.

    The vertical extent at x' is [-eps/2 + h2(x'), eps/2 + h1(x')].
    Estimates are evaluated on the inner region |x'| <= r_analyze.
    """

    n: int
    epsilon: float
    profile: GapProfile
    r_solve: float = 1.0
    r_analyze: float = 0.5

    def __post_init__(self):
        if self.n not in (2, 3):
            raise GeometryError("n must be 2 or 3")
        if self.profile.nd != self.n - 1:
            raise GeometryError(
                f"profile over {self.profile.nd} variables does not match n={self.n}"
            )
        if not 0 < self.epsilon < math.inf:
            raise GeometryError("epsilon must be positive and finite")
        if not 0 < self.r_analyze < self.r_solve <= 1.0:
            raise GeometryError("need 0 < r_analyze < r_solve <= 1")
        # the gap must be open on the whole solve box
        dmin = float(_SampleGrid(self.nd, self.r_solve, 65)
                     .values(self.delta_poly).min())
        if dmin <= 0:
            raise GeometryError(f"gap closes on the solve box (min width {dmin:g})")

    @property
    def nd(self):
        return self.n - 1

    @cached_property
    def delta_poly(self):
        return self.profile.separation() + Fraction(self.epsilon)

    @cached_property
    def bottom_poly(self):
        return self.profile.h2 - Fraction(self.epsilon) / 2


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass
class ValidationReport:
    passed: bool
    checks: list = field(default_factory=list)
    min_eigenvalue: float = float("nan")
    c2_norm_h1: float = float("nan")
    c2_norm_h2: float = float("nan")
    c21_lower: float = float("nan")
    c21_upper: float = float("nan")
    degenerate_override: bool = False

    def failures(self):
        return [c for c in self.checks if not c.passed]


def vertical_coordinate(region, points):
    """(x', t) of the physical points (..., n): the tangential part and
    t = (x_n - bottom(x'))/delta(x')."""
    pts = np.asarray(points, dtype=float)
    tang = pts[..., :-1]
    t = ((pts[..., -1] - region.bottom_poly.value_many(tang))
         / region.delta_poly.value_many(tang))
    return tang, t


def vertical_jets(region, tang, t):
    """Physical first and second derivatives of the vertical coordinate
    t = (x_n - bottom(x')) / delta(x') at the tangential points ``tang``,
    shape (..., n-1), and the levels ``t``, which broadcast against them.

    Returns (grad, hess) of shapes (n, *S) and (n, n, *S), S the broadcast
    shape.  Differentiating t delta = x_n - bottom gives, for tangential
    a, b: t_n = 1/delta, t_a = -(bottom_a + t delta_a)/delta,
    t_an = -delta_a/delta^2, t_ab = -(bottom_ab + t_a delta_b + t_b delta_a
    + t delta_ab)/delta and t_nn = 0.

    >>> flat = NarrowRegion(2, 0.25, GapProfile(PolynomialField.zero(1),
    ...                                         PolynomialField.zero(1)))
    >>> grad, hess = vertical_jets(flat, np.array([[0.3], [-0.7]]), 0.5)
    >>> grad[-1].tolist()
    [4.0, 4.0]
    >>> bool((grad[:-1] == 0).all() and (hess == 0).all())
    True
    """
    tang = np.asarray(tang, dtype=float)
    nd = region.nd
    shape = np.broadcast_shapes(tang.shape[:-1], np.shape(t))
    db = [region.bottom_poly.deriv(a) for a in range(nd)]
    dd = [region.delta_poly.deriv(a) for a in range(nd)]
    inv = 1.0 / region.delta_poly.value_many(tang)
    d1 = [p.value_many(tang) for p in dd]
    grad = [-(p.value_many(tang) + t * d) * inv for p, d in zip(db, d1)] + [inv]
    hess = [[0.0] * (nd + 1) for _ in range(nd + 1)]
    for a in range(nd):
        for b in range(a, nd):
            hess[a][b] = hess[b][a] = -(
                db[a].deriv(b).value_many(tang) + (grad[a] * d1[b] + grad[b] * d1[a])
                + t * dd[a].deriv(b).value_many(tang)) * inv
        hess[a][nd] = hess[nd][a] = -d1[a] * inv * inv

    def stack(entries):
        return np.stack([np.broadcast_to(e, shape) for e in entries])

    return stack(grad), np.stack([stack(row) for row in hess])


class _SampleGrid:
    """The m^nd sample grid of [-r, r]^nd, kept as the tensor product of
    one axis.

    ``values(p)`` evaluates a polynomial on the whole grid as a sum of outer
    products of the per-axis powers axis**k, computed once, so a monomial
    costs one outer product instead of one power per point and variable.
    Its shape is (m,) * nd.  ``radius_sq`` is |x'|^2, ``inside`` the mask
    of the r-ball and ``points`` (made when read) its points in C order.
    """

    def __init__(self, nd, r, m):
        self.axes = [np.linspace(-r, r, m)] * nd
        self.powers = [self.axes[0]**k for k in range(MAX_DEGREE + 1)]
        self.radius_sq = (self.powers[2] if nd == 1
                          else np.add.outer(self.powers[2], self.powers[2]))
        self.inside = self.radius_sq <= r**2 + 1e-12

    @cached_property
    def points(self):
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)[self.inside]

    def _term(self, expo, c):
        mono = self.powers[expo[0]]
        for k in expo[1:]:
            mono = np.multiply.outer(mono, self.powers[k])
        return float(c) * mono

    def values(self, poly):
        # value_many's order of addition: the first term plus the sum of
        # the others (numpy's reduction, for up to 9 terms)
        terms = sorted(poly.terms.items())
        rest = np.zeros(self.radius_sq.shape)
        for expo, c in terms[1:]:
            rest += self._term(expo, c)
        return self._term(*terms[0]) + rest if terms else rest


def validate_profile(region, allow_degenerate=False):
    """Measure the geometric hypotheses and report pass/fail per check.

    Checks: exact origin normalization, Hessian lower bound kappa0 at the
    origin (exact Hessian, smallest eigenvalue), sampled C2 bound kappa1 on
    the unit ball, strict gap positivity (violation is a hard error), and the
    two-sided comparability of delta(x') with eps + |x'|^2 whose measured
    constants are reported for sweep-stability checks.

    A profile failing only the convexity check passes overall when
    ``allow_degenerate`` is set (flat-gap reference runs); the failure stays
    recorded in the report.
    """
    prof = region.profile
    report = ValidationReport(
        passed=False,
        degenerate_override=allow_degenerate,
    )

    origin_resid, report.min_eigenvalue, report.c2_norm_h1, report.c2_norm_h2 = \
        prof.measurements
    report.checks.append(
        CheckResult("origin_normalization", origin_resid == 0.0, origin_resid, 0.0)
    )
    convex_ok = report.min_eigenvalue >= prof.kappa0 - CHECK_TOL
    report.checks.append(
        CheckResult(
            "convexity_kappa0",
            convex_ok,
            report.min_eigenvalue,
            prof.kappa0,
            "smallest eigenvalue of hess(h1-h2)(0')",
        )
    )

    c2_total = report.c2_norm_h1 + report.c2_norm_h2
    report.checks.append(
        CheckResult(
            "c2_bound_kappa1",
            c2_total <= prof.kappa1 + CHECK_TOL,
            c2_total,
            prof.kappa1,
            "sampled C2 norms of h1 and h2 on the unit ball",
        )
    )

    widths = prof.ball.values(region.delta_poly)
    min_width = float(widths[prof.ball.inside].min())
    if min_width <= 0:
        raise GeometryError(f"gap closes on the unit ball (min width {min_width:g})")
    report.checks.append(CheckResult("positive_gap", True, min_width, 0.0))

    box, box_widths = prof.ball, widths
    if region.r_solve != 1.0:
        box = _SampleGrid(prof.nd, region.r_solve, SAMPLES_PER_DIM)
        box_widths = box.values(region.delta_poly)
    ratios = (box_widths / (region.epsilon + box.radius_sq))[box.inside]
    report.c21_lower = float(ratios.min())
    report.c21_upper = float(ratios.max())
    report.checks.append(
        CheckResult(
            "gap_comparability",
            report.c21_lower > 0,
            report.c21_lower,
            0.0,
            "delta(x') / (eps + |x'|^2), lower constant (upper recorded separately)",
        )
    )

    failures = report.failures()
    if allow_degenerate:
        failures = [c for c in failures if c.name != "convexity_kappa0"]
    report.passed = not failures
    return report
