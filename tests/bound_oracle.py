"""Reference measurement of the derivative-bound constants of ubar and utilde.

``check_derivative_bounds`` measures, per inequality of the derivative-bound
family, the smallest constant C that makes it hold over a sample cloud; the
right-hand sides use the per-component sampled C1 and C2 norms of the traces
(``component_norms``).  No command reads these constants, so they live with
the tests, next to ``solver_oracle`` and ``ellipticity_oracle``.  The jets of
utilde come from the library's AuxiliaryEvaluator.  ``check_derivative_bounds``
is kept verbatim from the version that shipped in ``narrowgap.auxiliary``, and
``component_norms`` samples as ``BoundaryData.norms`` did there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from narrowgap.auxiliary import AuxiliaryEvaluator
from narrowgap.geometry import _SampleGrid, vertical_jets

BOUND_SAMPLES = (129, 9)  # tangential points per axis, vertical levels


def component_norms(data):
    """Per-component sampled norms of the traces on the unit ball.

    Returns {"plus": ..., "minus": ...}, each a dict of length-N arrays:
    c0 (sup |g|), c1 (sup |grad g|) and c2 (sup |hess g|_F), sampled where
    BoundaryData.c2_norm samples.
    """
    pts = _SampleGrid(data.nd, 1.0, 513 if data.nd == 1 else 65).points

    def side(comps):
        parts = [g.c2_samples(lambda p: p.value_many(pts)) for g in comps]
        c0, c1, c2 = (np.array([part[k].max() for part in parts])
                      for k in range(3))
        return dict(c0=c0, c1=c1, c2=c2)

    return {"plus": side(data.g_plus), "minus": side(data.g_minus)}


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
    tang = _SampleGrid(nd, region.r_solve, mx).points
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

    norms = component_norms(data)
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
