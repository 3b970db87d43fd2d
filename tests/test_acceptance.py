"""End-to-end acceptance: one test family per numbered criterion.

The sweep-backed criteria read the session-scoped fixture from conftest;
sweep-stability families are checked as growth against the largest-epsilon
member (several of the empirical constants decay with epsilon, which the
one-sided bounds allow; what must not happen is growth past 2x).
"""

import json
import math

import numpy as np
import pytest

from narrowgap import (
    AuxiliaryEvaluator,
    BoundaryData,
    MappedGrid,
    NarrowRegion,
    PolynomialField,
    SweepProblem,
    analyze_solution,
    convergence_study,
    fd_apply_operator,
    fit_rate,
    make_builtin,
    manufactured_problem,
    solve_dirichlet,
    sweep_and_fit,
    validate_profile,
)
from narrowgap.cli import EXIT_OK, EXIT_VALIDATION, _mms_spec, main
from narrowgap.verification import _fd_grad

from bound_oracle import check_derivative_bounds
from conftest import EPS_SWEEP, flat_profile, p1, quad_profile, superposition_gap

FLAT_EPS = (0.1, 0.05, 0.025)


def assert_sweep_stable(values, label):
    """Growth-side stability of an empirical lemma constant across the
    epsilon sweep: each applicable member may exceed its predecessor by at
    most 2x.  Decaying members are fine (a one-sided bound just goes slack);
    what must not happen is the constant climbing faster than 2x per halving
    of epsilon, the signature of a hidden 1/eps power in a quantity the
    estimates assert is uniform.  Saturating transients (per-step growth
    shrinking toward 1) pass; sustained power growth does not."""
    vals = [v for v in values if v is not None]
    assert len(vals) >= 3, label
    for prev, cur in zip(vals, vals[1:]):
        assert cur <= 2.0 * prev, (label, vals)


# -- criterion 1: flat-gap exactness ----------------------------------------

@pytest.mark.parametrize("eps", FLAT_EPS)
@pytest.mark.parametrize("kind", ["laplace", "lame"])
def test_criterion_1_flat_gap_exact(kind, eps):
    op = make_builtin(kind, n=2)
    zero = PolynomialField.zero(1)
    gp = tuple(p1("1") if l == 0 else zero for l in range(op.N))
    data = BoundaryData(gp, (zero,) * op.N)
    region = NarrowRegion(n=2, epsilon=eps, profile=flat_profile())
    grid = MappedGrid(region, 33, 17)
    sol = solve_dirichlet(op, grid, data)
    # on a flat gap with constant traces the interpolant utilde is exact
    exact = AuxiliaryEvaluator(region, data).utilde_values(grid.points)
    assert np.abs(sol.values - exact.reshape(sol.values.shape)).max() <= 1e-10
    report = analyze_solution(sol, data)
    assert abs(report.sup_grad - 1.0 / eps) * eps <= 1e-6


# -- criterion 2: 1/eps blow-up rate ----------------------------------------

@pytest.mark.parametrize("kind", ["laplace", "lame"])
def test_criterion_2_blowup_rate(blowup_sweeps, kind):
    entries, fit = blowup_sweeps[kind]
    assert abs(fit.slope - (-1.0)) <= 0.05
    assert fit.r2 >= 0.99
    lows = [e.report.c_low for e in entries]
    assert all(v > 0 for v in lows)
    assert (max(lows) - min(lows)) / max(lows) < 0.25


# -- criterion 3: upper-bound shape -----------------------------------------

@pytest.mark.parametrize("kind", ["laplace", "lame"])
def test_criterion_3_upper_bound_shape(blowup_sweeps, kind):
    entries, _ = blowup_sweeps[kind]
    ce = [e.report.C_emp for e in entries]
    assert max(ce) / min(ce) < 2.0
    pm = [e.profile_max for e in entries]
    assert max(pm) / min(pm) < 2.0


# -- criterion 4: no blow-up for matched data -------------------------------

def sweep_regions():
    return [NarrowRegion(n=2, epsilon=eps, profile=quad_profile())
            for eps in EPS_SWEEP]


@pytest.fixture(scope="module")
def tangential_fit(laplace_op):
    """g+ = x1, g- = 2*x1: traces agree at the origin only."""
    data = BoundaryData((p1("x1"),), (p1("2*x1"),))
    problem = SweepProblem(op=laplace_op, data=data)
    return sweep_and_fit(problem, sweep_regions(), metric="center_grad")


def test_criterion_4_matched_data(laplace_op):
    data = BoundaryData((p1("x1"),), (p1("x1"),))
    problem = SweepProblem(op=laplace_op, data=data)
    fit = sweep_and_fit(problem, sweep_regions(), metric="sup_grad")
    assert abs(fit.slope) <= 0.1


def test_criterion_4_matched_origin_value(tangential_fit):
    assert abs(tangential_fit.slope) <= 0.1


def test_offcenter_band_sup_still_grows(tangential_fit):
    # same data away from the center: |x1|-linear mismatch over an
    # eps + |x1|^2 gap peaks near |x1| ~ sqrt(eps), and that sup does grow;
    # pinned so the bounded-centerline result above is not mistaken for a
    # global bound
    sups = [r.sup_grad for r in tangential_fit.reports]
    fit = fit_rate(list(zip(EPS_SWEEP, sups)))
    assert fit.slope <= -0.25


# -- criterion 5: lemma-level energy and pointwise constants ----------------

@pytest.mark.parametrize("kind", ["laplace", "lame"])
def test_criterion_5_lemma_constants(blowup_sweeps, kind):
    entries, _ = blowup_sweeps[kind]
    assert_sweep_stable([e.F0_ratio for e in entries], "F(delta(0))/eps")
    assert_sweep_stable([e.report.k213 for e in entries], "half-energy")
    assert_sweep_stable([e.Fx0_ratio for e in entries],
                           "F(delta(x0))/|x0|^2")
    assert_sweep_stable([e.report.k225 for e in entries], "m_inner")
    assert_sweep_stable([e.report.k226 for e in entries], "m_outer")


# -- criterion 6: discretization verification -------------------------------

@pytest.mark.parametrize("kind", ["laplace", "lame"])
def test_criterion_6_mms_orders(kind):
    # eps 0.1 on uniform axes, eps 0.025 on graded ones (tangential map)
    op = make_builtin(kind, n=2)
    for eps in (0.1, 0.025):
        region = NarrowRegion(n=2, epsilon=eps, profile=quad_profile())
        study = convergence_study(manufactured_problem(op, region, _mms_spec(op)),
                                  [17, 33, 65])
        assert study.monotone, eps
        for order in study.orders_inf:
            assert abs(order - 2.0) <= 0.2, (eps, study.orders_inf)


def test_criterion_6_superposition(lame_op):
    region = NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())
    grid = MappedGrid(region, 45, 33)
    zero = PolynomialField.zero(1)
    data = BoundaryData((p1("x1^2"), p1("1")), (zero, p1("x1")))
    assert superposition_gap(lame_op, data, grid, tol=1e-10) <= 10 * 1e-10


@pytest.fixture(scope="module")
def sample_points():
    region = NarrowRegion(n=2, epsilon=0.1, profile=quad_profile())
    rng = np.random.default_rng(11)
    x1 = rng.uniform(-0.85, 0.85, 100)
    tt = rng.uniform(0.1, 0.9, 100)
    bot = region.bottom_poly.value_many(x1[:, None])
    dlt = region.delta_poly.value_many(x1[:, None])
    pts = np.stack([x1, bot + tt * dlt], axis=-1)
    return region, pts


def test_criterion_6_auxiliary_fd_convergence(laplace_op, sample_points):
    region, pts = sample_points
    data = BoundaryData((p1("x1"),), (p1("2*x1"),))
    aux = AuxiliaryEvaluator(region, data, op=laplace_op)

    def ratio(func, analytic, h):
        errs = []
        for step in (h, h / 2):
            fd = _fd_grad(func, pts, (step, step), 2, analytic.shape[0])
            errs.append(float(np.abs(fd - np.moveaxis(analytic, 1, 2)).max()))
        return errs[0] / errs[1]

    r_ubar = ratio(lambda q: aux.ubar_values(q)[None, :],
                   aux.ubar_grad(pts)[None, :], 2e-3)
    r_util = ratio(aux.utilde_values, aux.utilde_grad(pts), 2e-3)
    assert 3.5 <= r_ubar <= 4.5
    assert 3.5 <= r_util <= 4.5

    # ftilde is minus the operator applied to utilde; check against the
    # independent physical-space FD application at two step sizes
    ft = aux.ftilde_values(pts)
    errs = []
    for h in (5e-3, 2.5e-3):
        fd = fd_apply_operator(laplace_op, region, aux.utilde_values, pts,
                               h=h, order=2)
        errs.append(float(np.abs(fd + ft).max()))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] < 1e-3


def test_criterion_6_second_vertical_derivatives_vanish(sample_points):
    region, pts = sample_points
    data = BoundaryData((p1("x1"),), (p1("2*x1"),))
    aux = AuxiliaryEvaluator(region, data)
    assert np.abs(aux.ubar_hess(pts)[1, 1]).max() == 0.0
    assert check_derivative_bounds(region, data).c210_residual == 0.0


# -- criterion 7: hypothesis gating -----------------------------------------

def test_criterion_7_flat_gap_rejected_by_cli(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[region]\nn = 2\nepsilon = 0.1\nh1 = \"0\"\nh2 = \"0\"\n"
                   "\n[data]\ng_plus.1 = \"1\"\ng_minus.1 = \"0\"\n")
    code = main(["validate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "validation"
    payload = json.loads(captured.out)
    checks = {c["name"]: c["passed"] for c in payload["geometry"]["checks"]}
    assert checks["convexity_kappa0"] is False


def test_criterion_7_quadratic_gap_passes_cli(tmp_path, capsys):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("[region]\nn = 2\nepsilon = 0.1\nh1 = \"0.5*x1^2\"\n"
                   "h2 = \"-0.5*x1^2\"\n\n[data]\ng_plus.1 = \"1\"\n"
                   "g_minus.1 = \"0\"\n")
    code = main(["validate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["geometry"]["min_eigenvalue"] == 2.0


def test_criterion_7_comparability_constants_stable():
    lowers, uppers = [], []
    for eps in EPS_SWEEP:
        region = NarrowRegion(n=2, epsilon=eps, profile=quad_profile())
        rep = validate_profile(region)
        assert rep.passed
        assert rep.min_eigenvalue == 2.0
        lowers.append(rep.c21_lower)
        uppers.append(rep.c21_upper)
    assert (max(lowers) - min(lowers)) / max(lowers) < 0.05
    assert (max(uppers) - min(uppers)) / max(uppers) < 0.05


# -- criterion 8: lateral-closure insensitivity -----------------------------

@pytest.mark.parametrize("kind", ["laplace", "lame"])
def test_criterion_8_closure_insensitivity(blowup_sweeps, kind):
    entries, _ = blowup_sweeps[kind]
    for e in entries:
        base, alt = e.report, e.closure_report
        assert alt.C_emp != base.C_emp    # the closures genuinely differ
        assert abs(alt.C_emp - base.C_emp) / base.C_emp < 0.10
        assert abs(alt.c_low - base.c_low) / base.c_low < 0.10
