"""Shared fixtures for the test suite.

The expensive piece is the epsilon sweep on the quadratic gap (both built-in
operators), which several acceptance criteria read from different angles;
it is solved once per session here.  The terminal summary prints one
PASS/FAIL line per numbered acceptance criterion.
"""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from narrowgap import (
    BoundaryData,
    GapProfile,
    MappedGrid,
    NarrowRegion,
    PolynomialField,
    SweepProblem,
    analyze_solution,
    correction_field,
    energy,
    fit_rate,
    gradient,
    make_builtin,
    parse_expression,
    solve_dirichlet,
    sweep_grid,
    sweep_member,
)
from narrowgap.analysis import _mismatch_norms

EPS_SWEEP = (0.1, 0.05, 0.025, 0.0125)
R0 = 0.25
NT = 33


def p1(text):
    return parse_expression(text, nvars=1)


def quad_profile(nd=1):
    """h1 = |x'|^2/2, h2 = -|x'|^2/2 over nd tangential variables: gap
    eps + |x'|^2, curvature exactly 2.

    The claimed C2 bound covers the measured per-graph norm (2.5 for nd = 1:
    value plus gradient plus Hessian at the rim of the unit ball) for both
    graphs."""
    sq = " + ".join(f"0.5*x{a + 1}^2" for a in range(nd))
    return GapProfile(h1=parse_expression(sq, nvars=nd),
                      h2=parse_expression("-" + sq.replace("+", "-"), nvars=nd),
                      kappa0=1.0, kappa1=6.0)


def flat_profile():
    zero = PolynomialField.zero(1)
    return GapProfile(h1=zero, h2=zero)


def mismatch_data(op):
    """Unit constant mismatch in the first component, zero elsewhere."""
    nd = op.n - 1
    zero = PolynomialField.zero(nd)
    gp = tuple(parse_expression("1", nvars=nd) if l == 0 else zero
               for l in range(op.N))
    return BoundaryData(gp, (zero,) * op.N)


def component(data, l):
    """``data`` with every component but l zeroed, for split solves."""
    zero = PolynomialField.zero(data.nd)
    return BoundaryData(*(tuple(g if i == l else zero for i, g in enumerate(side))
                          for side in (data.g_plus, data.g_minus)))


def superposition_gap(op, data, grid, lateral_closure="utilde", tol=1e-10):
    """Max-norm gap between the full solve and the sum of the component solves."""
    def solve(d):
        return solve_dirichlet(op, grid, d, lateral_closure=lateral_closure,
                               tol=tol).values

    total = sum(solve(component(data, l)) for l in range(data.N))
    return float(np.abs(solve(data) - total).max())


def midline_profile_max(solution, data, region, radius=R0):
    """max over |x'| <= radius of (eps+|x'|^2)|d_n u(x', mid)| / |mismatch|."""
    grid = solution.grid
    gu = gradient(solution)
    vert = gu.values[:, grid.nd, ...][..., grid.nt // 2]
    dens = np.sqrt((vert**2).sum(axis=0))
    x1 = grid.axes[0]
    mm, _ = _mismatch_norms(data, x1[:, None])
    sel = (np.abs(x1) <= radius + 1e-15) & (mm > 0)
    return float(((region.epsilon + x1[sel] ** 2) * dens[sel] / mm[sel]).max())


@dataclass
class SweepEntry:
    eps: float
    region: object
    grid: object
    solution: object
    report: object
    center_grad: float
    profile_max: float
    F0_ratio: float
    Fx0_ratio: object
    closure_report: object


def build_sweep(op):
    """Richardson-gated sweep plus the extra per-member measurements the
    acceptance criteria need: the midline bound profile, the bare window
    energy ratios, and a constant-closure rerun on the same grid."""
    data = mismatch_data(op)
    problem = SweepProblem(op=op, data=data)
    entries = []
    for eps in EPS_SWEEP:
        region = NarrowRegion(n=2, epsilon=eps, profile=quad_profile())
        value, report = sweep_member(problem, region, metric="center_grad")
        grid = MappedGrid(region, sweep_grid(eps), NT)
        sol = solve_dirichlet(op, grid, data)
        gw = gradient(correction_field(sol))
        F0_ratio = report.F_delta0 / eps**grid.nd
        se = math.sqrt(eps)
        Fx0_ratio = None
        if 2 * se <= region.r_analyze:
            x0 = np.array([2 * se])
            s = float(region.delta_poly.value_many(x0[None, :])[0])
            Fx0_ratio = energy(gw, window=(x0, s)) / (2 * se) ** (2 * grid.nd)
        alt = solve_dirichlet(op, grid, data, lateral_closure="constant")
        closure_report = analyze_solution(alt, data)
        entries.append(SweepEntry(
            eps=eps, region=region, grid=grid, solution=sol, report=report,
            center_grad=value,
            profile_max=midline_profile_max(sol, data, region),
            F0_ratio=F0_ratio, Fx0_ratio=Fx0_ratio,
            closure_report=closure_report))
    fit = fit_rate([(e.eps, e.center_grad) for e in entries])
    return entries, fit


@pytest.fixture(scope="session")
def laplace_op():
    return make_builtin("laplace", n=2)


@pytest.fixture(scope="session")
def lame_op():
    return make_builtin("lame", n=2)


@pytest.fixture(scope="session")
def blowup_sweeps(laplace_op, lame_op):
    return {"laplace": build_sweep(laplace_op),
            "lame": build_sweep(lame_op)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    outcome = {}
    for key in ("passed", "failed", "error"):
        for rep in stats.get(key, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if m:
                k = int(m.group(1))
                outcome[k] = outcome.get(k, True) and key == "passed"
    if not outcome:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(outcome):
        terminalreporter.write_line(
            "[acceptance] criterion %d: %s"
            % (k, "PASS" if outcome[k] else "FAIL"))
