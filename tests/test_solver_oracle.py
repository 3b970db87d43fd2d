"""The interior assembly and the banded solves against the solver oracle
(``solver_oracle``: the full-matrix assembly with Dirichlet identity rows,
reduced and factored by sparse LU).

(a) A_II equals the oracle's interior rows, permuted to the (column, t,
component) order, to rounding, and so does b = b_I - A_IB b_B, which
assembly forms without keeping an A_IB matrix; the boundary values b_B
equal the oracle's Dirichlet rows exactly.
(b) Every number that ``test_pinned_outputs`` pins from a solve, and every
number of its two pinned field CSVs, agrees between the oracle and the
solver to 1e-9 relative.  ``validate`` never reaches the solver, so its pins
are left out.  The pinned 3-D solve runs BiCGSTAB, preconditioned by the
float32 band LU of the column blocks, at tol 1e-10 of ||b_I - A_IB b_B||
against the oracle's direct LU; started from utilde, that gap is 4.4e-10 on
its report (largest on k219 and F_delta0) and 2.2e-11 on its field CSV, the
same with a float64 column LU (8.1e-11 and 4.1e-11 from a zero start,
2.0e-12 and 6.6e-13 at tol 1e-10 of the norm of [b_I, b_B], 8.8e-13 and
2.4e-14 with the earlier two-level GMRES).  The 2-D solves, a float32 band
LU refined in float64, sit at most 1.6e-12 from it on the sweep reports,
1.0e-10 on the mms errors and 1.5e-14 on the lame2d report.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import solver_oracle as oracle
from narrowgap import (BoundaryData, GapProfile, MappedGrid, NarrowRegion,
                       PolynomialField, analysis, convergence_study, make_builtin,
                       manufactured_problem, parse_expression, verification)
from narrowgap.cli import EXIT_OK, _mms_spec, load_config, main
from narrowgap.mesh_solver import assemble, boundary_values

from test_pinned_outputs import (CONFIGS, PINNED_MMS_ERRORS, PINNED_SOLVE,
                                 PINNED_SWEEP, flatten)

REL = 1e-9


def _region(n, eps=0.1):
    h1 = {2: "0.5*x1^2 + 0.3*x1^4", 3: "0.5*x1^2 + 0.3*x1^4 + 0.5*x2^2"}[n]
    h2 = {2: "-x1^2 + 0.2*x1^3", 3: "-x1^2 + 0.2*x1^3 - x2^2 + 0.1*x1*x2^2"}[n]
    return NarrowRegion(n=n, epsilon=eps, profile=GapProfile(
        h1=parse_expression(h1, nvars=n - 1), h2=parse_expression(h2, nvars=n - 1)))


def _lame_case(n, nx, nt, eps=0.1):
    def p(text):
        return parse_expression(text, nvars=n - 1)

    zero = PolynomialField.zero(n - 1)
    op = make_builtin("lame", n=n, lame_mu=1.0, lame_lambda=1.5)
    top = (p("1"), p("x1")) + (zero,) * (n - 2)
    bottom = (zero, p("x1^2")) + (p(f"x{n - 1}"),) * (n - 2)
    grid = MappedGrid(_region(n, eps), nx, nt)
    return op, grid, boundary_values(grid, BoundaryData(top, bottom)), None


def _custom_mms_case(tmp_path, eps=0.1):
    path = tmp_path / "custom.cfg"
    path.write_text(CONFIGS["custom"])
    cfg = load_config(path)
    op = cfg.operator()
    problem = manufactured_problem(op, cfg.region(eps), _mms_spec(op))
    grid = MappedGrid(problem.region, 17, 17)
    exact, src = problem.nodal_fields(grid)
    return op, grid, exact, src


@pytest.mark.parametrize("case", ["lame2d", "lame3d", "custom_mms",
                                  "lame3d_graded", "custom_mms_graded"])
def test_interior_assembly_matches_the_oracle_rows(case, tmp_path):
    # the graded cases (eps 0.025) carry the tangential map's factors
    op, grid, bc, src = {"lame2d": lambda: _lame_case(2, 17, 9),
                         "lame3d": lambda: _lame_case(3, 11, 9),
                         "custom_mms": lambda: _custom_mms_case(tmp_path),
                         "lame3d_graded": lambda: _lame_case(3, 11, 9, eps=0.025),
                         "custom_mms_graded": lambda: _custom_mms_case(tmp_path, 0.025),
                         }[case]()
    assert (grid.dX[grid.nx // 2] < 1) == case.endswith("graded")
    system = assemble(op, grid, bc, source=src)
    full = oracle.assemble(op, grid, bc, source=src)
    # the oracle numbers its unknowns component-major over C-ordered nodes
    N, M = op.N, grid.nodes
    inner = (np.flatnonzero(grid.interior_mask)[:, None] + M * np.arange(N)).ravel()
    outer = (np.flatnonzero(grid.boundary_mask)[:, None] + M * np.arange(N)).ravel()
    rows = full.matrix.tocsr()[inner]
    scale = abs(full.matrix).max()
    # entries are short sums of products: rounding stays within a few ulp
    assert abs(system.matrix - rows[:, inner]).max() <= 1e-14 * scale
    # the same entry bound on A_IB, carried through the product with b_B
    b_B = full.rhs[outer]
    coupling = rows[:, outer]
    bound = 1e-14 * scale * (abs(coupling).sign() @ abs(b_B))
    assert np.all(abs(system.b - (full.rhs[inner] - coupling @ b_B)) <= bound)
    assert np.array_equal(system.bc[:, grid.boundary_mask], b_B.reshape(-1, N).T)


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


def _pinned_numbers(root):
    """Every number the pinned solve, sweep and mms runs produce, keyed by
    run and field; CSVs as arrays."""
    paths = {}
    for name, text in CONFIGS.items():
        paths[name] = root / f"{name}.cfg"
        paths[name].write_text(text)
    got = {}
    for case in ("lame2d", "laplace3d"):
        out = root / f"solve_{case}"
        report = flatten(json.loads(_run(["solve", "--config", str(paths[case]),
                                          "--out", str(out)])))
        got.update({("solve", case, k): v for k, v in report.items()})
        got["csv", case] = np.loadtxt(out / "field_eps0p1.csv", delimiter=",",
                                      skiprows=1)
    out = root / "sweep"
    _run(["sweep", "--config", str(paths["laplace2d_sweep"]), "--out", str(out)])
    for path in sorted(out.iterdir()):
        got.update({("sweep", path.name, k): v
                    for k, v in flatten(json.loads(path.read_text())).items()})
    for case in ("lame2d", "custom"):
        cfg = load_config(paths[case])
        op = cfg.operator()
        problem = manufactured_problem(op, cfg.region(cfg.epsilons[0]), _mms_spec(op))
        study = convergence_study(problem, [(9, 9), (17, 17), (33, 33)],
                                  tol=cfg.tol)
        for key in ("errors_inf", "errors_l2", "orders_inf", "orders_l2"):
            got.update({("mms", case, key, k): v
                        for k, v in enumerate(getattr(study, key))})
    return got


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    new = _pinned_numbers(tmp_path_factory.mktemp("new"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "solve_dirichlet", oracle.solve_dirichlet)
        mp.setattr(verification, "assemble", oracle.assemble)
        mp.setattr(verification, "solve_system", oracle.solve_system)
        old = _pinned_numbers(tmp_path_factory.mktemp("oracle"))
    return new, old


def test_pinned_numbers_match_the_oracle(pinned_runs):
    new, old = pinned_runs
    assert sorted(new, key=str) == sorted(old, key=str)
    pinned = ([("solve", case, k) for case, pins in PINNED_SOLVE.items() for k in pins]
              + [("sweep", name, k) for name, pins in PINNED_SWEEP.items() for k in pins]
              + [("mms", "custom", key, k) for key, pins in PINNED_MMS_ERRORS.items()
                 for k in range(len(pins))])
    assert set(pinned) <= set(old)
    for key, value in old.items():
        if isinstance(value, float):
            assert new[key] == pytest.approx(value, rel=REL, abs=0), key
        elif not isinstance(value, np.ndarray):
            assert new[key] == value, key


@pytest.mark.parametrize("case", ["lame2d", "laplace3d"])
def test_pinned_field_csv_matches_the_oracle(pinned_runs, case):
    new, old = (runs["csv", case] for runs in pinned_runs)
    assert new.shape == old.shape
    # relative to each column's largest entry: values that vanish in exact
    # arithmetic (u_2 on the symmetry line) carry 1e-17 of rounding noise
    scale = np.abs(old).max(axis=0)
    assert np.all(np.abs(new - old) <= REL * scale)
