"""CLI outputs pinned to values recorded before solve and sweep shared one
run path and the C2 sampler and the L[u]-from-jets expansion had one copy
each, so refactors of those paths cannot move the results.  Small grids keep
this fast; every number must hold to 1e-12 relative, and the field CSVs of
the two pinned solves byte for byte.  The values that the banded LU, the
interior assembly and each 3-D Krylov solver (last the BiCGSTAB on the
column-block band LU, which moved the laplace3d report by at most 2.8e-12)
moved by more than 1e-12 were re-recorded with them; ``test_solver_oracle``
bounds their distance to the earlier solver by 1e-9.  Every laplace3d
report value was re-recorded when the solver's acceptance scale became the
norm of the system's own right-hand side, which moved them by at most
7.9e-11, and again when BiCGSTAB started from the column interpolant
utilde instead of 0, which moved them by at most 5.2e-10.  The laplace3d
energy_half, F_delta0, k213 and k219 were re-recorded when the 3-D window
energies moved from a masked node sum to the quadrature of the 2-D path;
``test_3d_energies_converge`` in
test_analysis.py shows the new values converge under refinement.  The sweep
members at eps 0.05 and 0.025 and the rate fit were re-recorded when the
tangential axes became graded below eps 0.1 (eps 0.1 is still uniform and
unchanged); ``test_graded_values_converge_to_the_uniform_limit`` in
test_analysis.py shows each moved value converging to the uniform grids'
limit.  The band LU became float32 with float64 refinement in 2-D, which
moved the eps 0.025 sweep report's F_delta0 and k219 by 1.6e-12 and the
custom mms errors by at most 1.8e-11; those were re-recorded."""

import hashlib
import json

import pytest

from narrowgap import convergence_study, manufactured_problem
from narrowgap.cli import EXIT_OK, _mms_spec, load_config, main

QUAD = """
[region]
n = 2
{eps}
h1 = "0.5*x1^2"
h2 = "-0.5*x1^2"

[data]
g_plus.1 = "1.25"
g_minus.1 = "-0.5"
"""

LAME = """
g_plus.2 = "0.5*x1"
g_minus.2 = "0"

[operator]
kind = lame
mu = 1.0
lam = 1.5
"""

QUAD3D = """
[region]
n = 3
epsilon = 0.1
h1 = "0.5*x1^2 + 0.5*x2^2"
h2 = "-0.5*x1^2 - 0.5*x2^2"

[data]
g_plus.1 = "1"
g_minus.1 = "x1*x2"

[solver]
nx = 9
nt = 9
"""

# quartic top, cubic bottom: profile C2 norms that are not round numbers
CURVED_LAME = """
[region]
n = 2
epsilon = 0.1
h1 = "0.5*x1^2 + 0.3*x1^4"
h2 = "-x1^2 + 0.2*x1^3"

[operator]
kind = lame
mu = 1.0
lam = 1.5

[data]
g_plus.1 = "1"
g_minus.1 = "0"
g_plus.2 = "0"
g_minus.2 = "0"
"""

# variable principal part and every lower-order tensor
CUSTOM = """
[region]
n = 2
epsilon = 0.1
h1 = "0.5*x1^2"
h2 = "-0.5*x1^2"

[operator]
kind = custom
N = 1
A.1.1.1.1 = "1 + 0.5*x1^2"
A.1.1.1.2 = "0.25*x2"
A.1.1.2.1 = "0.25*x2"
A.1.1.2.2 = "2 + x1*x2"
B.1.1.1 = "x1*x2"
B.1.1.2 = "0.5*x1 + x2"
C.1.1.1 = "0.5*x1"
C.1.1.2 = "x1^2"
D.1.1 = "0.25 + x1"

[data]
g_plus.1 = "1"
g_minus.1 = "0"
"""

CONFIGS = {
    "lame2d": QUAD.format(eps="epsilon = 0.1") + LAME
    + "\n[solver]\nnx = 17\nnt = 9\n",
    "laplace3d": QUAD3D,
    "laplace2d_sweep": QUAD.format(eps="epsilons = 0.1,0.05,0.025")
    + "\n[solver]\nnx = 33\nnt = 17\n",
    "curved_lame": CURVED_LAME,
    "custom": CUSTOM,
}

REPORT_NONE = {"rate_fit": None, "scenario": "", "R0": 0.25}

PINNED_SOLVE = {
    "lame2d": {
        "C_emp": 0.9339376687612152, "F_delta0": 0.009632592568566484,
        "c_low": 0.9808015759348295, "energy_half": 0.21777468840954248,
        "epsilon": 0.1, "grid.nt": 9, "grid.nx": 17,
        "lemma_constants.k213": 0.11962230530149255,
        "lemma_constants.k219": 0.029688514296118813,
        "lemma_constants.k220": None,
        "lemma_constants.k225": 0.17377786207537924,
        "lemma_constants.k226": None,
        "sup_grad": 18.55541092522721, **REPORT_NONE},
    "laplace3d": {
        "C_emp": 0.6857610821881494, "F_delta0": 5.1166679965127814e-05,
        "c_low": 0.9846124607376133, "energy_half": 0.0008829827296872388,
        "epsilon": 0.1, "grid.nt": 9, "grid.nx": 9,
        "lemma_constants.k213": 9.366126495046522e-05,
        "lemma_constants.k219": 0.0026337371613780656,
        "lemma_constants.k220": None,
        "lemma_constants.k225": 0.0200009250482166,
        "lemma_constants.k226": None,
        "sup_grad": 10.31082350647548, **REPORT_NONE},
}

# sha256 of field_eps0p1.csv, recorded while the CSV writer still formatted
# one value per call and re-recorded with the banded LU and, for laplace3d,
# with the 3-D BiCGSTAB, its acceptance on ||b_I - A_IB b_B|| and its start
# from the column interpolant; both again with the float32 band LU
# (test_solver_oracle holds every value of both files within 1e-9 of the
# sparse-LU oracle)
PINNED_FIELD_CSV = {
    "lame2d": "23165e38591fa60122d106efbcab7eb5086738a74b0aa15d30cef19bd85b8e89",
    "laplace3d": "ecdfd1bce2ea0b16fb5f8c4371fb4805be8c03caf7420f3fab2d77fe6312ae94",
}

PINNED_SWEEP = {
    "ratefit.json": {
        "conclusive": True, "metric": "center_grad", "scenario": "", "seed": 0,
        "points.0.epsilon": 0.1, "points.0.value": 17.785378050128415,
        "points.1.epsilon": 0.05, "points.1.value": 35.28695575444367,
        "points.2.epsilon": 0.025, "points.2.value": 70.28812261743568,
        "rate_fit.intercept": 0.5951776084701392,
        "rate_fit.r2": 0.999997242214526,
        "rate_fit.slope": -0.9912946401681575},
    "report_eps0p1.json": {
        "C_emp": 0.8961717768364217, "F_delta0": 0.0002611607775481725,
        "c_low": 0.9919522390981648, "energy_half": 0.0051836653521995565,
        "epsilon": 0.1, "grid.nt": 17, "grid.nx": 33,
        "lemma_constants.k213": 0.002859620991120535,
        "lemma_constants.k219": 0.0008051147029845574,
        "lemma_constants.k220": None,
        "lemma_constants.k225": 0.026914398559867977,
        "lemma_constants.k226": None,
        "sup_grad": 17.785378050128415, **REPORT_NONE},
    "report_eps0p05.json": {
        "C_emp": 0.9457313031052955, "F_delta0": 7.543159251989365e-05,
        "c_low": 0.9959277435752798, "energy_half": 0.007504386849213781,
        "epsilon": 0.05, "grid.nt": 17, "grid.nx": 33,
        "lemma_constants.k213": 0.0041398544098195855,
        "lemma_constants.k219": 0.00047845443659756253,
        "lemma_constants.k220": 0.0053532997976742875,
        "lemma_constants.k225": 0.01825599238183653,
        "lemma_constants.k226": 0.023069599315215187,
        "sup_grad": 35.28695575444367, **REPORT_NONE},
    "report_eps0p025.json": {
        "C_emp": 0.9722484076541893, "F_delta0": 2.039161387055627e-05,
        "c_low": 0.9979488975662772, "energy_half": 0.009519026339111634,
        "epsilon": 0.025, "grid.nt": 17, "grid.nx": 33,
        "lemma_constants.k213": 0.00525124660144588,
        "lemma_constants.k219": 0.0002624557073695356,
        "lemma_constants.k220": 0.009123425441115073,
        "lemma_constants.k225": 0.012961444217343425,
        "lemma_constants.k226": 0.0250996283471825,
        "sup_grad": 70.28812261743568, **REPORT_NONE},
}

PINNED_VALIDATE = {
    "curved_lame": {"c2_norm_h1": 7.6, "c2_norm_h2": 7.0,
                    "kappa2_estimate": 3.5,
                    "lambda_estimate": 1.0000020805150893},
    "custom": {"c2_norm_h1": 2.5, "c2_norm_h2": 2.5,
               "kappa2_estimate": 15.460969566848856,
               "lambda_estimate": 1.5085891858440583},
}

PINNED_MMS = {
    "lame2d": """\
grid      err_inf        err_l2         order_inf order_l2
  9x9     1.402039e-03   4.859250e-04         -        -
 17x17    3.556726e-04   1.238791e-04     1.979    1.972
 33x33    8.943567e-05   3.115485e-05     1.992    1.991
""",
    "custom": """\
grid      err_inf        err_l2         order_inf order_l2
  9x9     5.072139e-04   1.592740e-04         -        -
 17x17    1.355102e-04   4.738956e-05     1.904    1.749
 33x33    3.678577e-05   1.213717e-05     1.881    1.965
""",
}

# full-precision errors behind the custom-operator mms table
PINNED_MMS_ERRORS = {
    "errors_inf": [0.0005072139122407338, 0.00013551020715030226,
                   3.67857703831298e-05],
    "errors_l2": [0.00015927397190711051, 4.738955718028231e-05,
                  1.2137170542175121e-05],
}


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, text in CONFIGS.items():
        path = root / f"{name}.cfg"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def flatten(obj, prefix=""):
    """{dotted key: leaf} of a JSON document."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        out = {}
        for key, value in items:
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: obj}


def assert_pinned(got, pinned):
    assert sorted(got) == sorted(pinned)
    for key, value in pinned.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("case", sorted(PINNED_SOLVE))
def test_solve_report_pinned(configs, case, capsys):
    assert main(["solve", "--config", configs[case]]) == EXIT_OK
    assert_pinned(flatten(json.loads(capsys.readouterr().out)), PINNED_SOLVE[case])


@pytest.mark.parametrize("case", sorted(PINNED_FIELD_CSV))
def test_solve_field_csv_pinned(configs, case, tmp_path, capsys):
    assert main(["solve", "--config", configs[case], "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    csv = (tmp_path / "field_eps0p1.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == PINNED_FIELD_CSV[case]


def test_sweep_outputs_pinned(configs, tmp_path, capsys):
    code = main(["sweep", "--config", configs["laplace2d_sweep"],
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(PINNED_SWEEP)
    for name, pinned in PINNED_SWEEP.items():
        assert_pinned(flatten(json.loads((tmp_path / name).read_text())), pinned)


@pytest.mark.parametrize("case", sorted(PINNED_VALIDATE))
def test_validate_pinned(configs, case, capsys):
    assert main(["validate", "--config", configs[case], "--seed", "3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    got = {key: payload[block][key] for block, keys in (
        ("geometry", ("c2_norm_h1", "c2_norm_h2")),
        ("operator", ("kappa2_estimate", "lambda_estimate"))) for key in keys}
    assert_pinned(got, PINNED_VALIDATE[case])


@pytest.mark.parametrize("case", sorted(PINNED_MMS))
def test_mms_table_pinned(configs, case, capsys):
    assert main(["mms", "--config", configs[case], "--grids", "9,17,33"]) == EXIT_OK
    assert capsys.readouterr().out == PINNED_MMS[case]


def test_mms_errors_pinned(configs):
    cfg = load_config(configs["custom"])
    op = cfg.operator()
    problem = manufactured_problem(op, cfg.region(cfg.epsilons[0]), _mms_spec(op))
    study = convergence_study(problem, [(9, 9), (17, 17), (33, 33)])
    for key, pinned in PINNED_MMS_ERRORS.items():
        assert getattr(study, key) == pytest.approx(pinned, rel=1e-12, abs=0)
