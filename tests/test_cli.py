"""Command line interface: config schema, outputs, exit codes, determinism."""

import concurrent.futures
import io
import json
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowgap import (RationalField, analysis, cli, geometry, mesh_solver,
                       verification)
from narrowgap.analysis import fit_rate
from narrowgap.cli import (
    EXIT_GATE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ConfigError,
    _build_parser,
    _write_csv,
    load_config,
    main,
)
from narrowgap.mesh_solver import solve_system

QUAD_CFG = """
# quadratic gap, unit constant mismatch
[region]
n = 2
epsilon = 0.1
h1 = "0.5*x1^2"
h2 = "-0.5*x1^2"

[data]
g_plus.1 = "1"
g_minus.1 = "0"
"""

FLAT_CFG = """
[region]
n = 2
epsilon = 0.1
h1 = "0"
h2 = "0"

[data]
g_plus.1 = "1"
g_minus.1 = "0"
"""

QUAD3D_CFG = """
[region]
n = 3
epsilons = 0.1,0.05,0.025
h1 = "0.5*x1^2 + 0.5*x2^2"
h2 = "-0.5*x1^2 - 0.5*x2^2"

[data]
g_plus.1 = "1"
g_minus.1 = "0"
"""

REPORT_KEYS = ["C_emp", "F_delta0", "R0", "c_low", "energy_half", "epsilon",
               "grid", "lemma_constants", "rate_fit", "scenario", "sup_grad"]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, QUAD_CFG))
    assert cfg.n == 2
    assert cfg.epsilons == [0.1]
    assert cfg.op_kind == "laplace"
    assert cfg.traces == {("g_plus", 1): "1", ("g_minus", 1): "0"}
    assert cfg.nx == 45 and cfg.nt == 33
    assert cfg.metric == "center_grad"
    assert cfg.lateral_closure == "utilde"


def test_load_config_full_sections(tmp_path):
    text = QUAD_CFG + """
[operator]
kind = lame
mu = 2.0
lam = 1.5

[solver]
nx = 45
tol = 1e-11

[analysis]
R0 = 0.2
metric = sup_grad
scenario = "demo"

[flags]
lateral_closure = constant
seed = 4
"""
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.op_kind == "lame"
    assert cfg.op_params["mu"] == 2.0
    assert cfg.nx == 45 and cfg.tol == 1e-11
    assert cfg.R0 == 0.2 and cfg.metric == "sup_grad" and cfg.scenario == "demo"
    assert cfg.lateral_closure == "constant" and cfg.seed == 4


@pytest.mark.parametrize("mutation", [
    "[region]\nbogus = 1\n",
    "[orbit]\nx = 1\n",
    "[region]\nepsilons = 0.1,0.05\n",     # together with epsilon
    "[solver]\nmethod = gauss\n",
    "[solver]\nmethod = krylov\n",      # the dimension picks the solver
    "[analysis]\nmetric = max_grad\n",
])
def test_load_config_rejects_bad_input(tmp_path, mutation):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, QUAD_CFG + mutation))


@pytest.mark.parametrize("extra", [
    'g_plus.0 = "7"\n',     # would land at list index -1, replacing g_plus.1
    'g_plus.2 = "1"\n',     # the Laplace operator has one component
], ids=["index0", "above_N"])
@pytest.mark.parametrize("command", [["solve"], ["sweep", "--epsilons", "0.1,0.05,0.025"]],
                         ids=["solve", "sweep"])
def test_data_component_index_out_of_range(tmp_path, capsys, extra, command):
    cfg = write_cfg(tmp_path, QUAD_CFG + extra)
    with pytest.raises(ConfigError, match="component index"):
        load_config(cfg)
    code = main([command[0], "--config", cfg] + command[1:])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "config"


CUSTOM_1D = """
[operator]
kind = custom
N = 1
A.1.1.1.1 = "1"
A.1.1.2.2 = "1"

[solver]
nx = 17
nt = 9
"""


@pytest.mark.parametrize("extra", [
    'A.1.1.0.2 = "5"\n',   # would land at list index -1, adding to A.1.1.2.2
    'A.1.1.3.2 = "5"\n',   # n = 2 has directions 1..2
    'B.2.1.1 = "1"\n',     # N = 1
    'C.1.1.0 = "1"\n',
    'D.1.2 = "1"\n',
], ids=["A_index0", "A_above_n", "B_above_N", "C_index0", "D_above_N"])
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_custom_coefficient_index_out_of_range(tmp_path, capsys, extra, command):
    cfg = write_cfg(tmp_path, QUAD_CFG + CUSTOM_1D + "[operator]\n" + extra)
    code = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config" and "indices must be" in err["message"]


@pytest.mark.parametrize("kind,extra", [
    ("laplace", "mu = 5"),
    ("laplace", "lam = 2"),
    ("laplace", "N = 1"),
    ("laplace", 'A.1.1.1.1 = "7"'),
    ("laplace", 'D.1.1 = "1"'),
    ("laplace", "lambda = 3.0"),
    ("laplace", "Lambda = 3.0"),
    ("laplace", "kappa2 = 3.0"),
    ("lame", "N = 2"),
    ("lame", 'B.1.1.1 = "1"'),
    ("lame", 'C.1.1.1 = "1"'),
    ("lame", "lambda = 0.5"),
    ("custom", "mu = 5"),
    ("custom", "lam = 2"),
])
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_operator_key_the_kind_ignores_is_a_config_error(tmp_path, capsys, kind,
                                                         extra, command):
    text = QUAD_CFG + f"[operator]\nkind = {kind}\n{extra}\n"
    if kind == "custom":
        text += 'A.1.1.1.1 = "1"\nA.1.1.2.2 = "1"\n'
    code = main([command, "--config", write_cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config"
    assert err["message"] == (f"[operator] {extra.split()[0]} does not apply "
                              f"to kind = {kind}")


@pytest.mark.parametrize("N", [0, -1])
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_custom_operator_without_components_is_a_validation_error(tmp_path, capsys,
                                                                  N, command):
    text = QUAD_CFG.split("[data]")[0] + f"[operator]\nkind = custom\nN = {N}\n"
    code = main([command, "--config", write_cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err == {"error": "validation", "message": "N must be >= 1"}


@pytest.mark.parametrize("command, old, new", [
    ("validate", 'h1 = "0.5*x1^2"', 'h1 = "' + "(" * 400 + "0.5*x1^2" + ")" * 400 + '"'),
    ("solve", 'g_plus.1 = "1"', 'g_plus.1 = "10^400"'),
    # 1.5^10000000 ran past 100 s in the parser, and an exponent of over
    # 4300 digits ended in a traceback from int()
    ("validate", 'h1 = "0.5*x1^2"', 'h1 = "0.5*x1^2 + 0*1.5^10000000"'),
    ("solve", 'g_plus.1 = "1"', 'g_plus.1 = "1.5^10000000"'),
    ("solve", 'g_plus.1 = "1"', 'g_plus.1 = "x1^1' + "0" * 4999 + '"'),
    ("validate", 'h1 = "0.5*x1^2"', 'h1 = "0.5*x1^2 + x1^' + "9" * 5000 + '"'),
], ids=["nested", "overflow", "constant_power-validate", "constant_power-solve",
        "long_exponent-solve", "long_exponent-validate"])
def test_expression_beyond_evaluation_is_a_config_error(tmp_path, capsys, command,
                                                         old, new):
    assert old in QUAD_CFG
    cfg = write_cfg(tmp_path, QUAD_CFG.replace(old, new))
    start = time.perf_counter()
    code = main([command, "--config", cfg])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config"


@pytest.mark.parametrize("command, key, expr", [
    ("validate", "h1", "0.5*x1^2 + x1^9"),
    ("solve", "h1", "0.5*x1^2 + x1^9"),
    ("validate", "h1", "0.5*x1^2 + 0*(1+x1)^3000"),
    ("solve", "h1", "0.5*x1^2 + 0*(1+x1)^3000"),
    ("solve", "g_plus.1", "0*(1+x1)^3000"),   # validate reads no trace
    ("validate", "A.1.1.1.1", "1 + x1^5*x2^4"),
    ("solve", "A.1.1.1.1", "1 + x1^5*x2^4"),
], ids=["profile-validate", "profile-solve", "profile_power-validate",
        "profile_power-solve", "trace_power-solve", "coefficient-validate",
        "coefficient-solve"])
def test_expression_above_the_degree_cap_is_a_config_error(tmp_path, capsys, command,
                                                            key, expr):
    # a profile above degree 8 was a validation error (exit 2), and a power
    # was expanded before its degree was checked
    base = QUAD_CFG + CUSTOM_1D if key.startswith("A") else QUAD_CFG
    text = re.sub(rf"^{re.escape(key)} = .*$", f'{key} = "{expr}"', base, flags=re.M)
    assert text != base
    code = main([command, "--config", write_cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config" and " > 8 at position" in err["message"]


def test_an_exponent_of_5000_zeros_parses(tmp_path, capsys):
    zeros = QUAD_CFG.replace('g_plus.1 = "1"', 'g_plus.1 = "x1^' + "0" * 5000 + '"')
    assert zeros != QUAD_CFG
    for text, name in ((QUAD_CFG, "one.cfg"), (zeros, "zeros.cfg")):
        assert main(["solve", "--config", write_cfg(tmp_path, text, name)]) == EXIT_OK
    one, zeros = capsys.readouterr().out.split("\n}\n")[:2]
    assert json.loads(zeros + "}") == json.loads(one + "}")


@pytest.mark.parametrize("text", [
    QUAD_CFG + 'g_plus.01 = "2"\n',
    QUAD_CFG + 'g_minus.001 = "2"\n',
    QUAD_CFG + CUSTOM_1D + '[operator]\nA.01.1.1.1 = "1"\n',
    QUAD_CFG + CUSTOM_1D + '[operator]\nA.1.1.2.02 = "1"\n',
    QUAD_CFG + CUSTOM_1D + '[operator]\nB.1.01.1 = "1"\n',
    QUAD_CFG + CUSTOM_1D + '[operator]\nC.1.1.01 = "1"\n',
    QUAD_CFG + CUSTOM_1D + '[operator]\nD.01.1 = "1"\n',
], ids=["g_plus", "g_minus", "A_first", "A_last", "B", "C", "D"])
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_index_with_leading_zeros_is_an_unknown_key(tmp_path, capsys, text, command):
    # g_plus.01 silently replaced g_plus.1, and A.01.1.1.1 was added to
    # A.1.1.1.1, so that A[0, 0, 0, 0] read 2
    cfg = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(cfg)
    code = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "config"


@pytest.mark.parametrize("n", [1, 4])
def test_unsupported_dimension_is_a_config_error(tmp_path, capsys, n):
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("n = 2", f"n = {n}"))
    code = main(["validate", "--config", cfg])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err == {"error": "config", "message": f"[region] n must be 2 or 3, got {n}"}


def _with(section, line, kind=None):
    """QUAD_CFG plus ``line`` in ``section``, under an operator of ``kind``."""
    text = QUAD_CFG
    if kind is not None:
        text += f"[operator]\nkind = {kind}\n"
        if kind == "custom":
            text += 'A.1.1.1.1 = "1"\nA.1.1.2.2 = "1"\n'
    return text + f"[{section}]\n{line}\n"


# (name in the message, bad value, config text, command line after --config)
BAD_NUMBERS = [
    ("[region] n", "two", QUAD_CFG.replace("n = 2", "n = two"), []),
    ("[region] epsilon", "abc", QUAD_CFG.replace("epsilon = 0.1", "epsilon = abc"), []),
    ("[region] epsilons", "x",
     QUAD_CFG.replace("epsilon = 0.1", "epsilons = 0.1,x,0.05"), []),
    ("[region] r_solve", "wide", _with("region", "r_solve = wide"), []),
    ("[region] r_analyze", "1/2", _with("region", "r_analyze = 1/2"), []),
    ("[operator] mu", "abc", _with("operator", "mu = abc", "lame"), []),
    ("[operator] lam", "1,5", _with("operator", "lam = 1,5", "lame"), []),
    ("[operator] lambda", "one", _with("operator", "lambda = one", "custom"), []),
    ("[operator] Lambda", "3x", _with("operator", "Lambda = 3x", "custom"), []),
    ("[operator] kappa2", "", _with("operator", "kappa2 =", "custom"), []),
    ("[operator] N", "1.0", _with("operator", "N = 1.0", "custom"), []),
    ("[solver] nx", "33.5", _with("solver", "nx = 33.5"), []),
    ("[solver] nt", "many", _with("solver", "nt = many"), []),
    ("[solver] tol", "1e-x", _with("solver", "tol = 1e-x"), []),
    ("[analysis] R0", "quarter", _with("analysis", "R0 = quarter"), []),
    ("[flags] seed", "0x1", _with("flags", "seed = 0x1"), []),
    ("--grids", "abc", QUAD_CFG, ["mms", "--grids", "9,abc,33"]),
    ("--epsilons", "x", QUAD_CFG, ["sweep", "--epsilons", "0.1,x"]),
]
# numbers outside (0, 1), which no relative residual can mean
BAD_TOLS = ["0", "-1", "1", "inf", "nan"]
BAD_NUMBERS += [("[solver] tol", bad, _with("solver", f"tol = {bad}"), [])
                for bad in BAD_TOLS]
# nan and inf are not numbers to any key or flag
BAD_NUMBERS += [
    ("[region] epsilon", "inf", QUAD_CFG.replace("epsilon = 0.1", "epsilon = inf"), []),
    ("[operator] mu", "inf", _with("operator", "mu = inf", "lame"), []),
    ("[operator] mu", "nan", _with("operator", "mu = nan", "lame"), []),
    ("[analysis] R0", "nan", _with("analysis", "R0 = nan"), []),
    ("--epsilon", "inf", QUAD_CFG, ["solve", "--epsilon", "inf"]),
]
# R0 is a radius: numbers at or below 0 are not one
BAD_RADII = ["-0.25", "0"]
BAD_NUMBERS += [("[analysis] R0", bad, _with("analysis", f"R0 = {bad}"), [])
                for bad in BAD_RADII]


def _bad_number_id(case):
    name, bad = case[0].split()[-1], case[1]
    return f"{name}={bad}" if bad in BAD_TOLS + BAD_RADII else name


@pytest.mark.parametrize("name,bad,text,command", BAD_NUMBERS,
                         ids=[_bad_number_id(case) for case in BAD_NUMBERS])
def test_bad_number_is_a_config_error(tmp_path, capsys, name, bad, text, command):
    verb, *flags = command or ["validate"]
    code = main([verb, "--config", write_cfg(tmp_path, text)] + flags)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    what = "an integer" if name.split()[-1] in ("n", "N", "nx", "nt", "seed", "--grids") \
        else "a number"
    if name == "[solver] tol" and bad in BAD_TOLS:
        what = "a number in (0, 1)"
    if name == "[analysis] R0" and bad in BAD_RADII:
        what = "a positive number"
    assert err == {"error": "config", "message": f"{name} must be {what}, got {bad!r}"}


# (name in the message, bad size, config text, command line after --config)
BAD_GRID_SIZES = [
    ("[solver] nx", 10, _with("solver", "nx = 10"), ["solve"]),
    ("[solver] nx", 7, _with("solver", "nx = 7"), ["validate"]),
    ("[solver] nt", 32, _with("solver", "nt = 32"),
     ["sweep", "--epsilons", "0.1,0.05,0.025"]),
    ("--grids", 16, QUAD_CFG, ["mms", "--grids", "9,16,33"]),
]


@pytest.mark.parametrize("name,bad,text,command", BAD_GRID_SIZES,
                         ids=["nx_even", "nx_small", "nt_even", "grids_even"])
def test_bad_grid_size_is_a_config_error(tmp_path, capsys, name, bad, text, command):
    # rejected when the config or the flag is read, before any solve
    verb, *flags = command
    code = main([verb, "--config", write_cfg(tmp_path, text)] + flags)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "config", "message": f"{name} must be odd and >= 9, got {bad}"}


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--epsilons", "0.1,0.05,0.025"]],
                         ids=["solve", "sweep"])
def test_data_degree_above_limit_is_a_config_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, QUAD_CFG.replace('g_plus.1 = "1"', 'g_plus.1 = "x1^9"'))
    code = main([command[0], "--config", cfg] + command[1:])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config" and "degree 9 > 8" in err["message"]


def test_load_config_rejects_duplicates_and_orphans(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, QUAD_CFG + "[region]\nn = 3\n"))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "n = 2\n" + QUAD_CFG))


def test_validate_success(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    out = tmp_path / "out"
    code = main(["validate", "--config", cfg, "--out", str(out), "--seed", "5"])
    assert code == EXIT_OK
    payload = json.loads((out / "validate.json").read_text())
    assert payload["seed"] == 5
    assert payload["geometry"]["passed"] is True
    assert payload["geometry"]["min_eigenvalue"] == 2.0
    assert payload["operator"]["lambda_estimate"] == pytest.approx(1.0, abs=1e-9)
    assert payload["operator"]["symmetric"] is True
    capsys.readouterr()


def test_validate_3d_lame(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD3D_CFG.replace("epsilons = 0.1,0.05,0.025",
                                                 "epsilon = 0.1")
                    + 'g_plus.2 = "0"\ng_minus.2 = "0"\n'
                    + 'g_plus.3 = "0"\ng_minus.3 = "0"\n'
                    + "[operator]\nkind = lame\nmu = 1.0\nlam = 1.0\n")
    out = tmp_path / "out"
    code = main(["validate", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    payload = json.loads((out / "validate.json").read_text())
    assert printed == payload
    assert sorted(payload) == ["epsilon", "geometry", "operator", "seed"]
    assert sorted(payload["operator"]) == [
        "Lambda_claim", "Lambda_estimate", "elasticity_symmetries", "kappa2_claim",
        "kappa2_estimate", "kind", "lambda_claim", "lambda_estimate", "symmetric"]
    assert payload["geometry"]["passed"] is True
    op = payload["operator"]
    assert op["kind"] == "lame"
    assert op["lambda_estimate"] >= op["lambda_claim"] * (1 - 1e-9)
    assert op["elasticity_symmetries"] is True


def test_validate_seed_is_only_echoed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG + 'g_plus.2 = "0"\ng_minus.2 = "0"\n'
                    + "[operator]\nkind = lame\nmu = 1.0\nlam = 1.0\n")
    payloads = []
    for seed in (1, 2):
        assert main(["validate", "--config", cfg, "--seed", str(seed)]) == EXIT_OK
        payloads.append(json.loads(capsys.readouterr().out))
    assert [p["seed"] for p in payloads] == [1, 2]
    assert payloads[0]["operator"] == payloads[1]["operator"]


def test_validate_flat_gap_fails_with_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    code = main(["validate", "--config", cfg])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "convexity_kappa0" in err["message"]

    code = main(["validate", "--config", cfg, "--allow-degenerate-geometry"])
    capsys.readouterr()
    assert code == EXIT_OK


def test_solve_outputs_are_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        outs.append(out)
    rep_a = (outs[0] / "report_eps0p1.json").read_bytes()
    rep_b = (outs[1] / "report_eps0p1.json").read_bytes()
    assert rep_a == rep_b
    csv_a = (outs[0] / "field_eps0p1.csv").read_bytes()
    csv_b = (outs[1] / "field_eps0p1.csv").read_bytes()
    assert csv_a == csv_b

    payload = json.loads(rep_a)
    assert sorted(payload) == REPORT_KEYS
    assert sorted(payload["lemma_constants"]) == ["k213", "k219", "k220",
                                                 "k225", "k226"]
    assert payload["rate_fit"] is None
    assert payload["grid"] == {"nx": 45, "nt": 33}

    lines = csv_a.decode().splitlines()
    assert lines[0] == "x1,xn,t,u_1,grad_norm"
    assert len(lines) == 1 + 45 * 33


# values whose text is easy to get wrong: both zeros, NaNs with other sign and
# payload bits, infinities, subnormals and the ends of the exponent range
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan,
                  np.array(0x7FF8000000000123).view(np.float64).item(),
                  np.inf, -np.inf, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-300]


@st.composite
def csv_tables(draw):
    """A float64 table drawn from a small pool, so values repeat."""
    pool = draw(st.lists(st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS),
                         min_size=1, max_size=8))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                          max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(table=csv_tables(), block=st.integers(1, 5))
def test_csv_writer_matches_formatting_cell_by_cell(table, block):
    header = [f"c{j}" for j in range(table.shape[1])]
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_BLOCK_ROWS", block)
        _write_csv(out, header, table)
    expect = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
    assert out.getvalue() == expect


def test_csv_writer_memory_stays_within_four_tables(tmp_path):
    # the laplace3d field shape, every value distinct: formatting every
    # distinct value once for the whole file took 11-13x of the table on a
    # real laplace3d field and 33x on this one
    table = np.random.default_rng(0).standard_normal((10625, 6))
    with open(tmp_path / "field.csv", "w") as fh:
        tracemalloc.start()
        try:
            _write_csv(fh, [f"c{j}" for j in range(6)], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4 * table.nbytes


def test_solve_epsilon_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--epsilon", "0.05",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((out / "report_eps0p05.json").read_text())
    assert payload["epsilon"] == 0.05
    assert payload["grid"]["nx"] == 45


def test_solve_flat_gap_needs_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    assert main(["solve", "--config", cfg]) == EXIT_VALIDATION
    capsys.readouterr()
    code = main(["solve", "--config", cfg, "--allow-degenerate-geometry"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["sup_grad"] == pytest.approx(10.0, rel=1e-9)


def test_sweep_and_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--epsilons", "0.1,0.05,0.025",
                 "--out", str(out), "--seed", "9"])
    assert code == EXIT_OK
    capsys.readouterr()
    payload = json.loads((out / "ratefit.json").read_text())
    assert sorted(payload) == ["conclusive", "metric", "points", "rate_fit",
                               "scenario", "seed"]
    assert payload["metric"] == "center_grad"
    assert payload["seed"] == 9
    assert payload["conclusive"] is True
    assert -1.1 < payload["rate_fit"]["slope"] < -0.9
    eps_seen = [p["epsilon"] for p in payload["points"]]
    assert eps_seen == sorted(eps_seen, reverse=True)
    for tag in ("0p1", "0p05", "0p025"):
        assert (out / f"report_eps{tag}.json").exists()

    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "rate[center_grad]" in captured.out
    assert "geometry passed=True" in captured.out
    # report reads only its directory, so it takes no config
    assert main(["report", "--config", cfg, "--in", str(out)]) == EXIT_USAGE


def test_scenario_labels_every_report(tmp_path, capsys):
    # the label is the config's alone: the CLI writes it into each file
    cfg = write_cfg(tmp_path, QUAD_CFG + '\n[analysis]\nscenario = "demo"\n')
    solve, sweep = tmp_path / "solve", tmp_path / "sweep"
    assert main(["solve", "--config", cfg, "--out", str(solve)]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--epsilons", "0.1,0.05,0.025",
                 "--out", str(sweep)]) == EXIT_OK
    capsys.readouterr()
    reports = [*solve.glob("report_eps*.json"), *sweep.glob("report_eps*.json")]
    assert len(reports) == 4
    for path in reports + [sweep / "ratefit.json"]:
        assert json.loads(path.read_text())["scenario"] == "demo", path


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["sweep", "--config", cfg, "--epsilons", "0.1,0.05,0.025"]
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == EXIT_OK
    capsys.readouterr()
    assert ((serial / "ratefit.json").read_bytes()
            == (parallel / "ratefit.json").read_bytes())


def test_sweep_3d_blowup_rate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD3D_CFG + "[solver]\nnx = 21\nnt = 9\n")
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusive"] is True
    assert abs(payload["rate_fit"]["slope"] + 1.0) <= 0.05


def test_sweep_honours_solver_settings(tmp_path, capsys):
    # neither the 3-D BiCGSTAB nor the 2-D banded LU reaches 1e-30 of ||b||
    quad = QUAD_CFG.replace("epsilon = 0.1", "epsilons = 0.1,0.05,0.025")
    for text, solver in [(QUAD3D_CFG, "BiCGSTAB"), (quad, "banded LU")]:
        cfg = write_cfg(tmp_path, text + "[solver]\nnx = 9\nnt = 9\ntol = 1e-30\n")
        code = main(["sweep", "--config", cfg])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == EXIT_SOLVER
        assert err["error"] == "solver"
        assert solver in err["message"]
        # BiCGSTAB's recurrence residuals, after the refinement ones in 2-D
        history = err["residual_history"]
        assert history and all(isinstance(v, float) for v in history)


def test_sweep_without_a_coarser_check_grid_exits_gate(tmp_path, capsys):
    # at nx = nt = 9 the half grid is the solve grid itself
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("epsilon = 0.1",
                                               "epsilons = 0.1,0.05,0.025")
                    + "[solver]\nnx = 9\nnt = 9\n")
    code = main(["sweep", "--config", cfg])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == EXIT_GATE
    assert err["error"] == "gate"
    assert "check grid (9,9) equals the solve grid (9,9)" in err["message"]


def test_solver_error_line_shows_residual_history(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD3D_CFG.replace("epsilons = 0.1,0.05,0.025",
                                                 "epsilon = 0.1")
                    + "[solver]\nnx = 9\nnt = 9\ntol = 1e-30\n")
    code = main(["solve", "--config", cfg])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == EXIT_SOLVER
    assert err["error"] == "solver"
    history = err["residual_history"]
    assert len(history) > 0 and all(isinstance(v, float) for v in history)


@pytest.mark.parametrize("n, gap", [(2, '"0.5*x1^2"'), (3, '"0.5*x1^2 + 0.5*x2^2"')])
def test_operator_without_coefficients_is_a_solver_error(tmp_path, capsys, n, gap):
    # every coefficient is 0, so assembly sums no stencil slot at all and
    # A_II has no entry: the band LU meets a zero pivot, as for any
    # singular system
    cfg = write_cfg(tmp_path, f"[region]\nn = {n}\nepsilon = 0.1\nh1 = {gap}\n"
                    f"h2 = \"0\"\n\n[operator]\nkind = custom\nN = 1\n"
                    'A.1.1.1.1 = "0"\n\n[data]\ng_plus.1 = "1"\n\n'
                    "[solver]\nnx = 9\nnt = 9\n")
    code = main(["solve", "--config", cfg])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == EXIT_SOLVER
    assert err["error"] == "solver" and "zero pivot" in err["message"]


def test_sweep_inconclusive_fit_exits_gate(tmp_path, capsys, monkeypatch):
    def inconclusive(points):
        fit = fit_rate(points)
        fit.conclusive = False
        return fit

    monkeypatch.setattr(analysis, "fit_rate", inconclusive)
    cfg = write_cfg(tmp_path, QUAD_CFG)
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--epsilons", "0.1,0.05,0.025",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_GATE
    assert json.loads(captured.err.strip())["error"] == "gate"
    assert json.loads((out / "ratefit.json").read_text())["conclusive"] is False


def test_sweep_needs_three_epsilons(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    code = main(["sweep", "--config", cfg, "--epsilons", "0.1,0.05"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert json.loads(captured.err.strip())["error"] == "config"


@pytest.mark.parametrize("text, flag", [
    (QUAD_CFG.replace("epsilon = 0.1", "epsilons = 0.1,0.1,0.05"), []),
    # a flat gap fails the geometry gate (exit 2), which must come later
    (FLAT_CFG, ["--epsilons", "0.05,0.1,0.05"]),
], ids=["config", "flag"])
def test_sweep_repeated_epsilon_is_a_config_error_before_any_solve(
        tmp_path, capsys, monkeypatch, text, flag):
    solves = []

    def recording(system, tol=1e-10):
        solves.append(tol)
        return solve_system(system, tol=tol)

    monkeypatch.setattr(mesh_solver, "solve_system", recording)
    code = main(["sweep", "--config", write_cfg(tmp_path, text)] + flag)
    err = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_USAGE
    assert err["error"] == "config"
    assert "distinct" in err["message"]
    assert solves == []


def test_sweep_epsilons_with_one_file_tag_are_a_config_error_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # 0.05000001 and 0.05 both write report_eps0p05.json: the sweep wrote
    # three reports for the four points of its ratefit.json
    solves = []
    monkeypatch.setattr(mesh_solver, "solve_system",
                        lambda *a, **kw: solves.append(a) or pytest.fail("solved"))
    out = tmp_path / "out"
    code = main(["sweep", "--config", write_cfg(tmp_path, QUAD_CFG),
                 "--epsilons", "0.1,0.05000001,0.05,0.025", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config"
    assert "0.05000001,0.05" in err["message"]
    assert solves == [] and not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_jobs_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, jobs):
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **kw: pools.append(kw))
    cfg = write_cfg(tmp_path, QUAD_CFG)
    code = main(["sweep", "--config", cfg, "--epsilons", "0.1,0.05,0.025",
                 "--jobs", jobs])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == EXIT_USAGE
    assert err["error"] == "usage"
    assert "--jobs" in err["message"]
    assert pools == []


LAME_CFG = QUAD_CFG + 'g_plus.2 = "0"\ng_minus.2 = "0"\n' + \
    "[operator]\nkind = lame\nmu = 1.0\nlam = 1.0\n"
LAME3D_CFG = QUAD3D_CFG + 'g_plus.2 = "0"\ng_minus.2 = "0"\n' + \
    'g_plus.3 = "0"\ng_minus.3 = "0"\n' + "[operator]\nkind = lame\n"


@pytest.mark.parametrize("args, text", [
    (["solve"], QUAD_CFG),
    (["solve", "--epsilon", "0.1"], QUAD3D_CFG + "[solver]\nnx = 9\nnt = 9\n"),
    (["sweep", "--epsilons", "0.1,0.05,0.025"], QUAD_CFG),
    (["validate"], LAME_CFG),
    (["validate"], LAME3D_CFG),
    (["mms", "--grids", "9,17,33"], LAME_CFG),
], ids=["solve2d", "solve3d", "sweep2d", "validate2d-lame", "validate3d",
        "mms2d-lame"])
def test_run_path_evaluates_no_rational_field(tmp_path, capsys, monkeypatch,
                                              args, text):
    # no command evaluates an exact rational: the nodal utilde comes from
    # the traces, and every jet of the vertical coordinate is closed form
    calls = []
    value_many = RationalField.value_many
    monkeypatch.setattr(RationalField, "value_many",
                        lambda self, points: calls.append(self)
                        or value_many(self, points))
    cfg = write_cfg(tmp_path, text)
    assert main([args[0], "--config", cfg] + args[1:]) == EXIT_OK
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("grids", ["9,17,33", "9,11,13", "17,25,33"])
def test_mms_passes_on_increasing_grids(tmp_path, capsys, grids):
    # each order divides by log2 of its refinement ratio, so a ladder that
    # does not halve h shows second order too
    cfg = write_cfg(tmp_path, QUAD_CFG)
    assert main(["mms", "--config", cfg, "--grids", grids]) == EXIT_OK
    captured = capsys.readouterr()
    assert "order_inf" in captured.out and captured.err == ""


def test_mms_gate(tmp_path, capsys, monkeypatch):
    def first_order(*args, **kwargs):
        study = verification.convergence_study(*args, **kwargs)
        study.orders_inf = [1.5] * len(study.orders_inf)
        return study

    monkeypatch.setattr(cli, "convergence_study", first_order)
    cfg = write_cfg(tmp_path, QUAD_CFG)
    code = main(["mms", "--config", cfg, "--grids", "9,17,33"])
    captured = capsys.readouterr()
    assert code == EXIT_GATE
    assert json.loads(captured.err.strip())["error"] == "convergence"


@pytest.mark.parametrize("grids", ["33,17,9", "17,17,33"])
def test_mms_grids_that_do_not_increase_are_a_config_error(tmp_path, capsys,
                                                            monkeypatch, grids):
    monkeypatch.setattr(verification, "assemble",
                        lambda *a, **kw: pytest.fail("a grid was solved"))
    cfg = write_cfg(tmp_path, QUAD_CFG)
    assert main(["mms", "--config", cfg, "--grids", grids]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config" and "strictly increase in nx" in err["message"]


def test_mms_flat_gap_needs_override(tmp_path, capsys):
    # mms runs the same geometry gate as solve and sweep, before any solve
    cfg = write_cfg(tmp_path, FLAT_CFG)
    assert main(["mms", "--config", cfg, "--grids", "9,17,33"]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "convexity_kappa0" in err["message"]
    for extra, text in ((["--allow-degenerate-geometry"], FLAT_CFG),
                        ([], FLAT_CFG + "[flags]\nallow_degenerate_geometry = true\n")):
        cfg = write_cfg(tmp_path, text)
        assert main(["mms", "--config", cfg, "--grids", "9,17,33"] + extra) == EXIT_OK
        assert "order_inf" in capsys.readouterr().out


def test_mms_in_3d_is_a_config_error_before_the_gate(tmp_path, capsys):
    # the dimension is checked before any region is built, so a 3-D gap
    # that also closes on the solve box is a config error, not a validation one
    closing = QUAD3D_CFG.replace('h1 = "0.5*x1^2 + 0.5*x2^2"', 'h1 = "-x1^2 - x2^2"')
    closing = closing.replace('h2 = "-0.5*x1^2 - 0.5*x2^2"', 'h2 = "0"')
    cfg = write_cfg(tmp_path, closing)
    assert main(["mms", "--config", cfg, "--grids", "9,17,33"]) == EXIT_USAGE
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {"error": "config",
                                "message": "the built-in mms field is defined for n=2"}
    assert main(["solve", "--config", cfg, "--epsilon", "0.1"]) == EXIT_VALIDATION
    assert "gap closes" in capsys.readouterr().err


def test_mms_honours_solver_settings(tmp_path, capsys, monkeypatch):
    tols = []

    def recording(system, tol=1e-10):
        tols.append(tol)
        return solve_system(system, tol=tol)

    monkeypatch.setattr(verification, "solve_system", recording)
    cfg = write_cfg(tmp_path, QUAD_CFG + "[solver]\ntol = 1e-11\n")
    assert main(["mms", "--config", cfg, "--grids", "9,17,33"]) == EXIT_OK
    assert tols == [1e-11] * 3


def test_custom_operator_matches_builtin(tmp_path, capsys):
    custom = QUAD_CFG + """
[operator]
kind = custom
N = 1
A.1.1.1.1 = "1"
A.1.1.2.2 = "1"

[solver]
nx = 17
nt = 9
"""
    builtin = QUAD_CFG + """
[solver]
nx = 17
nt = 9
"""
    code = main(["solve", "--config", write_cfg(tmp_path, custom, "c.cfg")])
    out_custom = capsys.readouterr().out
    assert code == EXIT_OK
    code = main(["solve", "--config", write_cfg(tmp_path, builtin, "b.cfg")])
    out_builtin = capsys.readouterr().out
    assert code == EXIT_OK
    assert (json.loads(out_custom)["sup_grad"]
            == pytest.approx(json.loads(out_builtin)["sup_grad"], rel=1e-12))


def test_usage_errors(tmp_path, capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["orbit"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("command, named", [
    ("validate --config {tmp}", "{tmp}"),
    ("validate --config {latin1}", "{latin1}"),
    ("solve --config {cfg} --out {cfg}", "{cfg}"),
    ("validate --config {cfg} --out {cfg}/sub", "{cfg}/sub"),
], ids=["config-is-a-directory", "config-not-utf8", "out-is-a-file",
        "out-below-a-file"])
def test_unreadable_config_or_unusable_out_is_a_config_error(tmp_path, capsys,
                                                             command, named):
    # the message names the path that could not be used
    cfg = write_cfg(tmp_path, QUAD_CFG)
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(QUAD_CFG.replace("quadratic", "quadr\xe4tic").encode("latin-1"))
    argv = command.format(tmp=tmp_path, cfg=cfg, latin1=latin1).split()
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (line,) = captured.err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert named.format(tmp=tmp_path, cfg=cfg, latin1=latin1) in err["message"]


@pytest.mark.parametrize("verb", ["solve", "sweep"])
def test_unusable_out_fails_before_any_solve(tmp_path, capsys, monkeypatch, verb):
    # --out is checked before the first solve, so a path that cannot be a
    # directory fails at once instead of after the whole solve or sweep
    calls = []
    real = analysis.solve_epsilon

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "solve_epsilon", counting)
    monkeypatch.setattr(analysis, "solve_epsilon", counting)
    text = QUAD_CFG if verb == "solve" else QUAD_CFG.replace(
        "epsilon = 0.1", "epsilons = 0.1,0.05,0.025")
    cfg = write_cfg(tmp_path, text)
    assert main([verb, "--config", cfg, "--out", cfg]) == EXIT_USAGE
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert calls == []


def test_failed_solve_makes_no_out_directory(tmp_path, capsys):
    # --out is made only to write results, so report never finds it empty
    cfg = write_cfg(tmp_path, QUAD_CFG + "[solver]\nnx = 9\nnt = 9\ntol = 1e-30\n")
    out = tmp_path / "results" / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_SOLVER
    capsys.readouterr()
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--allow-degenerate-geometry"]])
def test_report_rejects_the_config_flags(tmp_path, capsys, flag):
    # report reads only its directory, so no [flags] override applies to it
    (tmp_path / "report_eps0p1.json").write_text("{}")
    assert main(["report", "--in", str(tmp_path), *flag]) == EXIT_USAGE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert flag[0] in err["message"]


@pytest.mark.parametrize("name, content, what", [
    ("report_eps0p1.json", '{"epsilon": 0.1', "JSONDecodeError"),
    ("report_eps0p1.json", '{"epsilon": 0.1, "sup_grad": 1.0}', "KeyError: 'c_low'"),
    ("report_eps0p1.json", None, "IsADirectoryError"),
    ("ratefit.json", '{"metric": "center_grad"}', "KeyError: 'rate_fit'"),
    ("validate.json", "[]", "TypeError"),
], ids=["bad-json", "missing-key", "directory", "ratefit", "validate"])
def test_report_malformed_file_is_a_config_error(tmp_path, capsys, name, content,
                                                 what):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert main(["report", "--in", str(tmp_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert str(path) in err["message"] and what in err["message"]


@pytest.mark.parametrize("args, built", [
    (["sweep", "--epsilons", "0.1,0.05,0.025"], 3),
    (["solve"], 1),
    (["mms", "--grids", "9,17,33"], 1),
    (["validate"], 1),
], ids=["sweep", "solve", "mms", "validate"])
def test_each_command_builds_one_region_per_epsilon(tmp_path, capsys, monkeypatch,
                                                    args, built):
    # the geometry gate's region is the one that is solved and analyzed
    count = []
    post_init = geometry.NarrowRegion.__post_init__
    monkeypatch.setattr(geometry.NarrowRegion, "__post_init__",
                        lambda self: count.append(self) or post_init(self))
    cfg = write_cfg(tmp_path, QUAD_CFG)
    assert main([args[0], "--config", cfg] + args[1:]) == EXIT_OK
    capsys.readouterr()
    assert len(count) == built


@pytest.mark.parametrize("command", ["validate", "solve", "sweep", "mms"])
def test_config_commands_take_the_config_flags(command):
    args = _build_parser().parse_args(
        [command, "--config", "x.cfg", "--seed", "5", "--allow-degenerate-geometry"])
    assert (args.seed, args.allow_degenerate_geometry) == (5, True)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_config_example_loads(tmp_path):
    (example,) = re.findall(r"```ini\n(.*?)```", README, re.S)
    cfg = load_config(write_cfg(tmp_path, example))
    assert cfg.op_kind == "lame" and cfg.epsilons == [0.1] and cfg.nx == 45
    assert cfg.operator().N == 2 and cfg.data().N == 2


def test_readme_library_example_runs(capsys):
    library = README[README.index("## Library use"):]
    (code,) = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(code, {})
    assert len(capsys.readouterr().out.split()) == 3
