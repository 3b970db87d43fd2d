"""Command line interface: config schema, outputs, exit codes, determinism."""

import json

import pytest

from narrowgap import cli
from narrowgap.analysis import fit_rate
from narrowgap.cli import (
    EXIT_GATE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ConfigError,
    load_config,
    main,
)

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
    assert cfg.g_plus_texts == ["1"] and cfg.g_minus_texts == ["0"]
    assert cfg.nx is None and cfg.nt == 33
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
method = krylov

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
    assert cfg.nx == 45 and cfg.tol == 1e-11 and cfg.method == "krylov"
    assert cfg.R0 == 0.2 and cfg.metric == "sup_grad" and cfg.scenario == "demo"
    assert cfg.lateral_closure == "constant" and cfg.seed == 4


@pytest.mark.parametrize("mutation", [
    "[region]\nbogus = 1\n",
    "[orbit]\nx = 1\n",
    "[region]\nepsilons = 0.1,0.05\n",     # together with epsilon
    "[solver]\nmethod = gauss\n",
    "[analysis]\nmetric = max_grad\n",
])
def test_load_config_rejects_bad_input(tmp_path, mutation):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, QUAD_CFG + mutation))


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


def test_solve_epsilon_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--epsilon", "0.05",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((out / "report_eps0p05.json").read_text())
    assert payload["epsilon"] == 0.05
    assert payload["grid"]["nx"] == 65


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
    # direct LU would pass the residual check; GMRES cannot reach 1e-30
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("epsilon = 0.1",
                                               "epsilons = 0.1,0.05,0.025")
                    + "[solver]\nmethod = krylov\ntol = 1e-30\n")
    code = main(["sweep", "--config", cfg])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == EXIT_SOLVER
    assert err["error"] == "solver"
    assert "GMRES" in err["message"]


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


def test_sweep_inconclusive_fit_exits_gate(tmp_path, capsys, monkeypatch):
    def inconclusive(points, metric=""):
        fit = fit_rate(points, metric)
        fit.conclusive = False
        return fit

    monkeypatch.setattr(cli, "fit_rate", inconclusive)
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


def test_mms_gate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    assert main(["mms", "--config", cfg, "--grids", "9,17,33"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "order_inf" in captured.out
    # near-equal grids cannot show second order; the gate must trip
    code = main(["mms", "--config", cfg, "--grids", "9,11,13"])
    captured = capsys.readouterr()
    assert code == EXIT_GATE
    assert json.loads(captured.err.strip())["error"] == "convergence"


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
