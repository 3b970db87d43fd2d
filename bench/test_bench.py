"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The smoke runs take every workload through both modes with the shortest
run (two passes each), about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import MissingReference, check_validate, reference  # noqa: E402
from tracer import Tracer, install_layers  # noqa: E402
from workloads import CASES, WORKLOADS, Command, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((HERE / "references.json").read_text())
PRINTED = {"sweep2d": ("fail_ratio", "center_grad_relerr", "rate_slope_err"),
           "solve3d": ("fail_ratio", "center_grad_relerr"),
           "checks": ("fail_ratio", "mms_err_inf", "lambda_relerr_2d",
                      "lambda_relerr_3d")}


def run_bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_every_metric_emitted_and_every_check_passes(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 2 * len(WORKLOADS[workload])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name in PRINTED[workload]:
        assert f"  {name} " in text


def test_every_solved_case_has_a_reference():
    for case in CASES.values():
        for eps in case.epsilons:
            assert reference(REFS, case.name, eps) > 0


def test_missing_reference_fails_loudly():
    with pytest.raises(MissingReference, match="lame3d@eps0.1"):
        reference({}, "lame3d", 0.1)


def test_validate_holds_the_estimate_to_the_claim():
    inputs = make_inputs(3)
    geometry = dict.fromkeys(["passed", "degenerate_override", "min_eigenvalue",
                              "c2_norm_h1", "c2_norm_h2", "c21_lower",
                              "c21_upper", "checks"], True)
    operator = dict.fromkeys(["kind", "Lambda_claim", "Lambda_estimate",
                              "kappa2_claim", "kappa2_estimate", "symmetric",
                              "elasticity_symmetries"], 1.0)

    def problems(estimate):
        out = {"epsilon": 0.1, "seed": 3, "geometry": geometry,
               "operator": dict(operator, lambda_claim=1.0, lambda_estimate=estimate)}
        return check_validate(Command("validate", "lame3d"), json.dumps(out),
                              None, inputs, REFS)[0]

    assert problems(1.4) == []
    assert any("below lambda_claim" in p for p in problems(0.99))


def test_seed_fixes_the_inputs():
    assert make_inputs(7) == make_inputs(7)
    for seed in range(50):
        assert make_inputs(seed).mismatch >= 0.25


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    inner[1:3], outer[1:3] = [1.0, 3.0], [0.0, 10.0]
    assert tracer.self_times() == [8.0, 2.0]
    assert tracer.children_of(0) == [1]


def test_wrappers_reach_every_import_site_and_are_removed():
    from narrowgap import analysis, cli, mesh_solver, verification
    originals = (cli.analyze_solution, verification.assemble, mesh_solver.assemble)
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert cli.analyze_solution is analysis.analyze_solution
        assert cli.analyze_solution.__wrapped__ is originals[0]
        assert verification.assemble is mesh_solver.assemble
        assert verification.assemble.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (cli.analyze_solution, verification.assemble, mesh_solver.assemble) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "sweep2d", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
