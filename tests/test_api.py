"""Public names resolve, and the names the benchmark harness reaches exist.

``bench/tracer.py`` wraps these attributes and raises on a missing one, and
the bench scripts import the others; a deletion should fail here first."""

import importlib

import pytest

import narrowgap

MODULES = ["analysis", "auxiliary", "cli", "geometry", "mesh_solver",
           "operators", "polynomial", "verification"]

BENCH_NAMES = {
    "cli": ["main", "load_config", "_eps_tag", "cmd_validate", "cmd_solve",
            "cmd_sweep", "cmd_mms", "RunConfig.region", "RunConfig.operator",
            "RunConfig.data", "analyze_solution"],
    "analysis": ["gradient", "sweep_grid", "analyze_solution", "energy",
                 "sweep_member"],
    "mesh_solver": ["MappedGrid", "assemble", "solve_system", "solve_dirichlet"],
    "auxiliary": ["AuxiliaryEvaluator.ubar_values", "AuxiliaryEvaluator.ubar_grad",
                  "AuxiliaryEvaluator.ubar_hess", "AuxiliaryEvaluator.utilde_values",
                  "AuxiliaryEvaluator.utilde_grad",
                  "AuxiliaryEvaluator.ftilde_values"],
    "verification": ["convergence_study", "ManufacturedProblem.nodal_fields",
                     "assemble"],
    "operators": ["estimate_ellipticity", "estimate_bounds"],
    "geometry": ["validate_profile"],
    "polynomial": ["PolynomialField.value_many", "PolynomialField.deriv",
                   "RationalField.value_many", "RationalField.deriv"],
}


@pytest.mark.parametrize("module", [None] + MODULES)
def test_all_names_resolve(module):
    mod = narrowgap if module is None else importlib.import_module(
        f"narrowgap.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", sorted(BENCH_NAMES))
def test_bench_names_exist(module):
    mod = importlib.import_module(f"narrowgap.{module}")
    for dotted in BENCH_NAMES[module]:
        owner = mod
        for part in dotted.split("."):
            assert hasattr(owner, part), f"narrowgap.{module}.{dotted}"
            owner = getattr(owner, part)
        assert callable(owner), dotted
