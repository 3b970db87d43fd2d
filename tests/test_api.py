"""Public names resolve, and the names the benchmark harness reaches exist.

``bench/tracer.py`` wraps these attributes and raises on a missing one, and
the bench scripts import the others; a deletion should fail here first."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_no_module_global_is_a_cache():
    # each object owns what it derives, so no process-wide cache keeps one
    # run's values for the next
    for module in MODULES:
        importlib.import_module(f"narrowgap.{module}")
    cached = [f"{name}.{attr}" for name, mod in list(sys.modules.items())
              if name == "narrowgap" or name.startswith("narrowgap.")
              for attr, value in vars(mod).items()
              if callable(getattr(value, "cache_clear", None))]
    assert cached == []


def test_cli_import_leaves_out_sparse_linalg():
    # the solvers need only scipy.sparse and scipy.linalg; importing
    # scipy.sparse.linalg as well would slow every fresh interpreter
    src = str(Path(narrowgap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, narrowgap.cli; "
             "print(any(m.startswith('scipy.sparse.linalg') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_out_the_worker_pool():
    # only a parallel sweep (--jobs > 1) starts worker processes, so
    # importing the CLI must not pay for the process-pool modules
    src = str(Path(narrowgap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, narrowgap.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures.process'} "
             "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
