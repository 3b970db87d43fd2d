"""Compute the center-gradient references the benchmark checks against.

For every (case, eps) a workload solves, this solves the unit-mismatch
problem (top trace 1, bottom trace 0) once on a strictly finer grid and
records max |grad u| over the center column, the same quantity as the
``center_grad`` sweep metric.  The workloads scale the mismatch by |a - b|,
and the problems are linear, so one reference per (case, eps) serves every
seed.

    python3 bench/make_references.py

computes every case and writes bench/references.json afresh.  Each entry
records its grid, wall time and the process's peak resident memory after
the solve.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from narrowgap.analysis import gradient, sweep_grid  # noqa: E402
from narrowgap.cli import load_config  # noqa: E402
from narrowgap.mesh_solver import MappedGrid, solve_dirichlet  # noqa: E402

from workloads import CASES, Inputs, config_text, reference_key  # noqa: E402

REFERENCES = HERE / "references.json"
# 2-D as in the grid study of the ROADMAP; 3-D at the finest grids a direct
# LU reached on a 2-core machine with 8 GB of memory.
GRIDS = {"laplace2d": (513, 129), "lame2d": (513, 129),
         "laplace3d": (49, 33), "lame3d": (25, 17)}


def center_grad(cfg, eps, nx, nt):
    region = cfg.region(eps)
    grid = MappedGrid(region, nx, nt)
    sol = solve_dirichlet(cfg.operator(), grid, cfg.data())
    return float(gradient(sol).norm()[grid.center_index()].max())


def main():
    refs = {}
    unit = Inputs(seed=0, top="1", bottom="0")
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, case in CASES.items():
            path = Path(tmp) / f"{name}.cfg"
            path.write_text(config_text(case, unit))
            cfg = load_config(path)
            nx, nt = GRIDS[name]
            for eps in case.epsilons:
                work_grid = ((case.nx, case.nt) if case.nx is not None
                             else (sweep_grid(eps), 33))
                if nx <= work_grid[0] or nt <= work_grid[1]:
                    raise SystemExit(f"{name}: reference grid {nx}x{nt} is not "
                                     f"finer than the workload grid {work_grid}")
                t0 = time.perf_counter()
                value = center_grad(cfg, eps, nx, nt)
                wall = time.perf_counter() - t0
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                refs[reference_key(name, eps)] = {
                    "center_grad": value, "grid": [nx, nt],
                    "workload_grid": list(work_grid),
                    "wall_s": round(wall, 2), "peak_rss_mb": round(rss)}
                print(f"{reference_key(name, eps)}: {value!r} on {nx}x{nt} "
                      f"({wall:.1f} s, peak {rss:.0f} MB)", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
