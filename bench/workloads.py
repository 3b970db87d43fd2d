"""Workload definitions: the configs each workload writes and the CLI
commands one pass runs.

Every case uses the quadratic gap h1 = |x'|^2/2, h2 = -|x'|^2/2 with a
constant mismatch a - b in the first component at the origin (top trace a,
bottom trace b, every other component zero).  The workload seed picks a and
b, and the seed handed to ``--seed`` (the ellipticity trials of
``validate``).  Grid sizes and eps ladders never depend on the seed, so the
work in a pass is the same for every seed.  The problems are linear in the
data, so the center gradient of every case is |a - b| times the unit-mismatch
value in ``references.json``, which keeps the accuracy checks computable for
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

GAP = {
    2: ('"0.5*x1^2"', '"-0.5*x1^2"'),
    3: ('"0.5*x1^2 + 0.5*x2^2"', '"-0.5*x1^2 - 0.5*x2^2"'),
}

SWEEP_EPS = (0.1, 0.05, 0.025, 0.0125, 0.00625)
SOLVE3D_EPS = 0.1


@dataclass(frozen=True)
class Case:
    """One config file: operator, dimension, eps ladder and, when fixed, the
    solve grid.  ``nx`` None means the sweep's default grid rule."""
    name: str
    op: str
    n: int
    epsilons: tuple
    nx: int | None = None
    nt: int | None = None


CASES = {
    "laplace2d": Case("laplace2d", "laplace", 2, SWEEP_EPS),
    "lame2d": Case("lame2d", "lame", 2, SWEEP_EPS),
    "laplace3d": Case("laplace3d", "laplace", 3, (SOLVE3D_EPS,), nx=25, nt=17),
    "lame3d": Case("lame3d", "lame", 3, (SOLVE3D_EPS,), nx=17, nt=13),
}


@dataclass(frozen=True)
class Command:
    """One CLI call of a pass.  ``out`` marks commands run with --out."""
    verb: str
    case: str
    out: bool = False

    @property
    def label(self):
        return f"{self.verb}:{self.case}"


WORKLOADS = {
    # The paper's main use: 20 assemble+solve calls per pass, half of them
    # the Richardson half-grid checks.
    "sweep2d": (Command("sweep", "laplace2d", out=True),
                Command("sweep", "lame2d", out=True)),
    # Two 3-D direct solves; the Lame one is most of the pass and the LU
    # fill sets the memory peak.
    "solve3d": (Command("solve", "laplace3d", out=True),
                Command("solve", "lame3d", out=True)),
    # The pre-trust checks: ellipticity estimates (exact rationals in 2-D,
    # numpy sine modes in 3-D) and manufactured-solution studies.
    "checks": (Command("validate", "lame2d"), Command("validate", "lame3d"),
               Command("mms", "laplace2d"), Command("mms", "lame2d")),
}


@dataclass(frozen=True)
class Inputs:
    """What the workload seed decides."""
    seed: int
    top: str      # trace a on the upper surface, component 1
    bottom: str   # trace b on the lower surface, component 1

    @property
    def mismatch(self):
        return abs(float(self.top) - float(self.bottom))


def make_inputs(seed):
    rng = random.Random(seed)
    top = "%.3f" % rng.uniform(0.5, 2.0)
    bottom = "%.3f" % rng.uniform(-1.0, 0.25)
    return Inputs(seed=seed, top=top, bottom=bottom)


def config_text(case, inputs):
    """Config for one case.  ``[solver] method`` and ``tol`` are left unset
    on purpose: ``sweep`` ignores them today, so setting them would change
    what the sweep workload runs once that is fixed."""
    h1, h2 = GAP[case.n]
    lines = ["[region]", f"n = {case.n}"]
    if len(case.epsilons) == 1:
        lines.append(f"epsilon = {case.epsilons[0]:g}")
    else:
        lines.append("epsilons = " + ",".join(f"{e:g}" for e in case.epsilons))
    lines += [f"h1 = {h1}", f"h2 = {h2}", "", "[operator]", f"kind = {case.op}"]
    if case.op == "lame":
        lines += ["mu = 1.0", "lam = 1.0"]
    lines += ["", "[data]"]
    ncomp = case.n if case.op == "lame" else 1
    for l in range(1, ncomp + 1):
        top, bottom = (inputs.top, inputs.bottom) if l == 1 else ("0", "0")
        lines += [f'g_plus.{l} = "{top}"', f'g_minus.{l} = "{bottom}"']
    if case.nx is not None:
        lines += ["", "[solver]", f"nx = {case.nx}", f"nt = {case.nt}"]
    lines += ["", "[analysis]", f'scenario = "bench-{case.name}"', ""]
    return "\n".join(lines)


def reference_key(case, eps):
    """Key of a (case name, eps) center-gradient entry in references.json."""
    return f"{case}@eps{eps:g}"


def write_configs(workdir, workload, inputs):
    """Write the configs one workload reads; returns {case name: path}."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cmd in WORKLOADS[workload]:
        if cmd.case not in paths:
            path = workdir / f"{cmd.case}.cfg"
            path.write_text(config_text(CASES[cmd.case], inputs))
            paths[cmd.case] = path
    return paths


def cli_args(cmd, config_path, outdir, seed):
    """The argument list handed to narrowgap.cli.main."""
    args = [cmd.verb, "--config", str(config_path), "--seed", str(seed)]
    if cmd.verb == "sweep":
        args += ["--jobs", "1"]
    if cmd.out:
        args += ["--out", str(outdir)]
    return args
