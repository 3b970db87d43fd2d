"""Command-line front end: config parsing, dispatch, CSV/JSON emission.

Config files are plain sectioned key=value text (see CONFIG_SCHEMA below and
the README).  Expressions use the polynomial grammar of parse_expression and
may be quoted.  Unknown sections or keys are rejected so typos fail loudly.
All outputs are deterministic: identical config gives byte-identical files.
The ``[flags] seed`` key and ``--seed`` drive no computation; validate.json
and ratefit.json echo the seed, so a different seed changes only that field.

Commands:
    validate  geometry hypothesis checks + operator ellipticity estimates
    solve     one epsilon: field CSV + bound-report JSON
    sweep     epsilon list: per-epsilon reports + rate-fit JSON
    mms       manufactured-solution convergence table
    report    consolidated summary of a results directory

Exit codes: 0 ok, 1 usage, 2 validation failure, 3 solver failure,
4 verification-gate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property
from pathlib import Path

import numpy as np

# analyze_solution is bound here, unused, because bench/test_bench.py checks
# that the bench tracer rebinds it at this import site
from .analysis import (NX_BASE, AnalysisError, SweepProblem,  # noqa: F401
                       analyze_solution, solve_epsilon, sweep_and_fit)
from .auxiliary import BoundaryData
from .geometry import GapProfile, GeometryError, NarrowRegion, validate_profile
from .mesh_solver import MappedGrid, SolverError
from .operators import (EllipticOperator, OperatorError, estimate_bounds,
                        estimate_ellipticity, make_builtin)
from .polynomial import ExpressionError, parse_expression
from .verification import convergence_study, manufactured_problem

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_expression",
           "report_to_dict", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_GATE = 4

# rows of a field CSV formatted as one string per write (_write_csv)
CSV_BLOCK_ROWS = 1024


class ConfigError(ValueError):
    pass


def _text(value, name):
    """``value`` without one pair of enclosing quotes."""
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _number(text, kind, name):
    """``kind(text)`` for kind int or float, or a ConfigError that names the
    key (``[section] key``) or the flag."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {text!r}") from None


def _int(text, name):
    return _number(text, int, name)


def _float(text, name):
    """A finite number: nan and inf are ConfigErrors as well."""
    value = _number(text, float, name)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be a number, got {text!r}")
    return value


def _positive(text, name):
    """A finite number above 0."""
    value = _float(text, name)
    if value <= 0:
        raise ConfigError(f"{name} must be a positive number, got {text!r}")
    return value


def _fraction(text, name):
    """A number strictly between 0 and 1 (nan and inf are not)."""
    value = _number(text, float, name)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must be a number in (0, 1), got {text!r}")
    return value


def _list(text, parse, name):
    """The comma-separated values in ``text``, each converted by ``parse``."""
    return [parse(tok, name) for tok in text.split(",") if tok.strip()]


def _nodes(text, name):
    """A node count along one grid axis, checked by MappedGrid's rule."""
    m = _int(text, name)
    try:
        MappedGrid.check_nodes(name, m)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from None
    return m


def _bool(text, name):
    v = text.lower()
    if v in ("true", "1", "on"):
        return True
    if v in ("false", "0", "off"):
        return False
    raise ConfigError(f"{name} must be true or false, got {text!r}")


def _choice(what, *options):
    def parse(text, name):
        if text not in options:
            raise ConfigError(f"unknown {what} {text!r}")
        return text
    return parse


# section -> key pattern -> (RunConfig field, parser).  Patterns are anchored
# regexes.  A parser turns the raw text into the field's value, or raises a
# ConfigError naming the key as "[section] key"; an unset key keeps the
# RunConfig default.  [operator] keys besides kind go to op_params and name
# the kind that reads them; [data] keys go to traces and name their side.
CONFIG_SCHEMA = {
    "region": {
        "n": ("n", _int),
        "epsilon": ("epsilons", lambda text, name: [_float(text, name)]),
        "epsilons": ("epsilons", lambda text, name: _list(text, _float, name)),
        "r_solve": ("r_solve", _float),
        "r_analyze": ("r_analyze", _float),
        "h1": ("h1_text", _text),
        "h2": ("h2_text", _text),
    },
    "operator": {
        "kind": ("op_kind", _choice("operator kind", "laplace", "lame", "custom")),
        "mu": ("lame", _float),
        "lam": ("lame", _float),
        "N": ("custom", _int),
        r"A\.\d+\.\d+\.\d+\.\d+": ("custom", _text),
        r"B\.\d+\.\d+\.\d+": ("custom", _text),
        r"C\.\d+\.\d+\.\d+": ("custom", _text),
        r"D\.\d+\.\d+": ("custom", _text),
        "lambda": ("custom", _float),
        "Lambda": ("custom", _float),
        "kappa2": ("custom", _float),
    },
    "data": {
        r"g_plus\.\d+": ("g_plus", _text),
        r"g_minus\.\d+": ("g_minus", _text),
    },
    "solver": {
        "nx": ("nx", _nodes),
        "nt": ("nt", _nodes),
        "tol": ("tol", _fraction),
    },
    "analysis": {
        "R0": ("R0", _positive),
        "scenario": ("scenario", _text),
        "metric": ("metric", _choice("metric", "center_grad", "sup_grad")),
    },
    "flags": {
        "allow_degenerate_geometry": ("allow_degenerate_geometry", _bool),
        "lateral_closure": ("lateral_closure",
                            _choice("lateral_closure", "utilde", "constant")),
        "seed": ("seed", _int),
    },
}


def _field(section, key):
    """The RunConfig field and parser of ``key`` in ``section``."""
    for pattern, entry in CONFIG_SCHEMA[section].items():
        if re.fullmatch(pattern, key):
            return entry
    raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _parse_sections(text, path="<config>"):
    """{section: {key: parsed value}} of the config ``text``."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        _, parse = _field(current, key)
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = parse(value.strip(), f"[{current}] {key}")
    return sections


@dataclass
class RunConfig:
    n: int = 2
    epsilons: list = dc_field(default_factory=list)
    r_solve: float = 1.0
    r_analyze: float = 0.5
    h1_text: str = "0"
    h2_text: str = "0"
    op_kind: str = "laplace"
    # the [operator] keys besides kind: these defaults and any A/B/C/D texts
    op_params: dict = dc_field(default_factory=lambda: {
        "mu": 1.0, "lam": 1.0, "N": 1, "lambda": 1.0, "Lambda": 1.0,
        "kappa2": 1.0})
    traces: dict = dc_field(default_factory=dict)  # {("g_plus", 1): text, ...}
    nx: int = NX_BASE
    nt: int = 33
    tol: float = 1e-10
    R0: float = 0.25
    scenario: str = ""
    metric: str = "center_grad"
    allow_degenerate_geometry: bool = False
    lateral_closure: str = "utilde"
    seed: int = 0

    @cached_property
    def profile(self):
        """The GapProfile of h1 and h2, parsed once per command."""
        nd = self.n - 1
        return GapProfile(h1=parse_expression(self.h1_text, nvars=nd),
                          h2=parse_expression(self.h2_text, nvars=nd))

    def region(self, epsilon):
        return NarrowRegion(n=self.n, epsilon=epsilon, profile=self.profile,
                            r_solve=self.r_solve, r_analyze=self.r_analyze)

    @property
    def ncomp(self):
        """Component count N of the configured operator."""
        if self.op_kind == "laplace":
            return 1
        if self.op_kind == "lame":
            return self.n
        return self.op_params["N"]

    def operator(self):
        if self.op_kind == "custom":
            return self._custom_operator()
        return make_builtin(self.op_kind, n=self.n, lame_mu=self.op_params["mu"],
                            lame_lambda=self.op_params["lam"])

    def _custom_operator(self):
        n, N = self.n, self.ncomp
        op = EllipticOperator(n=n, N=N, A=None,
                              lambda_claim=self.op_params["lambda"],
                              Lambda_claim=self.op_params["Lambda"],
                              kappa2_claim=self.op_params["kappa2"])
        tensors = {"A": op.A, "B": op.B, "C": op.Cc, "D": op.D}
        for key, text in self.op_params.items():
            if not isinstance(text, str):
                continue
            # the schema admits A.i.j.a.b, B.i.j.a, C.i.j.b, D.i.j
            name, *index = key.split(".")
            idx = tuple(int(p) - 1 for p in index)
            tensor = tensors[name]
            if not all(0 <= k < m for k, m in zip(idx, tensor.shape)):
                raise ConfigError(f"[operator] {key}: indices must be i, j in 1..{N}"
                                  f" and a, b in 1..{n}")
            tensor[idx] = tensor[idx] + parse_expression(text, nvars=n)
        return op

    def data(self):
        nd = self.n - 1
        gp, gm = ([parse_expression(self.traces.get((side, l), "0"), nvars=nd)
                   for l in range(1, self.ncomp + 1)]
                  for side in ("g_plus", "g_minus"))
        try:
            return BoundaryData(g_plus=gp, g_minus=gm)
        except ValueError as exc:  # e.g. a trace above MAX_DATA_DEGREE
            raise ConfigError(f"[data] {exc}") from exc

    def sweep_problem(self):
        """The SweepProblem that solve and sweep run on each gated region."""
        return SweepProblem(op=self.operator(), data=self.data(),
                            lateral_closure=self.lateral_closure,
                            R0=self.R0, nx=self.nx, nt=self.nt, tol=self.tol)


def load_config(path):
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    sections = _parse_sections(text, str(path))
    region = sections.get("region", {})
    if "h1" not in region or "h2" not in region:
        raise ConfigError("[region] must define h1 and h2")
    if "epsilon" in region and "epsilons" in region:
        raise ConfigError("[region] defines both epsilon and epsilons")
    if region.get("n", RunConfig.n) not in (2, 3):
        raise ConfigError(f"[region] n must be 2 or 3, got {region['n']}")
    kind = sections.get("operator", {}).get("kind", RunConfig.op_kind)
    cfg = RunConfig()
    for section, values in sections.items():
        for key, value in values.items():
            field = _field(section, key)[0]
            if section == "data":
                cfg.traces[field, int(key.split(".")[1])] = value
            elif section == "operator" and key != "kind":
                if field != kind:
                    raise ConfigError(f"[operator] {key} does not apply to kind = {kind}")
                cfg.op_params[key] = value
            else:
                setattr(cfg, field, value)
    for key in sections.get("data", {}):
        if not 1 <= int(key.split(".")[1]) <= cfg.ncomp:
            raise ConfigError(f"[data] {key}: component index must be 1..{cfg.ncomp} "
                              f"for the {cfg.op_kind} operator")
    return cfg


# ---------------------------------------------------------------------------
# emission


def report_to_dict(report, scenario):
    """BoundReport as the pinned JSON structure, labelled with the config's
    ``scenario``; its ``rate_fit`` is null (the fit of a sweep goes to
    ratefit.json)."""
    return {
        "epsilon": report.epsilon,
        "sup_grad": report.sup_grad,
        "C_emp": report.C_emp,
        "c_low": report.c_low,
        "energy_half": report.energy_half,
        "F_delta0": report.F_delta0,
        "lemma_constants": report.lemma_constants(),
        "rate_fit": None,
        "grid": {"nx": report.grid[0], "nt": report.grid[1]},
        "R0": report.R0,
        "scenario": scenario,
    }


def _write_json(path, obj):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_field_csv(path, solution, gradfield):
    grid, N = solution.grid, solution.N
    header = [f"x{d+1}" for d in range(grid.nd)] + ["xn", "t"] \
        + [f"u_{j+1}" for j in range(N)] + ["grad_norm"]
    table = np.column_stack([grid.tang, grid.xn_flat, grid.tvals,
                             solution.values.reshape(N, -1).T,
                             gradfield.norm().ravel()])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        _write_csv(fh, header, table)


def _write_csv(fh, header, table):
    """Write the header and the float64 ``table`` (rows, len(header)) as CSV,
    every value as '%.17g', one block of CSV_BLOCK_ROWS rows per write
    formatted with one row format: the bytes of formatting cell by cell."""
    fh.write(",".join(header) + "\n")
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for block in np.split(table, range(CSV_BLOCK_ROWS, len(table), CSV_BLOCK_ROWS)):
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _eps_tag(eps):
    return ("%g" % eps).replace(".", "p").replace("-", "m")


def _error_json(kind, message, **extra):
    line = {"error": kind, "message": str(message), **extra}
    sys.stderr.write(json.dumps(line, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def _validate_payload(cfg):
    if not cfg.epsilons:
        raise ConfigError("validate needs an epsilon in [region]")
    region = cfg.region(cfg.epsilons[0])
    geo = validate_profile(region, allow_degenerate=cfg.allow_degenerate_geometry)
    op = cfg.operator()
    lam_est = estimate_ellipticity(op, region)
    Lam_est, kap_est = estimate_bounds(op, region)
    payload = {
        "epsilon": region.epsilon,
        "seed": cfg.seed,
        "geometry": asdict(geo),
        "operator": {
            "kind": cfg.op_kind,
            "lambda_claim": op.lambda_claim,
            "lambda_estimate": lam_est,
            "Lambda_claim": op.Lambda_claim,
            "Lambda_estimate": Lam_est,
            "kappa2_claim": op.kappa2_claim,
            "kappa2_estimate": kap_est,
            "symmetric": op.is_symmetric(),
            "elasticity_symmetries": op.has_elasticity_symmetries(),
        },
    }
    return payload, geo


def _failed_checks(geo):
    return "geometry hypothesis checks failed: " + ", ".join(
        c.name for c in geo.failures())


def cmd_validate(cfg, args):
    payload, geo = _validate_payload(cfg)
    if args.out:
        _write_json(_out_dir(args) / "validate.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not geo.passed:
        _error_json("validation", _failed_checks(geo))
        return EXIT_VALIDATION
    return EXIT_OK


def _out_dir(args):
    """The ``--out`` directory, None without ``--out``.  Checked before any
    solving, so that a path below a file fails at once; the writers make it,
    so that a failed solve leaves no empty directory."""
    if args.out:
        out = Path(args.out)
        # "." and "/" exist, so this finds the nearest existing path
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {out}: {existing} is not a directory")
        return out


def _gated_regions(cfg, eps_list):
    """Geometry gate of solve, sweep and mms, run before any solve: the
    NarrowRegion of each epsilon, built once and solved as it was checked.
    Raises GeometryError at the first region that fails its checks."""
    regions = []
    for eps in eps_list:
        regions.append(cfg.region(eps))
        geo = validate_profile(regions[-1],
                               allow_degenerate=cfg.allow_degenerate_geometry)
        if not geo.passed:
            raise GeometryError(_failed_checks(geo))
    return regions


def cmd_solve(cfg, args):
    if args.epsilon is not None:
        cfg.epsilons = [_float(args.epsilon, "--epsilon")]
    if len(cfg.epsilons) != 1:
        raise ConfigError("solve needs exactly one epsilon "
                          "(config [region] epsilon or --epsilon)")
    [region] = _gated_regions(cfg, cfg.epsilons)
    outdir = _out_dir(args)
    sol, grad_u, report = solve_epsilon(cfg.sweep_problem(), region)
    summary = report_to_dict(report, cfg.scenario)
    if outdir:
        tag = _eps_tag(region.epsilon)
        _write_field_csv(outdir / f"field_eps{tag}.csv", sol, grad_u)
        _write_json(outdir / f"report_eps{tag}.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_sweep(cfg, args):
    if args.epsilons:
        eps_list = _list(args.epsilons, _float, "--epsilons")
    else:
        eps_list = cfg.epsilons
    if len(eps_list) < 3:
        raise ConfigError("sweep needs at least 3 epsilons")
    if len(set(eps_list)) < len(eps_list):
        raise ConfigError("sweep epsilons must be distinct, got "
                          + ",".join(f"{e:g}" for e in eps_list))
    regions = _gated_regions(cfg, sorted(eps_list, reverse=True))
    outdir = _out_dir(args)
    fit = sweep_and_fit(cfg.sweep_problem(), regions, cfg.metric, jobs=args.jobs)
    payload = {
        "metric": cfg.metric,
        "seed": cfg.seed,
        "scenario": cfg.scenario,
        "points": [{"epsilon": e, "value": v} for e, v in fit.points],
        "rate_fit": {"slope": fit.slope, "intercept": fit.intercept,
                     "r2": fit.r2},
        "conclusive": fit.conclusive,
    }
    if outdir:
        for rep in fit.reports:
            _write_json(outdir / f"report_eps{_eps_tag(rep.epsilon)}.json",
                        report_to_dict(rep, cfg.scenario))
        _write_json(outdir / "ratefit.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not fit.conclusive:
        _error_json("gate", f"rate fit of {cfg.metric} is inconclusive "
                            f"(slope {fit.slope:.4f}, r2 {fit.r2:.4f})")
        return EXIT_GATE
    return EXIT_OK


DEFAULT_MMS_GRIDS = (17, 33, 65)


def _mms_spec(op):
    """A fixed smooth manufactured field per component: trigonometric in x1,
    low-order polynomial in t; frequencies staggered across components."""
    spec = []
    for i in range(op.N):
        spec.append([
            (1.0, [("sin", 1.0 + 0.3 * i, 0.2 * i)]
             + [("poly", 1.0, 0.5, 0.25)]),
        ])
    return spec


def cmd_mms(cfg, args):
    if not cfg.epsilons:
        raise ConfigError("mms needs an epsilon in [region]")
    if args.grids:
        sizes = _list(args.grids, _nodes, "--grids")
    else:
        sizes = list(DEFAULT_MMS_GRIDS)
    if len(sizes) < 3:
        raise ConfigError("mms needs at least 3 grids")
    if cfg.n != 2:
        raise ConfigError("the built-in mms field is defined for n=2")
    [region] = _gated_regions(cfg, cfg.epsilons[:1])
    op = cfg.operator()
    problem = manufactured_problem(op, region, _mms_spec(op))
    try:
        study = convergence_study(problem, [(m, m) for m in sizes], tol=cfg.tol)
    except ValueError as exc:  # the grids do not increase; raised before a solve
        raise ConfigError(str(exc)) from None
    print("grid      err_inf        err_l2         order_inf order_l2")
    for k, (nx, nt) in enumerate(study.grids):
        oi = "%9.3f" % study.orders_inf[k - 1] if k else "        -"
        ol = "%8.3f" % study.orders_l2[k - 1] if k else "       -"
        print(f"{nx:3d}x{nt:<3d} {study.errors_inf[k]:14.6e} "
              f"{study.errors_l2[k]:14.6e} {oi} {ol}")
    ok = study.monotone and all(abs(o - 2.0) <= 0.2 for o in study.orders_inf)
    if not ok:
        _error_json("convergence",
                    f"observed orders {study.orders_inf} outside 2.0 +/- 0.2")
        return EXIT_GATE
    return EXIT_OK


def cmd_report(args):
    indir = Path(args.indir)
    if not indir.is_dir():
        raise ConfigError(f"not a directory: {indir}")
    lines = []
    path = indir
    try:
        for path in sorted(indir.glob("report_eps*.json")):
            rep = json.loads(path.read_text())
            c_low = "-" if rep["c_low"] is None else "%.4f" % rep["c_low"]
            lines.append(f"eps={rep['epsilon']:<8g} sup_grad={rep['sup_grad']:<12.6g} "
                         f"C_emp={rep['C_emp']:.4f} c_low={c_low} "
                         f"grid={rep['grid']['nx']}x{rep['grid']['nt']}")
        path = indir / "ratefit.json"
        if path.exists():
            rf = json.loads(path.read_text())
            lines.append(f"rate[{rf['metric']}]: slope={rf['rate_fit']['slope']:.4f} "
                         f"r2={rf['rate_fit']['r2']:.6f} conclusive={rf['conclusive']}")
        path = indir / "validate.json"
        if path.exists():
            v = json.loads(path.read_text())
            lines.append(f"geometry passed={v['geometry']['passed']} "
                         f"min_eig={v['geometry']['min_eigenvalue']:.6g} "
                         f"lambda_est={v['operator']['lambda_estimate']:.6g}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # a file that cannot be read, parsed as JSON or summarized
        raise ConfigError(f"cannot summarize {path}: "
                          f"{type(exc).__name__}: {exc}") from None
    if not lines:
        raise ConfigError(f"no reports found in {indir}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling


def _jobs(text):
    """The --jobs worker count: an integer K >= 1."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return k


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _error_json("usage", message)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _Parser(prog="narrowgap",
                     description="narrow-gap elliptic solver and bound checker")
    sub = parser.add_subparsers(dest="command", required=True)
    # the config and its [flags] overrides, read by every command but report
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", required=True)
    flags.add_argument("--seed", type=int, default=None,
                       help="override [flags] seed")
    flags.add_argument("--allow-degenerate-geometry", action="store_true",
                       help="accept kappa0 failure (flat gap)")

    def add(name, **kw):
        return sub.add_parser(name, parents=[flags], **kw)

    p = add("validate", help="check geometry hypotheses and operator bounds")
    p.add_argument("--out", default=None)

    p = add("solve", help="solve one epsilon, emit field CSV + report JSON")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--out", default=None)

    p = add("sweep", help="solve an epsilon list and fit the blow-up rate")
    p.add_argument("--epsilons", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_jobs, default=1)

    p = add("mms", help="manufactured-solution convergence study")
    p.add_argument("--grids", default=None)

    p = sub.add_parser("report", help="summarize a results directory")
    p.add_argument("--in", dest="indir", required=True)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.allow_degenerate_geometry:
            cfg.allow_degenerate_geometry = True
        handler = {"validate": cmd_validate, "solve": cmd_solve,
                   "sweep": cmd_sweep, "mms": cmd_mms}[args.command]
        return handler(cfg, args)
    except (ConfigError, ExpressionError, OSError) as exc:
        _error_json("config", exc)
        return EXIT_USAGE
    except (GeometryError, OperatorError) as exc:
        _error_json("validation", exc)
        return EXIT_VALIDATION
    except SolverError as exc:
        _error_json("solver", exc, residual_history=exc.residual_history)
        return EXIT_SOLVER
    except AnalysisError as exc:
        _error_json("gate", exc)
        return EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
