"""narrowgap benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload sweep2d --seed 1 --seconds 36 --trace 0

A pass runs the workload's fixed list of CLI commands once through
``narrowgap.cli.main`` in this process, each command starting when the
previous one has returned.  Program caches are cleared before every pass,
so each pass does the work of fresh CLI invocations.  Passes repeat until
the next one would end after ``--seconds`` (at least two run).  The
set-up probes (fresh interpreters, see ``setup_s``) are spread evenly over
the same time, between passes, so that every figure samples the whole run
on a host whose speed moves within seconds.  After every
pass each command's outputs are checked (README keys, byte-identical to the
first pass, conclusive fits, the mms order gate, accuracy ceilings).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; the lines before it list every
metric by name and unit, the environment and the per-case table.  See
bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check
from tracer import Tracer, case_table, install_layers, pass_metrics
from workloads import WORKLOADS, cli_args, make_inputs, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "narrowgap-bench"
REFERENCES = HERE / "references.json"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
ACCURACY = ("center_grad_relerr", "rate_slope_err", "mms_err_inf",
            "lambda_relerr_2d", "lambda_relerr_3d")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc():
            os.environ[var] = str(nproc())


def set_up(workload, seed, workdir):
    """Import the program, write and load the configs, read the references.
    This is what ``setup_s`` times from a fresh interpreter."""
    if not (SRC / "narrowgap" / "cli.py").is_file():
        sys.exit(f"bench: narrowgap sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import narrowgap.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "narrowgap":
        sys.exit(f"bench: imported narrowgap from {cli.__file__}, not {SRC}")
    inputs = make_inputs(seed)
    configs = write_configs(workdir, workload, inputs)
    for path in configs.values():
        cli.load_config(path)
    refs = json.loads(REFERENCES.read_text())
    return cli, inputs, configs, refs


def setup_probe(workload, seed, workdir):
    """Wall time of one fresh interpreter running set_up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--setup-probe", str(workdir),
                    "--workload", workload, "--seed", str(seed)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def clear_program_caches():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "narrowgap" or name.startswith("narrowgap.")):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def environment(inputs):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "machine": platform.machine(), "seed": inputs.seed,
            "trace_top": inputs.top, "trace_bottom": inputs.bottom}


class Runner:
    def __init__(self, workload, seed, workdir):
        self.commands = WORKLOADS[workload]
        self.cli, self.inputs, self.configs, self.refs = set_up(workload, seed, workdir)
        self.outdirs = {cmd: workdir / "out" / f"{cmd.verb}-{cmd.case}"
                        for cmd in self.commands}
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.figures = {}

    def run_pass(self, tracer=None):
        """One pass; returns its wall time.  Outputs are checked after the
        clock stops."""
        for outdir in self.outdirs.values():
            shutil.rmtree(outdir, ignore_errors=True)
        clear_program_caches()
        gc.collect()
        results = []
        root = tracer.open("pass") if tracer else None
        t0 = time.perf_counter()
        for cmd in self.commands:
            args = cli_args(cmd, self.configs[cmd.case], self.outdirs[cmd],
                            self.inputs.seed)
            out, err = io.StringIO(), io.StringIO()
            span = tracer.open("cli.main", {"command": cmd.label}) if tracer else None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(args)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = "raised " + traceback.format_exc(limit=3)
            finally:
                if tracer:
                    tracer.close(span)
            results.append((cmd, rc, out.getvalue(), err.getvalue(), span))
        wall = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
        for cmd, rc, stdout, stderr, span in results:
            if span is not None:
                span[4]["bytes_written"] = sum(
                    p.stat().st_size for p in self.outdirs[cmd].glob("*"))
            self._check(cmd, rc, stdout, stderr)
        return wall

    def _check(self, cmd, rc, stdout, stderr):
        self.attempted += 1
        problems, digest, figures = check(
            cmd, rc, stdout, self.outdirs[cmd], self.inputs, self.refs)
        if digest is not None:
            first = self.first_digest.setdefault(cmd, digest)
            if digest != first:
                problems.append("outputs differ from the first pass")
        for name, value in figures.items():
            self.figures[name] = max(self.figures.get(name, 0.0), value)
        if problems:
            self.failed += 1
            self.problems.append({"command": cmd.label, "problems": problems,
                                  "stderr": stderr[-2000:]})


def tail_percentile(samples):
    """Highest of p50/p90/p99 with at least ten samples beyond it, by
    nearest rank; None when there are fewer than 20 samples."""
    n = len(samples)
    best = None
    for q in (50, 90, 99):
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return None
    return best, sorted(samples)[math.ceil(n * best / 100) - 1]


def measure(runner, seconds, trace, probe):
    """Run passes until the next would end after ``seconds``, with the
    SETUP_PROBES calls of ``probe`` spread evenly over that time.  Returns
    the plain pass times, the traced pass times, the set-up times and the
    tracer (or None)."""
    tracer = Tracer() if trace else None
    plain, traced, setup = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(setup) < SETUP_PROBES
                and elapsed >= len(setup) * seconds / SETUP_PROBES):
            setup.append(probe())
            continue
        if trace and len(plain) > len(traced):
            install_layers(tracer)
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        if (len(plain) + len(traced) >= MIN_PASSES
                and elapsed + statistics.median(plain + traced) > seconds):
            while len(setup) < SETUP_PROBES:
                setup.append(probe())
            return plain, traced, setup, tracer


def per_layer(runner, plain, traced, tracer):
    own = tracer.self_times()
    roots = [k for k, rec in enumerate(tracer.spans) if rec[0] == "pass"]
    rows = [pass_metrics(tracer, root, own) for root in roots]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    for name in ACCURACY:
        metrics[f"accuracy.{name}"] = runner.figures.get(name, 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, case_table(tracer, roots, own)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "B"
    if name.startswith("accuracy.") or name.endswith(("residual_max", "_per_member")):
        return "1"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description="narrowgap benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_blas_threads()
    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.setup_probe))
        return 0

    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"run-{tag}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, workdir)
        probe = functools.partial(setup_probe, args.workload, args.seed,
                                  workdir / "probe")
        plain, traced, setup_samples, tracer = measure(runner, args.seconds,
                                                       args.trace, probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(runner.inputs)
    setup_s = statistics.median(setup_samples)
    median = statistics.median(plain)
    tail = tail_percentile(plain)
    result = {"workload": args.workload, "env": env, "passes": len(plain),
              "traced_passes": len(traced), "pass_times_s": plain,
              "traced_pass_times_s": traced, "setup_samples_s": setup_samples,
              "accuracy": runner.figures, "problems": runner.problems,
              "attempted": runner.attempted, "failed": runner.failed}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} plain + {len(traced)} traced  "
          f"(closed loop, one client)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  setup_s      {setup_s:.6f} s   median of {SETUP_PROBES} fresh interpreters")
    pct = (f"p{tail[0]} {tail[1]:.6f} s" if tail else
           "no percentile has 10 samples beyond it")
    print(f"  pass_s       {median:.6f} s   median of n={len(plain)} passes; {pct}")
    print(f"  peak_rss_mb  {rss_mb:.3f} MB")
    print(f"  fail_ratio   {runner.failed / runner.attempted:g} 1   "
          f"{runner.failed} failed of {runner.attempted} commands")
    for name in ACCURACY:
        if name in runner.figures:
            print(f"  {name:<18} {runner.figures[name]:.6e} 1")
    for item in runner.problems[:10]:
        print(f"  FAILED {item['command']}: {'; '.join(item['problems'])[:500]}")

    if args.trace:
        metrics, table = per_layer(runner, plain, traced, tracer)
        result.update(per_layer=metrics, cases=table)
        print("  per-case self times, median over traced passes:")
        print(f"    {'case':<34} {'unknowns':>9} {'assemble_s':>11} "
              f"{'solve_s':>9} {'analyze_s':>10}")
        for case, row in table.items():
            print(f"    {case:<34} {row['unknowns']:>9.0f} {row['assemble_s']:>11.4f} "
                  f"{row['solve_s']:>9.4f} {row['analyze_s']:>10.4f}")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:.6g} {unit_of(name)}")
        out = {name: {"value": value, "unit": unit_of(name)}
               for name, value in metrics.items()}
        (WORK / f"spans-{tag}.json").write_text(json.dumps(tracer.dump()))
    else:
        values = {"setup_s": setup_s, "pass_s": median, "peak_rss_mb": rss_mb}
        out = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    result["metrics"] = out
    (WORK / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
