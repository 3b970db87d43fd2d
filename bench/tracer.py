"""In-memory spans around the public functions of each narrowgap layer.

The wrappers are installed from here, not from the package: every module
global, package attribute or class attribute that holds one of the listed
functions is replaced for the traced passes and restored afterwards.  The
CLI, analysis and verification modules bind solver and analysis functions
with ``from .x import y``, so patching only the defining module would miss
those call sites.

A span is (name, start, end, parent, attrs).  A layer's self time is the
duration of its spans minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, attrs]
        self._stack = []
        self._undo = []      # (owner, attribute, original value)

    # -- recording -----------------------------------------------------------

    def open(self, name, attrs=None):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, dict(attrs or {})]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def note(self, **values):
        """Add counts to the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][4].update(values)

    def wrap(self, name, fn, probe=None):
        """``fn`` inside a span; ``probe(args, kwargs, result)`` returns attrs
        recorded after the span has ended."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[4]["failed"] = 1
                raise
            finally:
                self.close(rec)
            if probe is not None:
                rec[4].update(probe(args, kwargs, result))
            return result
        return traced

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install_function(self, module, attr, name, probe=None):
        """Wrap ``module.attr`` at every narrowgap module that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, probe)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "narrowgap"
                                   or modname.startswith("narrowgap.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, traced)

    def install_method(self, cls, attr, name, probe=None):
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], probe))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def children_of(self, root):
        """Indices of the spans below span ``root`` (spans are recorded in
        start order, so the descendants follow their ancestor)."""
        out = []
        inside = {root}
        for k in range(root + 1, len(self.spans)):
            if self.spans[k][3] in inside:
                inside.add(k)
                out.append(k)
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans]


def install_layers(tracer):
    """Spans around the public functions of every layer the workloads use."""
    import scipy.sparse.linalg as spla

    from narrowgap import (analysis, auxiliary, cli, geometry, mesh_solver,
                           operators, polynomial, verification)

    def system_attrs(args, kwargs, result):
        system = args[0] if args else kwargs["system"]
        m = system.matrix
        return {"unknowns": system.unknowns, "nnz": int(m.nnz),
                "matrix_bytes": int(m.data.nbytes + m.indices.nbytes
                                    + m.indptr.nbytes),
                "residual": result.residual, "iterations": result.iterations,
                "case": _case(system.grid, system.N)}

    def assemble_attrs(args, kwargs, result):
        return {"case": _case(result.grid, result.N)}

    def analyze_attrs(args, kwargs, result):
        solution = args[0]
        return {"case": _case(solution.grid, solution.N)}

    def splu(*args, **kwargs):
        lu = original_splu(*args, **kwargs)
        tracer.note(lu_fill_nnz=int(lu.nnz))
        return lu

    original_splu = spla.splu
    tracer.patch(spla, "splu", splu)

    tracer.install_method(mesh_solver.MappedGrid, "__init__", "mesh_solver.build_grid")
    tracer.install_function(mesh_solver, "assemble", "mesh_solver.assemble",
                            assemble_attrs)
    tracer.install_function(mesh_solver, "solve_system", "mesh_solver.solve_system",
                            system_attrs)
    for cls in (polynomial.PolynomialField, polynomial.RationalField):
        tracer.install_method(cls, "value_many", "polynomial.value_many")
        tracer.install_method(cls, "deriv", "polynomial.deriv")
    tracer.install_function(operators, "estimate_ellipticity",
                            "operators.estimate_ellipticity")
    tracer.install_function(operators, "estimate_bounds", "operators.estimate_bounds")
    tracer.install_function(analysis, "analyze_solution", "analysis.analyze_solution",
                            analyze_attrs)
    tracer.install_function(analysis, "gradient", "analysis.gradient")
    tracer.install_function(analysis, "energy", "analysis.energy")
    tracer.install_function(analysis, "sweep_member", "analysis.sweep_member")
    tracer.install_function(geometry, "validate_profile", "geometry.validate_profile")
    for attr in ("ubar_values", "ubar_grad", "ubar_hess", "utilde_values",
                 "utilde_grad", "ftilde_values"):
        tracer.install_method(auxiliary.AuxiliaryEvaluator, attr, "auxiliary.evaluator")
    tracer.install_function(verification, "convergence_study",
                            "verification.convergence_study")
    tracer.install_method(verification.ManufacturedProblem, "nodal_fields",
                          "verification.nodal_fields")
    tracer.install_function(cli, "load_config", "cli.load_config")
    for attr in ("cmd_validate", "cmd_solve", "cmd_sweep", "cmd_mms"):
        tracer.install_function(cli, attr, "cli.command")


def _case(grid, ncomp):
    """Label of one discrete problem: operator, dimension, eps and grid."""
    op = "laplace" if ncomp == 1 else "lame"
    tang = f"{grid.nx}" if grid.nd == 1 else f"{grid.nx}^{grid.nd}"
    return f"{op}{grid.n}d eps={grid.region.epsilon:g} {tang}x{grid.nt}"


# per-layer metric -> span name whose self time it sums
SELF_TIME = {
    "mesh_solver.solve_s": "mesh_solver.solve_system",
    "mesh_solver.assemble_s": "mesh_solver.assemble",
    "mesh_solver.build_grid_s": "mesh_solver.build_grid",
    "polynomial.value_many_s": "polynomial.value_many",
    "polynomial.deriv_s": "polynomial.deriv",
    "operators.estimate_ellipticity_s": "operators.estimate_ellipticity",
    "operators.estimate_bounds_s": "operators.estimate_bounds",
    "analysis.analyze_s": "analysis.analyze_solution",
    "analysis.gradient_s": "analysis.gradient",
    "analysis.energy_s": "analysis.energy",
    "analysis.sweep_member_s": "analysis.sweep_member",
    "geometry.validate_profile_s": "geometry.validate_profile",
    "auxiliary.evaluator_s": "auxiliary.evaluator",
    "verification.convergence_study_s": "verification.convergence_study",
    "verification.nodal_fields_s": "verification.nodal_fields",
    "cli.load_config_s": "cli.load_config",
}
# per-layer metric -> span name whose calls it counts
CALLS = {
    "mesh_solver.solves": "mesh_solver.solve_system",
    "polynomial.value_many_calls": "polynomial.value_many",
    "polynomial.deriv_calls": "polynomial.deriv",
    "analysis.gradient_calls": "analysis.gradient",
    "geometry.validate_profile_calls": "geometry.validate_profile",
}
# per-layer metric -> attribute of solve_system spans it sums
SOLVE_SUMS = {
    "mesh_solver.unknowns": "unknowns",
    "mesh_solver.nnz": "nnz",
    "mesh_solver.matrix_bytes_computed": "matrix_bytes",
    "mesh_solver.lu_fill_nnz": "lu_fill_nnz",
    "mesh_solver.krylov_iters": "iterations",
    "mesh_solver.solve_failures": "failed",
}


def pass_metrics(tracer, root, own):
    """Per-layer metrics of the pass whose span index is ``root``."""
    idx = tracer.children_of(root)
    spans = tracer.spans
    out = {}
    for metric, name in SELF_TIME.items():
        out[metric] = sum(own[k] for k in idx if spans[k][0] == name)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for k in idx if spans[k][0] == name)
    solves = [spans[k][4] for k in idx if spans[k][0] == "mesh_solver.solve_system"]
    for metric, attr in SOLVE_SUMS.items():
        out[metric] = sum(a.get(attr, 0) for a in solves)
    out["mesh_solver.residual_max"] = max((a.get("residual", 0.0) for a in solves),
                                          default=0.0)
    members = [k for k in idx if spans[k][0] == "analysis.sweep_member"]
    in_members = sum(1 for m in members for k in tracer.children_of(m)
                     if spans[k][0] == "analysis.analyze_solution")
    out["analysis.analyze_per_member"] = in_members / len(members) if members else 0.0
    # CLI plumbing: argument parsing, JSON and CSV emission, config objects
    out["cli.self_s"] = sum(own[k] for k in idx
                            if spans[k][0] in ("cli.main", "cli.command"))
    out["cli.bytes_written"] = sum(spans[k][4].get("bytes_written", 0) for k in idx
                                   if spans[k][0] == "cli.main")
    out["trace.spans"] = len(idx)
    return out


def case_table(tracer, roots, own):
    """Median over passes of assemble / solve / analyze self time per case,
    the layout of the ROADMAP Baseline table."""
    columns = {"mesh_solver.assemble": "assemble_s",
               "mesh_solver.solve_system": "solve_s",
               "analysis.analyze_solution": "analyze_s"}
    per_pass = []
    for root in roots:
        acc = defaultdict(lambda: defaultdict(float))
        for k in tracer.children_of(root):
            name, _, _, _, attrs = tracer.spans[k]
            if name in columns:
                row = acc[attrs.get("case", "failed call")]
                row[columns[name]] += own[k]
                if name == "mesh_solver.solve_system":
                    row["unknowns"] = attrs.get("unknowns", 0)
        per_pass.append(acc)
    table = {}
    for case in sorted({c for acc in per_pass for c in acc}):
        row = {}
        for col in ("unknowns", "assemble_s", "solve_s", "analyze_s"):
            vals = [acc[case].get(col, 0.0) for acc in per_pass]
            row[col] = statistics.median(vals)
        table[case] = row
    return table
