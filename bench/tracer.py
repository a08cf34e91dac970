"""Span tracing of the program's layers, applied from outside ``src/``.

``instrument(tracer)`` replaces the public entry point of each layer with a
wrapper that records a span (name, start, end, parent span, problem id) and
the layer's counters, and puts the originals back on exit.  Spans are kept
in memory; ``layer_metrics`` turns one pass's spans into per-layer totals.
"""

import gzip
import statistics
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter

import scipy.sparse.linalg as spla

from bdmdarcy import analysis, assembly, cli, geometry, mesh
from bdmdarcy.femcore import element

# span name -> (owner object, attribute) wrapped for it
SPANS = {
    "cli.run_study": (cli, "run_study"),
    "mesh.coarse_mesh": (mesh, "coarse_mesh"),
    "mesh.refine_project": (mesh, "refine_project"),
    "geometry.project_many": (geometry.BoundaryCurve, "project_many"),
    "assembly.init": (assembly.Assembler, "__init__"),
    "assembly.matrix_a": (assembly.Assembler, "matrix_a"),
    "assembly.matrix_b": (assembly.Assembler, "matrix_b"),
    "assembly.rhs": (assembly.Assembler, "rhs"),
    "assembly.saddle": (assembly, "build_saddle_system"),
    "correction.edge_trace_geometry": (assembly, "edge_trace_geometry"),
    "correction.taylor_trace_normal": (assembly, "taylor_trace_normal"),
    "femcore.tabulate": (element.BDMElement, "tabulate"),
    "femcore.tabulate_derivative": (element.BDMElement, "tabulate_derivative"),
    "solver.solve": (cli, "solve"),
    "solver.factor": (spla, "splu"),
    "solver.krylov": (spla, "gmres"),
    "analysis.error_norms": (cli, "error_norms"),
}
# the error norms call the Taylor extension through their own import
EXTRA_SITES = {"correction.taylor_trace_normal": [(analysis, "taylor_trace_normal")]}

COUNTERS = {
    "solver.krylov_iterations": "count",
    "solver.method_lu": "count",
    "solver.method_gmres": "count",
    "solver.residual_max": "ratio",
    "assembly.dofs": "count",
    "assembly.nnz": "count",
    "geometry.points_projected": "count",
}
OVERHEAD = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}


def per_layer_units():
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update(COUNTERS)
    units.update(OVERHEAD)
    return units


class Tracer:
    """Spans of one pass.  Each span is [name, start, end, parent, problem,
    time covered by child spans]; ``study`` labels the study that runs."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.study = None
        self.problem = None
        self.counters = Counter()
        self.residual_max = 0.0

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.problem, 0.0])

    def close(self):
        span = self.spans[self.stack.pop()]
        span[2] = perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def wrap(self, name, fn):
        before = getattr(self, BEFORE[name]) if name in BEFORE else None
        after = getattr(self, AFTER[name]) if name in AFTER else None

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- problem ids and counters taken from arguments and results -----------

    def _start_study(self, _args):
        self.problem = f"{self.study}-mesh"

    def _start_problem(self, args):
        self.problem = f"{self.study}-L{args[1].level}"

    def _count_system(self, _args, system):
        self.counters["assembly.dofs"] += system.dimension
        self.counters["assembly.nnz"] += system.matrix.nnz

    def _count_solve(self, _args, result):
        report = result[3]
        self.counters["solver.krylov_iterations"] += report.iterations
        key = "solver.method_gmres" if report.method.endswith("gmres") else "solver.method_lu"
        self.counters[key] += 1
        self.residual_max = max(self.residual_max, report.residual)

    def _count_points(self, args, _result):
        self.counters["geometry.points_projected"] += len(args[1])

    def write(self, path, pass_id):
        """Append this pass's spans to a gzipped CSV file."""
        with gzip.open(path, "at") as out:
            for i, (name, start, end, parent, problem, _child) in enumerate(self.spans):
                out.write(f"{pass_id},{i},{name},{start:.9f},{end:.9f},{parent},{problem}\n")


BEFORE = {"cli.run_study": "_start_study", "assembly.init": "_start_problem"}
AFTER = {
    "assembly.saddle": "_count_system",
    "solver.solve": "_count_solve",
    "geometry.project_many": "_count_points",
}


@contextmanager
def _patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def instrument(tracer):
    """Install the span wrappers of every layer for the duration."""
    with ExitStack() as stack:
        for name, site in SPANS.items():
            for owner, attr in [site] + EXTRA_SITES.get(name, []):
                wrapped = tracer.wrap(name, getattr(owner, attr))
                stack.enter_context(_patched(owner, attr, wrapped))
        yield tracer


def layer_metrics(tracer):
    """Per-layer totals of one traced pass (times in s, counts exact)."""
    totals, selfs, calls = Counter(), Counter(), Counter()
    for name, start, end, _parent, _problem, child in tracer.spans:
        totals[name] += end - start
        selfs[name] += end - start - child
        calls[name] += 1
    values = {}
    for name in SPANS:
        values[f"{name}_s"] = float(totals[name])
        values[f"{name}_self_s"] = float(selfs[name])
        values[f"{name}_calls"] = calls[name]
    for name in COUNTERS:
        values[name] = tracer.counters[name]
    values["solver.residual_max"] = tracer.residual_max  # a maximum, not a sum
    return values


def combine(passes):
    """One value per metric over several traced passes: the median of the
    times, the first pass's counts (they repeat exactly)."""
    units = per_layer_units()
    out = {}
    for name in passes[0]:
        if units[name] == "count":
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out
