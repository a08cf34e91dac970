"""Benchmark of the bdmdarcy refinement-study path.

    python3 bench/run.py --workload disk-k3-direct --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each run drives ``bdmdarcy.cli.run_study`` over the workload's fixed studies
for ``--seconds`` seconds (whole passes), checks every problem through the
correctness gate, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones.  The program is
imported from ``src/`` of the checkout this file sits in; without it the
run fails.  See README.md in this directory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("disk-k3-direct", "ring-k3-krylov", "taylor-sweep")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5
END_TO_END = {"pass_s": "s", "finest_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def nproc():
    return len(os.sched_getaffinity(0))


def limit_threads():
    """Make every BLAS/OpenMP pool single-threaded before numpy loads.

    numpy and scipy each bring their own OpenBLAS, so pools of nproc threads
    would give the process more threads than cores and the run would
    measure the scheduler.  The hot paths (SuperLU, sparse products, per-edge
    Python loops) are single-threaded anyway: disk-k3-direct takes the same
    time with one or two BLAS threads.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources():
    """Put ``src/`` of this checkout first on the import path; refuse to run
    on any other copy of the program."""
    src = ROOT / "src"
    if not (src / "bdmdarcy" / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import bdmdarcy

    if Path(bdmdarcy.__file__).resolve().parent != (src / "bdmdarcy").resolve():
        sys.exit(f"bench: imported bdmdarcy from {bdmdarcy.__file__}, not {src}")


def process_threads():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "process_threads": process_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def measure_setup(degrees, probe):
    """Set-up time: CPU time of fresh processes that start the interpreter,
    import the program and build the reference tables of the workload's
    degrees, in seconds at the reference speed; the median of several."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, degrees)],
            capture_output=True, timeout=120, check=True,
        )
        end = resource.getrusage(resource.RUSAGE_CHILDREN)
        probe.checkpoint(end.ru_utime + end.ru_stime - start.ru_utime - start.ru_stime)
        samples.append(probe.take()[1])
    return statistics.median(samples), samples


class Pass:
    """Times and outcome of one pass over a workload's studies."""

    def __init__(self):
        self.wall = 0.0
        # (unknowns, CPU seconds, seconds at the reference speed) of every
        # solved level, each from the end of the level before it (so its mesh
        # refinement is included) to its error norms
        self.problems = []
        self.failed = 0

    def seconds(self, finest=False):
        """Time of the pass, or of its largest problems, in seconds at the
        reference speed."""
        size = max((n for n, _, _ in self.problems), default=0)
        return sum(t for n, _, t in self.problems if n == size or not finest)

    @property
    def cpu(self):
        """CPU time of the pass's problems, unscaled."""
        return sum(cpu for _, cpu, _ in self.problems)


def run_pass(studies, gate, tracer=None, probe=None):
    """One pass over the studies, every problem judged by the gate.  With a
    speed probe, each problem ends with a checkpoint of it."""
    from bdmdarcy import cli
    from workloads import problem_key, study_key

    result = Pass()
    last = 0.0

    def progress(row):
        nonlocal last
        if probe is None:
            cpu = seconds = time.process_time() - last
        else:
            probe.checkpoint()
            cpu, seconds = probe.take()
        result.problems.append((row["n_u"] + row["n_p"], cpu, seconds))
        last = time.process_time()

    wall0 = time.perf_counter()
    for cfg in studies:
        keys = [problem_key(cfg, lvl) for lvl in range(cfg.level_first, cfg.level_last + 1)]
        if tracer is not None:
            tracer.study = study_key(cfg)
        if probe is not None:
            probe.start()
        last = time.process_time()
        try:
            rows = cli.run_study(cfg, progress=progress)
        except Exception as exc:  # a failing study is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result.failed += gate.abandon(keys, exc)
            continue
        result.failed += gate.judge(keys, rows)
    result.wall = time.perf_counter() - wall0
    return result


def run_workload(name, seed, seconds, trace):
    import warnings

    import scipy.sparse.linalg as spla

    import gate as gatemod
    import tracer as tracemod
    import workloads
    from bdmdarcy import cli

    warnings.simplefilter("ignore")  # the m < k advisory is expected in taylor-sweep
    gate = gatemod.Gate(gatemod.load_reference())
    studies = workloads.studies(name, seed)
    n_problems = sum(c.level_last - c.level_first + 1 for c in studies)
    # end-to-end times are scaled by the machine speed measured around them;
    # traced runs leave the probe out, or its bursts would count in the spans
    probe = None if trace else SpeedProbe()
    setup_s = setup_samples = None
    if not trace:
        setup_s, setup_samples = measure_setup(workloads.degrees(name), probe)

    warmup_cpu = time.process_time()
    with gate.checking():
        for cfg in workloads.warmup(name, seed):
            cli.run_study(cfg)
    if probe is not None:  # the first problem's burst before
        probe.burst(time.process_time() - warmup_cpu)

    untraced, traced, layer_passes = [], [], []
    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"{name}-seed{seed}-spans.csv.gz"
    if trace:
        trace_file.unlink(missing_ok=True)
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        # factorizations and Krylov solves take most of a large problem's
        # time: the probe times each between bursts of its own
        with gate.checking(), nullcontext() if trace else probe.splitting(
            [(spla, "splu"), (spla, "gmres")]
        ):
            untraced.append(run_pass(studies, gate, probe=probe))
        if trace:
            tracer = tracemod.Tracer()
            with tracemod.instrument(tracer), gate.checking():
                traced.append(run_pass(studies, gate, tracer))
            layer_passes.append(tracemod.layer_metrics(tracer))
            tracer.write(trace_file, len(layer_passes) - 1)
    passes = untraced + traced
    attempted = n_problems * len(passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0

    if trace:
        values = tracemod.combine(layer_passes)
        values["trace.wall_s"] = statistics.median(p.wall for p in traced)
        values["trace.untraced_wall_s"] = statistics.median(p.wall for p in untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units = tracemod.per_layer_units()
    else:
        values = {
            "pass_s": statistics.median(p.seconds() for p in untraced),
            "finest_s": statistics.median(p.seconds(finest=True) for p in untraced)
            if correct else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "passes": {
            "untraced_wall_s": [p.wall for p in untraced],
            "untraced_cpu_s": [p.cpu for p in untraced],
            "untraced_s": [p.seconds() for p in untraced],
            "traced_wall_s": [p.wall for p in traced],
            "setup_samples_s": setup_samples,
        },
        "failures": gate.failures,
        "result": result,
    }
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for failure in gate.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={name} seed={seed} passes={len(passes)} "
          f"env={json.dumps(record['environment'], sort_keys=True)}")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  problems_failed = {failed} / problems_attempted = {attempted}")
    return result


def run_all(seed, seconds, trace):
    """Every workload, each in a fresh process; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_threads()
    use_checkout_sources()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
