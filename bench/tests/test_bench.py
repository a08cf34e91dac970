"""Self-tests of the benchmark.

    python3 -m pytest -q bench/tests

The run tests start the benchmark as a subprocess on taylor-sweep, the
cheapest workload, and take about a minute together.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gate as gatemod
import run
import speed
import tracer
import workloads
from bdmdarcy import cli, mesh
from bdmdarcy.analysis import case_circle
from bdmdarcy.assembly import Assembler, DofMap
from bdmdarcy.femcore.basis import triangle_basis
from bdmdarcy.femcore.element import bdm_reference_basis
from bdmdarcy.solver import solve

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def unknowns(cfg, level):
    curves = mesh.disk_domain() if cfg.domain == "circle" else mesh.ring_domain()
    m = mesh.coarse_mesh(curves)
    for _ in range(level):
        m = mesh.refine_project(m, curves)
    dofs = DofMap(cfg.k, m.n_edges, m.n_triangles, bdm_reference_basis(cfg.k).n_interior,
                  triangle_basis(cfg.k - 1).dim)
    return dofs.n_u + dofs.n_p + 1


def run_bench(workload, seed, trace, seconds=0):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_build_the_stated_problems():
    (disk,) = workloads.studies("disk-k3-direct", 0)
    assert (disk.domain, disk.k, disk.m, disk.level_first, disk.level_last) == ("circle", 3, 3, 1, 5)
    assert unknowns(disk, 5) == 123_265
    (ring,) = workloads.studies("ring-k3-krylov", 0)
    assert (ring.domain, ring.k, ring.m, ring.level_first, ring.level_last) == ("ring", 3, 3, 4, 4)
    assert unknowns(ring, 4) == 164_865
    sweep = workloads.studies("taylor-sweep", 0)
    assert sorted(workloads.problem_keys("taylor-sweep")) == sorted(
        workloads.problem_key(c, lvl) for c in sweep
        for lvl in range(c.level_first, c.level_last + 1)
    )
    assert len(workloads.problem_keys("taylor-sweep")) == 25
    assert {(c.k, c.m) for c in sweep} == {(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}


def test_seed_permutes_sweep_order_only():
    a = [workloads.problem_key(c, 0) for c in workloads.studies("taylor-sweep", 1)]
    b = [workloads.problem_key(c, 0) for c in workloads.studies("taylor-sweep", 2)]
    assert a != b and sorted(a) == sorted(b)
    assert a == [workloads.problem_key(c, 0) for c in workloads.studies("taylor-sweep", 1)]


def test_every_problem_has_a_reference():
    reference = gatemod.load_reference()
    for name in run.WORKLOAD_NAMES:
        assert set(workloads.problem_keys(name)) <= set(reference)


def test_residual_is_recomputed_from_the_system():
    curves = mesh.disk_domain()
    m = mesh.refine_project(mesh.coarse_mesh(curves), curves)
    system = Assembler(m, curves, 3).system(case_circle())
    u, p, lam, report = solve(system)
    assert gatemod.relative_residual(system, u, p, lam) == pytest.approx(report.residual, rel=1e-6)
    assert gatemod.relative_residual(system, u + 1e-6, p, lam) > gatemod.RESIDUAL_LIMIT


def test_gate_counts_bad_residual_and_worse_error():
    small = cli.StudyConfig(domain="circle", k=3, m=3, level_first=1, level_last=1)
    key = workloads.problem_key(small, 1)
    g = gatemod.Gate({key: gatemod.load_reference()[key]})
    with g.checking():
        rows = cli.run_study(small)
    assert g.judge([key], rows) == 0 and not g.failures
    g.residuals = [1e-14]
    assert g.judge([key], [dict(rows[0], E_total=rows[0]["E_total"] * 1.01)]) == 1
    g.residuals = [1e-9]
    assert g.judge([key], rows) == 1
    assert g.judge([key], []) == 1


def spin(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_speed_probe_takes_out_a_uniform_change_of_speed():
    probe = speed.SpeedProbe()
    runs = {}
    for slowdown in (1, 2, 1, 2, 1, 2):
        probe.unit = lambda: spin(30_000 * slowdown)
        probe.burst()
        probe.start()
        spin(600_000 * slowdown)
        probe.checkpoint()
        runs.setdefault(slowdown, []).append(probe.take())
    cpu = {k: sorted(c for c, _ in v)[1] for k, v in runs.items()}
    seconds = {k: sorted(s for _, s in v)[1] for k, v in runs.items()}
    assert cpu[2] > 1.5 * cpu[1]
    assert seconds[2] == pytest.approx(seconds[1], rel=0.25)


def test_speed_probe_splits_around_each_call_and_restores_it():
    probe = speed.SpeedProbe()
    site = types.SimpleNamespace(call=lambda x: x + 1)
    original = site.call
    ends = []
    probe.checkpoint = lambda cpu=None: ends.append(cpu)
    with probe.splitting([(site, "call")]):
        assert site.call(1) == 2
        assert len(ends) == 2
    assert site.call is original


def test_spec_lists_exactly_what_the_runs_print():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.per_layer_units()


def test_untraced_run_reports_end_to_end_metrics():
    result = run_bench("taylor-sweep", seed=5, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 25
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_emit_every_layer_metric_with_repeatable_counts():
    first = run_bench("taylor-sweep", seed=1, trace=1)
    second = run_bench("taylor-sweep", seed=2, trace=1)
    units = tracer.per_layer_units()
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(units)
    counts = [name for name, unit in units.items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    m = first["metrics"]
    assert m["correction.taylor_trace_normal_calls"]["value"] > 0
    assert m["solver.method_lu"]["value"] == 25 and m["solver.krylov_iterations"]["value"] == 0


def test_refuses_to_run_without_program_sources():
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "taylor-sweep", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
