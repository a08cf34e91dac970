"""Configuration parsing, study orchestration, and output files."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy import cli, solver
from bdmdarcy.cli import (
    CSV_COLUMNS,
    K_MAX,
    ConfigError,
    StudyConfig,
    build_parser,
    export_fields,
    main,
    parse_config,
    run_study,
    write_csv,
)


def test_defaults():
    cfg = parse_config([])
    assert cfg.domain == "circle"
    assert cfg.k == 1
    assert cfg.m == cfg.k
    assert cfg.mode == "corrected"
    assert (cfg.level_first, cfg.level_last) == (1, 4)


def test_m_defaults_to_k():
    cfg = parse_config(["--k", "3"])
    assert cfg.m == 3


def test_k_zero_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--k", "0"])


def test_m_above_k_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--k", "2", "--m", "3"])


def test_m_below_accuracy_bound_warns_but_passes():
    with pytest.warns(UserWarning):
        cfg = parse_config(["--k", "3", "--m", "0"])
    assert cfg.m == 0


def test_k2_m1_meets_bound_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(["--k", "2", "--m", "1"])


def test_uncorrected_ring_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--domain", "ring", "--mode", "uncorrected-strong"])


def test_bad_levels_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--levels", "3"])
    with pytest.raises(ConfigError):
        parse_config(["--levels", "4..2"])


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "study.cfg"
    cfg_file.write_text("domain = ring\nk = 2\nlevels = 0..2\n# comment\n")
    cfg = parse_config([str(cfg_file)])
    assert cfg.domain == "ring" and cfg.k == 2
    assert (cfg.level_first, cfg.level_last) == (0, 2)
    cfg = parse_config([str(cfg_file), "--k", "3", "--levels", "1..2"])
    assert cfg.k == 3
    assert (cfg.level_first, cfg.level_last) == (1, 2)


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "study.cfg"
    cfg_file.write_text("banana = 3\n")
    with pytest.raises(ConfigError):
        parse_config([str(cfg_file)])


def tiny_config(**kw):
    cfg = StudyConfig()
    cfg.k = 1
    cfg.level_first, cfg.level_last = 0, 1
    for key, val in kw.items():
        setattr(cfg, key, val)
    return cfg


def test_run_study_row_count_and_columns():
    rows = run_study(tiny_config())
    assert len(rows) == 2
    for row in rows:
        assert set(CSV_COLUMNS) <= set(row)
    assert rows[0]["eoc_total"] is None
    assert rows[1]["eoc_total"] is not None
    assert rows[1]["residual"] <= 1e-10


def test_csv_deterministic_apart_from_wall_time(tmp_path):
    paths = []
    for i in (0, 1):
        rows = run_study(tiny_config())
        path = tmp_path / f"report{i}.csv"
        write_csv(rows, path)
        paths.append(path)

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return ["," .join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(paths[0]) == strip_wall(paths[1])


# CSV rows less wall_time, as written by --report
PINNED_ROWS = {
    ("circle", 3, "1..2"): [
        "1,0.61965683746373812,360,144,0.0058662028641551615,0.0060742796954729936,"
        "0.0038690941663408092,0.01231357223560345,,4.3386043271971204e-15",
        "2,0.33706269530518751,1392,576,0.0005530008793250699,0.0007094863827856897,"
        "0.00049875842484342885,0.0013983032541280082,3.5727601891254333,1.2529640586896936e-14",
    ],
    ("ring", 2, "0..1"): [
        "0,0.5710695820026781,288,96,22.801976550699745,0.46763257752691595,"
        "0.33526827726567648,23.142039527186729,,4.0059439291607814e-16",
        "1,0.30219543245250152,1056,384,5.8156024027510371,0.13037174035594754,"
        "0.07399581754999679,5.8910593463046101,2.1498039043788508,1.9344270149727077e-15",
    ],
}


@pytest.mark.parametrize("study", PINNED_ROWS, ids=lambda s: "{}-k{}-L{}".format(*s))
def test_rows_are_byte_identical_to_the_recorded_ones(tmp_path, study):
    """Every digit of the rows is pinned, not just E_total to rtol 1e-6: a
    speed-up that reorders a sum shows here.  Recorded with numpy 2.4.6 and
    its scipy-openblas 0.3.31 on x86-64 (the solve uses no scipy); another
    numpy or BLAS may move the last digits."""
    domain, k, levels = study
    path = tmp_path / "rows.csv"
    assert main(["--domain", domain, "--k", str(k), "--levels", levels,
                 "--report", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",wall_time")
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == PINNED_ROWS[study]


# sha256 of ``--dump-system`` for the ring, k=2, level 0 (385 unknowns,
# 6,688 entries), with the boundary owners in classes by their trace
# geometry: six entries of B1 whose volume and boundary terms cancel exactly
# in an owner's own geometry are round-off (at most 2.2e-15) in its
# representative's, and every other entry is within 1.4e-15 of the maximum
# of the one-class-per-owner dump; the border row and column c are each
# element's own pressure integrals, not its representative's (26 entries
# within 1.3e-15 of themselves).  The boundary terms take the shape
# functions' Piola map and v . n_h as ``_matvec2`` and ``dot2`` give them,
# the bits of einsum: against their BLAS ``@`` forms, 2,999 entries move, by
# at most 1.5e-16 of the largest
RING_DUMP_SHA256 = "8a0a972c935d5586ca3f1dcb0791ee67cf05f3a3f95d6af00c9516dd66a0d9c9"


def test_the_program_runs_without_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI and building reference
    tables, as the benchmark's set-up does, and then a whole study leave
    scipy unimported.  The one reader of the global CSR, ``--dump-system``
    (and ``SaddleSystem.matrix`` behind it), imports it on first use and
    writes the same bytes as before."""
    code = "\n".join([
        "import sys",
        "import bdmdarcy.cli as cli",
        "from bdmdarcy.assembly import reference_tables",
        "reference_tables(3, vol_degree=None, bnd_points=None)",
        "assert 'scipy' not in sys.modules, 'imported by the set-up'",
        "rows = cli.run_study(cli.StudyConfig(domain='ring', k=2, level_first=0, level_last=1))",
        "assert rows[-1]['residual'] <= 1e-10",
        "assert 'scipy' not in sys.modules, 'imported by the study'",
        "assert cli.main(['--domain', 'ring', '--k', '2', '--levels', '0..0',",
        f"                 '--report', {str(tmp_path / 'r.csv')!r}, '--dump-system', {str(tmp_path)!r}]) == 0",
        "assert 'scipy.sparse' in sys.modules",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    dump = (tmp_path / "system_level0.txt").read_bytes()
    assert hashlib.sha256(dump).hexdigest() == RING_DUMP_SHA256


def test_json_mirrors_csv(tmp_path):
    cfg = tiny_config(report=str(tmp_path / "r.csv"), json_path=str(tmp_path / "r.json"))
    code = main(["--k", "1", "--levels", "0..1",
                 "--report", cfg.report, "--json", cfg.json_path])
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    csv_lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    assert len(payload["rows"]) == len(csv_lines) - 1
    for row, line in zip(payload["rows"], csv_lines[1:]):
        first = line.split(",")[0]
        assert int(first) == row["level"]


def test_export_fields_round_trip(tmp_path):
    from bdmdarcy.analysis import case_circle
    from bdmdarcy.assembly import Assembler
    from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project
    from bdmdarcy.solver import solve

    curves = disk_domain()
    mesh = refine_project(coarse_mesh(curves), curves)
    asm = Assembler(mesh, curves, k=1)
    u, p, lam, rep = solve(asm.system(case_circle()))
    path = tmp_path / "fields.vtk"
    export_fields(mesh, asm, u, p, path)
    lines = path.read_text().splitlines()
    n_pts = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
    assert n_pts == mesh.n_vertices
    cell_line = next(l for l in lines if l.startswith("CELLS"))
    assert int(cell_line.split()[1]) == mesh.n_triangles
    cd_line = next(l for l in lines if l.startswith("CELL_DATA"))
    assert int(cd_line.split()[1]) == mesh.n_triangles
    # coordinates round-trip exactly at 17 significant digits
    start = lines.index(next(l for l in lines if l.startswith("POINTS"))) + 1
    coords = np.array(
        [[float(x) for x in lines[start + i].split()[:2]] for i in range(n_pts)]
    )
    assert np.abs(coords - mesh.vertices).max() <= 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", ["disk", "ring"])
def test_export_velocity_matches_the_per_triangle_field(tmp_path, domain, k):
    """Each vertex velocity is the per-triangle reference field of the
    vertex's lowest-index adjacent triangle, evaluated at the vertex."""
    from bdmdarcy.assembly import Assembler
    from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project, ring_domain
    from oracles import local_field

    curves = disk_domain() if domain == "disk" else ring_domain()
    mesh = refine_project(coarse_mesh(curves), curves)
    asm = Assembler(mesh, curves, k=k)
    rng = np.random.default_rng(k)
    u = rng.standard_normal(asm.dofmap.n_u)
    path = tmp_path / "fields.vtk"
    export_fields(mesh, asm, u, rng.standard_normal(asm.dofmap.n_p), path)
    lines = path.read_text().splitlines()
    start = lines.index("VECTORS velocity double") + 1
    velocity = np.array([[float(x) for x in line.split()[:2]]
                         for line in lines[start:start + mesh.n_vertices]])

    w = asm.local_coeffs(u)
    expected = []
    for v, x in enumerate(mesh.vertices):
        t = np.flatnonzero((mesh.triangles == v).any(axis=1))[0]
        expected.append(local_field(asm, t, w[t]).eval(x)[0])
    expected = np.array(expected)
    assert np.abs(velocity - expected).max() <= 1e-13 * np.abs(expected).max()


def test_dump_system_parses(tmp_path):
    cfg = tiny_config(dump_system=str(tmp_path / "dumps"))
    run_study(cfg)
    dump = (tmp_path / "dumps" / "system_level0.txt").read_text().splitlines()
    n_rows, n_cols, nnz = (int(x) for x in dump[0].split())
    assert n_rows == n_cols
    assert len(dump) == nnz + 1
    row, col, val = dump[1].split()
    int(row), int(col), float(val)


@pytest.mark.parametrize("mode", ["corrected", "uncorrected-strong"])
def test_dump_system_holds_the_system_matrix(tmp_path, mode):
    """The dump is ``system.matrix`` entry for entry; in strong mode the
    constrained dofs are in it as identity rows."""
    from bdmdarcy.analysis import case_circle
    from bdmdarcy.assembly import Assembler
    from bdmdarcy.mesh import coarse_mesh, disk_domain

    assert main(["--k", "2", "--levels", "0..0", "--mode", mode,
                 "--dump-system", str(tmp_path)]) == 0
    dump = (tmp_path / "system_level0.txt").read_text().splitlines()
    curves = disk_domain()
    asm = Assembler(coarse_mesh(curves), curves, k=2, mode=mode)
    expected = asm.system(case_circle()).matrix.tocoo()
    n = asm.dofmap.n_u + asm.dofmap.n_p + 1
    assert dump[0] == f"{n} {n} {expected.nnz}"
    entries = [line.split() for line in dump[1:]]
    got = {(int(r), int(c)): float(v) for r, c, v in entries}
    assert len(got) == len(entries) == expected.nnz
    assert got == dict(zip(zip(expected.row.tolist(), expected.col.tolist()),
                           expected.data.tolist()))
    assert len(asm.constrained) == (0 if mode == "corrected" else 3 * len(asm.mesh.boundary_edges))
    for i in asm.constrained:
        assert {key: v for key, v in got.items() if i in key} == {(i, i): 1.0}


def test_dump_system_streams_the_old_text(tmp_path):
    """The dump is written a chunk at a time: the same bytes as one line per
    entry joined in memory, with a per-entry memory cost far below the
    ~160 B of holding every line as a string."""
    from bdmdarcy.analysis import case_circle
    from bdmdarcy.assembly import Assembler
    from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project

    curves = disk_domain()
    mesh = coarse_mesh(curves)
    for _ in range(3):
        mesh = refine_project(mesh, curves)
    system = Assembler(mesh, curves, 3).system(case_circle())
    mat = system.matrix.tocoo()
    assert mat.nnz >= 100_000 and mat.nnz > 2 * cli.DUMP_CHUNK
    tracemalloc.start()
    try:
        cli.dump_system(system, tmp_path / "dump.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * mat.nnz
    order = np.lexsort((mat.col, mat.row))
    lines = [f"{mat.shape[0]} {mat.shape[1]} {mat.nnz}"] + [
        f"{r} {c} {v:.17g}" for r, c, v in zip(mat.row[order], mat.col[order], mat.data[order])]
    assert (tmp_path / "dump.txt").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_main_exit_codes(tmp_path):
    assert main(["--k", "1", "--levels", "0..0"]) == 0
    assert main(["--k", "0"]) == 2


@pytest.mark.parametrize(
    "file_text,argv,where",
    [
        ("k = abc\n", [], "study.cfg:1"),
        ("levels = 0..0\ncenter = 0 zero\n", [], "center"),
        (None, ["--radius", "-1"], "radius"),
        (None, ["--domain", "ring", "--r-inner", "2"], "r_inner"),
        (None, ["--k", "2", "--quad-volume", "1"], "volume quadrature"),
        (None, ["--k", "2", "--quad-boundary", "1"], "boundary quadrature"),
        (None, ["--k", "abc"], "--k"),
        (None, ["--k", str(K_MAX + 1)], "k must"),
        (None, ["--domain", "square"], "--domain"),
        (None, ["--bogus"], "--bogus"),
        (None, ["--solver", "direct"], "--solver"),
        (None, ["--seed", "1"], "--seed"),
        (None, ["--radius", "2", "--mode", "uncorrected-strong"], "uncorrected-strong"),
        ("center = 0.5, 0\n", ["--mode", "uncorrected-strong"], "uncorrected-strong"),
        (None, ["--mode", "uncorrected-strong", "--k", "2", "--m", "1"], "m must be 0"),
        (None, ["--radius", "inf"], "radius"),
        (None, ["--domain", "ring", "--r-outer", "inf"], "r_outer"),
        ("center = inf, 0\n", [], "center"),
        ("center = nan, 0\n", [], "center"),
        ("domain = ring\ncenter = 0, -inf\n", [], "center"),
        (None, ["--report", "{tmp}/no/such/dir/out.csv"], "report"),
        (None, ["--json", "{tmp}/missing/out.json"], "json"),
        (None, ["--report", "{tmp}"], "report"),
        (None, ["--dump-system", "{tmp}/file"], "dump_system"),
        (None, ["--export-fields", "{tmp}/file"], "export_fields"),
        (None, ["--export-fields", "{tmp}/file/fields"], "export_fields"),
        (None, ["--radius", "1e160"], "radius"),
        (None, ["--radius", "1e150"], "radius"),
        (None, ["--radius", "1e-160"], "radius"),
        (None, ["--radius", "1e-300"], "radius"),
        ("center = 1e17, 0\n", [], "center"),
        (None, ["--domain", "ring", "--r-outer", "1e160"], "r_outer"),
        (None, ["--domain", "ring", "--r-inner", "0.99", "--r-outer", "1"], "r_inner / r_outer"),
    ],
    ids=["bad-value", "bad-center", "radius", "r-inner", "quad-volume", "quad-boundary",
         "bad-int-flag", "k-above-max", "bad-choice", "unknown-flag", "removed-solver-flag",
         "removed-seed-flag", "strong-mode-radius", "strong-mode-center", "strong-mode-m",
         "infinite-radius", "infinite-r-outer", "infinite-center", "nan-center",
         "ring-infinite-center", "report-missing-dir", "json-missing-dir", "report-is-dir",
         "dump-is-file", "export-is-file", "export-under-file", "radius-1e160", "radius-1e150",
         "radius-1e-160", "radius-1e-300", "center-1e17", "ring-r-outer-1e160", "thin-ring"],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, file_text, argv, where):
    (tmp_path / "file").write_text("")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if file_text is not None:
        cfg_file = tmp_path / "study.cfg"
        cfg_file.write_text(file_text)
        argv = [str(cfg_file)] + argv
    assert main(argv + ["--levels", "1..1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before any study starts
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and where in lines[0]


def test_config_file_not_utf8_exits_2_with_one_error_line(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"k = 2\n\xff\xfe bad\n")
    assert main([str(cfg_file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {cfg_file}: not UTF-8 text: invalid start byte at byte 6"]


def test_failed_level_keeps_finished_rows(tmp_path, capsys, monkeypatch):
    """A study that fails at its second level still writes the first one,
    in the same columns and formatting as a study that stops there."""
    solves = []

    def solve_failing_second_level(system):
        u, p, lam, rep = solver.solve(system)
        solves.append(rep)
        return u, p, lam, replace(rep, success=len(solves) < 2)

    monkeypatch.setattr(cli, "solve", solve_failing_second_level)
    out = {name: str(tmp_path / name) for name in ("failed.csv", "failed.json", "one.csv")}
    assert main(["--levels", "0..1", "--report", out["failed.csv"],
                 "--json", out["failed.json"]]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("study failed: ")
    monkeypatch.setattr(cli, "solve", solver.solve)
    assert main(["--levels", "0..0", "--report", out["one.csv"]]) == 0

    def without_wall_time(path):
        wall = CSV_COLUMNS.index("wall_time")
        return [line.split(",")[:wall] for line in Path(path).read_text().splitlines()]

    assert without_wall_time(out["failed.csv"]) == without_wall_time(out["one.csv"])
    assert len(without_wall_time(out["failed.csv"])) == 2  # header and level 0
    payload = json.loads(Path(out["failed.json"]).read_text())
    assert [row["level"] for row in payload["rows"]] == [0]
    assert list(payload["rows"][0]) == CSV_COLUMNS


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "absent.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_upward_quadrature_overrides_accepted():
    cfg = parse_config(["--k", "2", "--quad-volume", "6", "--quad-boundary", "5"])
    assert (cfg.quad_volume, cfg.quad_boundary) == (6, 5)


@pytest.mark.parametrize("flag,value", [("--quad-volume", 25), ("--quad-volume", 6000),
                                        ("--quad-boundary", 23), ("--quad-boundary", 10**6)])
def test_quadrature_overrides_are_capped(flag, value):
    # the caps are 2k+20 and k+20; uncapped, --quad-volume 6000 asks for
    # 1.6 GiB and --quad-boundary 10^6 for 7 TiB
    parse_config(["--k", "2", "--quad-volume", "24", "--quad-boundary", "22"])
    with pytest.raises(ConfigError, match="quadrature"):
        parse_config(["--k", "2", flag, str(value)])


def test_strong_mode_taylor_order_is_zero():
    # strong mode runs order 0, and reports it; the accuracy advisory stays off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_config(["--k", "3", "--mode", "uncorrected-strong"]).m == 0
        assert parse_config(["--k", "3", "--mode", "uncorrected-strong", "--m", "0"]).m == 0
    with pytest.raises(ConfigError, match="m must be 0"):
        parse_config(["--k", "2", "--mode", "uncorrected-strong", "--m", "1"])


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--levels" in capsys.readouterr().out


# output paths below a fresh directory: files go straight into it (their
# directory must exist), directories may nest (they are made)
_FILES = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_.]{0,11}", fullmatch=True)
_DIRS = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_/]{0,11}", fullmatch=True)
_OUTPUTS = ("report", "json", "export_fields", "dump_system")


@st.composite
def study_values(draw):
    """Valid values of every config key that has a flag, keyed as in a file."""
    domain = draw(st.sampled_from(["circle", "ring"]))
    k = draw(st.integers(1, 4))
    first = draw(st.integers(0, 5))
    r_inner = draw(st.floats(0.01, 10.0))
    mode = draw(st.sampled_from(
        ["corrected"] + (["uncorrected-strong"] if domain == "circle" else [])))
    return {
        "domain": domain,
        "k": k,
        # strong mode has no Taylor extension: its order is 0
        "m": 0 if mode == "uncorrected-strong" else draw(st.integers(0, k)),
        "mode": mode,
        "levels": f"{first}..{draw(st.integers(first, 8))}",
        "quad_volume": draw(st.integers(2 * k + 2, 2 * k + 6)),
        "quad_boundary": draw(st.integers(k + 3, k + 6)),
        "report": draw(_FILES),
        "json": draw(_FILES),
        "export_fields": draw(_DIRS),
        "dump_system": draw(_DIRS),
        # strong mode needs the unit disk (centred at the origin, see below)
        "radius": 1.0 if mode == "uncorrected-strong" else draw(st.floats(0.01, 100.0)),
        "r_inner": r_inner,
        "r_outer": r_inner * draw(st.floats(1.12, 10.0)),  # r_inner / r_outer <= 0.9
    }


def _expected_config(values, center):
    first, last = (int(x) for x in values["levels"].split(".."))
    fields = {key: values[key] for key in values if key not in ("levels", "json")}
    return StudyConfig(level_first=first, level_last=last, json_path=values["json"],
                       center=center, **fields)


@settings(max_examples=60, deadline=None)
@given(study_values(), study_values(), st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
def test_config_file_and_flags_round_trip(values, other, center):
    # every option is drawn: a flag by its dest, the file-only centre by hand
    dests = {action.dest for action in build_parser()._actions} - {"help", "config"}
    assert set(values) == dests and set(values) | {"center"} == set(cli._OPTIONS)
    if values["mode"] == "uncorrected-strong":
        center = (0.0, 0.0)
    center_line = {"center": f"{center[0]!r}, {center[1]!r}"}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m below the accuracy bound only warns
        values, other = ({**study, **{key: str(Path(tmp, study[key])) for key in _OUTPUTS}}
                         for study in (values, other))
        flags = [x for key, value in values.items()
                 for x in ("--" + key.replace("_", "-"), str(value))]

        def config_file(name, entries):
            path = Path(tmp) / name
            path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
            return str(path)

        from_file = parse_config([config_file("all.cfg", {**values, **center_line})])
        from_flags = parse_config([config_file("center.cfg", center_line)] + flags)
        # every flag overrides the other study's value in the file
        overridden = parse_config([config_file("other.cfg", {**other, **center_line})] + flags)
    assert from_file == from_flags == overridden == _expected_config(values, center)


def test_readme_options_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    first_cells = [line.split(" | ")[0] for line in readme.splitlines() if line.startswith("| `")]
    documented = {flag for cell in first_cells for flag in re.findall(r"--[a-z][a-z-]*", cell)}
    options = {flag for action in build_parser()._actions for flag in action.option_strings}
    assert documented == options - {"-h", "--help"}
