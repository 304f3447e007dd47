"""End-to-end pipeline tests through the command-line entry point."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

from metastab import spectral, sublevel
from metastab.cli import main

SPEC = "specs/tilted_double_well.json"
ARTIFACTS = ("labeling.txt", "predictions.csv", "spectrum.csv",
             "interaction.csv", "validate.csv", "exit_times.csv")


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_all_stages_produce_artifacts(tmp_path, capsys):
    code = main(["all", "--spec", SPEC, "--h", "0.2,0.1",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "confinement PASS" in out
    assert "separating" in out
    for name in ARTIFACTS:
        path = tmp_path / name
        assert path.exists(), name
        assert path.read_text().startswith("# manifest ")
        assert b"\r" not in path.read_bytes(), name


def test_prediction_artifact_content(tmp_path, capsys):
    assert main(["predict", "--spec", SPEC, "--h", "0.1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert row["minimum"] == "right"
    assert float(row["S"]) == pytest.approx(0.157664957, rel=1e-8)
    assert float(row["exponent"]) == 1.0
    assert float(row["D"]) == pytest.approx(0.406543953, rel=1e-8)


def test_manifest_hash_tracks_inputs(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out, h in ((a, "0.2"), (b, "0.1")):
        assert main(["predict", "--spec", SPEC, "--h", h,
                     "--out", str(out)]) == 0
    ha = (a / "predictions.csv").read_text().splitlines()[0]
    hb = (b / "predictions.csv").read_text().splitlines()[0]
    assert ha != hb
    c = tmp_path / "c"
    assert main(["predict", "--spec", SPEC, "--h", "0.2",
                 "--out", str(c)]) == 0
    assert (c / "predictions.csv").read_text().splitlines()[0] == ha


def edited_spec(tmp_path, **changes):
    with open(SPEC) as fh:
        data = json.load(fh)
    data.update(changes)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("declared,calls", [(True, 0), (False, 3)])
def test_default_radius_only_for_undeclared(tmp_path, capsys, monkeypatch,
                                            declared, calls):
    # the default radius, one node_distance per pair of the three declared
    # manifolds, is computed only for a saddle that declares no radius
    from metastab import cli

    seen = []
    real = cli.node_distance

    def node_distance(a, b):
        seen.append((a.name, b.name))
        return real(a, b)

    monkeypatch.setattr(cli, "node_distance", node_distance)
    with open(SPEC) as fh:
        data = json.load(fh)
    if not declared:
        for m in data["manifolds"]:
            m.pop("radius", None)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--spec", str(path), "--out",
                 str(tmp_path)]) == 0
    assert len(seen) == calls


def test_all_classifies_once_without_saddles(tmp_path, capsys):
    # a lone minimum leaves no saddle record: label must not classify again
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "expression": "x1^2/2", "dim": 1, "box": [[-3.0, 3.0]],
        "manifolds": [{"name": "origin", "kind": "point", "coords": [0.0],
                       "role": "minimum"}]}))
    assert main(["all", "--spec", str(spec), "--grid", "512",
                 "--h", "0.2,0.15,0.1", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("origin: minimum") for line in lines) == 1


RING_SPEC = {
    "expression": "r^6/6 - 5*r^4/4 + 2*r^2", "dim": 2,
    "box": [[-3.0, 3.0], [-3.0, 3.0]], "manifolds": [
        {"name": "center", "kind": "point", "coords": [0.0, 0.0],
         "role": "minimum"},
        {"name": "ring", "kind": "sphere", "center": [0.0, 0.0],
         "radius": 2.0, "role": "minimum"},
        {"name": "saddle_ring", "kind": "sphere", "center": [0.0, 0.0],
         "radius": 1.0, "role": "saddle"}]}


def test_ring_prediction_matches_radial_closed_form(tmp_path, capsys):
    # the center minimum leaves over the saddle circle r = 1: exponent
    # (3 - d)/2 and the constant of the radial closed form
    from metastab.kramers import radial_predict
    from metastab.potential import parse_potential
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps(RING_SPEC))
    assert main(["predict", "--spec", str(spec), "--grid", "128",
                 "--h", "0.2", "--out", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "predictions.csv")
    row = {r["minimum"]: r for r in rows}["center"]
    assert float(row["exponent"]) == 0.5
    p = parse_potential(RING_SPEC["expression"], 2)
    want = radial_predict(p, 2, 0.0, 1.0, float(row["S"])).constant
    assert float(row["D"]) == pytest.approx(want, rel=1e-10)


def test_missing_saddle_declaration_fails(tmp_path, capsys):
    with open(SPEC) as fh:
        data = json.load(fh)
    data["manifolds"] = [m for m in data["manifolds"]
                         if m["role"] == "minimum"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code = main(["label", "--spec", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind,field", [("point", "coords"),
                                        ("sphere", "radius"),
                                        ("parametrized", "maps")])
def test_manifold_missing_field_reported(tmp_path, capsys, kind, field):
    with open(SPEC) as fh:
        data = json.load(fh)
    decl = {"point": {"coords": [0.0]},
            "sphere": {"center": [0.0], "radius": 1.0},
            "parametrized": {"maps": ["x1"], "param_box": [[0.0, 1.0]]}}[kind]
    del decl[field]
    data["manifolds"][0] = dict(decl, name="broken", kind=kind,
                                role="minimum")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code = main(["check", "--spec", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'broken'" in err and repr(field) in err


def test_bad_role_rejected(tmp_path, capsys):
    with open(SPEC) as fh:
        data = json.load(fh)
    data["manifolds"][0]["role"] = "monkey"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code = main(["check", "--spec", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'role'" in err and "'monkey'" in err


@pytest.mark.parametrize("field,value", [
    ("dim", 0), ("dim", 1.5), ("dim", True),
    ("box", [[-2.4, 2.4], [-1.0, 1.0]]), ("box", [-2.4, 2.4]),
    ("box", [[2.4, -2.4]]), ("box", [[-2.4, 2.4, 0.0]]),
    ("box", [[-2.4, float("inf")]]), ("box", [["a", 2.4]]),
], ids=["dim-zero", "dim-float", "dim-bool", "box-too-many-axes", "box-flat",
        "box-reversed", "box-triple", "box-infinite", "box-text"])
def test_malformed_spec_field_reported(tmp_path, capsys, field, value):
    spec = edited_spec(tmp_path, **{field: value})
    code = main(["check", "--spec", spec, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(field) in err


def _set_manifold(index, field, value):
    def edit(data):
        data["manifolds"][index][field] = value
        return data
    return edit


def _add_manifold(**decl):
    def edit(data):
        data["manifolds"].append(dict(decl, name="extra", role="saddle"))
        return data
    return edit


def _ring(nodes, center=(0.0, 0.0)):
    # the spec's expression on a 2D box, with a circle that sets `nodes`
    def edit(data):
        return dict(data, dim=2, box=[[-2.4, 2.4], [-2.4, 2.4]], manifolds=[
            {"name": "ring", "kind": "sphere", "center": list(center),
             "radius": 1.0, "role": "minimum", "nodes": nodes}])
    return edit


@pytest.mark.parametrize("edit,fragment", [
    (lambda data: 3, "JSON object"),
    (lambda data: dict(data, manifolds=[5] + data["manifolds"][1:]),
     "'manifolds'"),
    (lambda data: dict(data, manifolds="left"), "'manifolds'"),
    (lambda data: dict(data, expression=5), "'expression'"),
    (_set_manifold(2, "radius", "big"), "'radius'"),
    (_set_manifold(2, "tau", "x"), "'tau'"),
    (lambda data: dict(data, validate_tolerance="x"), "'validate_tolerance'"),
    (_set_manifold(0, "name", None), "'name'"),
    (_set_manifold(1, "name", "left"), "'left' declared twice"),
    (_set_manifold(0, "coords", [0.0, 1.0]), "'coords' must give one number per axis (1)"),
    (lambda data: dict(data, manifolds=data["manifolds"] + [
        {"name": "ring", "kind": "sphere", "center": [0.0, 0.0],
         "radius": 1.0, "role": "saddle"}]), "'center' must give one number per axis (1)"),
    (_set_manifold(0, "coords", [float("nan")]),
     "'coords' must hold finite numbers"),
    (_ring(256, center=(float("inf"), 0.0)),
     "'center' must hold finite numbers"),
    (_ring("abc"), "'nodes' must be a positive integer"),
    (_ring(2.5), "'nodes' must be a positive integer"),
    (_ring(0), "'nodes' must be a positive integer"),
    (_add_manifold(kind="parametrized", maps=[5], param_box=[[0.0, 1.0]]),
     "'maps' must be a list of expression strings"),
    (_add_manifold(kind="parametrized", maps=["x1"],
                   param_box=[[0.0, 1.0]], periodic=[]),
     "'periodic' must hold one true or false per 'param_box' row (1)"),
    (_add_manifold(kind="parametrized", maps=["x1"], param_box=5),
     "'param_box' must hold finite [lo, hi] rows with lo < hi"),
    (_add_manifold(kind="parametrized", maps=["x1"], param_box=[0.0, 1.0]),
     "'param_box' must hold finite [lo, hi] rows with lo < hi"),
    (_add_manifold(kind="parametrized", maps=["x1"], param_box=[[1.0, 0.0]]),
     "'param_box' must hold finite [lo, hi] rows with lo < hi"),
    (_set_manifold(0, "coords", [True]),
     "'coords' must give one number per axis (1)"),
    (_set_manifold(0, "coords", ["-1.04"]),
     "'coords' must give one number per axis (1)"),
    (_ring(256, center=(True, 0.0)),
     "'center' must give one number per axis (2)"),
    (lambda data: dict(data, box=[["-2.4", 2.4]]),
     "'box' must hold 1 finite [lo, hi] rows with lo < hi"),
    (_add_manifold(kind="parametrized", maps=["x1"],
                   param_box=[[False, 1.0]]),
     "'param_box' must hold finite [lo, hi] rows with lo < hi"),
], ids=["top-level-number", "manifold-number", "manifolds-string",
        "expression-number", "radius-text", "tau-text", "tolerance-text",
        "name-null", "name-repeated", "coords-length", "center-length",
        "coords-nan", "center-infinite",
        "nodes-text", "nodes-fraction", "nodes-zero", "maps-number",
        "periodic-short", "param_box-number", "param_box-flat",
        "param_box-reversed", "coords-bool", "coords-text", "center-bool",
        "box-numeric-text", "param_box-bool"])
def test_malformed_spec_fails_in_setup(tmp_path, capsys, edit, fragment):
    # each is refused before any stage runs, without a traceback
    with open(SPEC) as fh:
        data = edit(json.load(fh))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code = main(["all", "--spec", str(path), "--grid", "1024", "--h", "0.2",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: setup: ")
    assert fragment in err


def test_solve_beyond_physical_memory_fails_in_solve(tmp_path, capsys,
                                                     monkeypatch):
    # 1024 cells pass the grid's 13 B/cell refusal at 256 KiB, but the
    # factor of their 512 odd cells is projected at about 323 KB
    monkeypatch.setattr(sublevel, "_physical_memory", lambda: 1 << 18)
    code = main(["solve", "--spec", SPEC, "--grid", "1024", "--h", "0.2",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solve: the shift-invert factor of 512 "
                          "cells needs about ")
    assert "physical memory" in err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("flag,fragment", [
    ("--h=0", "--h values"), ("--h=-0.1", "--h values"),
    ("--h=nan", "--h values"), ("--h=inf", "--h values"),
    ("--h=0.2,0.2", "--h values"), ("--seed=-1", "--seed"),
], ids=["h-zero", "h-negative", "h-nan", "h-infinite", "h-repeated",
        "seed-negative"])
def test_bad_h_or_seed_fails_in_setup(tmp_path, capsys, flag, fragment):
    # every h must be finite, positive and distinct, and the seed >= 0
    code = main(["all", "--spec", SPEC, "--grid", "1024", flag,
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: setup: ")
    assert fragment in err


@pytest.mark.parametrize("expression,message", [
    ("log(x1) + x1^2", "log of non-positive value"),
    ("sqrt(x1) + x1^2", "sqrt of negative value"),
], ids=["log", "sqrt"])
def test_domain_error_reported(tmp_path, capsys, expression, message):
    # the confinement shell of [-2, 2] reaches x1 < 0
    spec = edited_spec(tmp_path, expression=expression, box=[[-2.0, 2.0]],
                       manifolds=[])
    code = main(["check", "--spec", spec, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: check: {message}\n"


def test_runtime_error_reported_with_stage(tmp_path, capsys, monkeypatch):
    message = "eigenpair residual 9.32e-11 exceeds the reliability floor"

    def fail(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr(spectral, "smallest_eigs", fail)
    code = main(["solve", "--spec", SPEC, "--h", "0.2",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: solve: {message}\n"


def test_setup_error_reported_with_stage(tmp_path, capsys):
    # the grid is built before any stage runs
    code = main(["check", "--spec", SPEC, "--grid", "512,512",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: setup: grid shape")


def test_missing_spec_file_reported(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code = main(["check", "--spec", missing, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: setup: ")
    assert missing in err


def test_grid_entries_must_match_dimension(tmp_path, capsys):
    code = main(["label", "--spec", SPEC, "--grid", "512,512",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "2 entries" in err and "dimension 1" in err


def test_solve_is_reproducible(tmp_path, capsys):
    for out in ("a", "b"):
        assert main(["solve", "--spec", SPEC, "--h", "0.2,0.1",
                     "--out", str(tmp_path / out)]) == 0
    first = (tmp_path / "a" / "spectrum.csv").read_bytes()
    assert first == (tmp_path / "b" / "spectrum.csv").read_bytes()


def test_solve_orders_once_for_every_h(tmp_path, capsys, monkeypatch):
    # the fill-reducing ordering is found for the first h and reused
    specs = []
    real = spectral.splu

    def splu(matrix, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return real(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spectral, "splu", splu)
    assert main(["solve", "--spec", SPEC, "--h", "0.2,0.15,0.1",
                 "--out", str(tmp_path)]) == 0
    assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]


def test_confinement_gate(tmp_path, capsys):
    spec = edited_spec(tmp_path, expression="sin(x1)", box=[[-9.0, 9.0]],
                       manifolds=[])
    with pytest.raises(SystemExit, match="confinement"):
        main(["check", "--spec", spec, "--out", str(tmp_path)])


def test_validate_tolerance_gate(tmp_path, capsys):
    spec = edited_spec(tmp_path, validate_tolerance=1e-6)
    with pytest.raises(SystemExit, match="tolerance"):
        main(["validate", "--spec", spec, "--h", "0.2,0.1",
              "--out", str(tmp_path)])
    spec_ok = edited_spec(tmp_path, validate_tolerance=0.4)
    assert main(["validate", "--spec", spec_ok, "--h", "0.2,0.1",
                 "--out", str(tmp_path)]) == 0


ROOT = pathlib.Path(__file__).resolve().parents[1]

# `out/` holds the reference artifacts of this command, run from the
# repository root; rerunning it must reproduce them.
GOLDEN_ARGV = ["all", "--spec", SPEC, "--h", "0.2,0.15,0.1", "--seed", "0"]
GOLDEN_DIR = ROOT / "out"
# `out_2d/` holds those of GOLDEN_2D_ARGV
GOLDEN_2D_ARGV = ["all", "--spec", "perfbench/specs/tilted_2d.json",
                  "--grid", "128,128", "--h", "0.2,0.15,0.1", "--seed", "3"]
GOLDEN_2D_DIR = ROOT / "out_2d"


def read_table(path):
    """Header lines and data rows (dicts) of an artifact CSV."""
    lines = path.read_text().splitlines()
    return lines[:2], list(csv.DictReader(lines[1:]))


def assert_field_matches(got, want, floor):
    """Numbers (also inside ';'-joined lists) to rtol 1e-8, or both at most
    `floor` in magnitude where the reference is; other text exactly."""
    got_parts, want_parts = got.split(";"), want.split(";")
    assert len(got_parts) == len(want_parts), (got, want)
    for g, w in zip(got_parts, want_parts):
        try:
            g_num, w_num = float(g), float(w)
        except ValueError:
            assert g == w
            continue
        if abs(w_num) <= floor:
            assert abs(g_num) <= floor, (g, w, floor)
        else:
            assert g_num == pytest.approx(w_num, rel=1e-8, abs=0.0), (g, w)


def assert_artifacts_match(got_dir, golden_dir):
    """The labeling and the predictions byte for byte; every other
    artifact field by `assert_field_matches`, below the reliability floor
    of its h in the golden spectrum.csv."""
    for name in ("labeling.txt", "predictions.csv"):
        assert (got_dir / name).read_bytes() == \
            (golden_dir / name).read_bytes(), name
    _, spectrum = read_table(golden_dir / "spectrum.csv")
    floors = {row["h"]: float(row["floor"]) for row in spectrum}
    for name in ("spectrum.csv", "interaction.csv", "validate.csv",
                 "exit_times.csv"):
        got_head, got_rows = read_table(got_dir / name)
        want_head, want_rows = read_table(golden_dir / name)
        assert got_head == want_head, name
        assert len(got_rows) == len(want_rows), name
        for got, want in zip(got_rows, want_rows):
            floor = floors[want["h"]]
            for key in want:
                assert_field_matches(got[key], want[key], floor)


def source_env(**overrides):
    """The environment with this checkout's `src` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


def modules_after(statement, prefix):
    """Names in sys.modules that start with `prefix` (a string or a tuple
    of them) after `statement` runs in a fresh interpreter."""
    code = (f"import sys; {statement}; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    result = subprocess.run([sys.executable, "-c", code], env=source_env(),
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_cli_import_skips_scipy_stats():
    # scipy.stats takes about a second to import; nothing in the package
    # may pull it in, or every command pays that at start-up
    assert modules_after("import metastab.cli", "scipy.stats") == "[]"


def test_package_import_loads_no_submodule():
    # the package's exports are resolved on first use, so importing it
    # costs neither scipy nor any of its own modules
    assert modules_after("import metastab", ("scipy", "metastab.")) == "[]"


def test_cli_import_skips_scipy_spatial():
    # about 0.1 s at start-up; only a saddle with more than one node, a
    # node distance over more than 2^16 node pairs (`node_distance`, read
    # by the default saddle radius and the quasimode cutoff) or the Agmon
    # distance needs it
    assert modules_after("import metastab.cli", "scipy.spatial") == "[]"


def test_tube_path_import_skips_scipy_sparse():
    # the tube layer labels and merges in numpy alone; scipy.ndimage
    # would add about 25 MB of RSS and 0.2-0.4 s of import to every tube
    # classification, and scipy.sparse.csgraph about 11 MB more
    assert modules_after("import metastab.manifolds, metastab.sublevel, "
                         "metastab.potential", "scipy") == "[]"


def test_artifacts_independent_of_blas_threads(tmp_path):
    # every stage runs on one BLAS thread, so a 2D run writes the same
    # bytes at any OpenBLAS thread count; the one-thread run also
    # reproduces the 2D golden
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "metastab.cli",
                        *GOLDEN_2D_ARGV, "--out", str(tmp_path / threads)],
                       cwd=ROOT, env=source_env(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
    for name in ARTIFACTS:
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes(), name
    assert_artifacts_match(tmp_path / "1", GOLDEN_2D_DIR)


def test_golden_artifacts_reproduced(tmp_path, capsys):
    assert main(GOLDEN_ARGV + ["--out", str(tmp_path)]) == 0
    assert_artifacts_match(tmp_path, GOLDEN_DIR)
