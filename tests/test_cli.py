"""End-to-end pipeline tests through the command-line entry point."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

from metastab import spectral
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
], ids=["top-level-number", "manifold-number", "manifolds-string",
        "expression-number", "radius-text", "tau-text", "tolerance-text",
        "name-null", "name-repeated", "coords-length", "center-length"])
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


# `out/` holds the reference artifacts of this command, run from the
# repository root; rerunning it must reproduce them.
GOLDEN_ARGV = ["all", "--spec", SPEC, "--h", "0.2,0.15,0.1", "--seed", "0"]
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "out"


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


ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    # about 0.1 s at start-up; only a saddle with more than one node, or
    # the Agmon distance, needs it
    assert modules_after("import metastab.cli", "scipy.spatial") == "[]"


def test_artifacts_independent_of_blas_threads(tmp_path):
    # every stage runs on one BLAS thread, so a 2D run writes the same
    # bytes at any OpenBLAS thread count
    argv = ["all", "--spec", "perfbench/specs/tilted_2d.json",
            "--grid", "128,128", "--h", "0.2,0.15,0.1", "--seed", "3"]
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "metastab.cli", *argv,
                        "--out", str(tmp_path / threads)],
                       cwd=ROOT, env=source_env(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
    for name in ARTIFACTS:
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes(), name


def test_golden_artifacts_reproduced(tmp_path, capsys):
    assert main(GOLDEN_ARGV + ["--out", str(tmp_path)]) == 0
    for name in ("labeling.txt", "predictions.csv"):
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN_DIR / name).read_bytes(), name
    # the reliability floor of each h bounds the values it cannot resolve
    _, spectrum = read_table(GOLDEN_DIR / "spectrum.csv")
    floors = {row["h"]: float(row["floor"]) for row in spectrum}
    for name in ("spectrum.csv", "interaction.csv", "validate.csv",
                 "exit_times.csv"):
        got_head, got_rows = read_table(tmp_path / name)
        want_head, want_rows = read_table(GOLDEN_DIR / name)
        assert got_head == want_head, name
        assert len(got_rows) == len(want_rows), name
        for got, want in zip(got_rows, want_rows):
            floor = floors[want["h"]]
            for key in want:
                assert_field_matches(got[key], want[key], floor)
