"""End-to-end pipeline tests through the command-line entry point."""

import json

import pytest

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


def test_bad_role_rejected(tmp_path):
    with open(SPEC) as fh:
        data = json.load(fh)
    data["manifolds"][0]["role"] = "monkey"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit):
        main(["check", "--spec", str(path), "--out", str(tmp_path)])


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
