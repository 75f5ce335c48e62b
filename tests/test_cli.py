import json
import sys
from pathlib import Path

import pytest

from feforms import verify
from feforms.cli import main, run

SQUARE = str(Path(__file__).parent.parent / "meshes" / "two_triangle_square.json")


def main_exit_code(monkeypatch, argv) -> int:
    monkeypatch.setattr(sys, "argv", ["feforms"] + argv)
    with pytest.raises(SystemExit) as err:
        main()
    return err.value.code


def test_dims_verb(capsys):
    assert run(["dims", "--family", "Pminus", "--n", "3", "--r", "1", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_dims_S_uses_rank(capsys):
    assert run(["dims", "--family", "S", "--n", "2", "--r", "2", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "14"


def test_describe_verb(capsys, tmp_path):
    out = tmp_path / "desc.json"
    assert run(["describe", "--family", "P", "--n", "2", "--r", "1", "--k", "0",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 3
    assert len(doc["basis"]) == 3


def test_unisolvence_verb(capsys):
    assert run(["unisolvence", "--family", "S", "--n", "2", "--r", "2",
                "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count_ok"] and doc["determinant_nonzero"]


@pytest.mark.parametrize("verb, k", [("unisolvence", "0"), ("unisolvence", "2"),
                                     ("dof-counts", "0")],
                         ids=["0", "2", "dof-counts-0"])
def test_unisolvence_verb_refuses_P_without_dofs(monkeypatch, capsys, verb, k):
    # P_0 has no face weights: bad input, not a failed certificate
    assert main_exit_code(monkeypatch, [verb, "--family", "P", "--n", "2",
                                        "--r", "0", "--k", k]) == 2
    assert "P DOFs need r ≥ 1" in capsys.readouterr().err


def test_complex_verb(capsys):
    assert run(["complex", "--family", "Pminus", "--n", "2", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


@pytest.mark.parametrize("family, n, r", [
    ("S", 2, 0), ("Qminus", 0, 1), ("P", 0, 1), ("P", -2, 2)])
def test_complex_verb_without_a_chain_exits_2(monkeypatch, capsys, family, n, r):
    assert main_exit_code(monkeypatch, ["complex", "--family", family,
                                        "--n", str(n), "--r", str(r)]) == 2
    assert "chains need n >= 1 and r >= 1" in capsys.readouterr().err


def test_complex_verb_with_a_single_level_exits_2(monkeypatch, capsys):
    assert main_exit_code(monkeypatch, ["complex", "--family", "S",
                                        "--n", "2", "--r", "1"]) == 2
    assert "no two consecutive levels" in capsys.readouterr().err


def test_homotopy_verb(capsys):
    assert run(["homotopy", "--n", "3", "--r", "2", "--k", "1"]) == 0


def test_dof_counts_verb(capsys):
    assert run(["dof-counts", "--family", "S", "--n", "3", "--r", "2",
                "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "total 48  dim 48" in out


def test_table1_verb(capsys, tmp_path):
    out = tmp_path / "table1.tsv"
    assert run(["table1", "--out", str(out), "--format", "tsv"]) == 0
    text = out.read_text()
    assert text.startswith("claim\tparams\tverdict")
    assert "fail" not in text


def test_project_verb(tmp_path, capsys):
    mesh = {"kind": "simplicial", "n": 2,
            "vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
            "elements": [[0, 1, 2]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(mesh))
    assert run(["project", "--family", "P", "--r", "1", "--k", "0",
                "--mesh", str(path), "--form", "1/1 x1^2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["projection"]["0"] == "1/1 x1"


def test_project_unreadable_mesh(tmp_path, capsys):
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (tmp_path / "missing.json", not_utf8):
        assert run(["project", "--family", "P", "--r", "1", "--k", "0",
                    "--mesh", str(path), "--form", "1/1 x1"]) == 2
        assert "error: cannot read mesh: " in capsys.readouterr().err


@pytest.mark.parametrize("form", ["1/1 x3", "1/1 x0"])
def test_project_form_outside_mesh_dimension_exits_2(monkeypatch, capsys, form):
    assert main_exit_code(monkeypatch, [
        "project", "--family", "P", "--r", "1", "--k", "0",
        "--mesh", SQUARE, "--form", form]) == 2
    assert "outside x1..x2" in capsys.readouterr().err


def test_project_spec_that_is_not_unisolvent_exits_2(monkeypatch, capsys):
    assert main_exit_code(monkeypatch, [
        "project", "--family", "P", "--r", "0", "--k", "0",
        "--mesh", SQUARE, "--form", "1/1 x1"]) == 2
    assert "not unisolvent" in capsys.readouterr().err


@pytest.mark.parametrize("form, k, message", [
    ("1/1 x1 x1", 0, "repeats"), ("1/1 x1 dx1 dx2", 1, "more than one dx"),
    ("1/1 x1 +  + 1/1 x2", 0, "empty term")])
def test_project_form_with_repeated_tokens_exits_2(monkeypatch, capsys,
                                                   form, k, message):
    assert main_exit_code(monkeypatch, [
        "project", "--family", "Pminus", "--r", "1", "--k", str(k),
        "--mesh", SQUARE, "--form", form]) == 2
    assert message in capsys.readouterr().err


def test_project_form_with_zero_denominator_exits_2(monkeypatch, capsys):
    assert main_exit_code(monkeypatch, [
        "project", "--family", "Pminus", "--r", "1", "--k", "0",
        "--mesh", SQUARE, "--form", "1/0 x1"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("coordinate, message", [
    ("1/0", "zero denominator"), (0.5, "not a p/q string"),
    (True, "not a p/q string")])
def test_project_mesh_with_bad_coordinate_exits_2(monkeypatch, capsys, tmp_path,
                                                  coordinate, message):
    doc = json.loads(Path(SQUARE).read_text())
    doc["vertices"][1][0] = coordinate
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    assert main_exit_code(monkeypatch, [
        "project", "--family", "Pminus", "--r", "1", "--k", "0",
        "--mesh", str(path), "--form", "1/1 x1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("n", 2.7, "dimension 2.7 is not an integer"),
    ("n", "2", "dimension '2' is not an integer"),
    ("n", True, "dimension True is not an integer"),
    ("elements", [[0, 1.9, 2], [1, 3, 2]], "vertex ids must be integers"),
    ("elements", [[0, True, 2], [1, 3, 2]], "vertex ids must be integers"),
    ("vertices", 5, "vertices must be a list of lists"),
    ("elements", 7, "elements must be a list of lists"),
    (None, None, "not a JSON object")],
    ids=["n-float", "n-string", "n-bool", "id-float", "id-bool",
         "vertices-int", "elements-int", "document-list"])
def test_project_mesh_with_bad_shape_or_ids_exits_2(monkeypatch, capsys, tmp_path,
                                                    key, value, message):
    doc = json.loads(Path(SQUARE).read_text())
    if key is None:
        doc = [doc]
    else:
        doc[key] = value
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    assert main_exit_code(monkeypatch, [
        "project", "--family", "Pminus", "--r", "1", "--k", "0",
        "--mesh", str(path), "--form", "1/1 x1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["simplicial", "cubical"])
def test_project_on_a_0_dimensional_mesh_exits_2(monkeypatch, capsys, tmp_path, kind):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"kind": kind, "n": 0, "vertices": [[]],
                                "elements": [[0]]}))
    assert main_exit_code(monkeypatch, [
        "project", "--family", "P", "--r", "1", "--k", "0",
        "--mesh", str(path), "--form", "1/1"]) == 2
    assert "dimension must be at least 1" in capsys.readouterr().err


def test_homotopy_out_of_range_exits_2(monkeypatch):
    assert main_exit_code(monkeypatch, ["homotopy", "--n", "2", "--r", "1",
                                        "--k", "5"]) == 2


def test_homotopy_on_an_empty_homogeneous_space_exits_2(monkeypatch, capsys):
    # no degree-3 forms in 0 variables: the identity would hold on nothing
    assert main_exit_code(monkeypatch, ["homotopy", "--n", "0", "--r", "3",
                                        "--k", "0"]) == 2
    assert "no homogeneous degree-3 0-forms on R^0" in capsys.readouterr().err
    assert run(["homotopy", "--n", "0", "--r", "0", "--k", "0"]) == 0


def test_format_only_where_honoured(capsys):
    for argv in (["describe", "--family", "P", "--n", "2", "--r", "1", "--k", "0",
                  "--format", "tsv"],
                 ["verify-all", "--format", "tsv"],
                 ["homotopy", "--n", "2", "--r", "1", "--k", "1", "--trials", "1"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
    assert run(["homotopy", "--n", "2", "--r", "1", "--k", "1",
                "--format", "tsv"]) == 0


@pytest.mark.parametrize("argv", [
    ["verify-all", "--out", "{file}"],
    ["describe", "--family", "P", "--n", "2", "--r", "1", "--k", "0",
     "--out", "{missing}/x.json"],
    ["homotopy", "--n", "2", "--r", "1", "--k", "1", "--out", "{missing}/h.jsonl"],
], ids=["verify-all-onto-a-file", "describe-into-a-missing-dir",
        "homotopy-into-a-missing-dir"])
def test_unwritable_out_exits_2(monkeypatch, capsys, tmp_path, argv):
    (tmp_path / "file").write_text("")
    # an unwritable directory is refused before the suite runs
    monkeypatch.setattr(verify, "full_suite", lambda: pytest.fail("the suite ran"))
    argv = [a.format(file=tmp_path / "file", missing=tmp_path / "missing")
            for a in argv]
    assert main_exit_code(monkeypatch, argv) == 2
    assert "error: cannot write" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["dims", "--family", "bogus", "--n", "2", "--r", "1", "--k", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["no-such-verb"])
    assert err.value.code == 2
