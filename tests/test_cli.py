"""The command-line surface: exit codes, artifacts, filters."""

from __future__ import annotations

import json

import pytest

from coxcent import cli, structure
from coxcent.coxtype import CoxeterType
from coxcent.rootsys import DEFAULT_MAX_RANK


def run(argv) -> int:
    return cli.main(argv)


def test_analyze_writes_both_artifacts(tmp_path):
    assert run(["analyze", "--type", "H3", "--out", str(tmp_path)]) == 0
    csv_text = (tmp_path / "H3.csv").read_text()
    doc = json.loads((tmp_path / "H3.json").read_text())
    assert csv_text.count("\n") == 5  # header + 4 classes
    assert len(doc["classes"]) == 4


def test_analyze_stdout_formats(capsys):
    assert run(["analyze", "--type", "A", "--rank", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3  # header + 2 rows
    assert run(["analyze", "--type", "A", "--rank", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["degree"] for c in doc["classes"]] == [0, 1]


def test_verify_ok_and_rows_compared(capsys):
    assert run(["verify", "--type", "F4"]) == 0
    out = capsys.readouterr().out
    assert "ok (6 rows compared)" in out


def test_verify_mismatch_exit_code(tmp_path, capsys):
    # a fixture with one wrong cell must be reported and exit 1
    from coxcent.tables import load_fixture

    fixture = load_fixture()
    fixture["tables"]["H3"]["rows"][1]["gamma"] = "9"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fixture))
    code = run(["verify", "--type", "H3", "--fixtures", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "gamma" in out


def test_usage_errors():
    assert run(["analyze", "--type", "B"]) == 3  # missing rank
    assert run(["analyze", "--type", "I2"]) == 3  # missing m
    assert run(["analyze", "--type", "B", "--rank", "99"]) == 3  # capability
    assert run(["verify", "--type", "E8"]) == 3  # gated without --large
    assert run(["analyze"]) == 3  # no type at all


def test_dihedral_m_over_bound_is_capability_error(capsys):
    from coxcent.rootsys import MAX_DIHEDRAL_M

    assert run(["analyze", "--type", "I2", "--m", str(MAX_DIHEDRAL_M + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capability error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "rank,max_rank", [(DEFAULT_MAX_RANK + 1, None), (3, 2)]
)
def test_rank_over_max_rank_is_capability_error(capsys, rank, max_rank):
    # --max-rank defaults to the library's bound, and lowers it when given
    argv = ["analyze", "--type", "B", "--rank", str(rank)]
    if max_rank is not None:
        argv += ["--max-rank", str(max_rank)]
    assert run(argv) == 3
    bound = DEFAULT_MAX_RANK if max_rank is None else max_rank
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"capability error: rank {rank} of family B "
        f"exceeds the supported bound {bound}\n"
    )


@pytest.mark.parametrize("family", ["A", "B", "D"])
def test_verify_checks_the_rank_before_the_closed_form_rows(monkeypatch, capsys, family):
    # the closed-form rows of a large rank take long to compute: `verify`
    # refuses the rank as `analyze` does, before it reads them
    from coxcent import tables

    def unreachable(*args):
        raise AssertionError("closed-form rows computed before the rank check")

    monkeypatch.setattr(tables, "predicted_rows", unreachable)
    argv = ["--type", family, "--rank", str(DEFAULT_MAX_RANK + 1)]
    assert run(["analyze", *argv]) == 3
    refused = capsys.readouterr()
    assert run(["verify", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == refused.err
    assert captured.err.startswith("capability error:") and captured.err.count("\n") == 1


def test_verify_all_wiring(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ALL_SMALL", [("A", 2), ("I", 5)])
    assert run(["verify", "--all", "--skip-large"]) == 0
    out = capsys.readouterr().out
    assert "A2: ok" in out and "I2(5): ok" in out


def test_theorems_report(tmp_path, capsys):
    code = run(["theorems", "--type", "A", "--rank", "3", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "theorems_A3.json").read_text())
    assert doc["violations"] == 0
    names = {c["name"] for c in doc["checks"]}
    assert {"1.1", "2.1b", "2.1c", "2.3", "2.4", "2.5", "2.7", "2.8", "2.9", "3.2", "3.3", "1.2"} <= names


def test_theorems_check_filter(capsys):
    assert run(["theorems", "--type", "E6", "--check", "3.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] and all(c["name"] == "3.3" for c in doc["checks"])
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_theorems_gamma_report_for_d5(capsys):
    # The gamma channel reports each class quotient; in D5 they are all of
    # order at most 2, and the case-(iv) classes show the extra C2 factor
    # only through their printed label.
    assert run(["theorems", "--type", "D", "--rank", "5", "--check", "gamma"]) == 0
    doc = json.loads(capsys.readouterr().out)
    orders = {row["label"]: row["gamma_order"] for row in doc["gamma"]}
    assert orders["2,1,1"] == 2
    assert max(orders.values()) == 2


def test_theorems_gamma_report_for_d7(capsys):
    assert run(["theorems", "--type", "D", "--rank", "7", "--check", "gamma"]) == 0
    doc = json.loads(capsys.readouterr().out)
    structures = {row["label"]: row["gamma_structure"] for row in doc["gamma"]}
    assert structures["2,1,2"] == "C2xC2"


def test_degenerate_type_inputs_exit_3():
    assert run(["analyze", "--type", "I2", "--m", "2"]) == 3
    assert run(["analyze", "--type", "A", "--rank", "0"]) == 3
    assert run(["analyze", "--type", "D", "--rank", "-1"]) == 3


def test_theorems_violation_exit_code(monkeypatch, capsys):
    from coxcent import cli as climod
    from coxcent.structure import CheckResult

    monkeypatch.setattr(
        climod,
        "run_property_suite",
        lambda group, classes, profiles=None: [CheckResult("2.3", "stub", "fail", "forced")],
    )
    assert run(["theorems", "--type", "A", "--rank", "2"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == 1


def test_mirror_check_failure(monkeypatch, tmp_path, capsys):
    # a mirrored class whose size contradicts its source's centralizer order:
    # `theorems` reports a failed "mirror" row in a written report, while
    # `analyze`, which has no report to carry it, stops with a violation
    from coxcent import involutions, tables
    from oracles import with_fields

    def tampered(group):
        classes = involutions.enumerate_involution_classes(group)
        k = next(k for k, c in enumerate(classes) if c.mirror_of is not None)
        classes[k] = with_fields(classes[k], size=2 * classes[k].size)
        return classes

    monkeypatch.setattr(cli, "enumerate_involution_classes", tampered)
    monkeypatch.setattr(tables, "enumerate_involution_classes", tampered)
    assert run(["theorems", "--type", "B", "--rank", "3", "--out", str(tmp_path)]) == 2
    doc = json.loads((tmp_path / "theorems_B3.json").read_text())
    mirror = [c["status"] for c in doc["checks"] if c["name"] == "mirror"]
    assert mirror.count("fail") == 1 and "pass" in mirror
    assert doc["violations"] == 1
    capsys.readouterr()
    assert run(["analyze", "--type", "B", "--rank", "3", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "B3.csv").exists()
    assert "centralizers of u and -u differ" in capsys.readouterr().err


def test_doubled_class_size_fails_check_1_1(monkeypatch, tmp_path, capsys):
    # a class size twice the true one halves |G| / |class|, which the
    # paper's generators overshoot: `theorems` reports a failed 1.1 row,
    # and `analyze`, whose rows rest on the same orders, stops naming the
    # first check that reads them
    from coxcent import involutions, tables
    from oracles import with_fields

    def tampered(group):
        classes = involutions.enumerate_involution_classes(group)
        k = next(k for k, c in enumerate(classes) if c.degree == 1)
        classes[k] = with_fields(classes[k], size=2 * classes[k].size)
        return classes

    monkeypatch.setattr(cli, "enumerate_involution_classes", tampered)
    monkeypatch.setattr(tables, "enumerate_involution_classes", tampered)
    argv = ["--type", "A", "--rank", "3", "--out", str(tmp_path)]
    assert run(["theorems", *argv]) == 2
    doc = json.loads((tmp_path / "theorems_A3.json").read_text())
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert ("1.1", "A3 deg 1/a=2", "|G+| |G-| |N| = 4, |G| / |class| = 2") in [
        (c["name"], c["subject"], c["detail"]) for c in failed
    ]
    assert "2.1b" in {c["name"] for c in failed}
    capsys.readouterr()
    assert run(["analyze", *argv]) == 2
    assert capsys.readouterr().err == (
        "internal check violation: check 2.9 failed on A3 deg 1/a=2 side -: "
        "reflection subgroup order 2, projection order 1\n"
    )
    assert not (tmp_path / "A3.csv").exists()


def _label_check_1_2_rejects(monkeypatch):
    from coxcent.permengine import StructureLabel

    label = StructureLabel("sym_x_c2", 3, 12)
    monkeypatch.setattr(structure, "fingerprint", lambda handle: label)


def _projection_check_2_9_rejects(monkeypatch):
    real = structure.tilde_side

    def tilde_side(group, u, side):
        if side == "+" and group.degree(u) == 2:
            return CoxeterType.trivial()
        return real(group, u, side)

    monkeypatch.setattr(structure, "tilde_side", tilde_side)


@pytest.mark.parametrize(
    "fault, name",
    [(_label_check_1_2_rejects, "1.2"), (_projection_check_2_9_rejects, "2.9")],
    ids=["1.2", "2.9"],
)
def test_check_broken_while_a_class_is_built(monkeypatch, tmp_path, capsys, fault, name):
    # a Gamma label or a projection order that breaks its check still builds
    # the class: `theorems` writes the report with the check failed, and
    # `analyze` stops with one line naming the check
    fault(monkeypatch)
    argv = ["--type", "B", "--rank", "4", "--out", str(tmp_path)]
    assert run(["theorems", *argv]) == 2
    doc = json.loads((tmp_path / "theorems_B4.json").read_text())
    assert "fail" in {c["status"] for c in doc["checks"] if c["name"] == name}
    assert doc["violations"] > 0
    capsys.readouterr()
    assert run(["analyze", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"check {name} failed on B4 deg 2/0,0,2" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "B4.csv").exists()


def test_gamma_order_reaches_analyze_and_verify(monkeypatch, tmp_path, capsys):
    # Sym3 in place of Sym2 passes check 1.2, which reads Gamma's kind, and
    # leaves every verify row equal, since the printed gamma column comes
    # from the class label; the order identities 2.1b and 2.5 catch it
    real = structure.fingerprint

    def fingerprint(handle):
        label = real(handle)
        return label._replace(r=3, order=6) if (label.kind, label.r) == ("sym", 2) else label

    monkeypatch.setattr(structure, "fingerprint", fingerprint)
    argv = ["--type", "B", "--rank", "5"]
    assert run(["analyze", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "internal check violation: check 2.1b failed on B5 deg 2/0,1,2: "
        "|G1|=10 |G+|=8 |G-|=4\n"
    )
    assert not (tmp_path / "B5.csv").exists()
    assert run(["verify", *argv]) in (1, 2)


# A3 compares against its closed form, yet a --fixtures file is read
FIXTURE_TYPES = [["--type", "H3"], ["--type", "A", "--rank", "3"]]


def test_missing_fixture_file_is_usage_error(capsys):
    for type_args in FIXTURE_TYPES:
        assert run(["verify", *type_args, "--fixtures", "/nonexistent/f.json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("io error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--type", "E6", "--rank", "9"],
        ["theorems", "--type", "I2", "--m", "5", "--rank", "2"],
        ["verify", "--type", "A", "--rank", "3", "--m", "5"],
        ["analyze", "--type", "F4", "--m", "5"],
        ["verify", "--all", "--type", "E6"],
        ["verify", "--all", "--rank", "3"],
        ["verify", "--all", "--m", "5"],
    ],
)
def test_ignored_flags_are_usage_errors(argv, capsys):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


def test_malformed_fixture_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tables": ')
    for type_args in FIXTURE_TYPES:
        assert run(["verify", *type_args, "--fixtures", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fixture error:") and "not valid JSON" in err
        assert err.count("\n") == 1


def test_fixture_file_not_in_utf8_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for type_args in FIXTURE_TYPES:
        assert run(["verify", *type_args, "--fixtures", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("fixture error:")


@pytest.mark.parametrize(
    "field,value",
    [
        ("degree", [1]),
        ("classes", "1"),
        ("class_size", True),
        ("labels", "a=2"),
        ("labels", [1]),
        ("gamma", 1),
    ],
)
def test_fixture_row_of_the_wrong_type_is_usage_error(tmp_path, capsys, field, value):
    # a wrongly typed cell is a bad fixture (exit 3), not a mismatch (exit 1)
    from coxcent.tables import load_fixture

    fixture = load_fixture()
    fixture["tables"]["H3"]["rows"][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fixture))
    assert run(["verify", "--type", "H3", "--fixtures", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("fixture error:") and "H3" in captured.err


def test_fixture_without_the_table_is_usage_error(tmp_path, capsys):
    from coxcent.tables import load_fixture

    fixture = load_fixture()
    del fixture["tables"]["H3"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(fixture))
    assert run(["verify", "--type", "H3", "--fixtures", str(partial)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fixture error:") and "H3" in err
    assert err.count("\n") == 1


def test_verify_parses_the_fixture_once(monkeypatch, tmp_path, capsys):
    # every fixture type of `verify --all --large` reads one parsed file
    from coxcent import tables

    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(tables.load_fixture()))
    parses = []

    def counted(path=None):
        parses.append(path)
        return real(path)

    real = tables.load_fixture
    monkeypatch.setattr(tables, "load_fixture", counted)
    monkeypatch.setattr(cli, "load_fixture", counted)
    assert run(["verify", "--all", "--large", "--fixtures", str(fixture)]) == 0
    assert "E8: ok" in capsys.readouterr().out
    assert parses == [str(fixture)]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--type", "Z"],
        ["analyze", "--type", "B", "--rank", "x"],
        ["frobnicate"],
        [],
        ["verify", "--type", "H3", "--bogus"],
    ],
)
def test_argparse_errors_exit_3(argv, capsys):
    # returned, not raised as SystemExit; status 2 means a check violation
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["theorems", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_theorems_unknown_check_is_usage_error(capsys):
    assert run(["theorems", "--type", "A", "--rank", "2", "--check", "9.9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    for name in ("1.1", "1.2", "2.1b", "2.1c", "2.3", "2.4", "2.5", "2.7", "2.8",
                 "2.9", "3.2", "3.3", "mirror", "gamma"):
        assert f"'{name}'" in captured.err


def test_theorems_builds_each_class_once(monkeypatch, capsys):
    from coxcent import structure
    from coxcent.coxtype import CoxeterType
    from coxcent.group import CoxeterGroup
    from coxcent.involutions import enumerate_involution_classes

    classes = enumerate_involution_classes(CoxeterGroup(CoxeterType([("B", 4)])))
    own = [c for c in classes if c.mirror_of is None]
    assert 0 < len(own) < len(classes)  # B4 contains -1: some classes mirror
    built = []
    original = structure._compute_class_data

    def counting(group, cls):
        built.append((cls.degree, cls.label))
        return original(group, cls)

    monkeypatch.setattr(structure, "_compute_class_data", counting)
    assert run(["theorems", "--type", "B", "--rank", "4"]) == 0
    assert sorted(built) == sorted((c.degree, c.label) for c in own)
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["gamma"]) == len(classes)


def test_analyze_e8_gated(capsys):
    assert run(["analyze", "--type", "E8"]) == 3
    assert "--large" in capsys.readouterr().err
