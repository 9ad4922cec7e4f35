"""Reference tables, row comparison, and artifact determinism."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from coxcent.coxtype import CoxeterType
from coxcent.tables import (
    CSV_HEADER,
    Analysis,
    analyze,
    class_csv,
    class_json,
    compare_rows,
    computed_rows,
    expected_rows,
    load_fixture,
    verify_type,
)


def _analysis(cache, family, n) -> Analysis:
    return Analysis(
        cache.group(family, n), cache.classes(family, n), cache.profiles(family, n)
    )


def test_fixture_is_self_consistent():
    fixture = load_fixture()
    assert fixture["schema_version"] == 1
    for name, table in fixture["tables"].items():
        ctype = CoxeterType.irreducible(name[0], int(name[1:]))
        order = ctype.order()
        for row in table["rows"]:
            # class sizes multiply back to the group order
            from coxcent.coxtype import factored

            sizes = row["class_size"] * 1
            assert factored(order) == table["order"]
            # |class| * |centralizer| = |G| for each class in the row
            centralizer = order // row["class_size"]
            assert factored(centralizer) == row["order"]
            assert len(row["labels"]) == row["classes"]


def test_expected_rows_dispatch():
    assert len(expected_rows(CoxeterType.irreducible("H", 3))) == 4
    assert len(expected_rows(CoxeterType.irreducible("E", 7))) == 10
    assert len(expected_rows(CoxeterType([("A", 4)]))) == 3
    assert len(expected_rows(CoxeterType([("I", 5)]))) == 2
    assert len(expected_rows(CoxeterType([("I", 8)]))) == 3
    # canonical aliases route to the matching family tables
    assert len(expected_rows(CoxeterType([("I", 4)]))) == 4  # B2 invariants
    assert len(expected_rows(CoxeterType([("I", 6)]))) == 3  # dihedral G2
    assert len(expected_rows(CoxeterType([("D", 3)]))) == 3  # A3 degrees


def test_compare_rows_reports_differences(cache):
    expect = expected_rows(CoxeterType.irreducible("H", 3))
    analysis = _analysis(cache, "H", 3)
    got = computed_rows(analysis.group, analysis.profiles)
    assert compare_rows(expect, got) == []
    # tamper with one column
    tampered = [expect[1]._replace(gamma="7")] + expect[:1] + expect[2:]
    diffs = compare_rows(tampered, got)
    assert len(diffs) == 1
    assert diffs[0].column == "gamma"


def test_table_rows_are_immutable():
    row = expected_rows(CoxeterType.irreducible("H", 3))[1]
    with pytest.raises(AttributeError):
        row.gamma = "7"


def test_a11_rows_match_the_model(cache):
    # the degree-6 class of A11 has the largest reflection quotient the
    # golden set does not reach, Sym6 of order 720
    analysis = _analysis(cache, "A", 11)
    assert any(str(p.gamma_structure) == "Sym6" for p in analysis.profiles)
    got = computed_rows(analysis.group, analysis.profiles)
    assert compare_rows(expected_rows(CoxeterType.irreducible("A", 11)), got) == []


def test_verify_small_types(cache):
    # I2(m) beyond the m that `verify --all` reaches, G2 = I2(6) included
    dihedral = [("I", m) for m in (5, 6, 7, 9, 10, 12, 16, 30, 31, 257)]
    for family, n in dihedral + [("B", 2), ("D", 6)]:
        _, diffs = verify_type(CoxeterType([(family, n)]))
        assert diffs == [], (family, n, diffs)


def test_csv_shape_and_order(cache):
    analysis = _analysis(cache, "H", 3)
    text = class_csv(analysis)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 5
    assert lines[1].startswith("H3,0,,2^3 3 5,1,1,H3,H3,1")


def test_json_schema(cache):
    analysis = _analysis(cache, "F", 4)
    doc = json.loads(class_json(analysis))
    assert doc["schema_version"] == 1
    assert doc["type"] == "F4"
    assert doc["group_order"] == 1152
    assert len(doc["classes"]) == 8
    rec = [c for c in doc["classes"] if c["degree"] == 2 and c["label"] == "2'"]
    assert rec and rec[0]["class_size"] == 72
    for c in doc["classes"]:
        assert len(c["representative"]) == c["degree"]


def test_artifacts_deterministic_in_process(cache):
    a1 = _analysis(cache, "B", 4)
    from coxcent.tables import analyze

    a2 = analyze(CoxeterType.irreducible("B", 4))
    assert class_csv(a1) == class_csv(a2)
    assert class_json(a1) == class_json(a2)


def test_dihedral_analysis_keeps_one_transversal_per_chain_level():
    # the centralizer of u = 1 in I2(512) was once a 1024-point chain; with
    # a forward transversal beside the inverse one on each of its levels,
    # and a copy of the ints in each cached reflection, analyze peaked at
    # 36.6 MB here
    tracemalloc.start()
    try:
        analysis = analyze(CoxeterType.irreducible("I", 512))
        class_csv(analysis)
        class_json(analysis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000
