"""Acceptance criteria, one test per criterion (plus two literal-value
assertions kept faithful to the published source tables even though the
computation, the internal cross-checks and the rest of this suite show the
computed values are the consistent ones; the docstrings below carry the
analysis).

Each test prints a single summary line; `pytest -v` shows one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import coxcent
from coxcent.classicmodels import predicted_rows
from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.perms import compose
from coxcent.structure import (
    lines_with_negatives,
    reflection_subgroup_type,
    run_property_suite,
)
from coxcent.tables import verify_type
from oracles import canonical_gamma


def _verify_clean(family, n):
    expect, diffs = verify_type(CoxeterType([(family, n)]))
    assert diffs == [], (family, n, [(d.key, d.column, d.expected, d.computed) for d in diffs])
    return len(expect)


def test_criterion_1_small_exceptional_tables():
    """H3, H4, F4 and E6 reference tables reproduce exactly."""
    t0 = time.time()
    rows = {}
    for family, n in [("H", 3), ("H", 4), ("F", 4), ("E", 6)]:
        rows[f"{family}{n}"] = _verify_clean(family, n)
    elapsed = time.time() - t0
    assert rows == {"H3": 4, "H4": 5, "F4": 6, "E6": 5}
    print(f"criterion 1: H3/H4/F4/E6 tables exact in {elapsed:.1f}s")


def test_criterion_1_literal_e6_deg2_projection(cache):
    """Literal source value for the E6 degree-2 plus-side projection type.

    The printed table says A1xA3.  Exhaustive restriction of the order-192
    centralizer to V+ gives a 48-element image with 9 reflection lines that
    fixes a line of V+ pointwise, which a rank-4 group cannot do; the
    projection is B3 (every neighbouring row matches the printed tables).
    This assertion keeps the printed value on record and fails honestly.
    """
    p = next(q for q in cache.profiles("E", 6) if q.cls.degree == 2)
    assert str(p.tilde_plus_type) == "A1xA3", (
        f"computed {p.tilde_plus_type}; the printed A1xA3 is refuted by the "
        "pointwise-fixed line of the projection"
    )


def test_criterion_2_e7_table(cache):
    """All 10 E7 rows, with the degree-3/4 splits and class sizes 315/3780."""
    t0 = time.time()
    n_rows = _verify_clean("E", 7)
    classes = cache.classes("E", 7)
    sizes = {(c.degree, c.label): c.size for c in classes}
    assert n_rows == 10
    assert sizes[(3, "droite")] == 315
    assert sizes[(3, "triangle")] == 3780
    assert sizes[(4, "droite")] == 315
    assert sizes[(4, "triangle")] == 3780
    print(f"criterion 2: E7 table exact in {time.time() - t0:.1f}s")


def test_criterion_3_e8_table():
    """All 10 E8 rows including the rectangle/tetrahedron split."""
    t0 = time.time()
    expect, diffs = verify_type(CoxeterType.irreducible("E", 8))
    assert diffs == []
    assert len(expect) == 10
    labels = {tuple(r.labels) for r in expect if r.degree == 4}
    assert labels == {("rectangle",), ("tetraedre",)}
    print(f"criterion 3: E8 table exact in {time.time() - t0:.1f}s")


def test_criterion_4_classical_families(cache):
    """Engine profiles equal the closed-form model for A/B/D up to rank 7."""
    t0 = time.time()
    checked = 0
    targets = (
        [("A", r) for r in range(1, 7)]
        + [("B", r) for r in range(2, 8)]
        + [("D", r) for r in range(4, 8)]
    )
    for family, n in targets:
        predictions = {p.label: p for p in predicted_rows(family, n)}
        profiles = cache.profiles(family, n)
        assert len(profiles) == len(predictions), (family, n)
        for prof in profiles:
            pred = predictions[prof.cls.label]
            assert prof.order == pred.order, (family, n, prof.cls.label)
            assert prof.cls.size == pred.class_size
            assert prof.cls.degree == pred.degree
            assert prof.minus_type == pred.minus_type
            assert prof.tilde_minus_type == pred.tilde_minus_type
            assert prof.plus_type == pred.plus_type
            assert prof.tilde_plus_type == pred.tilde_plus_type
            engine_gamma = (prof.gamma_structure.kind, prof.gamma_structure.r)
            assert engine_gamma == canonical_gamma(pred.gamma_kind, pred.gamma_r)
            checked += 1
    # the split pair and the (2,2) quotient really were exercised
    d6_split = [p for p in cache.profiles("D", 6) if p.cls.label.startswith("0,0,3")]
    assert len(d6_split) == 2
    d7_case_iv = next(p for p in cache.profiles("D", 7) if p.cls.label == "2,1,2")
    assert str(d7_case_iv.gamma_structure) == "C2xC2"
    print(
        f"criterion 4: {checked} classical class profiles match the model "
        f"in {time.time() - t0:.1f}s"
    )


def test_criterion_5_involution_census(cache):
    """H4 census by degree and the F4 reflection/degree-2 class data."""
    h4 = [(c.degree, c.size) for c in cache.classes("H", 4)]
    assert h4 == [(0, 1), (1, 60), (2, 450), (3, 60), (4, 1)]
    f4 = cache.classes("F", 4)
    refl = sorted(c.size for c in f4 if c.degree == 1)
    assert refl == [12, 12]
    deg2 = {c.label: c.size for c in f4 if c.degree == 2}
    assert deg2["2"] == 18
    # the mixed class count is pinned by |W(F4)| / |centralizer| = 1152 / 16
    group = cache.group("F", 4)
    assert deg2["2'"] == group.order // 16 == 72
    print("criterion 5: H4 census (1,60,450,60,1); F4 12+12, 18, 72")


def test_criterion_5_literal_f4_mixed_count(cache):
    """Literal source value for the F4 mixed degree-2 class count.

    The printed count is 2^2 3^2 = 36, but the same table's centralizer
    order 2^4 forces 1152 / 16 = 72, as does the direct count of orthogonal
    short-long line pairs (12 * 6).  This assertion keeps the printed value
    on record and fails honestly.
    """
    deg2 = {c.label: c.size for c in cache.classes("F", 4) if c.degree == 2}
    computed = deg2["2'"]
    assert computed == 36, (
        f"computed {computed}; the printed 36 contradicts the table's own "
        "centralizer order 2^4 (1152 / 16 = 72)"
    )


SUITE_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 8)]
    + [("I", 5), ("I", 7), ("I", 8), ("I", 12)]
    + [("E", 6), ("E", 7), ("F", 4), ("H", 3), ("H", 4)]
)


def test_criterion_6_theorem_suite(cache):
    """Every structural check passes on every class of the covered types."""
    t0 = time.time()
    failures = []
    undetermined = []
    total = 0
    for family, n in SUITE_TYPES:
        group = cache.group(family, n)
        results = run_property_suite(group, cache.classes(family, n))
        total += len(results)
        failures.extend(
            (str(group.ctype), r.name, r.subject, r.detail)
            for r in results
            if r.status == "fail"
        )
        undetermined.extend(
            (str(group.ctype), r.name, r.subject)
            for r in results
            if r.status == "not_determined"
        )
    assert failures == []
    # no check may leave a class undetermined; check 2.4 reads its
    # complement off the positive system instead of searching for one
    assert undetermined == []
    print(
        f"criterion 6: {total} checks on {len(SUITE_TYPES)} types, zero "
        f"violations in {time.time() - t0:.1f}s"
    )


def test_criterion_6_e6_chain(cache):
    plus_types = {p.cls.degree: str(p.plus_type) for p in cache.profiles("E", 6)}
    assert [plus_types[d] for d in range(5)] == ["E6", "A5", "A3", "A1", "1"]


def test_criterion_6_e8_chain():
    """The iterated fixed-line parabolic chain of E8, from root data alone:
    E8 -> E7 -> D6 -> A1xD4 -> {D4, A1^4}."""
    group = CoxeterGroup(CoxeterType.irreducible("E", 8))

    def plus_type(u):
        return str(
            reflection_subgroup_type(
                group, lines_with_negatives(group, group.fixed_lines(u))
            )
        )

    u = group.reflection_perm(group.root_system.highest)
    chain = [plus_type(u)]
    for _ in range(2):
        line = next(l for l in group.lines if u[l] == l)
        u = compose(u, group.reflection_perm(line))
        chain.append(plus_type(u))
    assert chain == ["E7", "D6", "A1xD4"]
    # the degree-4 step branches: both D4 and (A1)^4 occur
    finals = set()
    for line in group.lines:
        if u[line] != line:
            continue
        finals.add(plus_type(compose(u, group.reflection_perm(line))))
        if finals == {"D4", "A1^4"}:
            break
    assert finals == {"D4", "A1^4"}
    print("criterion 6: chains E6->A5->A3->A1->1 and E8->E7->D6->A1xD4->{D4,A1^4}")


def test_criterion_6_e8_property_suite(cache):
    t0 = time.time()
    group = cache.group("E", 8)
    results = run_property_suite(group, cache.classes("E", 8))
    failures = [r for r in results if r.status == "fail"]
    assert failures == []
    assert [r for r in results if r.status == "not_determined"] == []
    print(f"criterion 6: E8 suite, {len(results)} checks, "
          f"zero violations in {time.time() - t0:.1f}s")


def _child_env(seed):
    """Environment for a child run from `cwd="/"` that imports the `coxcent`
    this process imported: its parent directory first, then any existing
    PYTHONPATH entries made absolute, since relative ones stop resolving."""
    here = str(Path(coxcent.__file__).resolve().parent.parent)
    inherited = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join([here, *inherited]))


def _run_child(args, seed):
    proc = subprocess.run(
        [sys.executable, *args], env=_child_env(seed), cwd="/", capture_output=True, text=True
    )
    # The last stderr line leads so that it reaches pytest's one-line summary.
    tail = proc.stderr.splitlines()[-5:] or [""]
    assert proc.returncode == 0, "\n".join([f"child exited {proc.returncode}: {tail[-1]}", *tail])
    return proc.stdout


def _run_analyze(tmp_path, seed, name):
    out = tmp_path / name
    _run_child(["-m", "coxcent", "analyze", "--type", "H4", "--out", str(out)], seed)
    return (out / "H4.csv").read_bytes(), (out / "H4.json").read_bytes()


def test_criterion_7_determinism(tmp_path):
    """Byte-identical artifacts across runs, even under different hash seeds."""
    imported = _run_child(["-c", "import coxcent; print(coxcent.__file__)"], 1).strip()
    assert Path(imported).resolve() == Path(coxcent.__file__).resolve(), (imported, coxcent.__file__)
    a_csv, a_json = _run_analyze(tmp_path, 1, "run1")
    b_csv, b_json = _run_analyze(tmp_path, 2, "run2")
    assert a_csv == b_csv
    assert a_json == b_json
    print("criterion 7: byte-identical artifacts across hash-seed-varied runs")
