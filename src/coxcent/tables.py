"""Reference tables, computed tables, and the comparison between them.

The fixed exceptional types and A1 carry a pinned fixture file; the
classical families and the dihedral types generate their expected rows
from the closed-form models of `classicmodels`.  Comparison happens at
printed-row granularity: classes of one degree with identical profile
columns share a row (the two reflection classes of F4, for instance).
"""

from __future__ import annotations

import io
import json
from importlib import resources
from typing import NamedTuple

from .classicmodels import predicted_rows
from .coxtype import CoxeterType, factored
from .group import CoxeterGroup
from .involutions import InvolutionClass, enumerate_involution_classes, first_cube
from .rootsys import DEFAULT_MAX_RANK
from .structure import CentralizerProfile, profiles_for_group

SCHEMA_VERSION = 1

CSV_HEADER = [
    "type",
    "degree",
    "label",
    "order_factored",
    "Gminus",
    "TildeGminus",
    "Gplus",
    "TildeGplus",
    "gamma",
]


class TableRow(NamedTuple):
    degree: int
    labels: tuple[str, ...]
    classes: int
    class_size: int
    order: str
    g_minus: str
    tilde_g_minus: str
    g_plus: str
    tilde_g_plus: str
    gamma: str

    def key(self):
        return (self.degree, self.labels)


class FixtureError(ValueError):
    """A reference table file that is not valid JSON or lacks a table."""


def load_fixture(path=None) -> dict:
    try:
        if path is None:
            text = (
                resources.files("coxcent.data")
                .joinpath("expected_tables.json")
                .read_text()
            )
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except ValueError as exc:  # UnicodeDecodeError included
        raise FixtureError(f"{path} is not valid JSON: {exc}") from exc


def _fixture_rows(table: dict) -> list[TableRow]:
    """A fixture table's rows.  A field of the wrong type raises TypeError:
    ints for the counts, a list of strings for the labels, else strings."""
    rows, counts = [], ("degree", "classes", "class_size")
    for r in table["rows"]:
        fields = {f: r[f] for f in TableRow._fields}
        labels = fields.pop("labels")
        if type(labels) is not list or any(type(x) is not str for x in labels) or any(
            type(v) is not (int if f in counts else str) for f, v in fields.items()
        ):
            raise TypeError("a fixture row has a field of the wrong type")
        rows.append(TableRow(labels=tuple(labels), **fields))
    return rows


def _type_columns(p) -> tuple[str, ...]:
    """The order and the four type columns of a profile, as printed."""
    return (
        factored(p.order),
        str(p.minus_type),
        str(p.tilde_minus_type),
        str(p.plus_type),
        str(p.tilde_plus_type),
    )


def _bucket_rows(entries) -> list[TableRow]:
    """Merge (label, degree, class size, profile, gamma) entries into
    printed rows: classes of one degree with identical columns share a row."""
    buckets: dict[tuple, list[str]] = {}
    for label, degree, size, p, gamma in entries:
        key = (degree, size, *_type_columns(p), gamma)
        buckets.setdefault(key, []).append(label)
    rows = [
        TableRow(key[0], tuple(sorted(labels)), len(labels), *key[1:])
        for key, labels in buckets.items()
    ]
    return sorted(rows, key=TableRow.key)


def expected_rows(
    ctype: CoxeterType, fixture_path=None, fixture: dict | None = None
) -> list[TableRow]:
    """The reference table for an irreducible type.  `fixture` is the
    parsed content of `fixture_path`, read here when not given."""
    family, n = ctype.components[0]
    if family == "G":
        family, n = "I", 6
    if family in ("A", "B", "D", "I") and (family, n) != ("A", 1):
        return _bucket_rows(
            (p.label, p.degree, p.class_size, p, p.gamma_printed)
            for p in predicted_rows(family, n)
        )
    if fixture is None:
        fixture = load_fixture(fixture_path)
    try:
        return _fixture_rows(fixture["tables"][str(ctype)])
    except (KeyError, TypeError) as exc:
        source = fixture_path or "the embedded tables"
        raise FixtureError(f"{source} has no valid table for {ctype}") from exc


def printed_gamma(group: CoxeterGroup, profile: CentralizerProfile) -> str:
    """The gamma column in each family's table convention."""
    family, n = group.ctype.components[0]
    cls = profile.cls
    if family == "A" and n >= 2:
        return str(cls.degree)
    if family in ("B", "D"):
        a, a_fixed, b = cls.label.rstrip("+-").split(",")
        if family == "D" and int(a) > 0 and int(a_fixed) > 0:
            return f"{b},2"
        return b
    label = profile.gamma_structure
    return str(label.r) if label.kind == "sym" and label.r >= 2 else "1"


def computed_rows(
    group: CoxeterGroup,
    profiles: list[CentralizerProfile],
) -> list[TableRow]:
    """Merge per-class profiles into printed-row granularity."""
    return _bucket_rows(
        (p.cls.label, p.cls.degree, p.cls.size, p, printed_gamma(group, p))
        for p in profiles
    )


class RowDiff(NamedTuple):
    key: tuple
    column: str
    expected: object
    computed: object


def compare_rows(
    expected: list[TableRow], computed: list[TableRow]
) -> list[RowDiff]:
    diffs: list[RowDiff] = []
    exp = {r.key(): r for r in expected}
    got = {r.key(): r for r in computed}
    for key in sorted(set(exp) - set(got)):
        diffs.append(RowDiff(key, "row", "present", "missing"))
    for key in sorted(set(got) - set(exp)):
        diffs.append(RowDiff(key, "row", "missing", "present"))
    columns = (
        "class_size",
        "classes",
        "order",
        "g_minus",
        "tilde_g_minus",
        "g_plus",
        "tilde_g_plus",
        "gamma",
    )
    for key in sorted(set(exp) & set(got)):
        for col in columns:
            e = getattr(exp[key], col)
            c = getattr(got[key], col)
            if e != c:
                diffs.append(RowDiff(key, col, e, c))
    return diffs


# -- analysis artifacts -------------------------------------------------------------


class Analysis(NamedTuple):
    group: CoxeterGroup
    classes: list[InvolutionClass]
    profiles: list[CentralizerProfile]


def analyze(ctype: CoxeterType, max_rank: int = DEFAULT_MAX_RANK) -> Analysis:
    group = CoxeterGroup(ctype, max_rank=max_rank)
    classes = enumerate_involution_classes(group)
    profiles = profiles_for_group(group, classes)
    return Analysis(group, classes, profiles)


def class_csv(analysis: Analysis) -> str:
    import csv  # only the CSV of `analyze` reads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    name = str(analysis.group.ctype)
    for p in analysis.profiles:
        writer.writerow(
            [
                name,
                p.cls.degree,
                p.cls.label,
                *_type_columns(p),
                printed_gamma(analysis.group, p),
            ]
        )
    return buf.getvalue()


def class_json(analysis: Analysis) -> str:
    group = analysis.group
    rows = []
    for p in analysis.profiles:
        rep_word = list(first_cube(group, p.cls.rep))
        rows.append(
            {
                "degree": p.cls.degree,
                "label": p.cls.label,
                "class_size": p.cls.size,
                "order": p.order,
                "order_factored": factored(p.order),
                "g_minus": str(p.minus_type),
                "tilde_g_minus": str(p.tilde_minus_type),
                "g_plus": str(p.plus_type),
                "tilde_g_plus": str(p.tilde_plus_type),
                "gamma": printed_gamma(group, p),
                "gamma_structure": str(p.gamma_structure),
                "gamma_order": p.gamma_structure.order,
                "representative": rep_word,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": str(group.ctype),
        "group_order": group.order,
        "group_order_factored": factored(group.order),
        "classes": rows,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def verify_type(
    ctype: CoxeterType,
    fixture_path=None,
    max_rank: int = DEFAULT_MAX_RANK,
    fixture: dict | None = None,
) -> tuple[list[TableRow], list[RowDiff]]:
    """The reference rows of a type and their differences from the
    computed rows.  The group is built first, so a rank above `max_rank`
    fails before the closed-form rows are computed; the reference is read
    next, so a bad fixture fails before any class is computed."""
    group = CoxeterGroup(ctype, max_rank=max_rank)
    expect = expected_rows(ctype, fixture_path, fixture)
    profiles = profiles_for_group(group, enumerate_involution_classes(group))
    return expect, compare_rows(expect, computed_rows(group, profiles))


def diff_report(ctype: CoxeterType, diffs: list[RowDiff]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": str(ctype),
        "match": not diffs,
        "diffs": [
            {
                "row": {"degree": d.key[0], "labels": list(d.key[1])},
                "column": d.column,
                "expected": str(d.expected),
                "computed": str(d.computed),
            }
            for d in diffs
        ],
    }
