"""The package's surface: the top-level names are exactly what the README
and the benchmark import, the README's example runs, and every function,
class and method in `src/coxcent/` is named by the package outside its
definition, by the benchmark or by the README."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import coxcent

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxcent"

# Names the dead-name guard allows with no caller outside the tests.
TEST_ONLY = {
    "canonical_gamma": "the acceptance tests compare gamma labels with it",
    "is_involution": "the tests use it as a helper",
}


def _readme_python_block() -> str:
    text = (ROOT / "README.md").read_text()
    library = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def _names_imported_from_coxcent(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "coxcent":
            names.update(alias.name for alias in node.names)
    # `from coxcent import cli` imports a submodule, not a package export
    return {n for n in names if importlib.util.find_spec(f"coxcent.{n}") is None}


def test_all_is_what_the_readme_and_the_benchmark_import():
    used = _names_imported_from_coxcent(_readme_python_block())
    used |= _names_imported_from_coxcent((ROOT / "perfbench" / "child.py").read_text())
    assert len(coxcent.__all__) == len(set(coxcent.__all__))
    assert set(coxcent.__all__) == used
    for name in coxcent.__all__:
        assert getattr(coxcent, name) is not None


def test_readme_example_prints_one_line_per_class():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_readme_python_block(), namespace)
    lines = out.getvalue().splitlines()
    classes = namespace["classes"]
    assert len(lines) == len(classes) > 1
    for line, cls in zip(lines, classes):
        assert line.startswith(f"{cls.degree} {cls.label} ")


def _definitions(tree):
    """(name, first line, last line) of the header of every function, class
    and method: decorators and signature, up to the first line of the body.
    Dunders are left out: the language calls those."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, max(node.lineno, node.body[0].lineno - 1)


def test_every_definition_is_named_outside_its_headers():
    """A name counts as used when it occurs in the package outside the
    headers that define it, or anywhere in the benchmark or the README.
    Every header of the name is blanked, so two unused methods of one name
    do not name each other."""
    sources = {p: p.read_text().splitlines() for p in sorted(PACKAGE.glob("*.py"))}
    headers: dict[str, list[tuple[Path, int, int]]] = {}
    for path, lines in sources.items():
        for name, first, last in _definitions(ast.parse("\n".join(lines))):
            headers.setdefault(name, []).append((path, first, last))
    elsewhere = "\n".join(
        p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))
    ) + (ROOT / "README.md").read_text()

    unnamed = []
    for name, defs in sorted(headers.items()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if name in TEST_ONLY or word.search(elsewhere):
            continue
        blanked = {path: list(lines) for path, lines in sources.items()}
        for path, first, last in defs:
            blanked[path][first - 1 : last] = [""] * (last - first + 1)
        if not any(word.search("\n".join(lines)) for lines in blanked.values()):
            unnamed.append(f"{name} ({', '.join(p.name for p, _, _ in defs)})")
    assert not unnamed, "named nowhere outside their headers: " + "; ".join(unnamed)
    assert set(TEST_ONLY) <= set(headers), "an exception names no definition"
