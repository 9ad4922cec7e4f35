"""The package's surface: the top-level names are exactly what the README
and the benchmark import, the README's example runs, every function,
class and method in `src/coxcent/` is referenced by the package outside
its definition, or named by the benchmark or by the README, and the
command-line entry point loads no rational or decimal arithmetic, nor
`dataclasses` and the `inspect` it imports."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import coxcent

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxcent"


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
    """(name, first line, last line) of every function, class and method,
    from its decorators to the end of its body.  Dunders are left out: the
    language calls those."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _references(tree):
    """(name, line) of every name and attribute the code reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_referenced_outside_its_definitions():
    """A name counts as used when the package references it, as a name or
    an attribute, outside every definition of that name, or when the
    benchmark or the README names it.  A method that only calls its
    namesake on another class therefore uses neither."""
    spans: dict[str, list[tuple[Path, int, int]]] = {}
    references: list[tuple[str, Path, int]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, first, last in _definitions(tree):
            spans.setdefault(name, []).append((path, first, last))
        references.extend((name, path, line) for name, line in _references(tree))
    elsewhere = "\n".join(
        p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))
    ) + (ROOT / "README.md").read_text()

    def outside(name: str, path: Path, line: int) -> bool:
        return not any(
            p == path and first <= line <= last for p, first, last in spans[name]
        )

    used = {
        name
        for name, path, line in references
        if name in spans and outside(name, path, line)
    }
    unreferenced = [
        f"{name} ({', '.join(p.name for p, _, _ in defs)})"
        for name, defs in sorted(spans.items())
        if name not in used
        and not re.search(rf"\b{re.escape(name)}\b", elsewhere)
    ]
    assert not unreferenced, "referenced nowhere outside their definitions: " + "; ".join(
        unreferenced
    )


def _loaded_by_cli_import(*modules: str) -> list[str]:
    """The names among `modules` that a fresh `import coxcent.cli` loads."""
    code = f"import sys, coxcent.cli; print(*sorted(set({modules!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_cli_import_loads_no_rational_arithmetic():
    # root coordinates are ints over Z or Z[phi]; Fraction and the Scalar
    # oracle belong to the tests
    assert _loaded_by_cli_import("fractions", "decimal", "coxcent.scalars") == []


def test_cli_import_loads_no_dataclasses():
    # the records are NamedTuples and plain classes: generating dataclass
    # code costs every process `dataclasses`, `inspect`, `ast` and `dis`
    assert _loaded_by_cli_import("dataclasses", "inspect") == []


def test_cli_import_loads_no_csv():
    # only the CSV that `analyze` writes needs the module
    assert _loaded_by_cli_import("csv") == []


def test_sources_parse_at_the_declared_python_floor():
    # newer syntax fails at the floor's grammar; newer library calls do not
    floor = re.search(
        r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    )
    assert floor is not None
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(
            path.read_text(), str(path), feature_version=(3, int(floor.group(1)))
        )
