"""The package exports only what the program itself reaches.

Each name ``contextprob/__init__.py`` imports must be used by some module of
the package outside its own definition and its import lines, or be named by
the benchmark (``bench/*.py``, whose tracer names its targets as strings).
A name that only its own tests reach fails here: it is surface to delete,
or to put to use in a command or a ``verify`` check.  The files are read,
not imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contextprob"
BENCH = ROOT / "bench"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_names(tree: ast.Module) -> set[str]:
    """The names and attributes a module reads.  Import lines hold aliases
    and a definition holds its name as a string, so neither counts; the
    uses inside a top-level definition of a name do not count for it."""
    used = set()
    for stmt in tree.body:
        inside = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            inside.discard(stmt.name)
        used |= inside
    return used


def bench_names() -> set[str]:
    """Every identifier in the benchmark's code and string constants."""
    named = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(re.findall(r"\w+", node.value))
    return named


def test_every_export_is_used_by_the_package_or_the_benchmark():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(ast.parse(path.read_text()))
    unused = exported_names() - used - bench_names()
    assert sorted(unused) == []


# the records of the dichotomous chain: each field is a fact some reader needs
SLIM_RECORDS = (
    "InterferenceCoefficients", "PhaseAssignment", "GlobalPhaseReport",
    "SplitDecomposition",
)


def record_fields() -> dict[str, list[str]]:
    """The annotated fields of each record in :data:`SLIM_RECORDS`, from the
    class bodies of the package."""
    fields = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in SLIM_RECORDS:
                fields[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                ]
    return fields


def attributes_read() -> set[str]:
    """Every attribute the package and the benchmark read."""
    read = set()
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
        read.update(
            node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return read


def test_every_record_field_is_read():
    """A field of the coefficient, phase, offset or split record that
    neither the package nor the benchmark reads is a fact stored for
    nothing: delete it, or read it."""
    fields = record_fields()
    assert sorted(fields) == sorted(SLIM_RECORDS)
    read = attributes_read()
    unread = [
        f"{name}.{field}"
        for name, names in sorted(fields.items())
        for field in names
        if field not in read
    ]
    assert unread == []
