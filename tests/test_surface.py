"""The package defines and exports only what the program itself reaches.

Each name ``contextprob/__init__.py`` imports must be used by some module of
the package outside its own definition and its import lines, or be named by
the benchmark (``bench/*.py``, whose tracer names its targets as strings).
So must each name defined at the top of any package module.  A name that
only its own tests reach fails here: it is surface to delete, or to put to
use in a command or a ``verify`` check.  The files are read, not imported.
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


def defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {
            n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
        }
    return set()


def test_every_module_level_name_is_read_elsewhere():
    """Each function, class or assigned name at the top of a package module
    is read by another statement of the package, or is named by the
    benchmark; dunder names are the language's."""
    statements = [
        stmt
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    reads = [
        used_names(ast.Module(body=[stmt], type_ignores=[])) for stmt in statements
    ]
    named = bench_names()
    unread = sorted(
        name
        for k, stmt in enumerate(statements)
        for name in defined_names(stmt)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named
        and not any(name in r for i, r in enumerate(reads) if i != k)
    )
    assert unread == []
