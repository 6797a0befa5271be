"""The benchmark's tracer and worker name only what the package defines,
and its oracle agrees with every command on the tests/data models.

A traced benchmark round (``bench/run.py --trace 1``) wraps each
``(module, attr)`` of ``TARGETS`` in ``bench/spans.py`` by name, a
``Class.method`` from the class ``__dict__``; a target the package no longer
defines breaks that round, and no other test would notice.  The worker,
``bench/worker.py``, imports its commands and, in traced runs only, the
verify suites from the package, and ``bench/reference.py`` times library
calls through the ``cp.*`` names of ``import contextprob as cp`` and
through ``contextprob.verify``; a rename or a changed signature there would
break the benchmark as silently.  The benchmark accepts a command's output
only where ``bench/oracle.py``, which recomputes every checked quantity from
raw weight sums, finds no disagreement; ``verify`` must report the exact
set of check ids and statuses it expects, and those follow the oracle's own
double stochastic reading, so the program's decision must agree with it on
every benchmark workload.  These tests read the files and write nothing
under ``bench/``.
"""

import ast
import importlib
import inspect
import json
import types
from itertools import product
from pathlib import Path

import pytest

import contextprob as cp
from contextprob.cli import main
from contextprob.models import model_from_dict

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.py"
ORACLE = BENCH / "oracle.py"
GEN = BENCH / "gen.py"
DATA = Path(__file__).resolve().parent / "data"
STEMS = ("atlas8", "random_ds_seed7", "random_3x3_seed4")


def load_script(path: Path) -> types.ModuleType:
    """A script of ``bench/`` run from its source text, so that no bytecode
    cache is written beside it."""
    module = types.ModuleType(path.stem)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_every_tracer_target_resolves():
    spans = load_script(SPANS)
    missing = []
    for label, targets in spans.TARGETS.items():
        for module_name, attr in targets:
            module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and method in vars(cls)
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append((label, module_name, attr))
    assert missing == []


def package_uses(tree: ast.Module, package: str):
    """The package names a module's source reaches: ``{local name: (module,
    attribute)}`` for each ``from package.module import attribute``, and
    ``(module, attribute)`` for each ``alias.attribute`` on the local name
    of an ``import package.module as alias``."""
    imported, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(package):
            for name in node.names:
                imported[name.asname or name.name] = (node.module, name.name)
        elif isinstance(node, ast.Import):
            for name in node.names:
                if name.name.startswith(package) and name.asname:
                    aliases[name.asname] = name.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            alias = node.value.id
            imported[f"{alias}.{node.attr}"] = (aliases[alias], node.attr)
    return imported


def check_package_calls(path: Path, names: set[str], called: set[str]) -> None:
    """Each package name the script at ``path`` imports or reads resolves,
    and each call of one binds to the callee's signature; ``names`` are
    attributes it must reach and ``called`` the calls, by their source
    text, it must make."""
    tree = ast.parse(path.read_text(), str(path))
    uses = package_uses(tree, "contextprob")
    assert {attr for _, attr in uses.values()} >= names
    resolved = {}
    for local, (module_name, attr) in uses.items():
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), (module_name, attr)
        resolved[local] = getattr(module, attr)
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in resolved
    ]
    assert {ast.unparse(call.func) for call in calls} >= called
    for call in calls:
        signature = inspect.signature(resolved[ast.unparse(call.func)])
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})


def test_every_worker_import_resolves():
    """The worker's ``run_suite(doc, suite)``, ``load_model(path)`` and
    ``cli.main(argv)``."""
    check_package_calls(
        WORKER, {"load_model", "SUITES", "run_suite", "main"},
        {"load_model", "run_suite", "cli.main"},
    )


def test_every_reference_name_resolves():
    """The reference script's ``cp.*`` library calls and the verify suites,
    each bound to its callee's signature."""
    called = {
        "cp.generate_kq", "cp.interference_coefficients", "cp.build_amplitude",
        "cp.generate_random_model", "cp.save_model", "cp.load_model", "run_suite",
    }
    names = {name.rpartition(".")[2] for name in called} | {"SUITES"}
    check_package_calls(REFERENCE, names, called)


@pytest.fixture(scope="module")
def oracle() -> types.ModuleType:
    return load_script(ORACLE)


# kq is left out: C14 and C23 sit on |lambda| = 1, within the oracle's
# CLASS_MARGIN, so it expects a skip of hyperbolic checks that verify passes
@pytest.mark.parametrize("command", ["analyze", "represent", "verify"])
@pytest.mark.parametrize("stem", STEMS)
def test_oracle_agrees_with_every_command(oracle, stem, command, capsys):
    path = DATA / f"{stem}.model.json"
    expectations = oracle.Expectations(json.loads(path.read_text()))
    assert main([command, str(path)]) == 0
    report = oracle.loads_strict(capsys.readouterr().out)
    errors = oracle.CHECKS[command](expectations, report)
    assert (errors.count, list(errors)) == (0, [])


@pytest.mark.parametrize(
    "source, seed",
    [*product(("wide-ds", "atlas-small", "split-3x3"), (1, 2, 3)),
     *((stem, None) for stem in STEMS)],
)
def test_double_stochastic_decision_agrees_with_the_oracle(oracle, source, seed):
    """The program's "b/a" double stochastic flag is the oracle's reading
    of the same document (column sums within its ``DS_TOL``), on each
    bench/gen.py workload (``source`` with a ``seed``) and each tests/data
    model.  The workloads sit far from both bounds, so a bound of the
    program that would make the benchmark find its outputs incorrect fails
    here first."""
    if seed is None:
        doc = json.loads((DATA / f"{source}.model.json").read_text())
    else:
        doc = load_script(GEN).model(source, seed)
    model = model_from_dict(doc)
    flag = cp.transition_matrix(model.space, model.pair).double_stochastic
    assert flag is oracle.Model(doc).double_stochastic()
