"""Golden output of the three report commands on kq(1/8).

The files under ``tests/data`` were written by ``analyze``, ``represent`` and
``verify --suite all`` before the per-context measures were shared between
layers; a change that claims unchanged output must keep matching them.
``random_3x3_seed4.{analyze,represent}.json`` pin the n-valued split
recursion of the two report commands on a ternary pair; they were written
before the recursion read a per-context measure table.
``{kq_0.125,random_3x3_seed4}.suites.json`` hold ``run_suite(doc, suite)``
for each suite run alone; they were written before a run held one measure
table, one coefficient object and one state per context.
``random_ds_seed7.model.json`` pins the seeded stream of the dichotomous
double stochastic generator, as ``random_3x3_seed4.model.json`` does for a
ternary pair; ``random_ds_seed7.{analyze,represent,suites}.json`` pin the
hyperbolic basis of ``represent`` and ``verify`` on a double stochastic
model, and were written before the three commands read each context
through one generator.
``atlas8.model.json`` is dichotomous and not double stochastic, with two
points per joint cell (cell masses 0.45, 0.15, 0.30 and 0.10, each split
0.1 / 0.9) and all 225 a-nondegenerate contexts declared: 156
trigonometric, 15 hyperbolic and 54 mixed.  ``atlas8.{analyze,represent,
suites}.json`` were written before ``verify`` built each context's table
from the unit rows of the read.
``verify_branches.json`` holds ``run_suite(doc).to_dict()`` of small models
chosen so that every skip reason of ``verify`` is reached; it was written
before the checks were folded into one run object.
Keys, strings, booleans and null must be equal, floats within 1e-12, so the
guard does not depend on the last bit of a platform's libm.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contextprob
from contextprob.cli import main
from contextprob.errors import ContextualProbabilityError
from contextprob.models import (
    dumps_model,
    generate_kq,
    load_model,
    model_from_dict,
    save_model,
)
from contextprob.interference import (
    ContextClass,
    global_alpha_from_coefficients,
    interference_coefficients,
    verify_no_global_alpha,
)
from contextprob.verify import SUITES, run_suite

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-12


def assert_matches(got, want, path="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert isinstance(want, (int, float)) and not isinstance(want, bool), path
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{path}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict), path
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize(
    "command, extra",
    [("analyze", []), ("represent", []), ("verify", ["--suite", "all"])],
)
def test_kq_report_matches_golden(tmp_path, command, extra):
    model = tmp_path / "kq.json"
    save_model(generate_kq(0.125), model)
    out = tmp_path / f"{command}.json"
    assert main([command, str(model), *extra, "--output", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((DATA / f"kq_0.125.{command}.json").read_text())
    assert_matches(got, want)


def _model_report_matches_golden(tmp_path, stem, command):
    out = tmp_path / f"{command}.json"
    model = DATA / f"{stem}.model.json"
    assert main([command, str(model), "--output", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((DATA / f"{stem}.{command}.json").read_text())
    assert_matches(got, want)


@pytest.mark.parametrize("command", ["analyze", "represent"])
def test_nvalued_report_matches_golden(tmp_path, command):
    _model_report_matches_golden(tmp_path, "random_3x3_seed4", command)


@pytest.mark.parametrize("command", ["analyze", "represent"])
def test_double_stochastic_report_matches_golden(tmp_path, command):
    """S3 is strictly hyperbolic: ``represent`` anchors the g-basis there and
    reports its ``decomposable.a`` flags."""
    _model_report_matches_golden(tmp_path, "random_ds_seed7", command)


@pytest.mark.parametrize("command", ["analyze", "represent"])
def test_context_atlas_report_matches_golden(tmp_path, command):
    """Every class of a dichotomous pair that is not double stochastic."""
    _model_report_matches_golden(tmp_path, "atlas8", command)


@pytest.mark.parametrize(
    "stem", ["kq_0.125", "random_3x3_seed4", "random_ds_seed7", "atlas8"]
)
@pytest.mark.parametrize("suite", SUITES)
def test_single_suite_matches_golden(stem, suite):
    if stem == "kq_0.125":
        doc = generate_kq(0.125)
    else:
        doc = load_model(DATA / f"{stem}.model.json")
    want = json.loads((DATA / f"{stem}.suites.json").read_text())[suite]
    assert_matches(run_suite(doc, suite).to_dict(), want)


NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
import contextprob
from contextprob.cli import main
assert {m: v for m, v in sys.modules.items() if m.split(".")[0] == "numpy"} == {
    "numpy": None
}
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_report_commands_run_without_numpy(tmp_path):
    """analyze, represent, every suite of verify and ``example kq`` import
    no numpy, and still match the goldens.  ``verify --suite all`` runs on
    kq(1/8), on the ternary pair and on the double stochastic
    ``random_ds_seed7``, where every check passes: its operator spectrum,
    average preservation, normalization and the seeded algebra draws all
    run without numpy.  ``example kq --q 0.125`` has no golden: it must
    write what it writes in this process, eigenvectors included."""
    kq = tmp_path / "kq.json"
    save_model(generate_kq(0.125), kq)
    models = {"kq_0.125": kq, "random_3x3_seed4": DATA / "random_3x3_seed4.model.json"}
    cases = []  # (argv, golden file, key in it or None)
    for stem, model in models.items():
        for command in ("analyze", "represent"):
            cases.append(([command, str(model)], f"{stem}.{command}.json", None))
        for suite in SUITES:
            argv = ["verify", str(model), "--suite", suite]
            cases.append((argv, f"{stem}.suites.json", suite))
    cases.append((["verify", str(kq), "--suite", "all"], "kq_0.125.verify.json", None))
    argv = ["verify", str(models["random_3x3_seed4"]), "--suite", "all"]
    cases.append((argv, "verify_branches.json", "random_3x3"))
    ds_model = DATA / "random_ds_seed7.model.json"
    cases.append((["verify", str(ds_model), "--suite", "all"], None, None))
    cases.append((["example", "kq", "--q", "0.125"], None, "example"))
    outs = [tmp_path / f"report{i}.json" for i in range(len(cases))]
    argvs = [[*argv, "--output", str(out)] for (argv, _, _), out in zip(cases, outs)]
    src = str(Path(contextprob.__file__).parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED, json.dumps(argvs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(argvs)
    for (argv, golden, key), out in zip(cases, outs):
        if key == "example":
            here = tmp_path / "example.json"
            assert main([*argv, "--output", str(here)]) == 0
            assert out.read_text() == here.read_text()
            continue
        got = json.loads(out.read_text())
        if golden is None:  # random_ds_seed7: no golden, every check runs
            want = run_suite(load_model(ds_model)).to_dict()
            assert {c["status"] for c in got["checks"]} == {"pass"}
        else:
            want = json.loads((DATA / golden).read_text())
            want = want[key] if key else want
        assert_matches(got, want)


def test_comparison_rejects_drift():
    with pytest.raises(AssertionError):
        assert_matches({"x": [1.0, "a"]}, {"x": [1.0 + 1e-9, "a"]})
    with pytest.raises(AssertionError):
        assert_matches({"x": True}, {"x": 1})
    assert_matches({"x": [1.0, None]}, {"x": [1.0 + 1e-14, None]})


KQ_POINTS = ["w1", "w2", "w3", "w4"]
NOT_DS = (0.1, 0.2, 0.3, 0.4)


def _four_point(weights, contexts=None):
    """kq's points, variables and contexts with other weights or contexts."""
    doc = json.loads(dumps_model(generate_kq(0.125)))
    doc["points"] = [{"id": p, "p": w} for p, w in zip(KQ_POINTS, weights)]
    if contexts is not None:
        doc["contexts"] = contexts
    return model_from_dict(doc)


def branch_models():
    """name -> model; each comment names the skip reasons it reaches."""
    return {
        # "transition matrix not double stochastic"
        "not_double_stochastic": _four_point(NOT_DS),
        # every check runs, anchored at a strictly hyperbolic context
        "double_stochastic_hyperbolic": _four_point((0.075, 0.225, 0.175, 0.525)),
        # "fewer than two trigonometric contexts", "no hyperbolic contexts
        # declared", "no strictly hyperbolic anchor declared"
        "omega_only": _four_point((0.125, 0.375, 0.125, 0.375), {"Omega": KQ_POINTS}),
        # "no admissible event tuples", "no representable contexts (0 out of
        # range)", "nothing to compare"
        "a_cells_only": _four_point(NOT_DS, {"A1": ["w1", "w2"], "A2": ["w3", "w4"]}),
        # "no representable contexts (2 out of range)"
        "b_cells_only": _four_point(NOT_DS, {"B1": ["w1", "w4"], "B2": ["w2", "w3"]}),
        # "no pair of contexts with distinct |lambda|"
        "one_event_two_names": _four_point(
            NOT_DS, {"X": ["w1", "w3"], "Y": ["w1", "w3"]}
        ),
        # "pair is not dichotomous", complex.suite, hyperbolic suite cut at
        # hyperbolic.born_b
        "random_3x3": load_model(DATA / "random_3x3_seed4.model.json"),
    }


def test_verify_branches_match_golden():
    want = json.loads((DATA / "verify_branches.json").read_text())
    got = {name: run_suite(doc).to_dict() for name, doc in branch_models().items()}
    assert_matches(got, want)


TRIGONOMETRIC = (ContextClass.TRIGONOMETRIC, ContextClass.BOUNDARY)


@pytest.mark.parametrize(
    "doc", [generate_kq(0.125), _four_point(NOT_DS)], ids=["kq", "not_ds"]
)
def test_phase_search_on_coefficients_matches_search_on_events(doc):
    space, pair = doc.space, doc.pair
    named = {}
    for name, event in doc.contexts.items():
        try:
            coeffs = interference_coefficients(space, pair, event)
        except ContextualProbabilityError:
            continue
        if coeffs.context_class in TRIGONOMETRIC:
            named[name] = coeffs
    assert len(named) >= 2
    want = verify_no_global_alpha(space, pair, {n: doc.contexts[n] for n in named})
    assert global_alpha_from_coefficients(named.items()) == want
