import argparse
import enum
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextprob as cp
from contextprob.cli import _json_text, main
from contextprob.models import save_model
from contextprob.space import pair_tables

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


@pytest.fixture
def kq_path(tmp_path, kq):
    path = tmp_path / "kq.json"
    save_model(kq, path)
    return str(path)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "contextprob", *argv],
        capture_output=True,
        text=True,
    )


class TestAnalyze:
    def test_all_contexts(self, kq_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", kq_path, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["contexts"]["C123"]["class"] == "trigonometric"
        assert report["contexts"]["C12"]["class"] == "degenerate"
        c14 = report["contexts"]["C14"]
        assert c14["class"] == "boundary"
        assert c14["outcomes"]["1.0"]["lambda"] == pytest.approx(1.0)

    def test_single_context(self, kq_path, capsys):
        assert main(["analyze", kq_path, "--context", "C123"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["contexts"]) == ["C123"]

    def test_tiny_cells_take_their_rapidities(self, kq_path, tmp_path, capsys):
        """kq's variables and contexts with weights (0.5, 0.5, 1e-300,
        1e-300): |lambda| reaches ~3.5e149 on the double stochastic pair,
        and each hyperbolic outcome's epsilon cosh(theta) still gives its
        lambda."""
        raw = json.loads(Path(kq_path).read_text())
        for point, p in zip(raw["points"], (0.5, 0.5, 1e-300, 1e-300)):
            point["p"] = p
        path = tmp_path / "tiny_cells.json"
        path.write_text(json.dumps(raw))
        assert main(["analyze", str(path)]) == 0
        contexts = json.loads(capsys.readouterr().out)["contexts"].values()
        outcomes = [
            o for c in contexts if c["class"] == "hyperbolic"
            for o in c["outcomes"].values()
        ]
        assert outcomes
        for o in outcomes:
            assert o["epsilon"] * math.cosh(o["theta"]) == pytest.approx(
                o["lambda"], rel=1e-12
            )


class TestRepresent:
    def test_report_shape(self, kq_path, tmp_path):
        out = tmp_path / "repr.json"
        code = main(["represent", kq_path, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["basis_unitary"] is True
        amp = report["complex"]["C24"]["amplitude"]
        assert amp["re"][0] == pytest.approx(0.125 ** 0.5)
        assert report["complex"]["C24"]["born_b_residual"] <= 1e-10
        assert report["complex"]["C24"]["born_a_residual"] <= 1e-10
        # boundary contexts also carry a hyperbolic representation
        assert report["hyperbolic"]["C14"]["decomposable"]["b"] is True
        assert "skipped" in report["hyperbolic"]["C123"]
        assert report["operators"]["b"][0][0]["re"] == 1.0
        assert report["operators"]["commutator_b_a"][0][1]["re"] != 0.0

    def test_anchor_and_branch_flags(self, kq_path, tmp_path):
        out = tmp_path / "repr.json"
        code = main(
            [
                "represent", kq_path,
                "--context", "C13",
                "--branch", "conjugate",
                "--anchor", "C13",
                "--output", str(out),
            ]
        )
        assert code == 0
        amp = json.loads(out.read_text())["complex"]["C13"]["amplitude"]
        assert amp["im"][0] == pytest.approx(-(0.375 ** 0.5))

    @pytest.mark.parametrize("anchor, error, detail", [
        ("K11", "MixedContext", "mixed contexts have no complex representation"),
        ("K1c", "HyperbolicContext", "context has large interference "
         "coefficients; build the hyperbolic representation instead"),
    ])
    def test_anchor_without_complex_phases_is_refused(
        self, anchor, error, detail, capsys
    ):
        """A mixed or hyperbolic anchor is refused by the phases that would
        build the basis, with their message, and exit 3."""
        path = str(DATA / "atlas8.model.json")
        assert main(["represent", path, "--anchor", anchor]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": error, "detail": detail}

    def test_empty_anchor_name_is_a_context_name(self, kq, kq_path, tmp_path, capsys):
        """``--anchor ""`` names a context like any other name: refused where
        no context is called "", and the anchor where one is."""
        assert main(["represent", kq_path, "--anchor", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "model-validation", "detail": "unknown context ''",
        }

        named = cp.ModelDocument(
            kq.space, kq.variables, {**kq.contexts, "": kq.context("C134")},
            kq.pair_names,
        )
        path = tmp_path / "named.json"
        save_model(named, path)
        reports = []
        for anchor in ([], ["--anchor", ""], ["--anchor", "C134"]):
            assert main(["represent", str(path), *anchor]) == 0
            reports.append(capsys.readouterr().out)
        full_event, empty_name, c134 = reports
        assert empty_name == c134
        assert empty_name != full_event


    @pytest.mark.parametrize("late", [False, True])
    def test_each_context_reads_its_coefficients_once(
        self, late, kq, ds_skewed, tmp_path, monkeypatch, capsys
    ):
        """The search for the g-basis anchor keeps the coefficients it reads,
        or the reason a context has none, for the report, and builds the
        g-basis from the coefficients of the first hyperbolic context.  kq
        declares no hyperbolic context, so the search reads all 11; the
        other model declares its first one (C14) fifth.  One more read is
        the complex basis anchor's."""
        doc = seven_contexts(ds_skewed) if late else kq
        path = tmp_path / "model.json"
        save_model(doc, path)
        reads = count_reads(monkeypatch)
        assert main(["represent", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert ("a" in report["hyperbolic"]["C14"]["decomposable"]) is late
        assert len(reads) == len(doc.contexts) + 1

    @pytest.mark.parametrize("name, searched", [("C14", True), ("C23", False)])
    def test_a_selected_context_is_read_once(
        self, name, searched, ds_skewed, tmp_path, monkeypatch, capsys
    ):
        """With ``--context``, a context that the anchor search has read
        (the search stops at C14, the fifth) is reported from that read, and
        a later one is read once more; both get the a-side flags.  One read
        is the complex basis anchor's."""
        path = tmp_path / "model.json"
        save_model(seven_contexts(ds_skewed), path)
        reads = count_reads(monkeypatch)
        assert main(["represent", str(path), "--context", name]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["complex"]) == [name]
        assert "a" in report["hyperbolic"][name]["decomposable"]
        assert len(reads) == 1 + 5 + (not searched)


    @pytest.mark.parametrize(
        "weights, residual",
        [
            ((0.5 - 1e-12, 0.5 - 1e-12, 1e-12, 1e-12), 1.52587890625e-05),
            ((0.5, 0.5, 1e-310, 1e-310), None),
        ],
        ids=["1e-12", "1e-310"],
    )
    def test_tiny_cells_report_the_gram_residual(
        self, weights, residual, kq_path, tmp_path, capsys
    ):
        """kq's variables and contexts with tiny cells: the g-basis anchored
        at C13 misses orthonormality through the cancellation in cosh^2 -
        sinh^2 (1e-12), or has a NaN Gram matrix (1e-310).  ``represent``
        reports the residual, null where it is not finite, and leaves the
        judgement to ``verify``'s ``hyperbolic.basis_unitarity``."""
        raw = json.loads(Path(kq_path).read_text())
        for point, p in zip(raw["points"], weights):
            point["p"] = p
        path = tmp_path / "tiny_cells.json"
        path.write_text(json.dumps(raw))
        assert main(["represent", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(captured.out, parse_constant=reject)
        assert report["hyperbolic_basis_gram_residual"] == residual


def seven_contexts(model):
    """A model document on the pair ``model`` with seven two- and
    three-point contexts; on ``ds_skewed`` the fifth, C14, is the first
    hyperbolic one."""
    space, pair = model
    names = ("C12", "C123", "C124", "C13", "C14", "C23", "C24")
    contexts = {name: space.event(f"w{k}" for k in name[1:]) for name in names}
    return cp.ModelDocument(space, {"a": pair.a, "b": pair.b}, contexts, ("a", "b"))


def count_reads(monkeypatch) -> list:
    """Count the coefficient computations; the list gets each context."""
    reads = []
    body = cp.interference.coefficients_from_measures

    def counted(*args):
        reads.append(args[1])
        return body(*args)

    monkeypatch.setattr(cp.interference, "coefficients_from_measures", counted)
    return reads


class TestThreeValuedModels:
    @pytest.fixture
    def three_valued_path(self, tmp_path):
        doc = cp.generate_random_model(
            seed=8, n_points=10, value_arities=(3, 3), n_contexts=4
        )
        path = tmp_path / "three.json"
        save_model(doc, path)
        return str(path)

    def test_analyze_reports_split_chains(self, three_valued_path, capsys):
        assert main(["analyze", three_valued_path]) == 0
        report = json.loads(capsys.readouterr().out)
        classes = {c["class"] for c in report["contexts"].values()}
        assert classes <= {"split-representable", "unrepresentable"}
        for entry in report["contexts"].values():
            if entry["class"] == "split-representable":
                assert "betas" in entry["split_chain"]
                break
        else:
            pytest.fail("no representable context in the generated model")

    def test_represent_serialises_chain(self, three_valued_path, capsys):
        assert main(["represent", three_valued_path]) == 0
        report = json.loads(capsys.readouterr().out)
        entries = [e for e in report["complex"].values() if "amplitude" in e]
        assert entries
        for entry in entries:
            assert entry["born_b_residual"] <= 1e-9
            assert len(entry["split_chain"]["order"]) == 3

    def test_verify_runs_clean(self, three_valued_path):
        assert main(["verify", three_valued_path, "--suite", "all"]) == 0

    @pytest.mark.parametrize("command", ["analyze", "represent"])
    def test_conjugate_branch_takes_the_other_branch_at_every_level(
        self, command, capsys
    ):
        """``--branch conjugate`` on a ka x kb pair builds the conjugate
        state: every phase of the split chain and every imaginary part of
        the state change sign, and the same contexts are refused."""
        path = str(DATA / "random_3x3_seed4.model.json")
        section = "contexts" if command == "analyze" else "complex"
        reports = []
        for branch in ("principal", "conjugate"):
            assert main([command, path, "--branch", branch]) == 0
            reports.append(json.loads(capsys.readouterr().out)[section])
        principal, conjugate = reports
        assert principal.keys() == conjugate.keys()
        built = 0
        for name, entry in principal.items():
            other = conjugate[name]
            if "split_chain" not in entry:
                assert other == entry
                continue
            built += 1
            for x, betas in entry["split_chain"]["betas"].items():
                flipped = [-b for b in other["split_chain"]["betas"][x]]
                assert flipped == pytest.approx(betas, abs=1e-12)
            if command == "represent":
                assert (entry["branch"], other["branch"]) == ("principal", "conjugate")
                amp, amp_bar = entry["amplitude"], other["amplitude"]
                assert amp_bar["re"] == pytest.approx(amp["re"], abs=1e-12)
                flipped = [-v for v in amp_bar["im"]]
                assert flipped == pytest.approx(amp["im"], abs=1e-12)
                assert any(v != 0.0 for v in amp["im"])
        assert built > 0

    def test_anchor_is_refused(self, capsys):
        """The split recursion builds no anchored basis, so ``--anchor`` on
        a ka x kb pair is a validation error, not a flag to ignore."""
        path = str(DATA / "random_3x3_seed4.model.json")
        anchor = next(iter(json.loads(Path(path).read_text())["contexts"]))
        assert main(["represent", path, "--anchor", anchor]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "model-validation",
            "detail": "--anchor needs a dichotomous reference pair; the split "
            "recursion of this pair builds no anchored basis",
        }


def square_model_path(tmp_path, weights) -> str:
    """A model on the four-point square with the given weights, a splitting
    {w1,w2} from {w3,w4} and b splitting {w1,w3} from {w2,w4}, and every
    two- and three-point context declared."""
    names = ("w1", "w2", "w3", "w4")
    space = cp.FiniteKolmogorovSpace(names, weights)
    variables = {
        "a": cp.RandomVariable((1.0, 1.0, -1.0, -1.0)),
        "b": cp.RandomVariable((1.0, -1.0, 1.0, -1.0)),
    }
    contexts = {
        "C" + "".join(name[1:] for name in chosen): space.event(chosen)
        for k in (2, 3)
        for chosen in itertools.combinations(names, k)
    }
    path = tmp_path / "square.json"
    save_model(cp.ModelDocument(space, variables, contexts, ("a", "b")), path)
    return str(path)


class TestVerify:
    def test_passes_on_bundled_model(self, kq_path, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", kq_path, "--suite", "all", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(c["status"] != "fail" for c in report["checks"])

    def test_single_suite_selection(self, kq_path, capsys):
        assert main(["verify", kq_path, "--suite", "core"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["id"].startswith("core.") for c in report["checks"])

    def test_zero_tolerance_forces_failure_exit(self, kq_path, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            ["verify", kq_path, "--suite", "core", "--tolerance", "0",
             "--output", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert any(c["status"] == "fail" for c in report["checks"])

    @pytest.mark.parametrize("delta", [1e-9, 3e-9])
    def test_near_double_stochastic_model_passes(self, delta, tmp_path, capsys):
        """Weights (1/4, 1/4, (1 + 2 delta)/4, (1 - 2 delta)/4): the column
        sums pass as double stochastic within ``PREDICATE_TOL`` while the
        cosine ratio misses one by more, and every check passes."""
        weights = (0.25, 0.25, 0.25 * (1 + 2 * delta), 0.25 * (1 - 2 * delta))
        path = square_model_path(tmp_path, weights)
        assert main(["verify", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["passed"] is True

    @pytest.mark.parametrize("eps", [5e-11, 9e-11])
    def test_near_double_stochastic_basis_is_judged(self, eps, tmp_path, capsys):
        """Weights (0.495, 0.005, (0.01 + eps)/2, (0.99 - eps)/2): the column
        sums pass as double stochastic within ``PREDICATE_TOL`` while the
        Gram matrix of the complex basis misses by eps / (2 sqrt(t00 t01)).
        The basis is unitary by the flag, so ``represent`` builds the
        a-operator, and ``verify`` writes its report, whichever checks it
        fails, in place of refusing the basis."""
        weights = (0.495, 0.005, 0.5 * (0.01 + eps), 0.5 * (0.99 - eps))
        path = square_model_path(tmp_path, weights)
        assert main(["verify", path]) != 3
        captured = capsys.readouterr()
        assert captured.err == ""

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(captured.out, parse_constant=reject)
        checks = {c["id"]: c for c in report["checks"]}
        assert "complex.basis_unitarity" in checks
        assert main(["represent", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["basis_unitary"] is True
        assert "a" in report["operators"]

    def test_skips_carry_reasons(self, kq_path, capsys):
        assert main(["verify", kq_path, "--suite", "hyperbolic"]) == 0
        report = json.loads(capsys.readouterr().out)
        for check in report["checks"]:
            if check["status"] == "skip":
                assert check["witness"]


class TestExampleKq:
    def test_reproduction_table(self, capsys):
        code = main(["example", "kq", "--q", "0.125"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["worst_abs_diff"] <= 1e-9
        quantities = {row["quantity"] for row in report["rows"]}
        assert "lambda(b1, C123)" in quantities
        assert "commutator [b,a]_12" in quantities

    def test_q_grid(self, capsys):
        for q in ("0.05", "0.25", "0.4"):
            assert main(["example", "kq", "--q", q]) == 0
            capsys.readouterr()

    def test_bad_q_exits_with_validation_error(self, capsys):
        assert main(["example", "kq", "--q", "0.7"]) == 2

    def test_zero_tolerance_is_a_gate_not_unset(self, capsys):
        """The closed forms agree to rounding, not exactly, so a zero gate
        fails the reproduction."""
        assert main(["example", "kq", "--q", "0.125", "--tolerance", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["worst_abs_diff"] > 0.0


class TestGenRandom:
    def test_writes_model(self, tmp_path):
        out = tmp_path / "model.json"
        code = main(
            ["gen", "random", "--seed", "3", "--points", "6",
             "--output", str(out)]
        )
        assert code == 0
        doc = cp.load_model(out)
        assert doc.space.n == 6

    def test_double_stochastic_flag(self, tmp_path):
        out = tmp_path / "model.json"
        code = main(
            ["gen", "random", "--seed", "3", "--points", "5",
             "--double-stochastic", "--output", str(out)]
        )
        assert code == 0
        doc = cp.load_model(out)
        t = cp.transition_matrix(doc.space, doc.pair)
        assert t.double_stochastic

    def test_too_few_points_is_a_diagnostic(self):
        proc = run_cli("gen", "random", "--seed", "0", "--points", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        diag = json.loads(proc.stderr)
        assert diag["error"] == "model-validation"
        assert "joint cell" in diag["detail"]

    @pytest.mark.parametrize("arity", ("0", "1"))
    @pytest.mark.parametrize("side", ("a", "b"))
    def test_arity_below_two_is_a_diagnostic(self, side, arity, capsys):
        argv = ["gen", "random", "--seed", "3", "--points", "12"]
        assert main([*argv, f"--arity-{side}", arity]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "model-validation",
            "detail": "each reference variable needs at least two values",
        }

    @pytest.mark.parametrize("count", ("-1", "-5"))
    def test_negative_context_count_is_a_diagnostic(self, count, capsys):
        argv = ["gen", "random", "--seed", "3", "--points", "12"]
        assert main([*argv, "--contexts", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "model-validation",
            "detail": f"the context count must be nonnegative, got {count}",
        }

    def test_zero_contexts_declares_only_the_full_event(self, capsys):
        argv = ["gen", "random", "--seed", "3", "--points", "12", "--contexts", "0"]
        assert main(argv) == 0
        assert list(cp.loads_model(capsys.readouterr().out).contexts) == ["Omega"]

    def test_generated_model_verifies(self, tmp_path):
        out = tmp_path / "model.json"
        assert main(
            ["gen", "random", "--seed", "11", "--points", "6",
             "--output", str(out)]
        ) == 0
        assert main(["verify", str(out), "--output",
                     str(tmp_path / "v.json")]) == 0


class TestEmptyContext:
    def test_commands_survive_empty_declared_context(self, tmp_path):
        raw = {
            "points": [{"id": f"w{i + 1}", "p": 0.25} for i in range(4)],
            "variables": {
                "a": {"w1": 1.0, "w2": 1.0, "w3": -1.0, "w4": -1.0},
                "b": {"w1": 1.0, "w2": -1.0, "w3": -1.0, "w4": 1.0},
            },
            "contexts": {"Empty": [], "Omega": ["w1", "w2", "w3", "w4"]},
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(raw))
        for argv in (
            ["analyze", str(path), "--output", str(tmp_path / "a.json")],
            ["represent", str(path), "--output", str(tmp_path / "r.json")],
            ["verify", str(path), "--output", str(tmp_path / "v.json")],
        ):
            assert main(argv) == 0


class TestProcessContract:
    """End-to-end subprocess checks of the exit-code contract."""

    def test_verify_exit_zero(self, kq_path):
        proc = run_cli("verify", kq_path, "--suite", "all")
        assert proc.returncode == 0

    def test_corrupted_model_exit_two(self, tmp_path, kq):
        raw = json.loads(
            json.dumps(
                {
                    "points": [
                        {"id": p, "p": w * 0.9}
                        for p, w in zip(kq.space.points, kq.space.weights)
                    ],
                    "variables": {
                        "a": dict(zip(kq.space.points, kq.pair.a.values)),
                        "b": dict(zip(kq.space.points, kq.pair.b.values)),
                    },
                    "contexts": {},
                }
            )
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 2
        diag = json.loads(proc.stderr)
        assert diag["error"] == "model-validation"
        assert "0.9" in diag["detail"]

    def test_missing_file_exit_two(self):
        proc = run_cli("analyze", "/nonexistent/model.json")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        (
            ["analyze", "MODEL"],
            ["represent", "MODEL"],
            ["verify", "MODEL"],
            ["gen", "random", "--seed", "3", "--points", "6"],
        ),
    )
    def test_unwritable_output_exit_two(self, kq_path, tmp_path, argv):
        target = tmp_path / "missing" / "out.json"
        argv = [kq_path if a == "MODEL" else a for a in argv]
        proc = run_cli(*argv, "--output", str(target))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        diag = json.loads(proc.stderr, parse_constant=reject)
        assert diag["error"] == "FileNotFoundError"
        assert str(target) in diag["detail"]


class TestStartup:
    def test_cli_import_loads_no_code_generation_modules(self):
        """A fresh ``import contextprob.cli`` loads neither numpy nor
        ``dataclasses`` and the modules it imports to generate code."""
        code = (
            "import sys; before = set(sys.modules); import contextprob.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        loaded = set(proc.stdout.split())
        assert "contextprob.cli" in loaded
        unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "numpy"}
        assert not loaded & unwanted


class TestParserReuse:
    """One argparse parser serves every in-process call."""

    def test_commands_leave_no_argparse_garbage(self, kq_path, tmp_path, capsys):
        """Building a parser leaves formatter cycles behind, so the first
        call may; the commands after it leave none."""
        out = str(tmp_path / "report.json")
        assert main(["analyze", kq_path, "--output", out]) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for command in ("analyze", "verify"):
                assert main([command, kq_path, "--output", out]) == 0
            gc.collect()
            left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []

    def test_usage_error_after_a_command(self, kq_path, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        for _ in range(2):
            assert main(["analyze", kq_path, "--output", out]) == 0
            assert main(["analyze", kq_path, "--no-such-flag"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert json.loads(captured.err) == {
                "error": "usage",
                "detail": "unrecognized arguments: --no-such-flag",
            }
        assert main(["analyze", kq_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["contexts"]) == 11


@pytest.fixture
def compatible_path(tmp_path, kq_path):
    """The kq model with b set equal to a: a compatible reference pair."""
    with open(kq_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["variables"]["b"] = dict(raw["variables"]["a"])
    path = tmp_path / "compatible.json"
    path.write_text(json.dumps(raw))
    return str(path)


def stderr_diagnostic(capsys) -> dict:
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return json.loads(err)


class TestErrorContract:
    """Library errors end a command with a JSON diagnostic, never a
    traceback: 1 for an invariant violation, 3 for input that cannot be
    represented."""

    @pytest.mark.parametrize("tolerance", ("nan", "-1", "inf"))
    @pytest.mark.parametrize("command", ("verify", "example"))
    def test_invalid_tolerance_exit_two(self, kq_path, command, tolerance, capsys):
        argv = [kq_path] if command == "verify" else ["kq", "--q", "0.125"]
        assert main([command, *argv, "--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "model-validation"

    @pytest.mark.parametrize("command", ("analyze", "represent"))
    def test_help_prints_usage_and_exits_zero(self, command, capsys):
        """``--help`` is not an error: argparse prints the usage text to
        stdout and exits 0."""
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: contextprob {command} ")

    @pytest.mark.parametrize("command", ("analyze", "represent"))
    def test_tolerance_rejected_where_no_report_gates(self, kq_path, command, capsys):
        assert main([command, kq_path, "--tolerance", "1e-30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "usage",
            "detail": "unrecognized arguments: --tolerance 1e-30",
        }

    @pytest.mark.parametrize("value", ("1.0", True, None))
    def test_non_number_variable_value_exit_two(self, tmp_path, kq_path, value, capsys):
        with open(kq_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["variables"]["a"]["w3"] = value
        path = tmp_path / "text_value.json"
        path.write_text(json.dumps(raw))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "model-validation",
            "detail": "value of variable 'a' at 'w3' must be a number",
        }

    def test_weight_too_large_for_a_float_exit_two(self, tmp_path, kq_path, capsys):
        with open(kq_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["points"][0]["p"] = 10**400
        path = tmp_path / "huge_weight.json"
        path.write_text(json.dumps(raw))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "model-validation",
            "detail": "weight of 'w1' is too large for a float",
        }

    @pytest.mark.parametrize("name", ("a", "c"))
    def test_value_too_large_for_a_float_exit_two(self, tmp_path, kq_path, name, capsys):
        """A reference variable's value, or one of an extra variable."""
        with open(kq_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        variables = raw["variables"]
        variables.setdefault(name, dict(variables["a"]))["w3"] = 10**400
        path = tmp_path / "huge_value.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "model-validation",
            "detail": f"variable {name!r} has a value too large for a float",
        }

    def test_degenerate_anchor_exit_three(self, kq_path, capsys):
        assert main(["represent", kq_path, "--anchor", "C12"]) == 3
        diag = stderr_diagnostic(capsys)
        assert diag["error"] == "DegenerateContext"
        assert diag["detail"]

    @pytest.mark.parametrize("command", ("verify", "represent"))
    def test_compatible_pair_exit_three(self, compatible_path, command, capsys):
        assert main([command, compatible_path]) == 3
        assert stderr_diagnostic(capsys)["error"] == "DegenerateCell"

    def test_compatible_b_cells_exit_three(self, compatible_path, capsys):
        """Alone, the hyperbolic suite first meets the compatible pair where
        it classifies the b-cells: their refusal ends the run."""
        assert main(["verify", compatible_path, "--suite", "hyperbolic"]) == 3
        assert stderr_diagnostic(capsys) == {
            "error": "DegenerateCell",
            "detail": "reference variables must be incompatible",
        }

    def test_compatible_pair_core_suite_reports_symmetry(
        self, compatible_path, capsys
    ):
        """Alone, the core suite reads no cosine ratio where no context has
        coefficients, so its symmetry check judges the compatible pair."""
        assert main(["verify", compatible_path, "--suite", "core"]) == 0
        checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["core.symmetry_equivalence"]["status"] == "pass"

    def test_invariant_violation_exit_one(self, kq_path, monkeypatch, capsys):
        def drifted(*args, **kwargs):
            raise cp.InvariantViolation("phase relation drifted")

        monkeypatch.setattr("contextprob.cli.run_suite", drifted)
        assert main(["verify", kq_path]) == 1
        diag = stderr_diagnostic(capsys)
        assert diag == {
            "error": "InvariantViolation", "detail": "phase relation drifted",
        }

    def test_multivalued_invariant_violation_propagates(
        self, kq, kq_path, monkeypatch, capsys
    ):
        def drifted(*args, **kwargs):
            raise cp.InvariantViolation("split decomposition identity drifted")

        monkeypatch.setattr(
            "contextprob.multivalued.split_from_tables", drifted
        )
        with pytest.raises(cp.InvariantViolation):
            cp.run_suite(kq, "multivalued")
        assert main(["verify", kq_path, "--suite", "multivalued"]) == 1
        assert stderr_diagnostic(capsys) == {
            "error": "InvariantViolation",
            "detail": "split decomposition identity drifted",
        }

    @pytest.mark.parametrize("command", ("analyze", "represent", "verify"))
    def test_invariant_violation_in_a_context_read_exit_one(
        self, kq, kq_path, command, monkeypatch, capsys
    ):
        """A context without coefficients is reported in its place, but an
        invariant that fails while one context is read ends the command."""
        body = cp.interference.coefficients_from_measures
        # C124's measures, which no other context of kq shares
        c124 = pair_tables(kq.space, kq.pair).table(kq.context("C124"))

        def drifted(pair, transition, pc, a_row, b_row):
            if (pc, a_row, b_row) == (c124.pc, c124.a_row, c124.b_row):
                raise cp.InvariantViolation("outcome perturbations must sum to zero")
            return body(pair, transition, pc, a_row, b_row)

        monkeypatch.setattr(cp.interference, "coefficients_from_measures", drifted)
        assert main([command, kq_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "InvariantViolation",
            "detail": "outcome perturbations must sum to zero",
        }

    @pytest.mark.parametrize(
        "model, command, module, name, error",
        (
            ("random_3x3_seed4", "analyze", "multivalued", "split_from_tables",
             "InvariantViolation"),
            ("random_3x3_seed4", "represent", "multivalued", "split_from_tables",
             "InvariantViolation"),
            ("atlas8", "represent", "complex_repr", "trigonometric_phases",
             "InvariantViolation"),
            ("atlas8", "represent", "hyperbolic_repr", "hyperbolic_phases",
             "InvariantViolation"),
        ),
    )
    def test_invariant_violation_in_a_state_builder_exit_one(
        self, model, command, module, name, error, monkeypatch, capsys
    ):
        """A context whose state cannot be built is reported in its place,
        but a violation raised while one is built ends the command.  The
        faulty function passes its first call, so the basis that
        ``represent`` builds first, at the full event, stands."""
        module = getattr(cp, module)
        body, calls = getattr(module, name), []

        def drifted(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise getattr(cp, error)("drifted")
            return body(*args, **kwargs)

        monkeypatch.setattr(module, name, drifted)
        assert main([command, str(DATA / f"{model}.model.json")]) == 1
        assert len(calls) > 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": error, "detail": "drifted"}

    def test_a_degenerate_context_has_one_reason(self, kq_path, capsys):
        assert main(["analyze", kq_path]) == 0
        analyzed = json.loads(capsys.readouterr().out)["contexts"]["C12"]
        assert main(["represent", kq_path]) == 0
        represented = json.loads(capsys.readouterr().out)
        reason = "context misses the cell a=-1.0"
        assert analyzed == {"class": "degenerate", "reason": reason}
        assert represented["complex"]["C12"] == {"skipped": reason}
        assert represented["hyperbolic"]["C12"] == {"skipped": reason}

    @pytest.mark.parametrize("variable", ("a", "b"))
    @pytest.mark.parametrize(
        "argv",
        (["analyze"], ["represent"], ["verify", "--suite", "core"],
         ["verify", "--suite", "multivalued"], ["verify"]),
    )
    def test_one_valued_reference_variable_exit_two(
        self, tmp_path, kq_path, variable, argv, capsys
    ):
        with open(kq_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["variables"][variable] = {p: 1 for p in raw["variables"][variable]}
        path = tmp_path / "one_valued.json"
        path.write_text(json.dumps(raw))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "model-validation",
            "detail": f"reference variable {variable!r} takes a single value",
        }

    def test_subprocess_has_no_traceback(self, kq_path):
        proc = run_cli("represent", kq_path, "--anchor", "C12")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "DegenerateContext"


class TestStrictJson:
    def test_failed_expect_writes_null_residual(self, tmp_path):
        from contextprob.cli import _emit
        from contextprob.verify import VerificationReport, _Recorder

        rec = _Recorder("demo.expect", tol=1e-12)
        rec.expect(False, "context S1 has no state")
        report = VerificationReport([rec.result()])
        out = tmp_path / "report.json"
        _emit(report.to_dict(), argparse.Namespace(output=str(out)))

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        parsed = json.loads(out.read_text(), parse_constant=reject)
        assert parsed["passed"] is False
        check = parsed["checks"][0]
        assert check["status"] == "fail"
        assert check["residual"] is None
        assert check["witness"] == "context S1 has no state"


def _json_dump(payload) -> str:
    """The call the report writer replaces."""
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, sort_keys=True, default=str, allow_nan=False)
    return buf.getvalue()


class _Colour(enum.Enum):
    RED = 1


class _Level(enum.IntEnum):
    HIGH = 3


class _Tagged(int):
    """An int whose str is not its digits: json writes ``int.__repr__``."""

    def __str__(self):
        return "tagged"

    __repr__ = __str__


# every code point, lone surrogates and control characters included
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\ud800", "café ☃ \U0001f600", "a\nb\tc"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 1e-7, 1e16])
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | _TEXT
    | st.sampled_from(
        [_Colour.RED, _Level.HIGH, _Tagged(7), Fraction(1, 3), Fraction(-7)]
    )
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


class TestReportWriter:
    """``cli._json_text`` is exactly the text of the json.dump call it
    replaced, and the reports it writes are json's own indented form."""

    @given(_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dump(self, payload):
        assert _json_text(payload) == _json_dump(payload)

    @given(
        _PAYLOADS,
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.sampled_from(["leaf", "list", "dict"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_finite_float_raises_like_json_dump(self, payload, bad, where):
        payload = {
            "leaf": bad, "list": [payload, bad], "dict": {"k": payload, "z": bad}
        }[where]
        with pytest.raises(ValueError) as want:
            _json_dump(payload)
        with pytest.raises(ValueError) as got:
            _json_text(payload)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_at_most_two_copies_of_the_text_alive(self):
        """The writer's peak stays near the two copies that joining a body
        and wrapping it take, as an analyze report of thousands of contexts
        has; a third copy of the text is a regression in peak memory."""
        payload = {
            "contexts": {
                f"C{i}": {
                    "class": "trigonometric",
                    "outcomes": {"1.0": {"lambda": i / 7, "theta": None}},
                }
                for i in range(3000)
            }
        }
        tracemalloc.start()
        try:
            text = _json_text(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)

    @pytest.mark.parametrize("command", ["analyze", "represent", "verify"])
    @pytest.mark.parametrize("model", ["kq", "random_3x3_seed4"])
    def test_reports_are_json_indented_form(self, model, command, kq_path, tmp_path):
        path = kq_path if model == "kq" else str(DATA / f"{model}.model.json")
        out = tmp_path / "report.json"
        assert main([command, path, "--output", str(out)]) in (0, 1)
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
