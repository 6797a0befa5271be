"""Fault rows: a ``verify`` check fails, with a witness, under a fault of the
program.

Each row applies one fault with ``monkeypatch`` and names the check that
must catch it.  Under the fault, at default tolerances, ``run_suite``
reports that check ``fail`` with the witness the row names (the context or
the readings that disagree), and ``contextprob verify`` exits 1 with the
same report on stdout and nothing on stderr: the identity is judged by the
check alone, and no library raise stops the run before the report is
written.  These are the first rows of a matrix with one fault per check id.
"""

import json
from pathlib import Path

import pytest

import contextprob as cp
from contextprob import interference, space, verify
from contextprob.cli import main
from contextprob.models import load_model, save_model

DATA = Path(__file__).parent / "data"


def _shifted_a_b_matrix(monkeypatch):
    """The "a/b" matrix that the space's own functions read has its first
    row moved by +-1e-6; its rows still sum to one."""
    original = space.transition_matrix

    def shifted(space_, pair, direction="b/a"):
        m = original(space_, pair, direction)
        if direction != "a/b":
            return m
        (p, q), *rest = m.rows
        return space.TransitionMatrix([(p + 1e-6, q - 1e-6), *rest])

    monkeypatch.setattr(space, "transition_matrix", shifted)


def _every_cell_included(monkeypatch):
    monkeypatch.setattr(space.Event, "issubset", lambda self, other: True)


def _scaled_first_cell(monkeypatch):
    """Every table ``verify`` builds has P(A_0 & B_0 & C) scaled by 1 + 1e-6."""
    original = verify.table_from_units

    def scaled(*args):
        table = original(*args)
        (first, *row), *rows = table.cells
        cells = ((first * (1.0 + 1e-6), *row), *rows)
        return table._replace(cells=cells)

    monkeypatch.setattr(verify, "table_from_units", scaled)


def _every_offset_shared(monkeypatch):
    monkeypatch.setattr(interference, "_circular_close", lambda u, v: True)


ROWS = {
    "core.symmetry_equivalence": (
        "kq", "core", _shifted_a_b_matrix,
        "symmetric=False, both double stochastic=True, uniform marginals=True",
    ),
    "core.partition_structure": (
        "atlas8", "core", _every_cell_included, "nonempty cells but an inclusion",
    ),
    "core.total_probability_identity": (
        "atlas8", "core", _scaled_first_cell, "K43, x=1.0",
    ),
    "complex.global_phase_offset": (
        "atlas8", "complex", _every_offset_shared,
        "shared offset 3.141592653589793 found despite distinct coefficient "
        "magnitudes",
    ),
}


@pytest.mark.parametrize(
    "check_id, model, suite, fault, witness",
    [(check_id, *row) for check_id, row in ROWS.items()],
    ids=list(ROWS),
)
def test_fault_fails_its_check(
    check_id, model, suite, fault, witness, tmp_path, monkeypatch, capsys
):
    path = DATA / f"{model}.model.json"
    if model == "kq":
        path = tmp_path / "kq.json"
        save_model(cp.generate_kq(0.125), path)
    doc = load_model(path)
    before = {c.id: c.status for c in cp.run_suite(doc, suite).checks}
    assert before[check_id] == "pass"
    fault(monkeypatch)
    checks = {c.id: c for c in cp.run_suite(doc, suite).checks}
    assert (checks[check_id].status, checks[check_id].witness) == ("fail", witness)

    assert main(["verify", str(path), "--suite", suite]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["passed"] is False
    reported = {c["id"]: c for c in report["checks"]}
    assert (reported[check_id]["status"], reported[check_id]["witness"]) == (
        "fail", witness,
    )
