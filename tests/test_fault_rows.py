"""Fault rows: a ``verify`` check fails, with a witness, under a fault of the
program.

Each row applies one fault with ``monkeypatch`` and names the check that
must catch it.  Under the fault, at default tolerances, ``run_suite``
reports that check ``fail`` with the witness the row names (the context or
the readings that disagree), and ``contextprob verify`` exits 1 with the
same report on stdout and nothing on stderr: the identity is judged by the
check alone, and no library raise stops the run before the report is
written.  These are the first rows of a matrix with one fault per check id;
``MORE_ROWS`` holds further faults for an id that has a row, and every other
check id a report can hold waits in ``NO_ROW_YET``.
"""

import json
from pathlib import Path

import pytest

import contextprob as cp
from contextprob import (
    complex_repr,
    hyperbolic_repr,
    interference,
    multivalued,
    space,
    verify,
)
from contextprob.cli import main
from contextprob.hyperbolic import HyperbolicNumber
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


def _scaled_first_a_cell(monkeypatch):
    """Every table ``verify`` builds has P(A_0 & C) scaled by 1 + 1e-6."""
    original = verify.table_from_units

    def scaled(*args):
        table = original(*args)
        first, *row = table.a_row
        return table._replace(a_row=(first * (1.0 + 1e-6), *row))

    monkeypatch.setattr(verify, "table_from_units", scaled)


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


def _scaled_b_measure(j, excess):
    """The fault under which every context's coefficients read P(B_j & C)
    scaled by 1 + ``excess``."""

    def fault(monkeypatch):
        original = interference.coefficients_from_measures

        def scaled(pair, transition, pc, a_row, b_row):
            b_row = list(b_row)
            b_row[j] *= 1.0 + excess
            return original(pair, transition, pc, a_row, tuple(b_row))

        monkeypatch.setattr(interference, "coefficients_from_measures", scaled)

    return fault


def _flipped_second_delta(monkeypatch):
    """Every context's second perturbation reaches its reader negated."""
    original = interference.coefficients_from_measures

    def flipped(*args):
        coeffs = original(*args)
        return coeffs._replace(deltas=(coeffs.deltas[0], -coeffs.deltas[1]))

    monkeypatch.setattr(interference, "coefficients_from_measures", flipped)


def _rotated_cis(monkeypatch):
    """The complex states and basis turn each phase by a further 1e-5."""
    original = complex_repr.cis
    monkeypatch.setattr(complex_repr, "cis", lambda theta: original(theta + 1e-5))


def _turned_phase(index, convention=None):
    """The fault under which the complex states and basis read phase
    ``index`` of ``trigonometric_phases`` 1e-5 high, in every convention or
    in ``convention`` alone."""

    def fault(monkeypatch):
        original = complex_repr.trigonometric_phases

        def turned(coeffs, convention_="principal"):
            thetas = list(original(coeffs, convention_))
            if convention in (None, convention_):
                thetas[index] += 1e-5
            return tuple(thetas)

        monkeypatch.setattr(complex_repr, "trigonometric_phases", turned)

    return fault


def _scaled_result(owner, name, factor):
    """The fault under which ``owner.name`` returns its value times
    ``factor``: a number, or each entry of a tuple or of a matrix."""

    def fault(monkeypatch):
        original = getattr(owner, name)

        def scale(value):
            if isinstance(value, tuple):
                return tuple(scale(v) for v in value)
            return value * factor

        monkeypatch.setattr(owner, name, lambda *args: scale(original(*args)))

    return fault


def _stretched_exp_j(monkeypatch):
    """The hyperbolic states' exponentials have their x part scaled by
    1 + 1e-6."""
    original = hyperbolic_repr.exp_j

    def stretched(theta):
        e = original(theta)
        return HyperbolicNumber(e.x * (1.0 + 1e-6), e.y)

    monkeypatch.setattr(hyperbolic_repr, "exp_j", stretched)


def _turned_split_cis(monkeypatch):
    """The split recursion turns each phase by a further 1e-5, so every
    partial state drifts from its tail probability."""
    original = multivalued.cis
    monkeypatch.setattr(multivalued, "cis", lambda theta: original(theta + 1e-5))


def _shifted_partial_phase(monkeypatch):
    """The split recursion reads each partial state's argument 1e-5 high."""
    original = multivalued.cmath.phase
    monkeypatch.setattr(multivalued.cmath, "phase", lambda z: original(z) + 1e-5)


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
    "core.delta_sum_zero": ("atlas8", "core", _scaled_b_measure(1, 1e-6), "K48"),
    "core.lambda_weighted_sum_zero": (
        "atlas8", "core", _scaled_b_measure(1, 1e-6), "K48",
    ),
    "core.phase_cosine_relation": (
        "random_ds_seed7", "core", _scaled_b_measure(1, 1e-6), "S4",
    ),
    "core.reconstruction_identity": (
        "random_ds_seed7", "core", _scaled_b_measure(1, 1e-6), "S4, x=-1.0",
    ),
    "complex.normalization": (
        "atlas8", "complex", _scaled_b_measure(1, 1e-6), "Kac",
    ),
    "complex.born_b": ("atlas8", "complex", _rotated_cis, "Kf6, x=1.0"),
    "hyperbolic.born_b": ("atlas8", "hyperbolic", _stretched_exp_j, "Kc4, x=-1.0"),
    "hyperbolic.epsilon_sum_zero": (
        "atlas8", "hyperbolic", _flipped_second_delta, "K1c",
    ),
    "hyperbolic.rapidity_equality": (
        "random_ds_seed7", "hyperbolic", _scaled_b_measure(0, 1e-10), "S3",
    ),
    "hyperbolic.transform_pair_sum": (
        "random_ds_seed7", "hyperbolic", _scaled_b_measure(0, 1e-6), "S3, x=-1.0",
    ),
    "hyperbolic.basis_unitarity": (
        "random_ds_seed7", "hyperbolic", _stretched_exp_j, "gram[1][1].x",
    ),
    "core.partition_closure": ("atlas8", "core", _scaled_first_a_cell, "K4f"),
    "complex.basis_unitarity": (
        "random_ds_seed7", "complex", _turned_phase(1),
        "unitary=False but double stochastic=True",
    ),
    "complex.operator_spectrum": (
        "random_ds_seed7", "complex",
        _scaled_result(complex_repr.HermitianOperator, "eigenvalues", 1.0 + 1e-6),
        "a-operator spectrum",
    ),
    "complex.noncommutativity": (
        "random_ds_seed7", "complex", _scaled_result(complex_repr, "commutator", 0.5),
        "max |[b,a]| = 0.9523090119080833 < 1.9046180238161665",
    ),
    "complex.born_a": (
        "random_ds_seed7", "complex",
        _scaled_result(complex_repr, "born_probability", 1.0 + 1e-6), "S2, y=1.0",
    ),
    "complex.average_preservation": (
        "random_ds_seed7", "complex",
        _scaled_result(complex_repr, "quantum_average", 1.0 + 1e-6), "a-cell -1.0",
    ),
    "complex.conjugation_symmetry": (
        "random_ds_seed7", "complex", _turned_phase(0, "conjugate"), "Omega, x=1.0",
    ),
    "multivalued.union_additivity": ("atlas8", "all", _scaled_first_cell, "K13"),
    "multivalued.conditioned_split": ("atlas8", "all", _scaled_first_cell, "K13"),
    "multivalued.recursion_born": (
        "random_3x3_seed4", "multivalued", _shifted_partial_phase, "S1, x=0.0",
    ),
}

# further faults for a check id that has a row, by test id
MORE_ROWS = {
    "multivalued.recursion_born-partial": (
        "multivalued.recursion_born", "random_3x3_seed4", "multivalued",
        _turned_split_cis, "S1, x=0.0, level 0",
    ),
}
CASES = {check_id: (check_id, *row) for check_id, row in ROWS.items()} | MORE_ROWS

# every other check id a report can hold, each still without a fault row
NO_ROW_YET = {
    "core.weights_normalized", "core.probability_range",
    "core.bayes_consistency", "complex.suite", "complex.basic_context_classes",
    "hyperbolic.ring_laws", "hyperbolic.norm_multiplicative",
    "hyperbolic.positive_cone_closed", "hyperbolic.polar_roundtrip",
    "hyperbolic.basic_contexts_hyperbolic",
    "multivalued.contextual_split", "multivalued.half_eliminated_split",
}


def test_every_check_id_has_a_row_or_waits_for_one():
    """The check ids of every suite on a 2x2 model that is not double
    stochastic, a double stochastic one and a 3x3 one are exactly those of
    ``ROWS`` and ``NO_ROW_YET``, and no id is in both."""
    ids = set()
    for model in ("atlas8", "random_ds_seed7", "random_3x3_seed4"):
        doc = load_model(DATA / f"{model}.model.json")
        ids.update(c.id for c in cp.run_suite(doc, "all").checks)
    assert ROWS.keys() & NO_ROW_YET == set()
    assert ids == ROWS.keys() | NO_ROW_YET


@pytest.mark.parametrize(
    "check_id, model, suite, fault, witness", list(CASES.values()), ids=list(CASES)
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
