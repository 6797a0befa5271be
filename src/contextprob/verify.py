"""Named verification checks over a loaded model.

Each check exercises one invariant of the calculus on the model's declared
contexts and reports a pass/fail/skip status with the worst residual and a
witness.  Checks whose precondition the model does not meet (for example the
two-sided probability rule on a non-double-stochastic model) are reported as
skips with the reason; nothing is dropped silently.

A :func:`run_suite` call is one :class:`_Run`, which keeps the checks in
report order, applies the tolerance override, and holds the model facts the
suites share.  A check states its preconditions as ``(condition, reason)``
pairs when it is created with :meth:`_Run.check`, or with
:meth:`_Recorder.require` once a count it depends on is known.  The reason of
the first false one is the check's skip witness, and a check with no false
precondition that compared nothing is skipped as "nothing to compare".  A
check that runs reports its worst residual, and its witness is that of the
first comparison with that residual: a format string and its arguments,
formatted only when its comparison becomes the worst.  A library function
that computes what a check compares (the total probability decomposition,
the partition structure, symmetric conditioning, the shared phase offset,
the split's solved form and mu) does not judge it: the check does, so a
failure is a failed check with its residual and witness, not an exception.

A run reads each declared context, and then each b-cell, once through
:func:`~contextprob.interference.read_contexts`, whichever suites run, and
keeps each context's coefficients and the
:class:`~contextprob.space.MeasureTable` built from the exact unit rows the
read yields: P(C), its a-, b- and joint cells and the union rows of the
single a-cells, the a-cell pairs and the recursion tails.  The core and
multivalued suites read these tables.  Each representable context's
principal complex state is built once, with its Born probabilities |c|^2,
which the complex suite's Born and conjugation checks and the multivalued
suite's comparison with the recursion read; the conjugate and the recursion
states' Born probabilities are read once from their components too.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, combinations, islice, repeat
from typing import NamedTuple

from . import complex_repr as cr
from . import hyperbolic_repr as hr
from . import interference as itf
from . import multivalued as mv
from .errors import DegenerateCell, SplitOutOfRange, ZeroConditioningContext
from .hyperbolic import HyperbolicNumber, polar
from .models import ModelDocument
from .space import (
    MeasureTable,
    are_incompatible,
    check_incompatibility_structure,
    is_symmetrically_conditioned,
    pair_tables,
    table_from_units,
    total_probability_from_table,
    transition_matrix,
)
from .tolerances import (
    AVERAGE_TOL,
    BORN_TOL,
    CONE_CLOSURE_TOL,
    GRAM_TOL,
    IDENTITY_TOL,
    NORM_PRODUCT_TOL,
    OFFSET_TOL,
    POLAR_ROUNDTRIP_TOL,
    PREDICATE_TOL,
    RECURSION_BORN_TOL,
    RING_LAW_TOL,
)

SUITES = ("core", "complex", "hyperbolic", "multivalued")
NOT_DS = "transition matrix not double stochastic"
COMPLEX_CLASSES = (itf.ContextClass.TRIGONOMETRIC, itf.ContextClass.BOUNDARY)
HYPERBOLIC_CLASSES = (itf.ContextClass.HYPERBOLIC, itf.ContextClass.BOUNDARY)


class Check(NamedTuple):
    id: str
    status: str  # "pass" | "fail" | "skip"
    residual: float | None = None
    witness: str | None = None

    def to_dict(self) -> dict:
        """JSON form; a residual that is not finite (a failed expectation)
        is written as null, with the witness saying what failed."""
        residual = self.residual
        if residual is not None and not math.isfinite(residual):
            residual = None
        return {**self._asdict(), "residual": residual}


class VerificationReport(NamedTuple):
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


class _Recorder:
    """Collects the worst residual over many comparisons for one check."""

    def __init__(self, check_id: str, tol: float, preconditions=()):
        self.id = check_id
        self.tol = tol
        self.preconditions = list(preconditions)
        self.worst = 0.0
        self.witness: str | None = None
        self.compared = 0

    def require(self, condition, reason: str) -> None:
        self.preconditions.append((condition, reason))

    @property
    def runs(self) -> bool:
        """Whether every precondition so far holds."""
        return all(condition for condition, _ in self.preconditions)

    def compare(self, lhs: float, rhs: float, witness: str, *args) -> None:
        """The witness is ``witness.format(*args)``, or ``witness`` itself
        without ``args``, formatted only if this comparison is the worst.
        A NaN residual is a failed expectation, as in :meth:`expect`."""
        residual = abs(lhs - rhs)
        self.compared += 1
        if not residual <= self.worst:  # a larger residual, or NaN
            if residual != residual:  # NaN: a failed expectation
                if self.worst == math.inf:
                    return
                residual = math.inf
            self.worst = residual
            self.witness = witness.format(*args) if args else witness

    def expect(self, condition: bool, witness: str, *args) -> None:
        self.compared += 1
        if not condition and not math.isinf(self.worst):
            self.worst = math.inf
            self.witness = witness.format(*args) if args else witness

    def result(self) -> Check:
        for condition, reason in self.preconditions:
            if not condition:
                return Check(self.id, "skip", witness=reason)
        if self.compared == 0:
            return Check(self.id, "skip", witness="nothing to compare")
        status = "pass" if self.worst <= self.tol else "fail"
        return Check(self.id, status, residual=self.worst, witness=self.witness)


def _born(psi: cr.ComplexAmplitude) -> list[float]:
    """|c|^2 of each component, the float :meth:`ComplexAmplitude.born`
    gives for its b-value."""
    return [abs(c) ** 2 for c in psi.components]


class _Run:
    """One :func:`run_suite` call: its checks in report order and the model
    facts the suites share, each computed once.

    ``tables`` holds the table of each declared context, with the unions
    the multivalued suite splits over, and ``classified`` maps the name of
    every one that is a-nondegenerate to its coefficients, both in
    declaration order; ``classified`` is empty unless the pair is
    dichotomous and incompatible.  ``states`` holds the principal state of
    each context :meth:`principal` was asked for, with its Born
    probabilities.
    """

    def __init__(self, doc: ModelDocument, tolerance: float | None):
        self.doc = doc
        self.space, self.pair = doc.space, doc.pair
        self.tolerance = tolerance
        self.recorders: list[_Recorder] = []
        pair = self.pair
        self.dichotomous = len(pair.a_values) == 2 and len(pair.b_values) == 2
        self.states: dict[str, tuple[cr.ComplexAmplitude, list[float]]] = {}
        k = range(len(pair.a_values))
        unions = {*map(frozenset, [*combinations(k, 1), *combinations(k, 2)])}
        unions.update(mv.recursion_tails(k))
        scale = pair_tables(self.space, pair).scale
        named = chain(doc.contexts.items(), zip(repeat(None), pair.b_partition))
        reads = itf.read_contexts(self.space, pair, named)
        self.tables: list[MeasureTable] = []
        self.classified: dict[str, itf.InterferenceCoefficients] = {}
        for name, rows, coeffs in islice(reads, len(doc.contexts)):
            self.tables.append(table_from_units(rows, scale, unions))
            if isinstance(coeffs, itf.InterferenceCoefficients):
                self.classified[name] = coeffs
        self._b_cells = [coeffs for _, _, coeffs in reads]

    def principal(
        self, name: str, coeffs
    ) -> tuple[cr.ComplexAmplitude, list[float]]:
        """The principal complex state of a classified context, built once,
        with its Born probabilities |c|^2 in b-value order."""
        if name not in self.states:
            psi = cr.amplitude_from_coefficients(coeffs)
            self.states[name] = psi, _born(psi)
        return self.states[name]

    def check(self, check_id: str, tol: float, *preconditions) -> _Recorder:
        """A new check, last in the report so far; a tolerance override
        replaces its default ``tol``."""
        if self.tolerance is not None:
            tol = self.tolerance
        rec = _Recorder(check_id, tol, preconditions)
        self.recorders.append(rec)
        return rec

    @cached_property
    def t(self):
        """The pair's "b/a" transition matrix."""
        return transition_matrix(self.space, self.pair, "b/a")

    @cached_property
    def ds(self) -> bool:
        return self.t.double_stochastic

    @cached_property
    def both_ds(self) -> bool:
        """Whether the "a/b" matrix is double stochastic as well."""
        return transition_matrix(self.space, self.pair, "a/b").double_stochastic

    @property
    def b_cells(self) -> list[itf.InterferenceCoefficients]:
        """The coefficients of each b-cell taken as a context; raises the
        refusal of the first b-cell that has none."""
        for coeffs in self._b_cells:
            if not isinstance(coeffs, itf.InterferenceCoefficients):
                raise coeffs
        return self._b_cells


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------


def _core_checks(run: _Run) -> None:
    space, pair, contexts = run.space, run.pair, run.doc.contexts

    rec = run.check("core.weights_normalized", IDENTITY_TOL)
    rec.compare(math.fsum(space.weights), 1.0, "weight sum")

    rec_range = run.check("core.probability_range", IDENTITY_TOL)
    rec_bayes = run.check("core.bayes_consistency", IDENTITY_TOL)
    rec_total = run.check("core.total_probability_identity", IDENTITY_TOL)
    rec_closure = run.check("core.partition_closure", IDENTITY_TOL)
    for name, table in zip(contexts, run.tables):
        pc = table.pc
        rec_range.expect(0.0 <= pc <= 1.0 + IDENTITY_TOL, "P({})={}", name, pc)
        if pc == 0.0:
            continue
        for p in (*table.a_row, *table.b_row):
            rec_bayes.compare((p / pc) * pc, p, name)
        try:
            decomp = total_probability_from_table(pair, table)
        except DegenerateCell:
            pass
        else:
            for j, x in enumerate(pair.b_values):
                rec_total.compare(decomp[x], table.b_row[j] / pc, "{}, x={}", name, x)
        rec_closure.compare(math.fsum(p / pc for p in table.a_row), 1.0, name)

    rec = run.check("core.partition_structure", PREDICATE_TOL)
    report = check_incompatibility_structure(space, pair)
    rec.expect(
        not report.cell_nonempty or report.no_inclusions,
        "nonempty cells but an inclusion",
    )
    rec.expect(
        not run.dichotomous or report.cell_nonempty == report.no_inclusions,
        "dichotomous cells nonempty={} but no inclusions={}",
        report.cell_nonempty, report.no_inclusions,
    )

    pre = (run.dichotomous, "pair is not dichotomous")
    rec = run.check("core.delta_sum_zero", PREDICATE_TOL, pre)
    rec2 = run.check("core.lambda_weighted_sum_zero", PREDICATE_TOL, pre)
    rec3 = run.check("core.reconstruction_identity", PREDICATE_TOL, pre)
    rec4 = run.check("core.phase_cosine_relation", PREDICATE_TOL, pre)
    rec5 = run.check("core.symmetry_equivalence", PREDICATE_TOL, pre)
    if not run.dichotomous:
        return
    (t00, t01), (t10, t11) = run.t.rows
    for name, coeffs in run.classified.items():
        cls = coeffs.context_class
        # each sum is compared with zero, so the sign of a zero cannot reach
        # the residual, and the IEEE sum of two terms is their fsum otherwise
        rec.compare(coeffs.deltas[0] + coeffs.deltas[1], 0.0, name)
        (a0, a1), (lam0, lam1) = coeffs.a_profile, coeffs.lambdas
        weighted = lam0 * math.sqrt(a0 * t00 * a1 * t10) + lam1 * math.sqrt(
            a0 * t01 * a1 * t11
        )
        rec2.compare(weighted, 0.0, name)
        if cls is not itf.ContextClass.MIXED:
            phases = itf.assign_phases(coeffs)
            recon = itf.reconstruct_probability(coeffs, phases)
            for j, x in enumerate(pair.b_values):
                rec3.compare(recon[x], coeffs.b_profile[j], "{}, x={}", name, x)
        if cls in COMPLEX_CLASSES:
            # read here, not before the loop: a compatible pair has no
            # cosine ratio, and no classified context either
            lam = coeffs.lambdas
            rec4.compare(lam[1], -run.t.cosine_ratio * lam[0], name)
    symmetric = is_symmetrically_conditioned(space, pair)
    both_ds = run.ds and run.both_ds
    tables = pair_tables(space, pair)
    rows, scale = tables.cell_units, tables.scale
    uniform = all(
        abs(sum(units) / scale - 0.5) <= PREDICATE_TOL
        for units in (*rows, *zip(*rows))
    )
    # the three readings coincide only for incompatible pairs: a perfectly
    # correlated pair has identity transition matrices but free marginals
    rec5.expect(
        symmetric == both_ds == uniform or not are_incompatible(space, pair),
        "symmetric={}, both double stochastic={}, uniform marginals={}",
        symmetric, both_ds, uniform,
    )


# ---------------------------------------------------------------------------
# complex suite
# ---------------------------------------------------------------------------


def _complex_checks(run: _Run) -> None:
    if not run.dichotomous:
        run.check("complex.suite", PREDICATE_TOL, (False, "pair is not dichotomous"))
        return
    space, pair, ds = run.space, run.pair, run.ds
    basis = cr.a_basis_for_context(space, pair, space.full_event())
    representable = [
        (name, coeffs)
        for name, coeffs in run.classified.items()
        if coeffs.context_class in COMPLEX_CLASSES
    ]
    not_ds = (ds, NOT_DS)

    rec = run.check("complex.born_b", BORN_TOL)
    rec_norm = run.check("complex.normalization", BORN_TOL)
    rec_conj = run.check("complex.conjugation_symmetry", IDENTITY_TOL)
    rec_a = run.check("complex.born_a", BORN_TOL, not_ds)
    states = []  # (name, state, a-profile, b-profile), kept for averages
    for name, coeffs in representable:
        psi, p = run.principal(name, coeffs)
        if ds:
            states.append((name, psi, coeffs.a_profile, coeffs.b_profile))
        p_bar = _born(cr.amplitude_from_coefficients(coeffs, "conjugate"))
        rec_norm.compare(psi.norm_sq(), 1.0, name)
        for j, x in enumerate(pair.b_values):
            rec.compare(p[j], coeffs.b_profile[j], "{}, x={}", name, x)
            rec_conj.compare(p[j], p_bar[j], "{}, x={}", name, x)
        if ds:
            for i, y in enumerate(pair.a_values):
                rec_a.compare(
                    cr.born_probability(psi, basis.vectors[i]),
                    coeffs.a_profile[i], "{}, y={}", name, y,
                )

    # the basis is unitary by the double stochastic flag; this reads its Gram
    rec = run.check("complex.basis_unitarity", PREDICATE_TOL)
    gram = [cr.inner_product(v, w) for v in basis.vectors for w in basis.vectors]
    orthonormal = all(abs(g - d) <= PREDICATE_TOL for g, d in zip(gram, (1, 0, 0, 1)))
    rec.expect(
        orthonormal == ds, "unitary={} but double stochastic={}", orthonormal, ds
    )

    rec_spec = run.check("complex.operator_spectrum", PREDICATE_TOL, not_ds)
    rec_comm = run.check("complex.noncommutativity", PREDICATE_TOL, not_ds)
    rec_avg = run.check("complex.average_preservation", AVERAGE_TOL, not_ds)
    rec_cls = run.check("complex.basic_context_classes", PREDICATE_TOL, not_ds)
    if ds:
        a_op = cr.operator_for_variable(pair.a_values, basis)
        eig = sorted(a_op.eigenvalues())
        for lhs, rhs in zip(eig, sorted(pair.a_values)):
            rec_spec.compare(lhs, rhs, "a-operator spectrum")

        b_op = cr.operator_for_b(pair)
        comm = cr.commutator(b_op, a_op)
        q1q2 = math.sqrt(run.t.rows[0][0] * run.t.rows[0][1])
        bound = (
            abs(pair.a_values[0] - pair.a_values[1])
            * abs(pair.b_values[0] - pair.b_values[1])
            * q1q2
        )
        largest = max(abs(v) for row in comm for v in row)
        rec_comm.expect(
            largest >= bound - PREDICATE_TOL, "max |[b,a]| = {} < {}", largest, bound
        )

        # f at each a-value, g at each b-value
        tables = [((1.0, -1.0), (1.0, -1.0)), ((0.3, 2.7), (-1.4, 0.9))]
        operators = [cr.sum_operator(basis, f, g) for f, g in tables]
        states += [
            (f"a-cell {y}", *cr.state_for_context(space, pair, ay, basis))
            for y, ay in zip(pair.a_values, pair.a_partition)
        ]
        for fname, psi, a_profile, b_profile in states:
            for (f_row, g_row), op in zip(tables, operators):
                report = cr.average_preservation(
                    psi, op, f_row, g_row, a_profile, b_profile
                )
                rec_avg.compare(report.classical, report.quantum, fname)

        both_ds = run.both_ds
        b_trig = all(c.context_class in COMPLEX_CLASSES for c in run.b_cells)
        rec_cls.expect(
            b_trig == both_ds,
            "b-cells trigonometric={}, both matrices doubly stochastic={}",
            b_trig, both_ds,
        )
        if both_ds:
            for j, coeffs in enumerate(run.b_cells):
                lam = coeffs.lambdas
                rec_cls.compare(lam[j], 1.0, "lambda(B{0}|B{0})", j)
                rec_cls.compare(lam[1 - j], -1.0, "lambda(B{}|B{})", 1 - j, j)

    rec = run.check(
        "complex.global_phase_offset",
        PREDICATE_TOL,
        (len(representable) >= 2, "fewer than two trigonometric contexts"),
    )
    if rec.runs:
        report = itf.global_alpha_from_coefficients(representable)
        rec.require(
            ds or report.has_distinct_lambda_pair,
            "no pair of contexts with distinct |lambda|",
        )
        if ds:
            rec.expect(
                report.found and report.alpha is not None
                and abs(report.alpha - math.pi) <= OFFSET_TOL,
                "double stochastic model must admit the offset pi, got {}",
                report.alpha,
            )
        else:
            rec.expect(
                not report.found,
                "shared offset {} found despite distinct coefficient magnitudes",
                report.alpha,
            )


# ---------------------------------------------------------------------------
# hyperbolic suite
# ---------------------------------------------------------------------------


def _hyperbolic_checks(run: _Run) -> None:
    import random

    # one seeded stream: 200 triples, then 200 pairs, then 100 polar draws
    rng = random.Random(20240817)

    def draw() -> HyperbolicNumber:
        return HyperbolicNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))

    rec = run.check("hyperbolic.ring_laws", RING_LAW_TOL)
    for _ in range(200):
        z1, z2, z3 = draw(), draw(), draw()
        for law, lhs, rhs in (
            ("associativity", (z1 * z2) * z3, z1 * (z2 * z3)),
            ("distributivity", z1 * (z2 + z3), z1 * z2 + z1 * z3),
            ("commutativity", z1 * z2, z2 * z1),
        ):
            rec.compare(lhs.x, rhs.x, law)
            rec.compare(lhs.y, rhs.y, law)

    rec = run.check("hyperbolic.norm_multiplicative", NORM_PRODUCT_TOL)
    rec2 = run.check("hyperbolic.positive_cone_closed", PREDICATE_TOL)
    for _ in range(200):
        z1, z2 = draw(), draw()
        rec.compare((z1 * z2).norm_sq(), z1.norm_sq() * z2.norm_sq(), "product")
        if z1.in_positive_cone() and z2.in_positive_cone():
            rec2.expect((z1 * z2).in_positive_cone(CONE_CLOSURE_TOL), "cone closure")

    rec = run.check("hyperbolic.polar_roundtrip", POLAR_ROUNDTRIP_TOL)
    for _ in range(100):
        x = rng.uniform(0.1, 10.0) * (1 if rng.random() < 0.5 else -1)
        y = rng.uniform(-1.0, 1.0) * abs(x) * 0.999
        z = HyperbolicNumber(x, y)
        back = polar(z).reconstruct()
        rec.compare(back.x, z.x, "roundtrip x")
        rec.compare(back.y, z.y, "roundtrip y")

    if not run.dichotomous:
        run.check("hyperbolic.born_b", BORN_TOL, (False, "pair is not dichotomous"))
        return
    space, pair, ds = run.space, run.pair, run.ds
    hyp = [
        (name, coeffs, hr.hyperbolic_amplitude_from_coefficients(coeffs))
        for name, coeffs in run.classified.items()
        if coeffs.context_class in HYPERBOLIC_CLASSES
    ]
    strict_hyp = [
        coeffs
        for _, coeffs, _ in hyp
        if itf.OutcomeClass.HYPERBOLIC in coeffs.tags
    ]
    no_hyp = (bool(hyp), "no hyperbolic contexts declared")
    not_ds = (ds, NOT_DS)

    rec = run.check("hyperbolic.born_b", BORN_TOL, no_hyp)
    rec_eps = run.check("hyperbolic.epsilon_sum_zero", 0.0, no_hyp)
    rec_rap = run.check("hyperbolic.rapidity_equality", PREDICATE_TOL, no_hyp, not_ds)
    for name, coeffs, psi in hyp:
        for j, x in enumerate(pair.b_values):
            rec.compare(psi.born(x), coeffs.b_profile[j], "{}, x={}", name, x)
        rec_eps.compare(float(sum(psi.epsilons)), 0.0, name)
        if ds:
            # the cosh targets, not their acosh: near |lambda| = 1 acosh
            # magnifies rounding past the tolerance
            lam0, lam1 = coeffs.lambdas
            rec_rap.compare(max(1.0, abs(lam0)), max(1.0, abs(lam1)), name)

    rec = run.check(
        "hyperbolic.basis_unitarity",
        GRAM_TOL,
        not_ds,
        (bool(strict_hyp), "no strictly hyperbolic anchor declared"),
    )
    if rec.runs:
        basis = hr.hyperbolic_a_basis(strict_hyp[0])
        for i in range(2):
            for k in range(2):
                g = hr.hyperbolic_inner_product(
                    basis.vectors[i], basis.vectors[k]
                )
                rec.compare(g.x, 1.0 if i == k else 0.0, "gram[{}][{}].x", i, k)
                rec.compare(g.y, 0.0, "gram[{}][{}].y", i, k)
        for cname, coeffs, psi in hyp:
            for i, y in enumerate(pair.a_values):
                rec.compare(
                    hr.hyperbolic_born(psi.components, basis.vectors[i]),
                    coeffs.a_profile[i], "{}, y={}", cname, y,
                )

    rec = run.check("hyperbolic.transform_pair_sum", BORN_TOL, not_ds, no_hyp)
    if ds:
        for name, coeffs, psi in hyp:
            out = hr.hyperbolic_interference_transform(
                coeffs.a_profile, run.t, psi.thetas[0], psi.epsilons[0]
            )
            for j, x in enumerate(pair.b_values):
                rec.compare(out[j], coeffs.b_profile[j], "{}, x={}", name, x)

    rec = run.check("hyperbolic.basic_contexts_hyperbolic", PREDICATE_TOL, not_ds)
    if ds:
        both_ds = run.both_ds
        for j, coeffs in enumerate(run.b_cells):
            cls = coeffs.context_class
            rec.expect(
                cls in HYPERBOLIC_CLASSES, "b-cell {} classified {}", j, cls.value
            )
            if both_ds:
                rec.expect(
                    cls is itf.ContextClass.BOUNDARY,
                    "b-cell {} should sit on the boundary, got {}", j, cls.value,
                )


# ---------------------------------------------------------------------------
# multivalued suite
# ---------------------------------------------------------------------------


def _multivalued_checks(run: _Run) -> None:
    space, pair, contexts = run.space, run.pair, run.doc.contexts
    free = pair_tables(space, pair).free
    n = len(pair.a_values)
    pairs = list(combinations(range(n), 2))
    order, signs = tuple(range(n)), (1,) * (n - 1)
    last = order[-2:]  # the a-cells of the recursion's last-level split
    singles = [frozenset((i,)) for i in range(n)]

    rec_f1 = run.check("multivalued.union_additivity", IDENTITY_TOL)
    rec_f2 = run.check("multivalued.conditioned_split", IDENTITY_TOL)
    rec_f3 = run.check("multivalued.contextual_split", IDENTITY_TOL)
    rec_f5 = run.check("multivalued.half_eliminated_split", IDENTITY_TOL)
    rec = run.check("multivalued.recursion_born", RECURSION_BORN_TOL)
    tuples = built = unrepresentable = 0
    for name, table in zip(contexts, run.tables):
        lams = [None] * len(pair.b_values)
        for j in range(len(lams)) if table.pc != 0.0 else ():
            for i1, i2 in pairs:
                try:
                    split = mv.split_from_tables(table, free, j, i1, i2)
                    if (i1, i2) == last:
                        lams[j] = split.lam
                    mu, head, tail = mv.mu_from_tables(table, free, j, i1, singles[i2])
                except DegenerateCell:
                    continue
                tuples += 1
                rec_f1.compare(split.lhs, split.additivity_rhs, name)
                rec_f2.compare(split.lhs, split.conditioned_rhs, name)
                rec_f3.compare(split.lhs, split.rhs, name)
                half = head + tail + 2.0 * mu * math.sqrt(head * tail)
                rec_f5.compare(half, split.lhs, name)
        try:
            psi, chain = mv.amplitude_nvalued_from_tables(
                pair, table, free, order, signs, lams
            )
        except SplitOutOfRange:
            unrepresentable += 1
            continue
        except (DegenerateCell, ZeroConditioningContext):
            continue
        built += 1
        p = _born(psi)
        for j, x in enumerate(pair.b_values):
            rec.compare(p[j], table.b_row[j] / table.pc, "{}, x={}", name, x)
            for level in chain.levels[x]:
                rec.compare(
                    abs(level.partial) ** 2, level.tail_probability,
                    "{}, x={}, level {}", name, x, level.level,
                )
        coeffs = run.classified.get(name)
        if coeffs is not None and coeffs.context_class in COMPLEX_CLASSES:
            _, flat = run.principal(name, coeffs)
            for j, x in enumerate(pair.b_values):
                rec.compare(p[j], flat[j], "{} vs flat, x={}", name, x)
    for r in (rec_f1, rec_f2, rec_f3, rec_f5):
        r.require(tuples > 0, "no admissible event tuples")
    rec.require(
        built > 0, f"no representable contexts ({unrepresentable} out of range)"
    )


# ---------------------------------------------------------------------------


def run_suite(
    doc: ModelDocument, suite: str = "all", tolerance: float | None = None
) -> VerificationReport:
    """Run one named suite (or all of them) against a model."""
    if suite not in SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    run = _Run(doc, tolerance)
    for name, checks in zip(
        SUITES,
        (_core_checks, _complex_checks, _hyperbolic_checks, _multivalued_checks),
    ):
        if suite in (name, "all"):
            checks(run)
    return VerificationReport([rec.result() for rec in run.recorders])
