"""Named verification checks over a loaded model.

Each check exercises one invariant of the calculus on the model's declared
contexts and reports a pass/fail/skip status with the worst residual and a
witness.  Checks whose precondition the model does not meet (for example the
two-sided probability rule on a non-double-stochastic model) are reported as
skips with the reason; nothing is dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import complex_repr as cr
from . import hyperbolic_repr as hr
from . import interference as itf
from . import multivalued as mv
from .errors import (
    ContextualProbabilityError,
    DegenerateCell,
    DegenerateContext,
    SplitOutOfRange,
    ZeroConditioningContext,
)
from .hyperbolic import HyperbolicNumber, polar
from .models import ModelDocument
from .space import (
    IDENTITY_TOL,
    PREDICATE_TOL,
    check_incompatibility_structure,
    classical_total_probability,
    is_double_stochastic,
    is_symmetrically_conditioned,
    transition_matrix,
)

SUITES = ("core", "complex", "hyperbolic", "multivalued")


@dataclass(frozen=True)
class Check:
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
        return {
            "id": self.id,
            "status": self.status,
            "residual": residual,
            "witness": self.witness,
        }


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _tol(override: float | None, default: float) -> float:
    return default if override is None else override


class _Recorder:
    """Collects the worst residual over many comparisons for one check."""

    def __init__(self, check_id: str, tol: float):
        self.id = check_id
        self.tol = tol
        self.worst = 0.0
        self.witness: str | None = None
        self.compared = 0

    def compare(self, lhs: float, rhs: float, witness: str) -> None:
        residual = abs(lhs - rhs)
        self.compared += 1
        if residual > self.worst:
            self.worst = residual
            self.witness = witness

    def expect(self, condition: bool, witness: str) -> None:
        self.compared += 1
        if not condition and not math.isinf(self.worst):
            self.worst = math.inf
            self.witness = witness

    def result(self, skip_reason: str | None = None) -> Check:
        if skip_reason is not None:
            return Check(self.id, "skip", witness=skip_reason)
        if self.compared == 0:
            return Check(self.id, "skip", witness="nothing to compare")
        status = "pass" if self.worst <= self.tol else "fail"
        return Check(self.id, status, residual=self.worst, witness=self.witness)


def _classified_contexts(doc: ModelDocument) -> list:
    """(name, coefficients, class) for every declared context that is
    a-nondegenerate, in declaration order; empty unless the pair is
    dichotomous.  Computed once per :func:`run_suite` call and shared by the
    suites."""
    space, pair = doc.space, doc.pair
    if len(pair.a_values) != 2 or len(pair.b_values) != 2:
        return []
    out = []
    for name, event in doc.contexts.items():
        try:
            coeffs = itf.interference_coefficients(space, pair, event)
        except (DegenerateContext, DegenerateCell, ZeroConditioningContext):
            continue
        out.append((name, coeffs, itf.classify_context(coeffs)))
    return out


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------


def _core_checks(
    doc: ModelDocument, tol: float | None, classified: list
) -> list[Check]:
    space, pair = doc.space, doc.pair
    checks: list[Check] = []

    rec = _Recorder("core.weights_normalized", _tol(tol, IDENTITY_TOL))
    rec.compare(math.fsum(space.weights), 1.0, "weight sum")
    checks.append(rec.result())

    rec = _Recorder("core.probability_range", _tol(tol, IDENTITY_TOL))
    for name, event in doc.contexts.items():
        p = space.probability(event)
        rec.expect(0.0 <= p <= 1.0 + IDENTITY_TOL, f"P({name})={p}")
    checks.append(rec.result())

    rec = _Recorder("core.bayes_consistency", _tol(tol, IDENTITY_TOL))
    parts = list(pair.a_partition) + list(pair.b_partition)
    for name, c in doc.contexts.items():
        pc = space.probability(c)
        if pc == 0.0:
            continue
        for e in parts:
            rec.compare(
                space.conditional(e, c) * pc,
                space.probability(e & c),
                f"{name}",
            )
    checks.append(rec.result())

    rec = _Recorder("core.total_probability_identity", _tol(tol, IDENTITY_TOL))
    for name, c in doc.contexts.items():
        try:
            decomp = classical_total_probability(space, pair, c)
        except (DegenerateCell, DegenerateContext, ZeroConditioningContext):
            continue
        for j, x in enumerate(pair.b_values):
            rec.compare(
                decomp[x],
                space.conditional(pair.b_partition[j], c),
                f"{name}, x={x}",
            )
    checks.append(rec.result())

    rec = _Recorder("core.partition_closure", _tol(tol, IDENTITY_TOL))
    for name, c in doc.contexts.items():
        if space.probability(c) == 0.0:
            continue
        rec.compare(
            math.fsum(space.conditional(ay, c) for ay in pair.a_partition),
            1.0,
            name,
        )
    checks.append(rec.result())

    rec = _Recorder("core.partition_structure", _tol(tol, PREDICATE_TOL))
    report = check_incompatibility_structure(space, pair)
    if report.cell_nonempty:
        rec.expect(report.no_inclusions, "nonempty cells but an inclusion")
    else:
        rec.expect(True, "")
    checks.append(rec.result())

    dichotomous = len(pair.a_values) == 2 and len(pair.b_values) == 2
    rec = _Recorder("core.delta_sum_zero", _tol(tol, PREDICATE_TOL))
    rec2 = _Recorder("core.lambda_weighted_sum_zero", _tol(tol, PREDICATE_TOL))
    rec3 = _Recorder("core.reconstruction_identity", _tol(tol, PREDICATE_TOL))
    rec4 = _Recorder("core.phase_cosine_relation", _tol(tol, PREDICATE_TOL))
    if dichotomous:
        t = transition_matrix(space, pair, "b/a")
        k = itf.k_coefficient(t)
        rows = t.rows
        for name, coeffs, cls in classified:
            rec.compare(math.fsum(coeffs.deltas), 0.0, name)
            pa = coeffs.a_profile
            weighted = math.fsum(
                coeffs.lambdas[j]
                * math.sqrt(pa[0] * rows[0][j] * pa[1] * rows[1][j])
                for j in range(2)
            )
            rec2.compare(weighted, 0.0, name)
            if cls is not itf.ContextClass.MIXED:
                phases = itf.assign_phases(coeffs)
                recon = itf.reconstruct_probability(coeffs, phases)
                for j, x in enumerate(pair.b_values):
                    rec3.compare(recon[x], coeffs.b_profile[j], f"{name}, x={x}")
            if cls in (itf.ContextClass.TRIGONOMETRIC, itf.ContextClass.BOUNDARY):
                lam = coeffs.lambdas
                rec4.compare(lam[1], -k * lam[0], name)
        checks.append(rec.result())
        checks.append(rec2.result())
        checks.append(rec3.result())
        checks.append(rec4.result())
        rec5 = _Recorder("core.symmetry_equivalence", _tol(tol, PREDICATE_TOL))
        is_symmetrically_conditioned(space, pair)  # raises on inconsistency
        rec5.expect(True, "")
        checks.append(rec5.result())
    else:
        for cid in (
            "core.delta_sum_zero",
            "core.lambda_weighted_sum_zero",
            "core.reconstruction_identity",
            "core.phase_cosine_relation",
            "core.symmetry_equivalence",
        ):
            checks.append(Check(cid, "skip", witness="pair is not dichotomous"))
    return checks


# ---------------------------------------------------------------------------
# complex suite
# ---------------------------------------------------------------------------


def _complex_checks(
    doc: ModelDocument, tol: float | None, classified: list
) -> list[Check]:
    space, pair = doc.space, doc.pair
    checks: list[Check] = []
    if len(pair.a_values) != 2 or len(pair.b_values) != 2:
        return [
            Check("complex.suite", "skip", witness="pair is not dichotomous")
        ]
    t = transition_matrix(space, pair, "b/a")
    ds = is_double_stochastic(t)
    basis = cr.a_basis_for_context(space, pair, space.full_event())

    representable = [
        (name, coeffs)
        for name, coeffs, cls in classified
        if cls in (itf.ContextClass.TRIGONOMETRIC, itf.ContextClass.BOUNDARY)
    ]

    rec = _Recorder("complex.born_b", _tol(tol, cr.BORN_TOL))
    rec_norm = _Recorder("complex.normalization", _tol(tol, cr.BORN_TOL))
    rec_conj = _Recorder("complex.conjugation_symmetry", _tol(tol, IDENTITY_TOL))
    rec_a = _Recorder("complex.born_a", _tol(tol, cr.BORN_TOL))
    for name, coeffs in representable:
        psi = cr.amplitude_from_coefficients(coeffs)
        psi_bar = cr.amplitude_from_coefficients(coeffs, "conjugate")
        rec_norm.compare(psi.norm_sq(), 1.0, name)
        for j, x in enumerate(pair.b_values):
            direct = coeffs.b_profile[j]
            rec.compare(psi.born(x), direct, f"{name}, x={x}")
            rec_conj.compare(psi.born(x), psi_bar.born(x), f"{name}, x={x}")
        if ds:
            for i, y in enumerate(pair.a_values):
                rec_a.compare(
                    cr.born_probability(psi, basis.vector(i)),
                    coeffs.a_profile[i],
                    f"{name}, y={y}",
                )
    checks.append(rec.result())
    checks.append(rec_norm.result())
    checks.append(rec_conj.result())
    checks.append(
        rec_a.result(None if ds else "transition matrix not double stochastic")
    )

    rec = _Recorder("complex.basis_unitarity", _tol(tol, PREDICATE_TOL))
    rec.expect(
        basis.unitary == ds,
        f"unitary={basis.unitary} but double stochastic={ds}",
    )
    checks.append(rec.result())

    if ds:
        rec = _Recorder("complex.operator_spectrum", _tol(tol, PREDICATE_TOL))
        a_op = cr.operator_for_variable(pair.a_values, basis)
        eig = sorted(a_op.eigenvalues().tolist())
        for lhs, rhs in zip(eig, sorted(pair.a_values)):
            rec.compare(lhs, rhs, "a-operator spectrum")
        checks.append(rec.result())

        rec = _Recorder("complex.noncommutativity", _tol(tol, PREDICATE_TOL))
        b_op = cr.operator_for_b(pair)
        comm = cr.commutator(b_op, a_op)
        q1q2 = math.sqrt(t.entries[0, 0] * t.entries[0, 1])
        bound = (
            abs(pair.a_values[0] - pair.a_values[1])
            * abs(pair.b_values[0] - pair.b_values[1])
            * q1q2
        )
        rec.expect(
            float(np.max(np.abs(comm))) >= bound - PREDICATE_TOL,
            f"max |[b,a]| = {float(np.max(np.abs(comm)))} < {bound}",
        )
        checks.append(rec.result())

        rec = _Recorder("complex.average_preservation", _tol(tol, cr.AVERAGE_TOL))
        tables = [
            ({pair.a_values[0]: 1.0, pair.a_values[1]: -1.0},
             {pair.b_values[0]: 1.0, pair.b_values[1]: -1.0}),
            ({pair.a_values[0]: 0.3, pair.a_values[1]: 2.7},
             {pair.b_values[0]: -1.4, pair.b_values[1]: 0.9}),
        ]
        family = [(n, coeffs.context) for n, coeffs in representable]
        family += [
            (f"a-cell {y}", pair.a_partition[i])
            for i, y in enumerate(pair.a_values)
        ]
        for fname, event in family:
            for f_table, g_table in tables:
                report = cr.verify_average_preservation(
                    space, pair, event, f_table, g_table
                )
                rec.compare(report.classical, report.quantum, fname)
        checks.append(rec.result())

        rec = _Recorder("complex.basic_context_classes", _tol(tol, PREDICATE_TOL))
        t_ab = transition_matrix(space, pair, "a/b")
        both_ds = is_double_stochastic(t_ab)
        b_classes = []
        for j, bx in enumerate(pair.b_partition):
            coeffs = itf.interference_coefficients(space, pair, bx)
            b_classes.append(itf.classify_context(coeffs))
        b_trig = all(
            c in (itf.ContextClass.TRIGONOMETRIC, itf.ContextClass.BOUNDARY)
            for c in b_classes
        )
        rec.expect(
            b_trig == both_ds,
            f"b-cells trigonometric={b_trig}, both matrices doubly "
            f"stochastic={both_ds}",
        )
        if both_ds:
            for j, bx in enumerate(pair.b_partition):
                coeffs = itf.interference_coefficients(space, pair, bx)
                rec.compare(coeffs.lambdas[j], 1.0, f"lambda(B{j}|B{j})")
                rec.compare(coeffs.lambdas[1 - j], -1.0, f"lambda(B{1-j}|B{j})")
        checks.append(rec.result())
    else:
        for cid in (
            "complex.operator_spectrum",
            "complex.noncommutativity",
            "complex.average_preservation",
            "complex.basic_context_classes",
        ):
            checks.append(
                Check(cid, "skip", witness="transition matrix not double stochastic")
            )

    rec = _Recorder("complex.global_phase_offset", _tol(tol, PREDICATE_TOL))
    trig_named = {name: coeffs.context for name, coeffs in representable}
    if len(trig_named) >= 2:
        report = itf.verify_no_global_alpha(space, pair, trig_named)
        if ds:
            rec.expect(
                report.found and report.alpha is not None
                and abs(report.alpha - math.pi) <= 1e-9,
                "double stochastic model must admit the offset pi",
            )
        elif report.has_distinct_lambda_pair:
            rec.expect(
                not report.found,
                "shared offset found despite distinct coefficient magnitudes",
            )
        else:
            checks.append(
                rec.result(
                    skip_reason="no pair of contexts with distinct |lambda|"
                )
            )
            return checks
        checks.append(rec.result())
    else:
        checks.append(
            rec.result(skip_reason="fewer than two trigonometric contexts")
        )
    return checks


# ---------------------------------------------------------------------------
# hyperbolic suite
# ---------------------------------------------------------------------------


def _hyperbolic_checks(
    doc: ModelDocument, tol: float | None, classified: list
) -> list[Check]:
    space, pair = doc.space, doc.pair
    checks: list[Check] = []
    rng = np.random.default_rng(20240817)

    rec = _Recorder("hyperbolic.ring_laws", _tol(tol, 1e-9))
    for _ in range(200):
        ax, ay, bx, by, cx, cy = rng.uniform(-10, 10, size=6)
        z1, z2, z3 = (
            HyperbolicNumber(ax, ay),
            HyperbolicNumber(bx, by),
            HyperbolicNumber(cx, cy),
        )
        lhs = (z1 * z2) * z3
        rhs = z1 * (z2 * z3)
        rec.compare(lhs.x, rhs.x, "associativity")
        rec.compare(lhs.y, rhs.y, "associativity")
        lhs = z1 * (z2 + z3)
        rhs = z1 * z2 + z1 * z3
        rec.compare(lhs.x, rhs.x, "distributivity")
        rec.compare(lhs.y, rhs.y, "distributivity")
        lhs = z1 * z2
        rhs = z2 * z1
        rec.compare(lhs.x, rhs.x, "commutativity")
        rec.compare(lhs.y, rhs.y, "commutativity")
    checks.append(rec.result())

    rec = _Recorder("hyperbolic.norm_multiplicative", _tol(tol, 1e-8))
    rec2 = _Recorder("hyperbolic.positive_cone_closed", _tol(tol, PREDICATE_TOL))
    for _ in range(200):
        z1 = HyperbolicNumber(*rng.uniform(-10, 10, size=2))
        z2 = HyperbolicNumber(*rng.uniform(-10, 10, size=2))
        rec.compare((z1 * z2).norm_sq(), z1.norm_sq() * z2.norm_sq(), "product")
        if z1.in_positive_cone() and z2.in_positive_cone():
            rec2.expect((z1 * z2).in_positive_cone(1e-9), "cone closure")
    checks.append(rec.result())
    checks.append(rec2.result())

    rec = _Recorder("hyperbolic.polar_roundtrip", _tol(tol, 1e-10))
    for _ in range(100):
        x = rng.uniform(0.1, 10.0) * (1 if rng.uniform() < 0.5 else -1)
        y = rng.uniform(-1.0, 1.0) * abs(x) * 0.999
        z = HyperbolicNumber(x, y)
        back = polar(z).reconstruct()
        rec.compare(back.x, z.x, "roundtrip x")
        rec.compare(back.y, z.y, "roundtrip y")
    checks.append(rec.result())

    if len(pair.a_values) != 2 or len(pair.b_values) != 2:
        checks.append(
            Check("hyperbolic.born_b", "skip", witness="pair is not dichotomous")
        )
        return checks

    t = transition_matrix(space, pair, "b/a")
    ds = is_double_stochastic(t)
    hyp = [
        (name, coeffs, hr.hyperbolic_amplitude_from_coefficients(coeffs))
        for name, coeffs, cls in classified
        if cls in (itf.ContextClass.HYPERBOLIC, itf.ContextClass.BOUNDARY)
    ]

    rec = _Recorder("hyperbolic.born_b", _tol(tol, hr.BORN_TOL))
    rec_eps = _Recorder("hyperbolic.epsilon_sum_zero", _tol(tol, 0.0))
    rec_rap = _Recorder("hyperbolic.rapidity_equality", _tol(tol, PREDICATE_TOL))
    for name, coeffs, psi in hyp:
        for j, x in enumerate(pair.b_values):
            rec.compare(psi.born(x), coeffs.b_profile[j], f"{name}, x={x}")
        rec_eps.compare(float(sum(psi.epsilons)), 0.0, name)
        if ds:
            rec_rap.compare(
                math.cosh(psi.thetas[0]), math.cosh(psi.thetas[1]), name
            )
    if hyp:
        checks.append(rec.result())
        checks.append(rec_eps.result())
        checks.append(
            rec_rap.result(
                None if ds else "transition matrix not double stochastic"
            )
        )
    else:
        for cid in (
            "hyperbolic.born_b",
            "hyperbolic.epsilon_sum_zero",
            "hyperbolic.rapidity_equality",
        ):
            checks.append(
                Check(cid, "skip", witness="no hyperbolic contexts declared")
            )

    rec = _Recorder("hyperbolic.basis_unitarity", _tol(tol, hr.GRAM_TOL))
    strict_hyp = [
        (name, coeffs.context)
        for name, coeffs, _ in hyp
        if any(abs(l) > 1.0 + 1e-12 for l in coeffs.lambdas)
    ]
    if not ds:
        checks.append(
            rec.result(skip_reason="transition matrix not double stochastic")
        )
    elif not strict_hyp:
        checks.append(
            rec.result(skip_reason="no strictly hyperbolic anchor declared")
        )
    else:
        name, anchor = strict_hyp[0]
        basis = hr.hyperbolic_a_basis(space, pair, anchor)
        for i in range(2):
            for k in range(2):
                g = hr.hyperbolic_inner_product(
                    basis.vectors[i], basis.vectors[k]
                )
                rec.compare(g.x, 1.0 if i == k else 0.0, f"gram[{i}][{k}].x")
                rec.compare(g.y, 0.0, f"gram[{i}][{k}].y")
        for cname, coeffs, psi in hyp:
            for i, y in enumerate(pair.a_values):
                rec.compare(
                    hr.hyperbolic_born(psi.components, basis.vectors[i]),
                    coeffs.a_profile[i],
                    f"{cname}, y={y}",
                )
        checks.append(rec.result())

    rec = _Recorder("hyperbolic.transform_pair_sum", _tol(tol, hr.BORN_TOL))
    if not ds:
        checks.append(
            rec.result(skip_reason="transition matrix not double stochastic")
        )
    else:
        for name, coeffs, psi in hyp:
            out = hr.hyperbolic_interference_transform(
                coeffs.a_profile, t, psi.thetas[0], psi.epsilons[0]
            )
            for j, x in enumerate(pair.b_values):
                rec.compare(out[j], coeffs.b_profile[j], f"{name}, x={x}")
        checks.append(
            rec.result(None if hyp else "no hyperbolic contexts declared")
        )

    rec = _Recorder("hyperbolic.basic_contexts_hyperbolic", _tol(tol, PREDICATE_TOL))
    if not ds:
        checks.append(
            rec.result(skip_reason="transition matrix not double stochastic")
        )
    else:
        t_ab = transition_matrix(space, pair, "a/b")
        both_ds = is_double_stochastic(t_ab)
        for j, bx in enumerate(pair.b_partition):
            coeffs = itf.interference_coefficients(space, pair, bx)
            cls = itf.classify_context(coeffs)
            rec.expect(
                cls in (itf.ContextClass.HYPERBOLIC, itf.ContextClass.BOUNDARY),
                f"b-cell {j} classified {cls.value}",
            )
            if both_ds:
                rec.expect(
                    cls is itf.ContextClass.BOUNDARY,
                    f"b-cell {j} should sit on the boundary, got {cls.value}",
                )
        checks.append(rec.result())
    return checks


# ---------------------------------------------------------------------------
# multivalued suite
# ---------------------------------------------------------------------------


def _multivalued_checks(
    doc: ModelDocument, tol: float | None, classified: list
) -> list[Check]:
    space, pair = doc.space, doc.pair
    checks: list[Check] = []

    rec_f1 = _Recorder("multivalued.union_additivity", _tol(tol, IDENTITY_TOL))
    rec_f2 = _Recorder("multivalued.conditioned_split", _tol(tol, IDENTITY_TOL))
    rec_f3 = _Recorder("multivalued.contextual_split", _tol(tol, IDENTITY_TOL))
    rec_f5 = _Recorder("multivalued.half_eliminated_split", _tol(tol, IDENTITY_TOL))
    tuples = 0
    m = space._measure
    for name, c in doc.contexts.items():
        pc = space.probability(c)
        if pc == 0.0:
            continue
        for bx in pair.b_partition:
            for i1 in range(len(pair.a_partition)):
                for i2 in range(i1 + 1, len(pair.a_partition)):
                    d1, d2 = pair.a_partition[i1], pair.a_partition[i2]
                    try:
                        split = mv.contextual_total_probability_split(
                            space, bx, d1, d2, c
                        )
                        mu = mv.mu_coefficient(space, bx, d1, d2, c)
                    except (DegenerateCell, ContextualProbabilityError):
                        continue
                    tuples += 1
                    rec_f1.compare(split.additivity_lhs, split.additivity_rhs, name)
                    rec_f2.compare(split.lhs, split.conditioned_rhs, name)
                    rec_f3.compare(split.lhs, split.rhs, name)
                    head = (m(bx.mask & d1.mask) / m(d1.mask)) * (
                        m(d1.mask & c.mask) / pc
                    )
                    tail = m(bx.mask & d2.mask & c.mask) / pc
                    rec_f5.compare(
                        head + tail + 2.0 * mu * math.sqrt(head * tail),
                        split.lhs,
                        name,
                    )
    for rec in (rec_f1, rec_f2, rec_f3, rec_f5):
        checks.append(
            rec.result(None if tuples else "no admissible event tuples")
        )

    rec = _Recorder("multivalued.recursion_born", _tol(tol, mv.RECURSION_BORN_TOL))
    n = len(pair.a_values)
    coefficients = {name: coeffs for name, coeffs, _ in classified}
    built = 0
    unrepresentable = 0
    for name, c in doc.contexts.items():
        try:
            psi, chain = mv.build_amplitude_nvalued(space, pair, c)
        except SplitOutOfRange:
            unrepresentable += 1
            continue
        except ContextualProbabilityError:
            continue
        built += 1
        for j, x in enumerate(pair.b_values):
            rec.compare(
                psi.born(x),
                space.conditional(pair.b_partition[j], c),
                f"{name}, x={x}",
            )
        if name in coefficients:
            try:
                flat = cr.amplitude_from_coefficients(coefficients[name])
            except ContextualProbabilityError:
                continue
            for j, x in enumerate(pair.b_values):
                rec.compare(psi.born(x), flat.born(x), f"{name} vs flat, x={x}")
    checks.append(
        rec.result(
            None
            if built
            else f"no representable contexts ({unrepresentable} out of range)"
        )
    )
    return checks


# ---------------------------------------------------------------------------


def run_suite(
    doc: ModelDocument, suite: str = "all", tolerance: float | None = None
) -> VerificationReport:
    """Run one named suite (or all of them) against a model."""
    if suite not in SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    report = VerificationReport()
    classified = _classified_contexts(doc)
    for name, checks in (
        ("core", _core_checks),
        ("complex", _complex_checks),
        ("hyperbolic", _hyperbolic_checks),
        ("multivalued", _multivalued_checks),
    ):
        if suite in (name, "all"):
            report.checks.extend(checks(doc, tolerance, classified))
    return report
