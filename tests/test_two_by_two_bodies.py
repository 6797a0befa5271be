"""The straight-line 2x2 bodies and tuple records against the loop bodies
they replaced.

``_ref_*`` below are ``assign_phases``, ``amplitude_from_coefficients``,
``hyperbolic_amplitude_from_coefficients``, ``split_from_tables``,
``mu_from_tables`` and ``amplitude_nvalued_from_tables`` as they were when
they looped over the outcomes and cells and built frozen dataclass records;
each returns the field values of its record as a plain tuple.
``_ref_assign_phases`` still takes the geometry as a ``mode``:
``assign_phases`` is its "auto" mode, and ``trigonometric_phases`` and
``hyperbolic_phases`` its two geometries, compared on the fields they
return (the reference also returns fields the records no longer keep).
Each geometry's mode refuses, after a bad convention, a context without
that geometry, with the message of its builder: the phase bodies are the
one gate, and the state references leave the refusal to them.
On random models, double stochastic or not, and on kq (whose C14 and C23
sit on the boundary), each current body must return the same field
values, equal by ``==`` and by ``repr`` (which tells -0.0 from 0.0), or
raise the same exception class with the same message.  The records, ``NamedTuple``s and
slotted classes alike, must stay read-only, and compare by value or by
identity as their frozen dataclasses did.
"""

import cmath
import copy
import math
import pickle
from itertools import combinations, permutations
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextprob as cp
from conftest import fsum_table
from contextprob import complex_repr as cr
from contextprob import hyperbolic_repr as hr
from contextprob import interference as itf
from contextprob import multivalued as mv
from contextprob.errors import (
    DegenerateCell,
    DegenerateContext,
    HyperbolicContext,
    InvariantViolation,
    MixedContext,
    SplitOutOfRange,
    TrigonometricContext,
    ZeroConditioningContext,
)
from contextprob.hyperbolic import HyperbolicNumber, exp_j, polar
from contextprob.interference import TWO_PI, ContextClass, cis
from contextprob.space import Event
from contextprob.tolerances import (
    BORN_TOL,
    BOUNDARY_TOL,
    IDENTITY_TOL,
    RECURSION_BORN_TOL,
)

# the phase guard the loop bodies kept; no input of these tests reaches it
_PHASE_GUARD = 1e-8


def _snap_lambda(lam):
    """The loop bodies' snap, read from |lambda| rather than the outcome's
    tag: within ``BOUNDARY_TOL`` of +-1 (or past it) to exactly +-1."""
    if abs(lam) >= 1.0 - BOUNDARY_TOL:
        return 1.0 if lam > 0 else -1.0
    return lam


def _ref_assign_phases(coeffs, convention="principal", mode="auto"):
    if convention not in ("principal", "conjugate"):
        raise ValueError(f"unknown phase convention {convention!r}")
    cls = coeffs.context_class
    if mode == "auto":
        kind = "hyperbolic" if cls is ContextClass.HYPERBOLIC else "trigonometric"
    elif mode in ("trigonometric", "hyperbolic"):
        kind = mode
    else:
        raise ValueError(f"unknown phase mode {mode!r}")

    t = coeffs.transition
    ds = t.double_stochastic
    lambdas = coeffs.lambdas

    if kind == "trigonometric":
        if cls is ContextClass.MIXED:
            raise MixedContext("mixed contexts have no complex representation")
        if cls is ContextClass.HYPERBOLIC:
            raise HyperbolicContext(
                "context has large interference coefficients; build the "
                "hyperbolic representation instead"
            )
        lam = [_snap_lambda(v) for v in lambdas]
        if ds:
            theta1 = math.acos(lam[0])
            if convention == "conjugate":
                theta1 = math.fmod(TWO_PI - theta1, TWO_PI)
            theta2 = math.fmod(theta1 + math.pi, TWO_PI)
            if abs(math.cos(theta2) - lam[1]) > _PHASE_GUARD:
                raise InvariantViolation(
                    "pi-shifted phase fails to reproduce the second coefficient"
                )
            thetas = (theta1, theta2)
        else:
            raw = [math.acos(v) for v in lam]
            if convention == "conjugate":
                raw = [math.fmod(TWO_PI - v, TWO_PI) for v in raw]
            thetas = tuple(raw)
        k = None if ds else t.cosine_ratio
        return ("trigonometric", coeffs.pair.b_values, tuple(thetas), convention,
                None, ds, k)

    if cls is ContextClass.MIXED:
        raise MixedContext("mixed contexts have no hyperbolic representation")
    if cls is ContextClass.TRIGONOMETRIC:
        raise TrigonometricContext(
            "context has small interference coefficients; build the complex "
            "representation instead"
        )
    mags = [max(1.0, abs(v)) for v in lambdas]
    if ds:
        common = math.acosh(math.fsum(mags) / len(mags))
        if any(abs(math.cosh(common) - m) > _PHASE_GUARD for m in mags):
            raise InvariantViolation(
                "double stochasticity must equalise the two rapidities"
            )
        thetas = tuple(common for _ in mags)
    else:
        thetas = tuple(math.acosh(m) for m in mags)
    epsilons = tuple(1 if d > 0 else -1 for d in coeffs.deltas)
    if sum(epsilons) != 0:
        raise InvariantViolation("hyperbolic signs must sum to zero")
    k = None if ds else t.cosine_ratio
    return ("hyperbolic", coeffs.pair.b_values, thetas, convention, epsilons, ds, k)


def _ref_amplitude(coeffs, convention="principal"):
    thetas = _ref_assign_phases(coeffs, convention, mode="trigonometric")[2]
    pa = coeffs.a_profile
    t = coeffs.transition.rows
    components = tuple([
        math.sqrt(pa[0] * t[0][j]) + cis(thetas[j]) * math.sqrt(pa[1] * t[1][j])
        for j in range(2)
    ])
    b_values = coeffs.pair.b_values
    for j, x in enumerate(b_values):
        born = float(abs(components[b_values.index(x)]) ** 2)
        if abs(born - coeffs.b_profile[j]) > BORN_TOL:
            raise InvariantViolation("squared modulus drifted from the probability")
    return (components, b_values)


def _ref_hyperbolic_amplitude(coeffs):
    _, _, thetas, _, epsilons, _, _ = _ref_assign_phases(coeffs, mode="hyperbolic")
    pa = coeffs.a_profile
    t = coeffs.transition.rows
    components = []
    for j in range(2):
        first = HyperbolicNumber(math.sqrt(pa[0] * t[0][j]), 0.0)
        second = (epsilons[j] * math.sqrt(pa[1] * t[1][j])) * exp_j(thetas[j])
        components.append(first + second)
    b_values = coeffs.pair.b_values
    psi = hr.HyperbolicAmplitude(tuple(components), epsilons, thetas, b_values)
    for j, x in enumerate(b_values):
        if abs(psi.born(x) - coeffs.b_profile[j]) > BORN_TOL:
            raise InvariantViolation("signed squared norm drifted from the probability")
    return _hyperbolic_fields(psi)


def _ref_reconstruct(coeffs, phases):
    pa = coeffs.a_profile
    t = coeffs.transition.rows
    out = {}
    for j, x in enumerate(coeffs.pair.b_values):
        classical = math.fsum(pa[i] * t[i][j] for i in range(2))
        cross = math.sqrt(pa[0] * t[0][j] * pa[1] * t[1][j])
        if phases.kind == "trigonometric":
            factor = math.cos(phases.thetas[j])
        else:
            factor = phases.epsilons[j] * math.cosh(phases.thetas[j])
        out[x] = classical + 2.0 * factor * cross
    return out


def _ref_split(table, free, j, i1, i2):
    pc = table.pc
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    for name, i in (("D1", i1), ("D2", i2)):
        if free.cells[i][j] == 0.0:
            raise DegenerateCell(f"B meets {name} with probability zero")
        if table.a_row[i] == 0.0:
            raise DegenerateCell(f"{name} meets the context with probability zero")
    lhs = table.unions[frozenset((i1, i2))][j] / pc
    additivity_rhs = table.cells[i1][j] / pc + table.cells[i2][j] / pc
    conditioned_rhs = math.fsum(
        (table.cells[i][j] / table.a_row[i]) * (table.a_row[i] / pc)
        for i in (i1, i2)
    )
    p_b_d1 = free.cells[i1][j] / free.a_row[i1]
    p_b_d2 = free.cells[i2][j] / free.a_row[i2]
    p_d1_c = table.a_row[i1] / pc
    p_d2_c = table.a_row[i2] / pc
    delta = lhs - (p_b_d1 * p_d1_c + p_b_d2 * p_d2_c)
    root = math.sqrt(p_b_d1 * p_d1_c * p_b_d2 * p_d2_c)
    lam = delta / (2.0 * root)
    rhs = p_b_d1 * p_d1_c + p_b_d2 * p_d2_c + 2.0 * lam * root
    for rhs_i in (rhs, additivity_rhs, conditioned_rhs):
        if abs(lhs - rhs_i) > IDENTITY_TOL:
            raise InvariantViolation("split decomposition identity drifted")
    return (lhs, rhs, lam, additivity_rhs, conditioned_rhs)


def _ref_mu(table, free, j, i, rest):
    pc = table.pc
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    if free.cells[i][j] == 0.0:
        raise DegenerateCell("B meets D1 with probability zero")
    if table.a_row[i] == 0.0:
        raise DegenerateCell("D1 meets the context with probability zero")
    if table.unions[rest][j] == 0.0:
        raise DegenerateCell("B, D2 and the context have null intersection")
    lhs = table.unions[rest | {i}][j] / pc
    head = (free.cells[i][j] / free.a_row[i]) * (table.a_row[i] / pc)
    tail = table.unions[rest][j] / pc
    root = math.sqrt(head * tail)
    mu = (lhs - head - tail) / (2.0 * root)
    if abs(head + tail + 2.0 * mu * root - lhs) > IDENTITY_TOL:
        raise InvariantViolation("half-eliminated split identity drifted")
    return mu, head, tail


def _ref_nvalued(pair, table, free, order, signs, lams):
    n = len(order)
    if n < 2:
        raise ValueError("need at least two a-values")
    pc = table.pc
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    tails = mv.recursion_tails(order)
    levels, betas, components = {}, {}, []
    for jx, x in enumerate(pair.b_values):
        head_terms = []
        for i in order:
            p_cell_c = table.a_row[i] / pc
            if p_cell_c == 0.0:
                raise DegenerateCell("context misses a conditioning cell")
            p_b_cell = free.cells[i][jx] / free.a_row[i]
            if p_b_cell == 0.0:
                raise DegenerateCell("outcome misses a conditioning cell")
            head_terms.append(p_b_cell * p_cell_c)
        records = []
        for j in range(n - 2, -1, -1):
            if j == n - 2:
                tail_prob = head_terms[n - 1]
                coeff = lams[jx]
            else:
                tail_prob = table.unions[tails[j + 1]][jx] / pc
                if tail_prob == 0.0:
                    raise DegenerateCell("tail of the recursion has probability zero")
                coeff = _ref_mu(table, free, jx, order[j], tails[j + 1])[0]
            if abs(coeff) > 1.0:
                raise SplitOutOfRange(j, x, coeff)
            phase = signs[j] * math.acos(coeff)
            partial = math.sqrt(head_terms[j]) + cis(phase) * math.sqrt(tail_prob)
            records.append((
                j, coeff, phase, cmath.phase(partial), partial,
                table.unions[tails[j]][jx] / pc,
            ))
        records.reverse()
        for rec in records:
            if abs(abs(rec[4]) ** 2 - rec[5]) > RECURSION_BORN_TOL:
                raise InvariantViolation(
                    "partial state drifted from its tail probability"
                )
        beta = [0.0] * n
        for j in range(1, n - 1):
            beta[j] = beta[j - 1] + records[j - 1][2] - records[j][3]
        beta[n - 1] = beta[n - 2] + records[n - 2][2]
        component = sum(cis(beta[j]) * math.sqrt(head_terms[j]) for j in range(n))
        direct = table.b_row[jx] / pc
        if abs(abs(component) ** 2 - direct) > RECURSION_BORN_TOL:
            raise InvariantViolation(
                "recursive state drifted from the outcome probability"
            )
        components.append(component)
        levels[x] = tuple(records)
        betas[x] = tuple(beta)
    psi = (tuple(components), pair.b_values)
    return psi, (order, levels, betas)


def _hyperbolic_fields(psi):
    """The fields of a :class:`HyperbolicAmplitude`, components as (x, y)."""
    return (
        tuple((c.x, c.y) for c in psi.components),
        psi.epsilons, psi.thetas, psi.b_values,
    )


def _plain(value):
    """Records as plain tuples, recursively, so that a ``NamedTuple`` and
    the reference's tuple print alike."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def outcome(fn, *args):
    """The plain field values a call returns, or the class and message of
    what it raises."""
    try:
        return ("return", _plain(fn(*args)))
    except Exception as exc:  # every exception is part of the contract here
        return ("raise", type(exc), str(exc))


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


@st.composite
def dichotomous_contexts(draw):
    """The coefficients of one context of a random dichotomous model, double
    stochastic, not, or either: a random context, or a b-cell, which is
    hyperbolic or on the boundary when the model is double stochastic; or of
    a declared kq context."""
    if draw(st.booleans()):
        doc = cp.generate_random_model(
            seed=draw(st.integers(0, 10_000)),
            n_points=4 + draw(st.integers(0, 6)),
            double_stochastic=draw(st.sampled_from([True, False, None])),
            n_contexts=0,
        )
        n = doc.space.n
        context = draw(
            st.sampled_from(doc.pair.b_partition)
            | st.integers(1, (1 << n) - 1).map(lambda mask: Event(mask, n))
        )
    else:
        doc = cp.generate_kq(draw(st.sampled_from([0.05, 0.125, 0.25, 0.4])))
        context = draw(st.sampled_from(list(doc.contexts.values())))
    try:
        return itf.interference_coefficients(doc.space, doc.pair, context)
    except (DegenerateCell, DegenerateContext, ZeroConditioningContext):
        return itf.interference_coefficients(
            doc.space, doc.pair, doc.space.full_event()
        )


SETTINGS = settings(max_examples=150, deadline=None)
CONVENTIONS = ("principal", "conjugate", "sideways")


def _ref_phases(coeffs, convention, mode, fields):
    """The ``fields`` (an ``itemgetter``) of :func:`_ref_assign_phases` in
    ``mode``."""
    return fields(_ref_assign_phases(coeffs, convention, mode))


@SETTINGS
@given(dichotomous_contexts())
def test_phases_and_states(coeffs):
    """``assign_phases`` is the reference in its "auto" mode, and each
    geometry's body the reference in that geometry's mode."""
    for convention in CONVENTIONS:
        assert_same(
            outcome(itf.assign_phases, coeffs, convention),
            outcome(_ref_phases, coeffs, convention, "auto", itemgetter(0, 2, 4)),
        )
        assert_same(
            outcome(itf.trigonometric_phases, coeffs, convention),
            outcome(_ref_phases, coeffs, convention, "trigonometric", itemgetter(2)),
        )
        assert_same(
            outcome(cr.amplitude_from_coefficients, coeffs, convention),
            outcome(_ref_amplitude, coeffs, convention),
        )
    assert_same(
        outcome(itf.hyperbolic_phases, coeffs),
        outcome(_ref_phases, coeffs, "principal", "hyperbolic", itemgetter(2, 4)),
    )

    def hyperbolic(c):
        return _hyperbolic_fields(hr.hyperbolic_amplitude_from_coefficients(c))

    assert_same(outcome(hyperbolic, coeffs), outcome(_ref_hyperbolic_amplitude, coeffs))
    refused = (MixedContext, HyperbolicContext, TrigonometricContext)
    assignments = []  # the phases of each geometry the context admits
    try:
        thetas = itf.trigonometric_phases(coeffs)
        assignments.append(itf.PhaseAssignment("trigonometric", thetas))
    except refused:
        pass
    try:
        thetas, epsilons = itf.hyperbolic_phases(coeffs)
        assignments.append(itf.PhaseAssignment("hyperbolic", thetas, epsilons))
    except refused:
        pass
    for phases in assignments:
        assert_same(
            outcome(itf.reconstruct_probability, coeffs, phases),
            outcome(_ref_reconstruct, coeffs, phases),
        )


@st.composite
def tabled_contexts(draw):
    """A random model of arity (2, 2), (3, 3) or (4, 3), double stochastic
    where square and asked for, or a square one whose b copies a, so that
    the pair is compatible and joint cells are empty; with the tables of one
    context (every single a-cell, a-cell pair and recursion tail as a
    union) and of the full event."""
    ka, kb = draw(st.sampled_from([(2, 2), (3, 3), (4, 3)]))
    doc = cp.generate_random_model(
        seed=draw(st.integers(0, 10_000)),
        n_points=ka * kb + draw(st.integers(0, 4)),
        value_arities=(ka, kb),
        double_stochastic=draw(st.sampled_from([None, False] + [True] * (ka == kb))),
        n_contexts=0,
    )
    space, pair = doc.space, doc.pair
    if ka == kb and draw(st.booleans()):
        pair = cp.ReferencePair.from_variables(
            space, pair.a, cp.RandomVariable(pair.a.values)
        )
    n = space.n
    # mostly contexts of positive probability; the empty one now and then
    context = Event(draw(st.integers(1, (1 << n) - 1) | st.just(0)), n)
    order = tuple(draw(st.permutations(range(ka))))
    unions = {frozenset(s) for r in (1, 2) for s in combinations(range(ka), r)}
    unions.update(mv.recursion_tails(order))
    cells = pair.a_partition, pair.b_partition
    table = fsum_table(space, *cells, context, unions)
    free = fsum_table(space, *cells, space.full_event())
    sign = st.sampled_from([1, -1])
    signs = tuple(draw(st.lists(sign, min_size=ka - 1, max_size=ka - 1)))
    return pair, table, free, order, signs


@SETTINGS
@given(tabled_contexts())
def test_split_mu_and_recursion(model):
    pair, table, free, order, signs = model
    ka, kb = len(pair.a_values), len(pair.b_values)
    for j in range(kb):
        for i1, i2 in permutations(range(ka), 2):
            assert_same(
                outcome(mv.split_from_tables, table, free, j, i1, i2),
                outcome(_ref_split, table, free, j, i1, i2),
            )
            for rest in (frozenset((i2,)), *mv.recursion_tails(order)):
                if i1 not in rest and rest | {i1} in table.unions:
                    assert_same(
                        outcome(mv.mu_from_tables, table, free, j, i1, rest),
                        outcome(_ref_mu, table, free, j, i1, rest),
                    )
    lams = []
    for j in range(kb):
        split = outcome(mv.split_from_tables, table, free, j, *order[-2:])
        lams.append(split[1][2] if split[0] == "return" else None)
    args = pair, table, free, order, signs, lams
    assert_same(
        outcome(mv.amplitude_nvalued_from_tables, *args), outcome(_ref_nvalued, *args)
    )


def _records(kq, ds_skewed):
    space, pair = kq.space, kq.pair
    coeffs = itf.interference_coefficients(space, pair, kq.context("C24"))
    psi, chain = mv.build_amplitude_nvalued(space, pair, kq.context("C24"))
    b, d1, d2 = pair.b_partition[0], *pair.a_partition
    ds_space, ds_pair = ds_skewed
    report = cp.run_suite(kq, "core")
    return {
        "PhaseAssignment": itf.assign_phases(coeffs),
        "ComplexAmplitude": cr.amplitude_from_coefficients(coeffs),
        "SplitDecomposition": mv.contextual_total_probability_split(
            space, b, d1, d2, kq.context("C24")
        ),
        "SplitLevel": chain.levels[pair.b_values[0]][0],
        "SplitChain": chain,
        "GlobalPhaseReport": itf.verify_no_global_alpha(
            space, pair, [kq.context("C123"), kq.context("C234")]
        ),
        "IncompatibilityStructure": cp.check_incompatibility_structure(space, pair),
        "RandomVariable": pair.a,
        "ReferencePair": pair,
        "HyperbolicPolar": polar(HyperbolicNumber(2.0, 1.0)),
        "HyperbolicAmplitude": cp.build_hyperbolic_amplitude(
            ds_space, ds_pair, ds_pair.b_partition[0]
        ),
        "GModuleBasis": cp.hyperbolic_a_basis(
            itf.interference_coefficients(ds_space, ds_pair, ds_pair.b_partition[0])
        ),
        "AveragePreservationReport": cp.verify_average_preservation(
            space, pair, kq.context("C234"), lambda y: y, lambda x: x
        ),
        "DistributionMismatchReport": cp.distribution_mismatch(
            space, pair, kq.context("C234"), 1.0
        ),
        "Check": report.checks[0],
        "VerificationReport": report,
        "HilbertBasis": cr.a_basis_for_context(space, pair, space.full_event()),
        "ModelDocument": kq,
        "Event": kq.context("C24"),
        "HyperbolicNumber": HyperbolicNumber(2.0, 1.0),
        "InterferenceCoefficients": coeffs,
        "HermitianOperator": cr.operator_for_b(pair),
        "FiniteKolmogorovSpace": space,
        "TransitionMatrix": coeffs.transition,
    }


TUPLE_RECORDS = [
    "PhaseAssignment", "ComplexAmplitude", "SplitDecomposition", "SplitLevel",
    "SplitChain", "GlobalPhaseReport",
    "IncompatibilityStructure", "RandomVariable", "ReferencePair",
    "HyperbolicPolar", "HyperbolicAmplitude", "GModuleBasis",
    "AveragePreservationReport", "DistributionMismatchReport",
    "Check", "VerificationReport", "HilbertBasis", "ModelDocument",
    "Event", "HyperbolicNumber", "InterferenceCoefficients",
]
SLOTTED_RECORDS = ["HermitianOperator", "FiniteKolmogorovSpace", "TransitionMatrix"]


@pytest.mark.parametrize("name", TUPLE_RECORDS + SLOTTED_RECORDS)
def test_tuple_records_are_read_only(kq, ds_skewed, name):
    record = _records(kq, ds_skewed)[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) is (name in TUPLE_RECORDS)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


def _value_pairs(kq):
    """Two separately built records of each class that compares by value,
    and one that differs from the first in one field."""
    space, pair = kq.space, kq.pair
    t = cp.transition_matrix(space, pair, "b/a")
    return [
        (Event(5, 4), Event(5, 4), Event(5, 5)),
        (HyperbolicNumber(1.5, -2.0), HyperbolicNumber(1.5, -2.0),
         HyperbolicNumber(1.5, 2.0)),
        (t, cp.TransitionMatrix([list(r) for r in t.rows]),
         cp.TransitionMatrix(t.rows[::-1])),
        (space, cp.FiniteKolmogorovSpace(space.points, space.weights),
         cp.FiniteKolmogorovSpace(space.points[::-1], space.weights)),
    ]


def test_value_records_equal_and_hash_by_value(kq):
    assert not hasattr(Event(5, 4), "__dict__")
    assert not hasattr(HyperbolicNumber(0.0, 1.0), "__dict__")
    assert Event(5, 4)._replace(mask=1) == Event(1, 4)
    with pytest.raises(ValueError, match="outside the sample space"):
        Event(5, 4)._replace(size=2)
    for first, twin, other in _value_pairs(kq):
        assert first is not twin
        assert first == twin and not first != twin
        assert hash(first) == hash(twin)
        assert first != other and not first == other
        plain = tuple(getattr(first, f) for f in first._fields)
        assert first != plain and not first == plain
        assert plain != first and not plain == first
        for lhs, rhs in ((first, twin), (first, plain), (plain, first)):
            with pytest.raises(TypeError):
                lhs < rhs
        with pytest.raises(TypeError):
            plain[-1] in first
        for copied in (copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
            assert copied == first and hash(copied) == hash(first)
    e, h = Event(5, 4), HyperbolicNumber(1.0, 2.0)
    for join in (lambda: e + e, lambda: (1, 2) + e, lambda: (1, 2) + h):
        with pytest.raises(TypeError, match="cannot be concatenated"):
            join()
    for repeat in (lambda: 3 * e, lambda: e * 3):
        with pytest.raises(TypeError, match="cannot be repeated"):
            repeat()
    assert h + h == HyperbolicNumber(2.0, 4.0)
    assert 2 * h == h * 2 == HyperbolicNumber(2.0, 4.0)
    assert h * h == HyperbolicNumber(5.0, 4.0)


def test_coefficients_survive_pickle_and_copy(kq):
    """A copy has the same fields and is a distinct object that compares
    by identity and has no order."""
    coeffs = itf.interference_coefficients(kq.space, kq.pair, kq.context("C24"))
    for copied in (
        copy.copy(coeffs), copy.deepcopy(coeffs), pickle.loads(pickle.dumps(coeffs)),
    ):
        assert type(copied) is itf.InterferenceCoefficients
        assert copied is not coeffs and copied != coeffs
        for field in coeffs._fields:
            assert getattr(copied, field) == getattr(coeffs, field)
    with pytest.raises(TypeError):
        coeffs < coeffs


def test_identity_records_equal_only_themselves(kq):
    """Records with dict fields, or derived ones, compare by identity, as
    their dataclasses did with ``eq=False``; each is still hashable."""
    space, pair = kq.space, kq.pair
    twins = [
        lambda: itf.interference_coefficients(space, pair, kq.context("C24")),
        lambda: cr.operator_for_b(pair),
        lambda: cr.a_basis_for_context(space, pair, space.full_event()),
        lambda: cp.loads_model(cp.dumps_model(kq)),
    ]
    for build in twins:
        first, twin = build(), build()
        assert first == first and not first != first
        assert first != twin and not first == twin
        assert {first: 1}[first] == 1
