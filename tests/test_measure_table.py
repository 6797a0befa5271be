"""The measure-table bodies against the event forms they replaced, and the
pair tables against a reference measure.

``_ref_*`` below are the event forms as they were before the split, mu,
n-valued recursion and total probability formula read a per-context
:class:`MeasureTable`: they measure every quantity from event masks, each
as ``math.fsum`` of its members' weights (``member_fsum``), which shares no
code with the pair tables.  On random models of several arities, each body
(and each event form, now a composition of a body over the pair tables)
must return exactly (``==``) what the reference returns, or raise the same
exception class with the same message.  ``_ref_coefficients`` and
``_ref_classify`` do the same for the interference coefficients, now
computed by ``coefficients_from_measures`` from a context's three measures,
and for the class they now store.  The bodies are fed tables from
``fsum_table``, the reference :class:`MeasureTable` that measures each
entry the same way, and the pair tables must equal it entry for entry.
"""

import cmath
import math
import random
import sys
from functools import partial
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextprob as cp
from conftest import fsum_table, member_fsum, union
from contextprob import complex_repr as cr
from contextprob import interference as itf
from contextprob import multivalued as mv
from contextprob import space as space_module
from contextprob.errors import (
    DegenerateCell,
    DegenerateContext,
    InvariantViolation,
    SplitOutOfRange,
    ZeroConditioningContext,
)
from contextprob.interference import cis
from contextprob.cli import main
from contextprob.models import ModelDocument, load_model, save_model
from contextprob.multivalued import (
    SplitChain,
    SplitDecomposition,
    SplitLevel,
    amplitude_nvalued_from_tables,
    build_amplitude_nvalued,
    contextual_total_probability_split,
    mu_coefficient,
    mu_from_tables,
    recursion_tails,
    split_from_tables,
)
from contextprob.space import (
    IDENTITY_TOL,
    PREDICATE_TOL,
    Event,
    pair_tables,
    total_probability_from_table,
    transition_matrix,
)
from contextprob.tolerances import RECURSION_BORN_TOL
from contextprob.verify import run_suite


def _ref_split(space, b, d1, d2, c):
    b, d1, d2, c = space._masks(b, d1, d2, c)
    if d1 & d2:
        raise ValueError("the two conditioning events must be disjoint")
    m = partial(member_fsum, space)
    pc = m(c)
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    for name, e in (("D1", d1), ("D2", d2)):
        if m(b & e) == 0.0:
            raise DegenerateCell(f"B meets {name} with probability zero")
        if m(e & c) == 0.0:
            raise DegenerateCell(f"{name} meets the context with probability zero")
    lhs = m(b & (d1 | d2) & c) / pc
    additivity_rhs = m(b & d1 & c) / pc + m(b & d2 & c) / pc
    conditioned_rhs = math.fsum(
        (m(b & e & c) / m(e & c)) * (m(e & c) / pc) for e in (d1, d2)
    )
    p_b_d1 = m(b & d1) / m(d1)
    p_b_d2 = m(b & d2) / m(d2)
    p_d1_c = m(d1 & c) / pc
    p_d2_c = m(d2 & c) / pc
    delta = lhs - (p_b_d1 * p_d1_c + p_b_d2 * p_d2_c)
    root = math.sqrt(p_b_d1 * p_d1_c * p_b_d2 * p_d2_c)
    lam = delta / (2.0 * root)
    rhs = p_b_d1 * p_d1_c + p_b_d2 * p_d2_c + 2.0 * lam * root
    for lhs_i, rhs_i in ((lhs, rhs), (lhs, additivity_rhs), (lhs, conditioned_rhs)):
        if abs(lhs_i - rhs_i) > IDENTITY_TOL:
            raise InvariantViolation("split decomposition identity drifted")
    return SplitDecomposition(lhs, rhs, lam, additivity_rhs, conditioned_rhs)


def _ref_mu(space, b, d1, d2, c):
    b, d1, d2, c = space._masks(b, d1, d2, c)
    if d1 & d2:
        raise ValueError("the two conditioning events must be disjoint")
    m = partial(member_fsum, space)
    pc = m(c)
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    if m(b & d1) == 0.0:
        raise DegenerateCell("B meets D1 with probability zero")
    if m(d1 & c) == 0.0:
        raise DegenerateCell("D1 meets the context with probability zero")
    if m(b & d2 & c) == 0.0:
        raise DegenerateCell("B, D2 and the context have null intersection")
    lhs = m(b & (d1 | d2) & c) / pc
    head = (m(b & d1) / m(d1)) * (m(d1 & c) / pc)
    tail = m(b & d2 & c) / pc
    root = math.sqrt(head * tail)
    mu = (lhs - head - tail) / (2.0 * root)
    if abs(head + tail + 2.0 * mu * root - lhs) > IDENTITY_TOL:
        raise InvariantViolation("half-eliminated split identity drifted")
    return mu


def _ref_nvalued(space, pair, context, order=None, branch_signs=None):
    n = len(pair.a_values)
    if n < 2:
        raise ValueError("need at least two a-values")
    order = tuple(range(n)) if order is None else tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the a-value indices")
    signs = (1,) * (n - 1) if branch_signs is None else tuple(branch_signs)
    if len(signs) != n - 1 or any(s not in (1, -1) for s in signs):
        raise ValueError("one branch sign of +1 or -1 per level is required")
    c = space._masks(context, *pair.a_partition, *pair.b_partition)[0]
    m = partial(member_fsum, space)
    pc = m(c)
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    cells = [pair.a_partition[i] for i in order]
    tails = []
    running = 0
    for cell in reversed(cells):
        running |= cell.mask
        tails.append(Event(running, space.n))
    tails.reverse()
    levels, betas, components = {}, {}, []
    for jx, x in enumerate(pair.b_values):
        bx = pair.b_partition[jx]
        b = bx.mask
        head_terms = []
        for cell in cells:
            p_cell_c = m(cell.mask & c) / pc
            if p_cell_c == 0.0:
                raise DegenerateCell("context misses a conditioning cell")
            p_b_cell = m(b & cell.mask) / m(cell.mask)
            if p_b_cell == 0.0:
                raise DegenerateCell("outcome misses a conditioning cell")
            head_terms.append(p_b_cell * p_cell_c)
        partials = [complex(0.0)] * (n - 1)
        records = []
        lam_split = _ref_split(space, bx, cells[n - 2], cells[n - 1], context).lam
        if abs(lam_split) > 1.0:
            raise SplitOutOfRange(n - 2, x, lam_split)
        theta = signs[n - 2] * math.acos(lam_split)
        partials[n - 2] = math.sqrt(head_terms[n - 2]) + cis(theta) * math.sqrt(
            head_terms[n - 1]
        )
        records.append(SplitLevel(
            n - 2, lam_split, theta, cmath.phase(partials[n - 2]), partials[n - 2],
            m(b & tails[n - 2].mask & c) / pc,
        ))
        for j in range(n - 3, -1, -1):
            tail_prob = m(b & tails[j + 1].mask & c) / pc
            if tail_prob == 0.0:
                raise DegenerateCell("tail of the recursion has probability zero")
            mu = _ref_mu(space, bx, cells[j], tails[j + 1], context)
            if abs(mu) > 1.0:
                raise SplitOutOfRange(j, x, mu)
            gamma = signs[j] * math.acos(mu)
            partials[j] = math.sqrt(head_terms[j]) + cis(gamma) * math.sqrt(tail_prob)
            records.append(SplitLevel(
                j, mu, gamma, cmath.phase(partials[j]), partials[j],
                m(b & tails[j].mask & c) / pc,
            ))
        records.reverse()
        for rec in records:
            if abs(abs(rec.partial) ** 2 - rec.tail_probability) > RECURSION_BORN_TOL:
                raise InvariantViolation(
                    "partial state drifted from its tail probability"
                )
        beta = [0.0] * n
        args = {rec.level: rec.arg for rec in records}
        phases_by_level = {rec.level: rec.phase for rec in records}
        for j in range(1, n - 1):
            beta[j] = beta[j - 1] + phases_by_level[j - 1] - args[j]
        beta[n - 1] = beta[n - 2] + phases_by_level[n - 2]
        component = sum(cis(beta[j]) * math.sqrt(head_terms[j]) for j in range(n))
        direct = m(b & c) / pc
        if abs(abs(component) ** 2 - direct) > RECURSION_BORN_TOL:
            raise InvariantViolation(
                "recursive state drifted from the outcome probability"
            )
        components.append(component)
        levels[x] = tuple(records)
        betas[x] = tuple(beta)
    return np.array(components, dtype=complex), SplitChain(order, levels, betas)


def _ref_total_probability(space, pair, context):
    c = space._masks(context, *pair.a_partition, *pair.b_partition)[0]
    m = partial(member_fsum, space)
    pc = m(c)
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    out = {}
    for j, bx in enumerate(pair.b_partition):
        total = 0.0
        for i, ay in enumerate(pair.a_partition):
            cell = ay.mask & c
            p_cell = m(cell)
            if p_cell == 0.0:
                raise DegenerateCell(
                    f"cell for a={pair.a_values[i]!r} within the context is null"
                )
            total += (p_cell / pc) * (m(bx.mask & cell) / p_cell)
        direct = m(bx.mask & c) / pc
        if abs(total - direct) > IDENTITY_TOL:
            raise InvariantViolation(
                "total probability decomposition drifted from the direct value"
            )
        out[pair.b_values[j]] = total
    return out


def outcome(fn, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return ("return", fn(*args))
    except Exception as exc:  # every exception is part of the contract here
        return ("raise", type(exc), str(exc))


def amplitude_outcome(fn, *args):
    """:func:`outcome` of an n-valued builder as (component list, chain)."""
    got = outcome(fn, *args)
    if got[0] == "raise":
        return got
    psi, chain = got[1]
    components = psi.components if hasattr(psi, "components") else psi
    return ("return", list(components), chain)


@st.composite
def models(draw):
    """A random model of arity (2, 2), (3, 3) or (4, 3) with a few extra
    points, and a context mask drawn over its points (empty included)."""
    ka, kb = draw(st.sampled_from([(2, 2), (3, 3), (4, 3)]))
    doc = cp.generate_random_model(
        seed=draw(st.integers(0, 10_000)),
        n_points=ka * kb + draw(st.integers(0, 4)),
        value_arities=(ka, kb),
        n_contexts=0,
    )
    n = doc.space.n
    context = Event(draw(st.integers(0, (1 << n) - 1)), n)
    return doc.space, doc.pair, context


SETTINGS = settings(max_examples=100, deadline=None)


@SETTINGS
@given(models(), st.data())
def test_split_and_mu_on_partition_cells(model, data):
    space, pair, c = model
    n = len(pair.a_values)
    j = data.draw(st.integers(0, len(pair.b_values) - 1))
    i1, i2 = data.draw(st.permutations(range(n)))[:2]
    bx, d1, d2 = pair.b_partition[j], pair.a_partition[i1], pair.a_partition[i2]
    want_split = outcome(_ref_split, space, bx, d1, d2, c)
    want_mu = outcome(_ref_mu, space, bx, d1, d2, c)
    split = contextual_total_probability_split
    assert outcome(split, space, bx, d1, d2, c) == want_split
    assert outcome(mu_coefficient, space, bx, d1, d2, c) == want_mu

    cells = pair.a_partition, pair.b_partition
    rest = frozenset((i2,))
    table = fsum_table(space, *cells, c, [frozenset((i1, i2)), rest])
    free = fsum_table(space, *cells, space.full_event())
    assert outcome(split_from_tables, table, free, j, i1, i2) == want_split
    got_mu = outcome(mu_from_tables, table, free, j, i1, rest)
    if got_mu[0] == "return":
        got_mu = ("return", got_mu[1][0])
    assert got_mu == want_mu


@SETTINGS
@given(models(), st.data())
def test_split_and_mu_on_disjoint_events(model, data):
    space, pair, c = model
    full = (1 << space.n) - 1
    b = data.draw(st.integers(0, full))
    d1 = data.draw(st.integers(0, full))
    d2 = data.draw(st.integers(0, full)) & ~d1
    if data.draw(st.booleans()):
        d2 |= d1 & -d1  # overlapping events must raise as before
    events = [Event(mask, space.n) for mask in (b, d1, d2)] + [c]
    assert outcome(contextual_total_probability_split, space, *events) == outcome(
        _ref_split, space, *events
    )
    assert outcome(mu_coefficient, space, *events) == outcome(_ref_mu, space, *events)


@SETTINGS
@given(models(), st.data())
def test_nvalued_recursion(model, data):
    space, pair, c = model
    n = len(pair.a_values)
    order = tuple(data.draw(st.permutations(range(n))))
    sign = st.sampled_from([1, -1])
    signs = tuple(data.draw(st.lists(sign, min_size=n - 1, max_size=n - 1)))
    build = build_amplitude_nvalued
    want = amplitude_outcome(_ref_nvalued, space, pair, c, order, signs)
    assert amplitude_outcome(build, space, pair, c, order, signs) == want
    want_default = amplitude_outcome(_ref_nvalued, space, pair, c)
    assert amplitude_outcome(build, space, pair, c) == want_default

    # the body on tables built as verify builds them, with the last-level
    # lambdas of verify's split loop: None where that split raises
    cells = pair.a_partition, pair.b_partition
    table = fsum_table(space, *cells, c, recursion_tails(order))
    free = fsum_table(space, *cells, space.full_event())
    lams = []
    for j in range(len(pair.b_values)):
        try:
            lams.append(split_from_tables(table, free, j, *order[-2:]).lam)
        except (DegenerateCell, ZeroConditioningContext):
            lams.append(None)
    got = amplitude_outcome(
        amplitude_nvalued_from_tables, pair, table, free, order, signs, lams
    )
    assert got == want


@SETTINGS
@given(models())
def test_classical_total_probability(model):
    space, pair, c = model
    want = outcome(_ref_total_probability, space, pair, c)
    tables = pair_tables(space, pair)
    assert outcome(total_probability_from_table, pair, tables.table(c)) == want
    table = fsum_table(space, pair.a_partition, pair.b_partition, c)
    assert outcome(total_probability_from_table, pair, table) == want


def test_invalid_arguments_raise_as_before(kq):
    space, pair = kq.space, kq.pair
    c = kq.context("C123")
    for args in ((c, (0, 0)), (c, (0,)), (c, None, (2,)), (c, None, (1, 1))):
        assert amplitude_outcome(build_amplitude_nvalued, space, pair, *args) == (
            amplitude_outcome(_ref_nvalued, space, pair, *args)
        )
    other = Event(1, 3)
    cells = (pair.b_partition[0], pair.a_partition[0], pair.a_partition[1])
    for fn, ref in (
        (contextual_total_probability_split, _ref_split),
        (mu_coefficient, _ref_mu),
    ):
        args = (space, *cells, other)
        assert outcome(fn, *args) == outcome(ref, *args)
    # the event of another space is refused when its table is read
    assert outcome(pair_tables(space, pair).table, other) == outcome(
        _ref_total_probability, space, pair, other
    )

    # the loader rejects a single-valued a-variable; a document built
    # directly still reaches the multivalued suite, which raises the
    # recursion's ValueError, also when every context is null
    space = cp.FiniteKolmogorovSpace(("w1", "w2", "w3", "w4"), (0.25,) * 4)
    variables = {
        "a": cp.RandomVariable((1.0,) * 4),
        "b": cp.RandomVariable((1.0, -1.0, -1.0, 1.0)),
    }
    for members in (["w1", "w2"], []):
        contexts = {"C": space.event(members)}
        one_valued = ModelDocument(space, variables, contexts, ("a", "b"))
        assert outcome(run_suite, one_valued, "multivalued") == (
            "raise", ValueError, "need at least two a-values"
        )


EVENT_FORMS = (
    (contextual_total_probability_split, _ref_split),
    (mu_coefficient, _ref_mu),
)


def ternary_model(seed):
    """A random 40-point model with a 3x3 pair."""
    doc = cp.generate_random_model(
        seed=seed, n_points=40, value_arities=(3, 3), n_contexts=0
    )
    return doc.space, doc.pair


def random_contexts(space, count, seed=0):
    """The empty and the full event and ``count`` random masks."""
    rng = random.Random(seed)
    masks = [0, (1 << space.n) - 1, *(rng.getrandbits(space.n) for _ in range(count))]
    return [Event(mask, space.n) for mask in masks]


def test_event_forms_on_edge_partitions():
    """The event forms complete their events to the partitions (D1, D2, the
    rest) x (B, not B); where D1 u D2 is the whole space the rest is empty,
    and where B is the whole space or empty one b-cell is.  Every context
    gives what the fsum reference gives, and each case returns somewhere."""
    space, pair = ternary_model(3)
    a0, a1, a2 = pair.a_partition
    b0 = pair.b_partition[0]
    full, empty = space.full_event(), Event(0, space.n)
    cases = {
        "no rest": (b0, a0, union(a1, a2)),
        "B is the space": (full, a0, a1),
        "B is the space, no rest": (full, union(a0, a1), a2),
        "B is empty": (empty, a0, a1),
        "D2 is empty": (b0, full, empty),
    }
    for name, (b, d1, d2) in cases.items():
        kinds = set()
        for c in random_contexts(space, 30):
            for fn, ref in EVENT_FORMS:
                want = outcome(ref, space, b, d1, d2, c)
                assert outcome(fn, space, b, d1, d2, c) == want, name
                kinds.add(want[0])
        assert ("return" in kinds) is not name.endswith("empty"), name
    assert outcome(contextual_total_probability_split, space, empty, a0, a1, full) == (
        "raise", DegenerateCell, "B meets D1 with probability zero"
    )


def test_event_forms_name_a_foreign_event_before_an_overlap(kq):
    """An event of another space raises first, then overlapping D1 and D2,
    each with its own message."""
    space = kq.space
    a0, a1 = kq.pair.a_partition
    b0 = kq.pair.b_partition[0]
    c = kq.context("C123")
    foreign = Event(1, 5)
    overlap = union(a0, a1 & b0)
    not_here = ("raise", ValueError, "event does not belong to this space")
    for fn, ref in EVENT_FORMS:
        assert outcome(fn, space, b0, a0, overlap, c) == (
            "raise", ValueError, "the two conditioning events must be disjoint"
        )
        for args in (
            (foreign, a0, a1, c),
            (b0, foreign, a1, c),
            (b0, a0, foreign, c),
            (b0, a0, a1, foreign),
            (b0, a0, overlap, foreign),
        ):
            assert outcome(fn, space, *args) == not_here
            assert outcome(ref, space, *args) == not_here


def test_event_forms_keep_no_pair_tables(monkeypatch):
    """A loop of event-form calls over many contexts and several (B, D1, D2)
    reads every call from the space's one-cell tables, built once, keeps
    nothing in the space's pair tables, and gives what the fsum reference
    gives."""
    model, pair = ternary_model(5)
    space = cp.FiniteKolmogorovSpace(model.points, model.weights)
    a0, a1, a2 = pair.a_partition
    b0, b1, b2 = pair.b_partition
    triples = (
        (b1, a2, a0), (b0, a0, a1), (b2, a1, union(a0, a2)), (union(b0, b2), a2, a1)
    )
    builds = count_method(monkeypatch, space_module.PairTables, "__init__")
    for c in random_contexts(space, 50, seed=1):
        for b, d1, d2 in triples:
            for fn, ref in EVENT_FORMS:
                want = outcome(ref, space, b, d1, d2, c)
                assert outcome(fn, space, b, d1, d2, c) == want
    full = (1 << space.n) - 1
    assert builds == [(space, (full,), (full,))]
    assert space._pairs == {}


def count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` under every name a ``contextprob`` module
    holds it by; the returned list gets the arguments of each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "contextprob":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def count_method(monkeypatch, cls, name) -> list:
    """Replace the method ``cls.name``; the returned list gets the
    arguments, without ``self``, of each call."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_run_suite_measures_each_context_once(kq, monkeypatch):
    """One coefficient computation per declared context (11 on kq), one per
    b-cell (2) and one for the basis anchor, all through the body; one
    table built from the packed units per declared context and one of the
    full event; one principal and one conjugate state per representable
    context (9)."""
    calls = count_calls(monkeypatch, itf, "coefficients_from_measures")
    tables = count_calls(monkeypatch, space_module, "table_from_units")
    states = count_calls(monkeypatch, cr, "amplitude_from_coefficients")
    run_suite(kq)
    assert len(kq.contexts) == 11
    assert len(calls) == 14
    assert len(tables) == 12
    branches = [args[1] if len(args) > 1 else "principal" for args in states]
    assert branches.count("principal") == branches.count("conjugate") == 9
    assert len(branches) == 18


def test_run_suite_splits_each_context_once(kq, monkeypatch):
    """One split per context with P(C) > 0, b-cell and a-pair (on kq 11,
    2 and 1): the recursion takes its last-level lambdas from the split
    loop instead of splitting again."""
    splits = count_calls(monkeypatch, mv, "split_from_tables")
    run_suite(kq, "all")
    positive = [c for c in kq.contexts.values() if kq.space.probability(c) > 0.0]
    assert len(positive) == 11
    assert len(splits) == len(positive) * 2 * 1


def test_pair_facts_are_read_once_per_run(kq, monkeypatch):
    """Incompatibility and the transition matrices are computed a fixed
    number of times per run, the pair tables are built once, and one more
    table is built from their packed units per declared context; eleven
    more contexts add nothing else."""
    wider = ModelDocument(
        kq.space,
        kq.variables,
        {**kq.contexts, **{f"{name}'": c for name, c in kq.contexts.items()}},
        kq.pair_names,
    )
    counts = []
    for doc in (kq, wider):
        doc.space._pairs.clear()
        with monkeypatch.context() as m:
            incompatible = count_calls(m, space_module, "are_incompatible")
            matrices = count_calls(m, space_module, "transition_matrix")
            builds = count_method(m, space_module.PairTables, "__init__")
            tables = count_calls(m, space_module, "table_from_units")
            run_suite(doc)
        counts.append((len(incompatible), len(matrices), len(builds), len(tables)))
    assert counts[0] == (2, 8, 1, 12)
    assert counts[1] == (2, 8, 1, 12 + 11)


@pytest.mark.parametrize("suite", ["core", "complex", "hyperbolic", "multivalued", "all"])
def test_tables_are_built_only_where_joint_cells_are_read(kq, monkeypatch, suite):
    """Every suite reads joint cells, since the run classifies each context
    from its packed units: run alone or together, the suites build one
    table per declared context, and the multivalued suite one more for the
    full event."""
    tables = count_calls(monkeypatch, space_module, "table_from_units")
    run_suite(kq, suite)
    n = len(kq.contexts)
    assert n == 11
    assert len(tables) == (n + 1 if suite in ("multivalued", "all") else n)


@pytest.mark.parametrize("command, pins", [("analyze", (1, 1)), ("represent", (2, 2))])
def test_commands_check_the_pair_once(kq, tmp_path, monkeypatch, capsys, command, pins):
    """``analyze`` and ``represent`` compute incompatibility and the
    transition matrices a fixed number of times per command; eleven more
    contexts add nothing."""
    wider = ModelDocument(
        kq.space,
        kq.variables,
        {**kq.contexts, **{f"{name}'": c for name, c in kq.contexts.items()}},
        kq.pair_names,
    )
    counts = []
    for i, doc in enumerate((kq, wider)):
        path = tmp_path / f"model{i}.json"
        save_model(doc, path)
        with monkeypatch.context() as m:
            incompatible = count_calls(m, space_module, "are_incompatible")
            matrices = count_calls(m, space_module, "transition_matrix")
            assert main([command, str(path)]) == 0
        counts.append((len(incompatible), len(matrices)))
    capsys.readouterr()
    assert counts == [pins, pins]


def test_space_caches_only_the_pair_tables(kq):
    """After a full run and direct calls for the pair's facts, the space
    holds one entry of pair tables, keyed by the masks of the pair's
    partitions, and no one-cell tables: transition matrices and
    incompatibility are computed, never stored, and nothing is kept per
    context or per event."""
    ternary = load_model(Path(__file__).parent / "data" / "random_3x3_seed4.model.json")
    for doc in (kq, ternary):
        run_suite(doc, "all")
        for direction in ("b/a", "a/b"):
            transition_matrix(doc.space, doc.pair, direction)
        space_module.are_incompatible(doc.space, doc.pair)
        assert "_byte_tables" not in vars(doc.space)
        key = tuple(
            tuple(e.mask for e in cells)
            for cells in (doc.pair.a_partition, doc.pair.b_partition)
        )
        assert list(doc.space._pairs) == [key]
        assert type(doc.space._pairs[key]) is space_module.PairTables


@pytest.mark.parametrize("command", ["analyze", "represent", "verify"])
def test_dichotomous_commands_build_pair_tables_once(
    kq, tmp_path, monkeypatch, capsys, command
):
    """A dichotomous command builds the pair tables once and the one-cell
    tables never, and measures no event on its own, with kq's 11 contexts
    declared once or twice."""
    wider = ModelDocument(
        kq.space,
        kq.variables,
        {**kq.contexts, **{f"{name}'": c for name, c in kq.contexts.items()}},
        kq.pair_names,
    )
    counts = []
    for i, doc in enumerate((kq, wider)):
        path = tmp_path / f"model{i}.json"
        save_model(doc, path)
        with monkeypatch.context() as m:
            builds = count_method(m, space_module.PairTables, "__init__")
            measured = count_method(
                m, space_module.FiniteKolmogorovSpace, "probability"
            )
            argv = [command, str(path)] + (["--suite", "all"] * (command == "verify"))
            assert main(argv) == 0
        shapes = [(len(a_masks), len(b_masks)) for _, a_masks, b_masks in builds]
        counts.append((shapes, len(measured)))
    capsys.readouterr()
    assert counts == [([(2, 2)], 0), ([(2, 2)], 0)]


def test_example_kq_reads_only_the_pair_tables(monkeypatch, capsys):
    """``example kq`` reads P(A_i) and the P(C) of its distribution mismatch
    from the pair tables: it builds them once, the one-cell tables never,
    and measures no event on its own."""
    builds = count_method(monkeypatch, space_module.PairTables, "__init__")
    measured = count_method(
        monkeypatch, space_module.FiniteKolmogorovSpace, "probability"
    )
    assert main(["example", "kq", "--q", "0.125"]) == 0
    capsys.readouterr()
    assert [(len(a_masks), len(b_masks)) for _, a_masks, b_masks in builds] == [
        (2, 2)
    ]
    assert measured == []


def _ref_classify(tags):
    """The class of a context as it was before the class was stored: read
    from the outcome tags on every call."""
    if all(t is itf.OutcomeClass.BOUNDARY for t in tags):
        return itf.ContextClass.BOUNDARY
    if all(
        t in (itf.OutcomeClass.TRIGONOMETRIC, itf.OutcomeClass.BOUNDARY) for t in tags
    ):
        return itf.ContextClass.TRIGONOMETRIC
    if all(t in (itf.OutcomeClass.HYPERBOLIC, itf.OutcomeClass.BOUNDARY) for t in tags):
        return itf.ContextClass.HYPERBOLIC
    return itf.ContextClass.MIXED


def _ref_coefficients(space, pair, context):
    """``interference_coefficients`` as it was before it called
    ``coefficients_from_measures``, returning the field values of its
    result."""
    if len(pair.a_values) != 2 or len(pair.b_values) != 2:
        raise ValueError(
            "interference decomposition is defined for dichotomous pairs; "
            "use the multivalued splitting for larger value sets"
        )
    if not cp.are_incompatible(space, pair):
        raise DegenerateCell("reference variables must be incompatible")
    mask = space._masks(context)[0]
    m = partial(member_fsum, space)
    pc = m(mask)
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    pa = []
    for i, ay in enumerate(pair.a_partition):
        p = m(ay.mask & mask) / pc
        if p == 0.0:
            raise DegenerateContext(f"context misses the cell a={pair.a_values[i]!r}")
        pa.append(p)
    pb = [m(bx.mask & mask) / pc for bx in pair.b_partition]
    transition = transition_matrix(space, pair, "b/a")
    t = transition.rows
    deltas, lambdas, tags = [], [], []
    for j in range(2):
        classical = math.fsum(pa[i] * t[i][j] for i in range(2))
        d = pb[j] - classical
        prod = pa[0] * t[0][j] * pa[1] * t[1][j]
        if prod <= 0.0:
            raise DegenerateCell("a probability under the normalising root vanishes")
        lam = d / (2.0 * math.sqrt(prod))
        if abs(abs(lam) - 1.0) <= itf.BOUNDARY_TOL:
            tag = itf.OutcomeClass.BOUNDARY
        elif abs(lam) < 1.0:
            tag = itf.OutcomeClass.TRIGONOMETRIC
        else:
            tag = itf.OutcomeClass.HYPERBOLIC
        deltas.append(d)
        lambdas.append(lam)
        tags.append(tag)
    if abs(math.fsum(deltas)) > PREDICATE_TOL:
        raise InvariantViolation("outcome perturbations must sum to zero")
    return {
        "pair": pair,
        "a_profile": tuple(pa),
        "b_profile": tuple(pb),
        "transition": transition,
        "deltas": tuple(deltas),
        "lambdas": tuple(lambdas),
        "tags": tuple(tags),
        "context_class": _ref_classify(tags),
    }


def _coefficients_from_table(space, pair, context):
    """The body fed as ``verify`` feeds it: from the context's table."""
    table = fsum_table(space, pair.a_partition, pair.b_partition, context)
    t = transition_matrix(space, pair, "b/a")
    return itf.coefficients_from_measures(
        pair, t, table.pc, table.a_row, table.b_row
    )


def coefficient_outcome(fn, *args):
    """:func:`outcome` of a coefficient computation as its field values."""
    got = outcome(fn, *args)
    if got[0] == "raise":
        return got
    coeffs = got[1]
    return ("return", {f: getattr(coeffs, f) for f in coeffs._fields})


@st.composite
def dichotomous_models(draw):
    """A random incompatible dichotomous model and a context mask drawn over
    its points (empty included)."""
    doc = cp.generate_random_model(
        seed=draw(st.integers(0, 10_000)),
        n_points=4 + draw(st.integers(0, 6)),
        double_stochastic=draw(st.sampled_from([None, True])),
        n_contexts=0,
    )
    n = doc.space.n
    return doc.space, doc.pair, Event(draw(st.integers(0, (1 << n) - 1)), n)


@SETTINGS
@given(dichotomous_models())
def test_coefficient_body_on_tables(model):
    space, pair, c = model
    want = outcome(_ref_coefficients, space, pair, c)
    assert coefficient_outcome(itf.interference_coefficients, space, pair, c) == want
    assert coefficient_outcome(_coefficients_from_table, space, pair, c) == want


def test_coefficient_body_on_cells_and_full_event(kq):
    space, pair = kq.space, kq.pair
    for c in (*pair.a_partition, *pair.b_partition, space.full_event()):
        want = outcome(_ref_coefficients, space, pair, c)
        assert coefficient_outcome(itf.interference_coefficients, space, pair, c) == want
        assert coefficient_outcome(_coefficients_from_table, space, pair, c) == want


def test_stored_class_matches_tag_classification():
    """Every combination of outcome tags gets, from the table the
    coefficients read their class from, the class the tags gave before."""
    for tags in product(itf.OutcomeClass, repeat=2):
        assert itf._CLASS_OF_TAG_PAIR[tags] is _ref_classify(tags)


# ---------------------------------------------------------------------------
# pair tables against the fsum reference
# ---------------------------------------------------------------------------

PAIR_SHAPES = [(2, 2), (3, 3), (4, 3)]


def pair_space(n, seed, low=1e-300, subnormal=True):
    """Seeded space of n points: one of weight 0.6, so the cell that holds
    it has more than half the mass, one subnormal weight (5e-324) unless
    ``subnormal`` is false, and the rest log-uniform from ``low`` to 0.5,
    scaled down to at most 0.35 in all; shuffled, so that the extremes
    fall in different bytes at each size."""
    rng = random.Random(seed)
    heavy = [0.6, 5e-324] if subnormal else [0.6]
    heavy = heavy[:max(n - 1, 0)]
    rest = [10.0 ** rng.uniform(math.log10(low), math.log10(0.5))
            for _ in range(n - 1 - len(heavy))]
    if math.fsum(rest) > 0.35:
        rest = [w * 0.35 / math.fsum(rest) for w in rest]
    raw = [*heavy, *rest]
    raw.append(1.0 - math.fsum(raw))
    rng.shuffle(raw)
    return cp.FiniteKolmogorovSpace(tuple(f"w{i}" for i in range(n)), tuple(raw))


def labelled_pair(space, labels, ka, kb):
    """The pair whose a-cell i and b-cell j hold the points labelled (i, j);
    a cell may be empty."""
    a_masks, b_masks = [0] * ka, [0] * kb
    for k, (i, j) in enumerate(labels):
        a_masks[i] |= 1 << k
        b_masks[j] |= 1 << k
    return cp.ReferencePair(
        cp.RandomVariable(tuple(float(i) for i, _ in labels)),
        cp.RandomVariable(tuple(float(j) for _, j in labels)),
        tuple(map(float, range(ka))),
        tuple(map(float, range(kb))),
        tuple(Event(m, space.n) for m in a_masks),
        tuple(Event(m, space.n) for m in b_masks),
    )


def pair_unions(ka, order):
    """The single a-cells, the pairs of them and the recursion tails."""
    k = range(ka)
    singles_and_pairs = [*combinations(k, 1), *combinations(k, 2)]
    return {*map(frozenset, singles_and_pairs), *recursion_tails(order)}


# shared across examples, so later examples also hit built pair tables; the
# sizes straddle the byte boundaries of the tables
PAIR_SPACES = [pair_space(n, n) for n in (1, 7, 8, 9, 15, 16, 17)]


@st.composite
def labelled_pairs(draw):
    """A space, a pair of shape (2, 2), (3, 3) or (4, 3) over it, an
    empty, full or random context, and a recursion order."""
    space = draw(st.sampled_from(PAIR_SPACES))
    ka, kb = draw(st.sampled_from(PAIR_SHAPES))
    label = st.tuples(st.integers(0, ka - 1), st.integers(0, kb - 1))
    labels = draw(st.lists(label, min_size=space.n, max_size=space.n))
    full = (1 << space.n) - 1
    mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    order = draw(st.permutations(range(ka)))
    return space, labelled_pair(space, labels, ka, kb), Event(mask, space.n), order


def _ref_transition(space, pair, direction):
    """``transition_matrix`` as it was before it read the pair tables: each
    entry measured from the masks of its cells."""
    rows, cols, row_values = pair.a_partition, pair.b_partition, pair.a_values
    if direction == "a/b":
        rows, cols, row_values = cols, rows, pair.b_values
    entries = []
    for i, row in enumerate(rows):
        p_row = member_fsum(space, row.mask)
        if p_row == 0.0:
            raise DegenerateCell(
                f"conditioning cell {row_values[i]!r} has probability zero"
            )
        entries.append(
            [member_fsum(space, row.mask & col.mask) / p_row for col in cols]
        )
    return space_module.TransitionMatrix(entries)


@SETTINGS
@given(labelled_pairs())
def test_pair_table_equals_measure_table(case):
    space, pair, c, order = case
    cells = pair.a_partition, pair.b_partition
    unions = pair_unions(len(pair.a_values), order)
    tables = space_module.pair_tables(space, pair)
    assert tables.table(c, unions) == fsum_table(space, *cells, c, unions)
    assert tables.table(c) == fsum_table(space, *cells, c)
    assert tables.free == fsum_table(space, *cells, space.full_event())
    # a fresh pair over the same partitions, with other values, shares them
    fresh = pair._replace(a_values=tuple(-v for v in pair.a_values))
    assert space_module.pair_tables(space, fresh) is tables
    for direction in ("b/a", "a/b"):
        want = outcome(_ref_transition, space, pair, direction)
        assert outcome(transition_matrix, space, pair, direction) == want
    cell_masses = [space.probability(a & b) for a in cells[0] for b in cells[1]]
    assert cp.are_incompatible(space, pair) is (0.0 not in cell_masses)


@SETTINGS
@given(labelled_pairs())
def test_read_yields_the_unit_rows_of_each_context(case):
    """``read_contexts`` yields each context's exact unit rows, as the pair
    tables hold them, in the order the contexts are named; each unit count
    over the scale is the reference measure of its joint cell."""
    space, pair, c, _ = case
    tables = space_module.pair_tables(space, pair)
    named = [("C", c), ("full", space.full_event()), ("empty", Event(0, space.n))]
    reads = list(itf.read_contexts(space, pair, named))
    assert [name for name, _, _ in reads] == ["C", "full", "empty"]
    cells = pair.a_partition, pair.b_partition
    for (_, rows, _), (_, context) in zip(reads, named):
        assert [list(row) for row in rows] == tables._rows(tables.units(context.mask))
        want = fsum_table(space, *cells, context).cells
        assert tuple(tuple(u / tables.scale for u in row) for row in rows) == want


@pytest.mark.parametrize("ka, kb", PAIR_SHAPES)
def test_pair_table_on_1024_points(ka, kb):
    """1,024 points with weights over nine orders of magnitude and one of
    0.6 (no subnormal weight: its scale would make every field over a
    thousand bits wide)."""
    space = pair_space(1024, 1024, low=1e-9, subnormal=False)
    rng = random.Random(ka * 10 + kb)
    labels = [(rng.randrange(ka), rng.randrange(kb)) for _ in range(space.n)]
    pair = labelled_pair(space, labels, ka, kb)
    cells = pair.a_partition, pair.b_partition
    unions = pair_unions(ka, range(ka))
    tables = space_module.pair_tables(space, pair)
    full = (1 << space.n) - 1
    for mask in [0, full, *(rng.getrandbits(space.n) for _ in range(40))]:
        c = Event(mask, space.n)
        assert tables.table(c, unions) == fsum_table(space, *cells, c, unions)


def test_pair_tables_need_a_partition(kq):
    """Pair tables read a context as a sum over cells, so cells that overlap
    or miss a point are refused, on either side of the pair."""
    space, pair = kq.space, kq.pair
    a0, a1 = pair.a_partition
    for cells in ((a0, union(a0, a1)), (a0,), (a0, a0, a1)):
        for side in ("a_partition", "b_partition"):
            with pytest.raises(ValueError, match="must partition the space"):
                space_module.pair_tables(space, pair._replace(**{side: cells}))
    with pytest.raises(ValueError, match="does not belong"):
        space_module.pair_tables(space, pair).table(Event(1, 5))
