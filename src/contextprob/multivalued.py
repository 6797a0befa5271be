"""Dichotomous splitting of multivalued reference variables.

An n-valued conditioning partition reduces inductively to nested dichotomous
splits: at each level the head cell is split off against the union of the
remaining cells, producing a bounded splitting coefficient mu (a cosine when
|mu| <= 1), and the final level eliminates the context from the conditioning
entirely, producing the ordinary incompatibility coefficient lambda.  The
accumulated phases beta turn the n square roots into a complex state vector
whose squared modulus reproduces the conditional probability of each
b-outcome at every level of the recursion.

The recursion consumes a-values in a caller-chosen order (declared order by
default); different orders give different phases but identical probabilities.

Every number read here is an entry of a context's or the full event's
:class:`~contextprob.space.MeasureTable`: P(C), P(A_i & C), P(A_i & B_j & C),
P(A_i), P(A_i & B_j), and the rows P(B_j & A_S & C) of the unions S (a-cell
pairs and recursion tails), each the correctly rounded sum of its points'
weights, never a float sum of cells.  The bodies (``*_from_tables``) take
these tables; :func:`build_amplitude_nvalued` reads them from the pair's
:func:`~contextprob.space.pair_tables`.  The split and mu event forms read
the six cells of their own events' partitions, completed by complements,
(D1, D2, the rest) x (B, not B), within C and within the full event, from
the space's one-cell tables, as a probability is read, and keep nothing.  The
recursion body takes its last-level lambdas from its caller, who has
computed that split already: ``verify`` from its split loop,
:func:`build_amplitude_nvalued` itself.  It divides each a-cell's measure
by P(C) once per call, not once per b-outcome, and refuses a null share
where it reads it, so the first refusal is that of the first outcome and
cell in the recursion order.  The tails of each order are built once and
kept.  Each component starts at its first root, whose phase beta[0] is 0,
and adds the other terms left to right.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .complex_repr import ComplexAmplitude
from .errors import DegenerateCell, SplitOutOfRange, ZeroConditioningContext
from .interference import cis
from .space import (
    Event,
    FiniteKolmogorovSpace,
    MeasureTable,
    ReferencePair,
    pair_tables,
    table_from_units,
)


class SplitDecomposition(NamedTuple):
    """Both sides of the contextual split of P(B(D1 u D2)|C) and its
    coefficient, with the right-hand sides of the two supporting identities
    (additivity over D1 and D2, and the conditioned form), whose left-hand
    side is ``lhs`` too."""

    lhs: float
    rhs: float
    lam: float
    additivity_rhs: float
    conditioned_rhs: float


def _event_tables(
    space: FiniteKolmogorovSpace, b: Event, d1: Event, d2: Event, c: Event
) -> tuple[MeasureTable, MeasureTable]:
    """The tables of C, with the unions D1 u D2 and D2, and of the full
    event over the partitions completed by complements: the a-cells (D1,
    D2, the rest) and the b-cells (B, not B).  Each cell's units are read
    from the space's one-cell tables, as its probabilities are."""
    mb, m1, m2, mc = space._masks(b, d1, d2, c)
    if m1 & m2:
        raise ValueError("the two conditioning events must be disjoint")
    one, full = space._byte_tables, (1 << space.n) - 1
    cells = [(a & mb, a & ~mb) for a in (m1, m2, full & ~(m1 | m2))]

    def table(event: int, unions=()) -> MeasureTable:
        rows = [[one.units(cell & event) for cell in row] for row in cells]
        return table_from_units(rows, one.scale, unions)

    return table(mc, (frozenset((0, 1)), frozenset((1,)))), table(full)


def contextual_total_probability_split(
    space: FiniteKolmogorovSpace, b: Event, d1: Event, d2: Event, c: Event
) -> SplitDecomposition:
    """Split P(B(D1 u D2)|C) over two disjoint events; see
    :func:`split_from_tables`."""
    return split_from_tables(*_event_tables(space, b, d1, d2, c), 0, 0, 1)


def split_from_tables(
    table: MeasureTable, free: MeasureTable, j: int, i1: int, i2: int
) -> SplitDecomposition:
    """Split P(B(D1 u D2)|C) for B = B_j, D1 = A_i1 and D2 = A_i2, from the
    context's table, which holds the union of the two cells, and the full
    event's, with the conditioning on C removed from the transition factors,
    quantifying the removal by a normalised coefficient.  All three displayed
    forms are identities, each judged by one of ``verify``'s checks: the
    additivity form by ``multivalued.union_additivity``, the conditioned form
    by ``multivalued.conditioned_split``, and ``rhs``, solved from ``lhs``
    through ``lam``, by ``multivalued.contextual_split``."""
    pc = table.pc
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    cells, a_row, free_cells = table.cells, table.a_row, free.cells
    if (b_d1 := free_cells[i1][j]) == 0.0:
        raise DegenerateCell("B meets D1 with probability zero")
    if (d1_c := a_row[i1]) == 0.0:
        raise DegenerateCell("D1 meets the context with probability zero")
    if (b_d2 := free_cells[i2][j]) == 0.0:
        raise DegenerateCell("B meets D2 with probability zero")
    if (d2_c := a_row[i2]) == 0.0:
        raise DegenerateCell("D2 meets the context with probability zero")

    lhs = table.unions[frozenset((i1, i2))][j] / pc
    b_d1_c, b_d2_c = cells[i1][j], cells[i2][j]
    additivity_rhs = b_d1_c / pc + b_d2_c / pc
    # two nonnegative terms: their IEEE sum is the fsum
    conditioned_rhs = (b_d1_c / d1_c) * (d1_c / pc) + (b_d2_c / d2_c) * (d2_c / pc)

    p_b_d1 = b_d1 / free.a_row[i1]
    p_b_d2 = b_d2 / free.a_row[i2]
    p_d1_c = d1_c / pc
    p_d2_c = d2_c / pc
    delta = lhs - (p_b_d1 * p_d1_c + p_b_d2 * p_d2_c)
    # each factor is positive, but their product can underflow to zero
    if (product := p_b_d1 * p_d1_c * p_b_d2 * p_d2_c) == 0.0:
        raise DegenerateCell("a probability under the normalising root vanishes")
    root = math.sqrt(product)
    lam = delta / (2.0 * root)
    rhs = p_b_d1 * p_d1_c + p_b_d2 * p_d2_c + 2.0 * lam * root
    return SplitDecomposition(lhs, rhs, lam, additivity_rhs, conditioned_rhs)


def mu_coefficient(
    space: FiniteKolmogorovSpace, b: Event, d1: Event, d2: Event, c: Event
) -> float:
    """Coefficient of the half-eliminated split; see :func:`mu_from_tables`."""
    tables = _event_tables(space, b, d1, d2, c)
    return mu_from_tables(*tables, 0, 0, frozenset((1,)))[0]


def mu_from_tables(
    table: MeasureTable, free: MeasureTable, j: int, i: int, rest: frozenset[int]
) -> tuple[float, float, float]:
    """(mu, head, tail) of the half-eliminated split of P(B(D1 u D2)|C), where
    only the head factor drops its conditioning on C, for B = B_j, D1 = A_i
    and D2 the union of the a-cells ``rest``, from the context's table, which
    holds the unions ``rest`` and ``rest | {i}``, and the full event's.  The
    reconstruction it certifies is an identity, solved here for mu, which
    ``verify``'s ``multivalued.half_eliminated_split`` judges."""
    pc = table.pc
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    if (b_d1 := free.cells[i][j]) == 0.0:
        raise DegenerateCell("B meets D1 with probability zero")
    if (d1_c := table.a_row[i]) == 0.0:
        raise DegenerateCell("D1 meets the context with probability zero")
    if (b_d2_c := table.unions[rest][j]) == 0.0:
        raise DegenerateCell("B, D2 and the context have null intersection")

    lhs = table.unions[rest | {i}][j] / pc
    head = (b_d1 / free.a_row[i]) * (d1_c / pc)
    tail = b_d2_c / pc
    if (product := head * tail) == 0.0:
        raise DegenerateCell("a probability under the normalising root vanishes")
    return (lhs - head - tail) / (2.0 * math.sqrt(product)), head, tail


class SplitLevel(NamedTuple):
    """One level of the recursion for one b-outcome."""

    level: int
    coefficient: float       # mu at inner levels, lambda at the last
    phase: float             # gamma at inner levels, theta at the last
    arg: float               # argument of the partial state
    partial: complex         # the partial state itself
    tail_probability: float  # |partial|^2 target


class SplitChain(NamedTuple):
    """Full audit trail of the recursion: per b-outcome the level records,
    plus the accumulated phases beta in recursion order."""

    order: tuple[int, ...]
    levels: dict[float, tuple[SplitLevel, ...]]
    betas: dict[float, tuple[float, ...]]


def build_amplitude_nvalued(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    context: Event,
    order: Sequence[int] | None = None,
    branch_signs: Sequence[int] | None = None,
) -> tuple[ComplexAmplitude, SplitChain]:
    """Build the complex state vector of a context under an n-valued
    conditioning variable by nested dichotomous splits.

    ``order`` permutes the a-values consumed by the recursion; ``branch_signs``
    (one per level, +1 or -1) choose the arccos branch at each level.  Raises
    :class:`SplitOutOfRange` as soon as any splitting coefficient leaves
    [-1, 1]; the recursion offers no fallback for such contexts.  See
    :func:`amplitude_nvalued_from_tables`.
    """
    n = len(pair.a_values)
    if n < 2:
        raise ValueError("need at least two a-values")
    order = tuple(range(n)) if order is None else tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the a-value indices")
    signs = tuple(1 for _ in range(n - 1)) if branch_signs is None else tuple(
        branch_signs
    )
    if len(signs) != n - 1 or any(s not in (1, -1) for s in signs):
        raise ValueError("one branch sign of +1 or -1 per level is required")
    tables = pair_tables(space, pair)
    table, free = tables.table(context, recursion_tails(order)), tables.free
    lams = []
    for j in range(len(pair.b_values)):
        try:
            lams.append(split_from_tables(table, free, j, *order[-2:]).lam)
        except DegenerateCell:  # the body refuses a None lambda
            lams.append(None)
    return amplitude_nvalued_from_tables(pair, table, free, order, signs, lams)


def recursion_tails(order: Sequence[int]) -> tuple[frozenset[int], ...]:
    """tails[j] is the union of the a-cells order[j:], at every level j."""
    return _tails(tuple(order))


@lru_cache(maxsize=64)
def _tails(order: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    return tuple([frozenset(order[j:]) for j in range(len(order) - 1)])


def amplitude_nvalued_from_tables(
    pair: ReferencePair,
    table: MeasureTable,
    free: MeasureTable,
    order: tuple[int, ...],
    signs: tuple[int, ...],
    lams: Sequence[float | None],
) -> tuple[ComplexAmplitude, SplitChain]:
    """The recursion of :func:`build_amplitude_nvalued` from the context's
    table, with the :func:`recursion_tails` of ``order`` as its unions, the
    full event's table, and ``lams[j]``, the lambda of the last-level split
    of b-cell j over the a-cells (order[-2], order[-1]), None where that
    split is degenerate.  Each component's squared modulus reproduces
    P(b=x|C), and each level's partial state its ``tail_probability``; both
    are judged by ``verify``'s ``multivalued.recursion_born``."""
    n = len(order)
    if n < 2:
        raise ValueError("need at least two a-values")
    pc = table.pc
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    tails = recursion_tails(order)
    unions, a_row = table.unions, table.a_row
    free_cells, free_a = free.cells, free.a_row
    shares = [p / pc for p in a_row]  # P(A_i|C), by a-cell
    levels: dict[float, tuple[SplitLevel, ...]] = {}
    betas: dict[float, tuple[float, ...]] = {}
    components = []
    for jx, x in enumerate(pair.b_values):
        head_terms, roots = [], []
        for i in order:
            p_cell_c = shares[i]
            if p_cell_c == 0.0:
                raise DegenerateCell("context misses a conditioning cell")
            p_b_cell = free_cells[i][jx] / free_a[i]
            if p_b_cell == 0.0:
                raise DegenerateCell("outcome misses a conditioning cell")
            head = p_b_cell * p_cell_c
            head_terms.append(head)
            roots.append(math.sqrt(head))

        # partial states from the innermost split outward: the last level
        # splits off the context entirely (lambda), each inner one the head
        # cell against the tail (mu)
        records: list[SplitLevel] = []
        for j in range(n - 2, -1, -1):
            if j == n - 2:
                tail_prob = head_terms[n - 1]
                coeff = lams[jx]
                if coeff is None:
                    raise DegenerateCell(
                        "a probability under the normalising root vanishes"
                    )
            else:
                tail_prob = unions[tails[j + 1]][jx] / pc
                if tail_prob == 0.0:
                    raise DegenerateCell("tail of the recursion has probability zero")
                coeff = mu_from_tables(table, free, jx, order[j], tails[j + 1])[0]
            if abs(coeff) > 1.0:
                raise SplitOutOfRange(j, x, coeff)
            phase = signs[j] * math.acos(coeff)
            partial = roots[j] + cis(phase) * math.sqrt(tail_prob)
            records.append(SplitLevel(
                j, coeff, phase, cmath.phase(partial), partial,
                unions[tails[j]][jx] / pc,
            ))
        records.reverse()

        # accumulate the phases: beta[0] = 0, then each level contributes its
        # own phase minus the argument of the next partial state
        beta = [0.0] * n
        for j in range(1, n - 1):
            beta[j] = beta[j - 1] + records[j - 1].phase - records[j].arg
        beta[n - 1] = beta[n - 2] + records[n - 2].phase

        # beta[0] = 0 and cis(0) is exactly 1; the rest add left to right
        component = complex(roots[0], 0.0)
        for j in range(1, n):
            component += cis(beta[j]) * roots[j]
        components.append(component)
        levels[x] = tuple(records)
        betas[x] = tuple(beta)

    return (
        ComplexAmplitude(tuple(components), pair.b_values),
        SplitChain(order, levels, betas),
    )
