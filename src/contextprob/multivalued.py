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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complex_repr import ComplexAmplitude
from .errors import (
    DegenerateCell,
    InvariantViolation,
    SplitOutOfRange,
    ZeroConditioningContext,
)
from .interference import cis
from .space import Event, FiniteKolmogorovSpace, IDENTITY_TOL, ReferencePair

RECURSION_BORN_TOL = 1e-9


@dataclass(frozen=True)
class SplitDecomposition:
    """Both sides of the contextual split of P(B(D1 u D2)|C), its
    coefficient, and the two supporting identities."""

    lhs: float
    rhs: float
    lam: float
    delta: float
    additivity_lhs: float
    additivity_rhs: float
    conditioned_rhs: float


def contextual_total_probability_split(
    space: FiniteKolmogorovSpace, b: Event, d1: Event, d2: Event, c: Event
) -> SplitDecomposition:
    """Split P(B(D1 u D2)|C) over two disjoint events with the conditioning
    on C removed from the transition factors, quantifying the removal by a
    normalised coefficient.  All three displayed forms are identities."""
    b, d1, d2, c = space._masks(b, d1, d2, c)
    if d1 & d2:
        raise ValueError("the two conditioning events must be disjoint")
    m = space._measure
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

    for lhs_i, rhs_i in (
        (lhs, rhs),
        (lhs, additivity_rhs),
        (lhs, conditioned_rhs),
    ):
        if abs(lhs_i - rhs_i) > IDENTITY_TOL:
            raise InvariantViolation("split decomposition identity drifted")
    return SplitDecomposition(
        lhs=lhs,
        rhs=rhs,
        lam=lam,
        delta=delta,
        additivity_lhs=lhs,
        additivity_rhs=additivity_rhs,
        conditioned_rhs=conditioned_rhs,
    )


def mu_coefficient(
    space: FiniteKolmogorovSpace, b: Event, d1: Event, d2: Event, c: Event
) -> float:
    """Coefficient of the half-eliminated split, where only the head factor
    drops its conditioning on C.  The reconstruction it certifies is an
    identity and is checked before returning."""
    b, d1, d2, c = space._masks(b, d1, d2, c)
    if d1 & d2:
        raise ValueError("the two conditioning events must be disjoint")
    m = space._measure
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


@dataclass(frozen=True)
class SplitLevel:
    """One level of the recursion for one b-outcome."""

    level: int
    coefficient: float       # mu at inner levels, lambda at the last
    phase: float             # gamma at inner levels, theta at the last
    arg: float               # argument of the partial state
    partial: complex         # the partial state itself
    tail_probability: float  # |partial|^2 target


@dataclass(frozen=True)
class SplitChain:
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
    [-1, 1]; the recursion offers no fallback for such contexts.
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

    c = space._masks(context, *pair.a_partition, *pair.b_partition)[0]
    m = space._measure
    pc = m(c)
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")

    cells = [pair.a_partition[i] for i in order]
    tails: list[Event] = []
    running = 0
    for cell in reversed(cells):
        running |= cell.mask
        tails.append(Event(running, space.n))
    tails.reverse()  # tails[j] = union of cells[j:]

    levels: dict[float, tuple[SplitLevel, ...]] = {}
    betas: dict[float, tuple[float, ...]] = {}
    components = []
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

        # partial states from the innermost split outward
        partials: list[complex] = [complex(0.0)] * (n - 1)
        records: list[SplitLevel] = []
        lam_split = contextual_total_probability_split(
            space, bx, cells[n - 2], cells[n - 1], context
        ).lam
        if abs(lam_split) > 1.0:
            raise SplitOutOfRange(n - 2, x, lam_split)
        theta = signs[n - 2] * math.acos(lam_split)
        partials[n - 2] = math.sqrt(head_terms[n - 2]) + cis(theta) * math.sqrt(
            head_terms[n - 1]
        )
        records.append(
            SplitLevel(
                level=n - 2,
                coefficient=lam_split,
                phase=theta,
                arg=cmath.phase(partials[n - 2]),
                partial=partials[n - 2],
                tail_probability=m(b & tails[n - 2].mask & c) / pc,
            )
        )
        for j in range(n - 3, -1, -1):
            tail_prob = m(b & tails[j + 1].mask & c) / pc
            if tail_prob == 0.0:
                raise DegenerateCell("tail of the recursion has probability zero")
            mu = mu_coefficient(space, bx, cells[j], tails[j + 1], context)
            if abs(mu) > 1.0:
                raise SplitOutOfRange(j, x, mu)
            gamma = signs[j] * math.acos(mu)
            partials[j] = math.sqrt(head_terms[j]) + cis(gamma) * math.sqrt(
                tail_prob
            )
            records.append(
                SplitLevel(
                    level=j,
                    coefficient=mu,
                    phase=gamma,
                    arg=cmath.phase(partials[j]),
                    partial=partials[j],
                    tail_probability=m(b & tails[j].mask & c) / pc,
                )
            )
        records.reverse()

        for rec in records:
            if abs(abs(rec.partial) ** 2 - rec.tail_probability) > RECURSION_BORN_TOL:
                raise InvariantViolation(
                    "partial state drifted from its tail probability"
                )

        # accumulate the phases: beta[0] = 0, then each level contributes its
        # own phase minus the argument of the next partial state
        beta = [0.0] * n
        args = {rec.level: rec.arg for rec in records}
        phases_by_level = {rec.level: rec.phase for rec in records}
        for j in range(1, n - 1):
            beta[j] = beta[j - 1] + phases_by_level[j - 1] - args[j]
        beta[n - 1] = beta[n - 2] + phases_by_level[n - 2]

        component = sum(
            cis(beta[j]) * math.sqrt(head_terms[j]) for j in range(n)
        )
        direct = m(b & c) / pc
        if abs(abs(component) ** 2 - direct) > RECURSION_BORN_TOL:
            raise InvariantViolation(
                "recursive state drifted from the outcome probability"
            )
        components.append(component)
        levels[x] = tuple(records)
        betas[x] = tuple(beta)

    psi = ComplexAmplitude(
        np.array(components, dtype=complex),
        pair.b_values,
        context,
        branch="split",
    )
    chain = SplitChain(order=order, levels=levels, betas=betas)
    return psi, chain
