"""Interference decomposition of the contextual total probability formula.

For a dichotomous reference pair (a, b) and an a-nondegenerate context C, the
probability of each b-outcome deviates from the context-free decomposition by
a perturbation

    delta(x) = P(b=x|C) - sum_y P(b=x|a=y) P(a=y|C),

whose normalisation by twice the geometric mean of the four constituent
probabilities is the incompatibility coefficient lambda(x).  The sum of the
deltas over the outcomes is always zero, so the lambdas carry one effective
degree of freedom per context.

Contexts split by the magnitude of their lambdas: all |lambda| <= 1 admits a
cosine phase (trigonometric), all |lambda| >= 1 with some strict admits a
cosh rapidity with a sign (hyperbolic), |lambda| = 1 everywhere sits on the
boundary and is representable both ways, and anything else is mixed and
representable neither way.  Each outcome is tagged once, |lambda| within
``BOUNDARY_TOL`` of 1 on the boundary, and the class, the phase bodies and
the offset search read the tags, never |lambda| against the band again.

All functions are pure; the coefficient objects are immutable snapshots.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DegenerateCell,
    DegenerateContext,
    HyperbolicContext,
    MixedContext,
    TrigonometricContext,
    ZeroConditioningContext,
)
from .records import unordered
from .space import (
    Event,
    FiniteKolmogorovSpace,
    ReferencePair,
    TransitionMatrix,
    are_incompatible,
    pair_tables,
    transition_matrix,
)
from .tolerances import BOUNDARY_TOL, OFFSET_TOL, PHASE_SNAP_TOL

TWO_PI = 2.0 * math.pi
_QUARTER_PI = math.pi / 2.0


def cis(theta: float) -> complex:
    """Unit complex number of phase ``theta``.

    Multiples of pi/2 are snapped to the exact units so that boundary
    amplitudes (phases 0, pi/2, pi, 3pi/2) come out without rounding fuzz.
    """
    k = round(theta / _QUARTER_PI)
    if abs(theta - k * _QUARTER_PI) < PHASE_SNAP_TOL:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[k % 4]
    return complex(math.cos(theta), math.sin(theta))


class OutcomeClass(str, Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    BOUNDARY = "boundary"


class ContextClass(str, Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    BOUNDARY = "boundary"
    MIXED = "mixed"


def _context_class(s: OutcomeClass, t: OutcomeClass) -> ContextClass:
    # a boundary outcome fits either geometry, so a class holds with or
    # without one
    if s is OutcomeClass.BOUNDARY or s is t:
        return ContextClass(t.value)
    if t is OutcomeClass.BOUNDARY:
        return ContextClass(s.value)
    return ContextClass.MIXED


# the class of a context by the tags of its two outcomes, in order
_CLASS_OF_TAG_PAIR = {
    (s, t): _context_class(s, t) for s in OutcomeClass for t in OutcomeClass
}


class InterferenceCoefficients(NamedTuple):
    """Interference data for one context under one pair.

    ``a_profile[i]`` is P(a=y_i|C) and ``b_profile[j]`` is P(b=x_j|C), the
    context's measures every coefficient was derived from, and
    ``transition`` is the pair's "b/a" transition matrix they were combined
    with; phases, states and checks of the same context read these instead
    of measuring again.  ``deltas[j]``, ``lambdas[j]`` and ``tags[j]`` are
    the perturbation, the coefficient and the class of the b-outcome
    ``pair.b_values[j]``, and ``context_class`` is the class of the two
    tags.  Coefficients compare by identity and have no order.
    """

    pair: ReferencePair
    a_profile: tuple[float, ...]
    b_profile: tuple[float, ...]
    transition: TransitionMatrix
    deltas: tuple[float, float]
    lambdas: tuple[float, float]
    tags: tuple[OutcomeClass, OutcomeClass]
    context_class: ContextClass

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = unordered


def interference_coefficients(
    space: FiniteKolmogorovSpace, pair: ReferencePair, context: Event
) -> InterferenceCoefficients:
    """Compute delta and lambda for every b-outcome of one context, as
    :func:`read_contexts` reads them; raises on non-dichotomous pairs, and
    the refusal of a context that has no coefficients."""
    if not pair.dichotomous:
        raise ValueError(
            "interference decomposition is defined for dichotomous pairs; "
            "use the multivalued splitting for larger value sets"
        )
    [(_, _, coeffs)] = read_contexts(space, pair, [(None, context)])
    if isinstance(coeffs, Exception):
        raise coeffs
    return coeffs


def read_contexts(
    space: FiniteKolmogorovSpace, pair: ReferencePair,
    named: Iterable[tuple[str, Event]],
) -> Iterator[
    tuple[str, Sequence[Sequence[int]], InterferenceCoefficients | Exception | None]
]:
    """Read each named context once, in order, with the pair checked once.

    Yields ``(name, rows, coefficients)``: ``rows[i][j]`` is the context's
    exact number of units in the joint cell A_i & B_j, each unit 1/scale of
    the pair's :func:`~contextprob.space.pair_tables`, as
    :func:`~contextprob.space.table_from_units` takes them.  On a
    dichotomous pair they are the four fields of the context's packed sum,
    and give P(C), P(A_i & C) and P(B_j & C), which go with the pair's "b/a"
    transition matrix to :func:`coefficients_from_measures`.  In place of
    the coefficients it yields the refusal of a null or a-degenerate
    context, of a vanishing normalising root or of a compatible pair, and
    ``None`` on a pair that is not dichotomous.  An
    :class:`InvariantViolation` is raised.
    """
    tables = pair_tables(space, pair)
    units, scale, size = tables.units, tables.scale, tables.size
    w1, field_mask = tables.width, tables.field_mask
    w2, w3 = 2 * w1, 3 * w1
    dichotomous = pair.dichotomous
    transition = refusal = None
    if dichotomous:
        if are_incompatible(space, pair):
            # an incompatible pair has no null cell, so the matrix cannot raise
            transition = transition_matrix(space, pair, "b/a")
        else:
            refusal = DegenerateCell("reference variables must be incompatible")
    for name, context in named:
        if context.size != size:
            raise ValueError("event does not belong to this space")
        packed = units(context.mask)
        if not dichotomous:
            yield name, tables._rows(packed), None
            continue
        # the four fields of the cells (0, 0), (0, 1), (1, 0) and (1, 1)
        u00, u01 = packed & field_mask, (packed >> w1) & field_mask
        u10, u11 = (packed >> w2) & field_mask, packed >> w3
        coefficients = refusal
        if transition is not None:
            try:
                coefficients = coefficients_from_measures(
                    pair, transition, (u00 + u01 + u10 + u11) / scale,
                    ((u00 + u01) / scale, (u10 + u11) / scale),
                    ((u00 + u10) / scale, (u01 + u11) / scale),
                )
            except (ZeroConditioningContext, DegenerateContext, DegenerateCell) as exc:
                coefficients = exc
        yield name, ((u00, u01), (u10, u11)), coefficients


def coefficients_from_measures(
    pair: ReferencePair, transition: TransitionMatrix,
    pc: float, a_row: Sequence[float], b_row: Sequence[float],
) -> InterferenceCoefficients:
    """The coefficients of one context from P(C), ``a_row[i]`` =
    P(A_i & C), ``b_row[j]`` = P(B_j & C) and the pair's "b/a"
    ``transition`` matrix, for a dichotomous and incompatible pair:
    :func:`read_contexts` checks the pair once for all its contexts.  The
    two perturbations sum to zero, which ``verify``'s
    ``core.delta_sum_zero`` judges."""
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    pa = a_row[0] / pc, a_row[1] / pc
    if 0.0 in pa:
        y = pair.a_values[pa.index(0.0)]
        raise DegenerateContext(f"context misses the cell a={y!r}")
    pb = b_row[0] / pc, b_row[1] / pc
    (a0, a1), ((t00, t01), (t10, t11)) = pa, transition.rows
    # two nonnegative terms: their IEEE sum is the fsum
    d0 = pb[0] - (a0 * t00 + a1 * t10)
    d1 = pb[1] - (a0 * t01 + a1 * t11)
    prod0 = a0 * t00 * a1 * t10
    if prod0 <= 0.0:
        raise DegenerateCell("a probability under the normalising root vanishes")
    lam0 = d0 / (2.0 * math.sqrt(prod0))
    prod1 = a0 * t01 * a1 * t11
    if prod1 <= 0.0:
        raise DegenerateCell("a probability under the normalising root vanishes")
    lam1 = d1 / (2.0 * math.sqrt(prod1))
    tags = _outcome_tag(lam0), _outcome_tag(lam1)
    return InterferenceCoefficients(
        pair, pa, pb, transition, (d0, d1), (lam0, lam1), tags,
        _CLASS_OF_TAG_PAIR[tags],
    )


def _outcome_tag(lam: float) -> OutcomeClass:
    """The class of one outcome, the one reading of ``BOUNDARY_TOL``: every
    phase body reads this tag, not |lambda| again."""
    if abs(abs(lam) - 1.0) <= BOUNDARY_TOL:
        return OutcomeClass.BOUNDARY
    if abs(lam) < 1.0:
        return OutcomeClass.TRIGONOMETRIC
    return OutcomeClass.HYPERBOLIC


def _angle(lam: float, tag: OutcomeClass) -> float:
    """The angle in [0, pi] whose cosine is a trigonometric or boundary
    outcome's lambda: exactly 0 or pi on the boundary, where arccos would
    amplify coefficient noise like 1/sqrt(1 - lambda^2)."""
    if tag is OutcomeClass.BOUNDARY:
        return 0.0 if lam > 0 else math.pi
    return math.acos(lam)


class PhaseAssignment(NamedTuple):
    """Phases attached to the interference coefficients of one context.

    ``kind`` is "trigonometric" (thetas are angles in [0, 2pi), cosines equal
    the lambdas) or "hyperbolic" (thetas are nonnegative rapidities, cosh
    equals |lambda|, and the sign lives in ``epsilons``).
    """

    kind: str
    thetas: tuple[float, float]
    epsilons: tuple[int, int] | None = None


def _check_convention(convention: str) -> None:
    if convention not in ("principal", "conjugate"):
        raise ValueError(f"unknown phase convention {convention!r}")


def assign_phases(
    coeffs: InterferenceCoefficients, convention: str = "principal"
) -> PhaseAssignment:
    """Choose phases representing the incompatibility coefficients, in the
    context's own geometry: rapidities for a hyperbolic context, angles
    otherwise (a boundary context admits both and takes angles).

    ``convention`` picks one of the two conjugate representatives
    ("principal" or "conjugate"); rapidities are the same for both.
    """
    if coeffs.context_class is ContextClass.HYPERBOLIC:
        _check_convention(convention)
        return PhaseAssignment("hyperbolic", *hyperbolic_phases(coeffs))
    return PhaseAssignment("trigonometric", trigonometric_phases(coeffs, convention))


def trigonometric_phases(
    coeffs: InterferenceCoefficients, convention: str = "principal"
) -> tuple[float, float]:
    """The angles (theta1, theta2) in [0, 2pi) whose cosines are the lambdas
    of a trigonometric or boundary context, in the ``convention``'s
    conjugate representative.  Under a double stochastic transition matrix
    theta2 is theta1 + pi; otherwise the two are tied by cos(theta2) =
    -k cos(theta1), with k the matrix's cosine ratio.  That the lambdas obey
    the same tie is what ``verify``'s ``core.phase_cosine_relation``
    judges.  The complex geometry's one gate: it refuses a bad convention,
    then a mixed or hyperbolic context."""
    _check_convention(convention)
    if coeffs.context_class is ContextClass.MIXED:
        raise MixedContext("mixed contexts have no complex representation")
    if coeffs.context_class is ContextClass.HYPERBOLIC:
        raise HyperbolicContext(
            "context has large interference coefficients; build the "
            "hyperbolic representation instead"
        )
    (lam0, lam1), (tag0, tag1) = coeffs.lambdas, coeffs.tags
    theta1 = _angle(lam0, tag0)
    if convention == "conjugate":
        theta1 = math.fmod(TWO_PI - theta1, TWO_PI)
    if coeffs.transition.double_stochastic:
        return theta1, math.fmod(theta1 + math.pi, TWO_PI)
    theta2 = _angle(lam1, tag1)
    if convention == "conjugate":
        theta2 = math.fmod(TWO_PI - theta2, TWO_PI)
    return theta1, theta2


def hyperbolic_phases(
    coeffs: InterferenceCoefficients,
) -> tuple[tuple[float, float], tuple[int, int]]:
    """The nonnegative rapidities, with cosh equal to |lambda| (to one on
    the boundary), and the signs of the perturbations of a hyperbolic or
    boundary context.  Under a double stochastic transition matrix both
    outcomes take one rapidity, from the mean of the two cosh targets, which
    are equal; ``verify``'s ``hyperbolic.rapidity_equality`` judges that.
    The two signs are opposite, which ``verify``'s
    ``hyperbolic.epsilon_sum_zero`` judges.  Refuses a mixed or
    trigonometric context: the geometry's one gate."""
    if coeffs.context_class is ContextClass.MIXED:
        raise MixedContext("mixed contexts have no hyperbolic representation")
    if coeffs.context_class is ContextClass.TRIGONOMETRIC:
        raise TrigonometricContext(
            "context has small interference coefficients; build the complex "
            "representation instead"
        )
    (lam0, lam1), (tag0, tag1) = coeffs.lambdas, coeffs.tags
    m0 = 1.0 if tag0 is OutcomeClass.BOUNDARY else abs(lam0)
    m1 = 1.0 if tag1 is OutcomeClass.BOUNDARY else abs(lam1)
    if coeffs.transition.double_stochastic:
        thetas = (math.acosh((m0 + m1) / 2),) * 2
    else:
        thetas = (math.acosh(m0), math.acosh(m1))
    d0, d1 = coeffs.deltas
    return thetas, (1 if d0 > 0 else -1, 1 if d1 > 0 else -1)


def reconstruct_probability(
    coeffs: InterferenceCoefficients, phases: PhaseAssignment
) -> dict[float, float]:
    """Evaluate the interference form of the total probability formula from
    the context's measures and its phases.

    The result is an identity: it must reproduce the direct conditional
    probability of every b-outcome.
    """
    (a0, a1), ((t00, t01), (t10, t11)) = coeffs.a_profile, coeffs.transition.rows
    theta0, theta1 = phases.thetas
    if phases.kind == "trigonometric":
        f0, f1 = math.cos(theta0), math.cos(theta1)
    else:
        f0 = phases.epsilons[0] * math.cosh(theta0)
        f1 = phases.epsilons[1] * math.cosh(theta1)
    x0, x1 = coeffs.pair.b_values
    # two nonnegative terms: their IEEE sum is the fsum
    return {
        x0: (a0 * t00 + a1 * t10) + 2.0 * f0 * math.sqrt(a0 * t00 * a1 * t10),
        x1: (a0 * t01 + a1 * t11) + 2.0 * f1 * math.sqrt(a0 * t01 * a1 * t11),
    }


class GlobalPhaseReport(NamedTuple):
    """Outcome of searching for one phase offset shared by all contexts."""

    found: bool
    alpha: float | None
    offset_spread: float


def _circular_close(u: float, v: float) -> bool:
    d = math.fmod(abs(u - v), TWO_PI)
    return d <= OFFSET_TOL or TWO_PI - d <= OFFSET_TOL


def verify_no_global_alpha(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    contexts: Mapping[str, Event] | Sequence[Event],
) -> GlobalPhaseReport:
    """Search for an offset alpha shared by the given trigonometric contexts;
    see :func:`global_alpha_from_coefficients`."""
    if isinstance(contexts, Mapping):
        named = list(contexts.items())
    else:
        named = [(f"context_{i}", c) for i, c in enumerate(contexts)]
    return global_alpha_from_coefficients(
        (name, interference_coefficients(space, pair, c)) for name, c in named
    )


def global_alpha_from_coefficients(
    named: Iterable[tuple[str, InterferenceCoefficients]],
) -> GlobalPhaseReport:
    """Search for an offset alpha with theta(b_2) = theta(b_1) + alpha across
    all given trigonometric contexts, by name, trying both conjugate branches
    per context.

    A shared offset across two contexts with distinct |lambda| forces the
    transition matrix to be double stochastic; when the matrix is double
    stochastic the offset pi always works.  ``verify``'s
    ``complex.global_phase_offset`` judges both facts on the report.  To
    first order cos(theta2) = -k cos(theta1) puts the offset at pi + (k - 1)
    cot(theta1), theta1 = arccos |lambda(b_1)|: ``offset_spread`` is
    |k - 1| times the range of cot(theta1) over the contexts whose b_1 is
    tagged trigonometric.
    """
    shared: list[float] | None = None  # the offsets every context so far admits
    lo, hi, k = math.inf, -math.inf, 1.0  # the least and largest cot(theta1)
    for name, coeffs in named:
        # refused by name: the search must not read the pi shift it tests
        cls = coeffs.context_class
        if cls is ContextClass.MIXED:
            raise MixedContext(f"context {name!r} is mixed")
        if cls is ContextClass.HYPERBOLIC:
            raise HyperbolicContext(f"context {name!r} is hyperbolic")
        (lam0, lam1), (tag0, tag1) = coeffs.lambdas, coeffs.tags
        t1, t2 = _angle(lam0, tag0), _angle(lam1, tag1)
        offsets = [
            math.fmod(math.fmod(u, TWO_PI) + TWO_PI, TWO_PI)
            for u in (t2 - t1, t2 + t1, -t2 - t1, -t2 + t1)
        ]
        if shared is None:
            shared = offsets
        elif shared:
            shared = [u for u in shared if any(_circular_close(u, v) for v in offsets)]
        if tag0 is OutcomeClass.TRIGONOMETRIC:
            cot = abs(lam0) / math.sqrt(1.0 - lam0 * lam0)
            lo, hi, k = min(lo, cot), max(hi, cot), coeffs.transition.cosine_ratio

    alpha = shared[0] if shared else None
    if shared and any(_circular_close(u, math.pi) for u in shared):
        alpha = math.pi  # the canonical choice, when available
    # fl(max - min) bounds fl(|a - b|) for every pair, so this is the
    # all-pairs spread in linear time; with no context it is -inf
    spread = abs(k - 1.0) * max(0.0, hi - lo)
    return GlobalPhaseReport(alpha is not None, alpha, spread)
