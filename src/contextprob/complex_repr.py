"""Complex Hilbert-space representation of trigonometric contexts.

A trigonometric context maps to a two-component complex state vector whose
squared moduli reproduce the conditional probabilities of the b-outcomes.
When the transition matrix is double stochastic and the two phases differ by
pi, a context-independent orthonormal basis indexed by the a-outcomes exists
as well, the squared inner products against it reproduce the a-outcome
probabilities, and both reference variables become self-adjoint operators.
Conditional expectations of f(a) + g(b) are preserved by the operator map
even though joint-distribution information is not.

Inner products conjugate the second argument.  Every context admits exactly
two conjugate state vectors; the ``branch`` tag records which one was built.

States, basis vectors and operator matrices are tuples (of rows) of Python
complexes, computed with plain 2x2 (and diagonal k x k) arithmetic.  The
reference pair is dichotomous, so states have two components and operators
are 2x2: :meth:`HermitianOperator.eigenvalues` takes the closed form, and
:meth:`ComplexAmplitude.norm_sq` and :func:`quantum_average` are plain sums.
numpy is imported only inside :func:`distribution_mismatch`, for its
eigenvectors, and by :meth:`~HermitianOperator.eigenvalues` of an operator
that is not 2x2, which no command builds.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    BasisMismatch,
    DegenerateContext,
    HyperbolicContext,
    InvariantViolation,
    MixedContext,
    NonUnitaryBasis,
    PhaseInconsistency,
)
from .interference import (
    ContextClass,
    InterferenceCoefficients,
    PhaseAssignment,
    assign_phases,
    cis,
    classify_context,
    interference_coefficients,
    pair_coefficients,
)
from .records import Record
from .space import (
    Event,
    FiniteKolmogorovSpace,
    ReferencePair,
    column_sums,
    pair_tables,
    transition_matrix,
)
from .tolerances import AVERAGE_TOL, BORN_TOL, HERMITIAN_TOL, IMAGE_TOL, PREDICATE_TOL


class ComplexAmplitude(NamedTuple):
    """State vector over the b-outcomes representing one context."""

    components: tuple[complex, ...]
    b_values: tuple[float, ...]
    context: Event | None
    branch: str

    def component(self, x: float) -> complex:
        return complex(self.components[self.b_values.index(x)])

    def born(self, x: float) -> float:
        return float(abs(self.components[self.b_values.index(x)]) ** 2)

    def norm_sq(self) -> float:
        """The :meth:`born` terms, summed left to right."""
        return float(sum([abs(c) ** 2 for c in self.components]))

    def conjugate(self) -> "ComplexAmplitude":
        other = "conjugate" if self.branch == "principal" else "principal"
        return ComplexAmplitude(
            _conj(self.components), self.b_values, self.context, other
        )


def _conj(v: Sequence[complex]) -> tuple[complex, ...]:
    return tuple([c.conjugate() for c in v])


def inner_product(u: Sequence[complex], v: Sequence[complex]) -> complex:
    """Standard inner product, conjugating the second argument."""
    return sum([a * b.conjugate() for a, b in zip(u, v)], 0j)


def born_probability(psi, basis_vector) -> float:
    """Squared modulus of the inner product with a basis vector."""
    u = psi.components if isinstance(psi, ComplexAmplitude) else psi
    v = (
        basis_vector.components
        if isinstance(basis_vector, ComplexAmplitude)
        else basis_vector
    )
    return abs(inner_product(u, v)) ** 2


def _amplitude_from_phases(
    coeffs: InterferenceCoefficients, phases: PhaseAssignment
) -> tuple[complex, complex]:
    (a0, a1), ((t00, t01), (t10, t11)) = coeffs.a_profile, coeffs.transition.rows
    theta0, theta1 = phases.thetas
    return (
        math.sqrt(a0 * t00) + cis(theta0) * math.sqrt(a1 * t10),
        math.sqrt(a0 * t01) + cis(theta1) * math.sqrt(a1 * t11),
    )


def amplitude_from_coefficients(
    coeffs: InterferenceCoefficients, convention: str = "principal"
) -> ComplexAmplitude:
    """Construct the complex state vector of a trigonometric (or boundary)
    context from its interference coefficients.  The squared moduli must
    reproduce the context's conditional b-probabilities; a violation
    indicates an upstream bug."""
    cls = coeffs.context_class
    if cls is ContextClass.MIXED:
        raise MixedContext("mixed contexts have no complex representation")
    if cls is ContextClass.HYPERBOLIC:
        raise HyperbolicContext(
            "context has large interference coefficients; build the "
            "hyperbolic representation instead"
        )
    phases = assign_phases(coeffs, convention, mode="trigonometric")
    components = c0, c1 = _amplitude_from_phases(coeffs, phases)
    b0, b1 = coeffs.b_profile
    if abs(abs(c0) ** 2 - b0) > BORN_TOL or abs(abs(c1) ** 2 - b1) > BORN_TOL:
        raise PhaseInconsistency("squared modulus drifted from the probability")
    return ComplexAmplitude(
        components, coeffs.pair.b_values, coeffs.context, convention
    )


def build_amplitude(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    context: Event,
    convention: str = "principal",
) -> ComplexAmplitude:
    """Construct the complex state vector of a trigonometric (or boundary)
    context; see :func:`amplitude_from_coefficients`."""
    return amplitude_from_coefficients(
        interference_coefficients(space, pair, context), convention
    )


class HilbertBasis(NamedTuple):
    """Basis vectors (rows, in b-coordinates) with the change matrix and a
    unitarity report.  A non-unitary basis is reported, not rejected:
    single contexts can still be expanded in it, only the two-sided
    probability rule fails.  Bases compare by identity."""

    vectors: tuple[tuple[complex, ...], ...]
    anchor: Event | None
    unitary: bool
    witness: dict[str, float]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def vector(self, index: int) -> tuple[complex, ...]:
        return self.vectors[index]


def a_basis_for_context(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    anchor_context: Event,
    convention: str = "principal",
) -> HilbertBasis:
    """Basis indexed by the a-outcomes, anchored at one trigonometric context.

    The change matrix is unitary exactly when the transition matrix is double
    stochastic and the anchor phases differ by pi; otherwise the basis is
    valid only for contexts sharing the anchor's |lambda| level and the
    report carries the offending column sums.
    """
    coeffs = interference_coefficients(space, pair, anchor_context)
    cls = classify_context(coeffs)
    if cls is ContextClass.MIXED:
        raise MixedContext("anchor context is mixed")
    if cls is ContextClass.HYPERBOLIC:
        raise HyperbolicContext("anchor context is hyperbolic")
    phases = assign_phases(coeffs, convention, mode="trigonometric")
    t = coeffs.transition
    u = [[math.sqrt(p) for p in row] for row in t.rows]
    e1 = (complex(u[0][0]), complex(u[0][1]))
    e2 = (cis(phases.thetas[0]) * u[1][0], cis(phases.thetas[1]) * u[1][1])
    vectors = (e1, e2)
    unitary = max(
        abs(inner_product(v, w) - float(i == k))
        for i, v in enumerate(vectors)
        for k, w in enumerate(vectors)
    ) <= PREDICATE_TOL
    witness: dict[str, float] = {}
    if not unitary:
        witness = {f"column_sum_{j}": s for j, s in enumerate(column_sums(t))}
    return HilbertBasis(
        vectors=vectors, anchor=anchor_context, unitary=unitary, witness=witness
    )


def extend_to_a_contexts(
    space: FiniteKolmogorovSpace, pair: ReferencePair, a_basis: HilbertBasis
) -> dict[float, ComplexAmplitude]:
    """Map each a-partition cell, which is degenerate and has no interference
    representation, to its basis vector."""
    out: dict[float, ComplexAmplitude] = {}
    for i, y in enumerate(pair.a_values):
        out[y] = ComplexAmplitude(
            a_basis.vectors[i],
            pair.b_values,
            pair.a_partition[i],
            "basis",
        )
    return out


class HermitianOperator(Record):
    """Self-adjoint matrix in a named basis, as a tuple of rows; the
    constructor accepts any nested sequence of numbers.  Operators compare
    by identity."""

    __slots__ = _fields = ("matrix", "basis")

    def __init__(self, matrix, basis: str):
        m = tuple(tuple(map(complex, row)) for row in matrix)
        deviation = max(
            abs(v - w.conjugate()) for row, col in zip(m, zip(*m))
            for v, w in zip(row, col)
        )
        if deviation > HERMITIAN_TOL:
            raise InvariantViolation(
                f"operator is not self-adjoint (worst deviation {deviation!r}, "
                f"tolerance {HERMITIAN_TOL!r})"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "basis", basis)

    def eigenvalues(self) -> tuple[float, ...]:
        """Eigenvalues in ascending order.  A 2x2 operator takes the closed
        form mid -/+ hypot((a - d) / 2, |c|) of its real diagonal a, d and
        lower off-diagonal c; other sizes call numpy's ``eigvalsh``."""
        m = self.matrix
        if len(m) == 2:
            a, d = m[0][0].real, m[1][1].real
            mid, r = (a + d) / 2, math.hypot((a - d) / 2, abs(m[1][0]))
            return (mid - r, mid + r)
        import numpy as np

        return tuple(np.linalg.eigvalsh(np.array(m)).tolist())


def operator_for_variable(
    values: Sequence[float], basis: HilbertBasis
) -> HermitianOperator:
    """Operator with the given eigenvalues on the given basis vectors,
    expressed in b-coordinates."""
    if not basis.unitary:
        raise NonUnitaryBasis(
            "operator construction needs an orthonormal basis; the change "
            f"matrix is not unitary ({basis.witness})"
        )
    if len(values) != len(basis.vectors):
        raise ValueError("one eigenvalue per basis vector is required")
    k = len(basis.vectors[0])
    matrix = [[0j] * k for _ in range(k)]
    for value, vec in zip(values, basis.vectors):
        bar = _conj(vec)
        for i in range(k):
            for j in range(k):
                matrix[i][j] += value * (vec[i] * bar[j])
    return HermitianOperator(matrix, basis="b")


def _diagonal(values: Sequence[float]) -> tuple[tuple[complex, ...], ...]:
    k = len(values)
    return tuple(
        tuple(complex(v) if i == j else 0j for j in range(k))
        for i, v in enumerate(values)
    )


def operator_for_b(pair: ReferencePair) -> HermitianOperator:
    return HermitianOperator(_diagonal(pair.b_values), basis="b")


def _matmul(a, b) -> list[list[complex]]:
    return [[sum([x * y for x, y in zip(row, col)]) for col in zip(*b)] for row in a]


def commutator(
    op_a: HermitianOperator, op_b: HermitianOperator
) -> tuple[tuple[complex, ...], ...]:
    """AB - BA.  Nonzero for incompatible dichotomous reference pairs with a
    double stochastic transition matrix."""
    if op_a.basis != op_b.basis:
        raise BasisMismatch("operators live in different bases")
    ab, ba = _matmul(op_a.matrix, op_b.matrix), _matmul(op_b.matrix, op_a.matrix)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def quantum_average(op: HermitianOperator, psi: ComplexAmplitude) -> float:
    """Expectation of a self-adjoint operator in a state; the imaginary
    residue must vanish to rounding.  The state's dimension must match the
    operator's."""
    c, m = psi.components, op.matrix
    if len(m) != len(c) or any(len(row) != len(c) for row in m):
        raise ValueError(
            f"operator of size {len(m)} cannot act on a state of {len(c)} components"
        )
    value = inner_product([sum([v * y for v, y in zip(row, c)]) for row in m], c)
    if abs(value.imag) > BORN_TOL:
        raise InvariantViolation(f"average has imaginary residue {value.imag!r}")
    return value.real


def _as_row(f, values: Sequence[float]) -> list[float]:
    """f at each of the values, from a callable or a mapping."""
    return [float(f(v)) if callable(f) else float(f[v]) for v in values]


def state_for_context(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    context: Event,
    basis: HilbertBasis,
) -> tuple[ComplexAmplitude, tuple[float, ...], tuple[float, ...]]:
    """State of a representable context with its a- and b-profiles:
    principal interference amplitude when the context is a-nondegenerate,
    vector of ``basis`` with the cell's indicator and transition row when
    it is an a-cell."""
    for i, ay in enumerate(pair.a_partition):
        if context.mask == ay.mask:
            psi = extend_to_a_contexts(space, pair, basis)[pair.a_values[i]]
            indicator = tuple(float(k == i) for k in range(len(pair.a_values)))
            return psi, indicator, transition_matrix(space, pair, "b/a").rows[i]
    coeffs = interference_coefficients(space, pair, context)
    psi = amplitude_from_coefficients(coeffs)
    return psi, coeffs.a_profile, coeffs.b_profile


class AveragePreservationReport(NamedTuple):
    classical: float
    quantum: float
    residual: float
    ok: bool


def verify_average_preservation(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    context: Event,
    f,
    g,
) -> AveragePreservationReport:
    """Compare the conditional expectation of f(a) + g(b) with the operator
    average of f(op_a) + g(op_b) in the context's principal state, over
    the basis anchored at the full event; see
    :func:`average_preservation`."""
    f_row, g_row = _as_row(f, pair.a_values), _as_row(g, pair.b_values)
    basis = a_basis_for_context(space, pair, space.full_event())
    psi, a_profile, b_profile = state_for_context(space, pair, context, basis)
    return average_preservation(
        psi, sum_operator(basis, f_row, g_row), f_row, g_row, a_profile, b_profile
    )


def sum_operator(
    basis: HilbertBasis, f_row: Sequence[float], g_row: Sequence[float]
) -> HermitianOperator:
    """f(op_a) + g(op_b) in b-coordinates, from f at each a-value (the
    eigenvalues of the basis vectors) and g at each b-value."""
    f_op = operator_for_variable(f_row, basis)
    return HermitianOperator(_add(f_op.matrix, _diagonal(g_row)), basis="b")


def _add(a, b) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def average_preservation(
    psi: ComplexAmplitude,
    operator: HermitianOperator,
    f_row: Sequence[float],
    g_row: Sequence[float],
    a_profile: Sequence[float],
    b_profile: Sequence[float],
) -> AveragePreservationReport:
    """Compare the conditional expectation of f(a) + g(b), f and g summed
    against the context's a- and b-profiles, with the average of their
    :func:`sum_operator` in the context's state ``psi``."""
    values, profile = (*f_row, *g_row), (*a_profile, *b_profile)
    classical = math.fsum(v * p for v, p in zip(values, profile))
    quantum = quantum_average(operator, psi)
    residual = abs(classical - quantum)
    return AveragePreservationReport(
        classical=classical,
        quantum=quantum,
        residual=residual,
        ok=residual <= AVERAGE_TOL,
    )


class DistributionMismatchReport(NamedTuple):
    """Distributions of the sum variable: pointwise classical versus
    spectral, together with their (equal) averages."""

    classical_dist: dict[float, float]
    quantum_dist: dict[float, float]
    classical_average: float
    quantum_average: float
    total_variation: float


def distribution_mismatch(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    context: Event,
    gamma: float,
) -> DistributionMismatchReport:
    """Distribution of a(omega) + b(omega) given the context versus that of
    the operator sum in the context's principal state, over the basis
    anchored at the full event.

    Requires both variables to take the values +gamma and -gamma.  The two
    averages coincide; the distributions in general do not, which is the
    point of the report.
    """
    import numpy as np

    expected = {gamma, -gamma}
    if set(pair.a_values) != expected or set(pair.b_values) != expected:
        raise ValueError("both variables must take values +gamma and -gamma")

    pc = pair_tables(space, pair).table(context).pc
    classical_dist = {v: 0.0 for v in (-2.0 * gamma, 0.0, 2.0 * gamma)}
    for i in context.indices():
        classical_dist[pair.a.values[i] + pair.b.values[i]] += space.weights[i] / pc
    classical_avg = math.fsum(v * p for v, p in classical_dist.items())

    basis = a_basis_for_context(space, pair, space.full_event())
    psi = state_for_context(space, pair, context, basis)[0]
    a_op = operator_for_variable(pair.a_values, basis)
    d_op = HermitianOperator(_add(a_op.matrix, _diagonal(pair.b_values)), basis="b")
    eigvals, eigvecs = np.linalg.eigh(np.array(d_op.matrix))
    quantum_dist = {
        float(eigvals[k]): born_probability(psi, eigvecs[:, k].tolist())
        for k in range(len(eigvals))
    }
    quantum_avg = quantum_average(d_op, psi)

    support = sorted(set(classical_dist) | set(quantum_dist))
    tv = 0.5 * math.fsum(
        abs(classical_dist.get(v, 0.0) - quantum_dist.get(v, 0.0)) for v in support
    )
    return DistributionMismatchReport(
        classical_dist=classical_dist,
        quantum_dist=quantum_dist,
        classical_average=classical_avg,
        quantum_average=quantum_avg,
        total_variation=tv,
    )


class ImageReport(NamedTuple):
    """Deduplicated image of a context family on the unit sphere.

    Contexts sharing both outcome distributions are indistinguishable up to
    conjugation: the first two such contexts receive the two conjugate
    representatives and any further ones collide with the first.
    """

    states: tuple[tuple[complex, ...], ...]
    assignment: dict[str, int | None]
    excluded: dict[str, str]
    collisions: tuple[tuple[str, str], ...]
    injective: bool


def image_of_context_family(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    contexts: Mapping[str, Event],
) -> ImageReport:
    """Represent every representable context of the family, the a-cells by
    the basis anchored at the full event, and deduplicate the resulting
    states."""
    basis = a_basis_for_context(space, pair, space.full_event())
    a_states = extend_to_a_contexts(space, pair, basis)
    coefficients = pair_coefficients(space, pair)

    states: list[tuple[complex, ...]] = []
    assignment: dict[str, int | None] = {}
    excluded: dict[str, str] = {}
    collisions: list[tuple[str, str]] = []
    group_members: dict[tuple, list[str]] = {}

    def register(vec: tuple[complex, ...]) -> int:
        for idx, s in enumerate(states):
            if max(abs(x - y) for x, y in zip(s, vec)) <= IMAGE_TOL:
                return idx
        states.append(vec)
        return len(states) - 1

    for name, context in contexts.items():
        cell_index = next(
            (
                i
                for i, ay in enumerate(pair.a_partition)
                if context.mask == ay.mask
            ),
            None,
        )
        if cell_index is not None:
            assignment[name] = register(a_states[pair.a_values[cell_index]].components)
            continue
        try:
            coeffs = coefficients(context)
        except DegenerateContext:
            excluded[name] = "a-degenerate context (not an a-cell)"
            assignment[name] = None
            continue
        cls = classify_context(coeffs)
        if cls is ContextClass.MIXED:
            excluded[name] = "mixed context"
            assignment[name] = None
            continue
        if cls is ContextClass.HYPERBOLIC:
            excluded[name] = "hyperbolic context"
            assignment[name] = None
            continue
        key = tuple(round(p, 9) for p in (*coeffs.a_profile, *coeffs.b_profile))
        members = group_members.setdefault(key, [])
        if len(members) == 0:
            branch = "principal"
        elif len(members) == 1:
            branch = "conjugate"
        else:
            branch = "principal"
            collisions.append((name, members[0]))
        members.append(name)
        psi = amplitude_from_coefficients(coeffs, branch)
        assignment[name] = register(psi.components)

    return ImageReport(
        states=tuple(states),
        assignment=assignment,
        excluded=excluded,
        collisions=tuple(collisions),
        injective=not collisions,
    )
