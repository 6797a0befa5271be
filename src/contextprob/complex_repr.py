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
two conjugate state vectors; the builders' ``convention`` argument picks
which one is built, and the state keeps no tag of it.

States, basis vectors and operator matrices are tuples (of rows) of Python
complexes, computed with plain 2x2 (and diagonal k x k) arithmetic.  The
reference pair is dichotomous, so states have two components and operators
are 2x2: :meth:`HermitianOperator.eigenvalues` takes the closed form, and
:meth:`ComplexAmplitude.norm_sq` and :func:`quantum_average` are plain sums.
:func:`distribution_mismatch` takes the eigenvectors of its 2x2 operator in
closed form too, so the module uses no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import InvariantViolation, NonUnitaryBasis
from .interference import (
    InterferenceCoefficients,
    cis,
    interference_coefficients,
    trigonometric_phases,
)
from .records import Record
from .space import (
    Event,
    FiniteKolmogorovSpace,
    ReferencePair,
    pair_tables,
    transition_matrix,
)
from .tolerances import HERMITIAN_TOL


class ComplexAmplitude(NamedTuple):
    """State vector over the b-outcomes representing one context."""

    components: tuple[complex, ...]
    b_values: tuple[float, ...]

    def component(self, x: float) -> complex:
        return complex(self.components[self.b_values.index(x)])

    def born(self, x: float) -> float:
        return float(abs(self.components[self.b_values.index(x)]) ** 2)

    def norm_sq(self) -> float:
        """The :meth:`born` terms, summed left to right."""
        return float(sum([abs(c) ** 2 for c in self.components]))


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


def amplitude_from_coefficients(
    coeffs: InterferenceCoefficients, convention: str = "principal"
) -> ComplexAmplitude:
    """Construct the complex state vector of a trigonometric (or boundary)
    context from its interference coefficients.  The squared moduli
    reproduce the context's conditional b-probabilities, which ``verify``'s
    ``complex.born_b`` judges.  Its phases refuse a context without one."""
    theta0, theta1 = trigonometric_phases(coeffs, convention)
    (a0, a1), ((t00, t01), (t10, t11)) = coeffs.a_profile, coeffs.transition.rows
    components = (
        math.sqrt(a0 * t00) + cis(theta0) * math.sqrt(a1 * t10),
        math.sqrt(a0 * t01) + cis(theta1) * math.sqrt(a1 * t11),
    )
    return ComplexAmplitude(components, coeffs.pair.b_values)


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
    unitarity report: ``unitary`` is the double stochastic flag that chose
    the anchor's phases, and ``verify``'s ``complex.basis_unitarity`` judges
    the Gram matrix against it.  A non-unitary basis is reported, not
    rejected: single contexts can still be expanded in it, only the
    two-sided probability rule fails.  Bases compare by identity."""

    vectors: tuple[tuple[complex, ...], ...]
    unitary: bool
    witness: dict[str, float]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def a_basis_for_context(
    space: FiniteKolmogorovSpace,
    pair: ReferencePair,
    anchor_context: Event,
    convention: str = "principal",
) -> HilbertBasis:
    """Basis indexed by the a-outcomes, anchored at one trigonometric context.

    The change matrix is unitary exactly when the transition matrix is double
    stochastic, which is when the anchor phases differ by pi; ``unitary`` is
    that flag.  Otherwise the basis is valid only for contexts sharing the
    anchor's |lambda| level and the report carries the offending column
    sums.  The anchor's phases refuse an anchor without them.
    """
    coeffs = interference_coefficients(space, pair, anchor_context)
    theta0, theta1 = trigonometric_phases(coeffs, convention)
    t = coeffs.transition
    u = [[math.sqrt(p) for p in row] for row in t.rows]
    e1 = (complex(u[0][0]), complex(u[0][1]))
    e2 = (cis(theta0) * u[1][0], cis(theta1) * u[1][1])
    witness = {} if t.double_stochastic else {
        f"column_sum_{j}": sum(col) for j, col in enumerate(zip(*t.rows))
    }
    return HilbertBasis((e1, e2), t.double_stochastic, witness)


class HermitianOperator(Record):
    """Self-adjoint matrix in b-coordinates, as a tuple of rows; the
    constructor accepts any nested sequence of numbers.  Operators compare
    by identity."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix):
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

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues of a 2x2 operator in ascending order, in the closed
        form mid -/+ hypot((a - d) / 2, |c|) of its real diagonal a, d and
        lower off-diagonal c."""
        m = self.matrix
        if len(m) != 2:
            raise ValueError(
                f"eigenvalues are computed for 2x2 operators, not size {len(m)}"
            )
        a, d = m[0][0].real, m[1][1].real
        mid, r = (a + d) / 2, math.hypot((a - d) / 2, abs(m[1][0]))
        return (mid - r, mid + r)


def operator_for_variable(
    values: Sequence[float], basis: HilbertBasis
) -> HermitianOperator:
    """Operator with the given eigenvalues on the given basis vectors,
    expressed in b-coordinates; refuses a basis whose flag is not unitary."""
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
    return HermitianOperator(matrix)


def _diagonal(values: Sequence[float]) -> tuple[tuple[complex, ...], ...]:
    k = len(values)
    return tuple(
        tuple(complex(v) if i == j else 0j for j in range(k))
        for i, v in enumerate(values)
    )


def operator_for_b(pair: ReferencePair) -> HermitianOperator:
    return HermitianOperator(_diagonal(pair.b_values))


def _matmul(a, b) -> list[list[complex]]:
    return [[sum([x * y for x, y in zip(row, col)]) for col in zip(*b)] for row in a]


def commutator(
    op_a: HermitianOperator, op_b: HermitianOperator
) -> tuple[tuple[complex, ...], ...]:
    """AB - BA.  Nonzero for incompatible dichotomous reference pairs with a
    double stochastic transition matrix."""
    ab, ba = _matmul(op_a.matrix, op_b.matrix), _matmul(op_b.matrix, op_a.matrix)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def quantum_average(op: HermitianOperator, psi: ComplexAmplitude) -> float:
    """Expectation of a self-adjoint operator in a state, the real part of
    <psi, M psi>: the operator's constructor judges self-adjointness, so the
    imaginary part is rounding, of order |M| |psi|^2 eps.  The state's
    dimension must match the operator's."""
    c, m = psi.components, op.matrix
    if len(m) != len(c) or any(len(row) != len(c) for row in m):
        raise ValueError(
            f"operator of size {len(m)} cannot act on a state of {len(c)} components"
        )
    return inner_product([sum([v * y for v, y in zip(row, c)]) for row in m], c).real


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
            # an a-cell is a-degenerate and has no interference
            # representation: its state is its basis vector
            psi = ComplexAmplitude(basis.vectors[i], pair.b_values)
            indicator = tuple(float(k == i) for k in range(len(pair.a_values)))
            return psi, indicator, transition_matrix(space, pair, "b/a").rows[i]
    coeffs = interference_coefficients(space, pair, context)
    psi = amplitude_from_coefficients(coeffs)
    return psi, coeffs.a_profile, coeffs.b_profile


class AveragePreservationReport(NamedTuple):
    classical: float
    quantum: float


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
    return HermitianOperator(_add(f_op.matrix, _diagonal(g_row)))


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
    return AveragePreservationReport(classical, quantum_average(operator, psi))


def _length(v: Sequence[complex]) -> float:
    return math.hypot(abs(v[0]), abs(v[1]))


class DistributionMismatchReport(NamedTuple):
    """Distributions of the sum variable: pointwise classical versus
    spectral, together with their (equal) averages."""

    classical_dist: dict[float, float]
    quantum_dist: dict[float, float]
    classical_average: float
    quantum_average: float


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
    d_op = sum_operator(basis, pair.a_values, pair.b_values)
    (a, m01), (m10, d) = d_op.matrix
    quantum_dist = {}
    for lam in d_op.eigenvalues():
        # either row of d_op - lam gives an eigenvector; the longer one is
        # the better conditioned
        e0, e1 = max((m01, lam - a), (lam - d, m10), key=_length)
        norm = _length((e0, e1))
        quantum_dist[lam] = born_probability(psi, (e0 / norm, e1 / norm))
    return DistributionMismatchReport(
        classical_dist=classical_dist,
        quantum_dist=quantum_dist,
        classical_average=classical_avg,
        quantum_average=quantum_average(d_op, psi),
    )
