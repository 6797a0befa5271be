"""Hyperbolic-module representation of hyperbolic contexts.

Contexts whose incompatibility coefficients all have magnitude at least one
map to state vectors over the hyperbolic numbers: each component is a
positive square root plus a signed unit-norm exponential times another, and
the signed squared norms reproduce the conditional b-outcome probabilities.
Under a double stochastic transition matrix the two rapidities coincide, an
orthonormal a-basis exists in the module, and the probability rule holds for
both reference variables.

Unlike the complex case the probabilistic reading of coordinates is not
automatic: a coordinate with negative squared norm refuses interpretation,
and a change of basis can destroy positivity.  Decomposability checks are
therefore reports, not exceptions.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import NonUnitaryBasis
from .hyperbolic import HyperbolicNumber, ZERO, exp_j
from .interference import (
    InterferenceCoefficients,
    hyperbolic_phases,
    interference_coefficients,
)
from .space import (
    Event,
    FiniteKolmogorovSpace,
    ReferencePair,
    TransitionMatrix,
    column_sums,
)
from .tolerances import DECOMPOSABLE_TOL


class HyperbolicAmplitude(NamedTuple):
    """State vector over the b-outcomes with hyperbolic components."""

    components: tuple[HyperbolicNumber, ...]
    epsilons: tuple[int, ...]
    thetas: tuple[float, ...]
    b_values: tuple[float, ...]

    def component(self, x: float) -> HyperbolicNumber:
        return self.components[self.b_values.index(x)]

    def born(self, x: float) -> float:
        return self.component(x).norm_sq()

    def norm_sq(self) -> float:
        return math.fsum(c.norm_sq() for c in self.components)


def hyperbolic_inner_product(
    psi: Sequence[HyperbolicNumber], phi: Sequence[HyperbolicNumber]
) -> HyperbolicNumber:
    """Module scalar product, conjugating the second argument."""
    if len(psi) != len(phi):
        raise ValueError("vectors have different component counts")
    total = ZERO
    for u, v in zip(psi, phi):
        total = total + u * v.conj()
    return total


def hyperbolic_born(
    psi: Sequence[HyperbolicNumber], e: Sequence[HyperbolicNumber]
) -> float:
    """Signed squared norm of the inner product against a basis vector."""
    return hyperbolic_inner_product(psi, e).norm_sq()


def hyperbolic_amplitude_from_coefficients(
    coeffs: InterferenceCoefficients,
) -> HyperbolicAmplitude:
    """Construct the hyperbolic state vector of a hyperbolic (or boundary)
    context from its interference coefficients.

    The sign of each component's exponential is the sign of the outcome's
    perturbation, the rapidity is arccosh of |lambda| (made common to both
    outcomes when the transition matrix is double stochastic), and the signed
    squared norms reproduce the context's conditional b-probabilities, which
    ``verify``'s ``hyperbolic.born_b`` judges.  Its phases refuse a context without one.
    """
    thetas, epsilons = hyperbolic_phases(coeffs)
    (a0, a1), ((t00, t01), (t10, t11)) = coeffs.a_profile, coeffs.transition.rows
    (e0, e1), (theta0, theta1) = epsilons, thetas
    r0, r1 = e0 * math.sqrt(a1 * t10), e1 * math.sqrt(a1 * t11)
    c0 = HyperbolicNumber(math.sqrt(a0 * t00), 0.0) + r0 * exp_j(theta0)
    c1 = HyperbolicNumber(math.sqrt(a0 * t01), 0.0) + r1 * exp_j(theta1)
    return HyperbolicAmplitude((c0, c1), epsilons, thetas, coeffs.pair.b_values)


def build_hyperbolic_amplitude(
    space: FiniteKolmogorovSpace, pair: ReferencePair, context: Event
) -> HyperbolicAmplitude:
    """Construct the hyperbolic state vector of a hyperbolic (or boundary)
    context; see :func:`hyperbolic_amplitude_from_coefficients`."""
    return hyperbolic_amplitude_from_coefficients(
        interference_coefficients(space, pair, context)
    )


class GModuleBasis(NamedTuple):
    """Orthonormal basis of the two-dimensional hyperbolic module:
    ``vectors[i]``, the vector of the i-th a-outcome in b-coordinates, is
    the i-th column of the change matrix.  ``gram_residual`` is the worst
    |G_ik - delta_ik| over the x and y parts of the Gram matrix, NaN when
    an entry is NaN."""

    vectors: tuple[tuple[HyperbolicNumber, ...], ...]
    gram_residual: float


def hyperbolic_a_basis(anchor: InterferenceCoefficients) -> GModuleBasis:
    """Basis indexed by the a-outcomes, anchored at a hyperbolic context.

    Requires a double stochastic transition matrix; without it no unitary
    change of basis exists in the module and the construction is refused.
    The anchor's phases give the rapidities and signs, and refuse an anchor
    without them.  The basis is returned with its Gram residual, never
    refused for it: ``verify``'s ``hyperbolic.basis_unitarity`` judges it.
    """
    t = anchor.transition
    if not t.double_stochastic:
        raise NonUnitaryBasis(
            "transition matrix is not double stochastic "
            f"(column sums {column_sums(t)})"
        )
    (theta0, theta1), (eps0, eps1) = hyperbolic_phases(anchor)
    u = [[math.sqrt(p) for p in row] for row in t.rows]
    e1 = (HyperbolicNumber(u[0][0], 0.0), HyperbolicNumber(u[0][1], 0.0))
    e2 = ((eps0 * u[1][0]) * exp_j(theta0), (eps1 * u[1][1]) * exp_j(theta1))
    vectors, residuals = (e1, e2), []
    for i in range(2):
        for k in range(2):
            g = hyperbolic_inner_product(vectors[i], vectors[k])
            residuals += abs(g.x - (1.0 if i == k else 0.0)), abs(g.y)
    # max drops a NaN that is not first; a NaN entry makes the residual NaN
    worst = math.nan if any(r != r for r in residuals) else max(residuals)
    return GModuleBasis(vectors, worst)


def check_decomposability(psi_coords: Sequence[HyperbolicNumber]) -> bool:
    """True iff every coordinate lies in the positive cone; a failure means
    the probabilistic reading of the coordinates is refused, not that the
    vector is invalid."""
    return all(c.norm_sq() >= -DECOMPOSABLE_TOL for c in psi_coords)


def expand_in_basis(
    psi: HyperbolicAmplitude, basis: GModuleBasis
) -> tuple[HyperbolicNumber, HyperbolicNumber]:
    """Coordinates of a state in an orthonormal module basis."""
    return (
        hyperbolic_inner_product(psi.components, basis.vectors[0]),
        hyperbolic_inner_product(psi.components, basis.vectors[1]),
    )


def hyperbolic_interference_transform(
    p_a: Sequence[float],
    transition: TransitionMatrix,
    theta: float,
    eps: int,
) -> tuple[float, float]:
    """Transform a-outcome probabilities into b-outcome probabilities with a
    cosh cross term of opposite signs on the two outcomes.

    Only double stochastic transitions keep the pair summing to one, and the
    transform refuses any other.  Only a bounded range of rapidities keeps
    both values inside the unit interval; outside it the pair is returned as
    computed.  ``verify``'s ``hyperbolic.transform_pair_sum`` compares each
    value with the context's P(b=x|C), so it judges range and sum alike.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not transition.double_stochastic:
        raise NonUnitaryBasis(
            "the paired-sign transform needs a double stochastic transition"
        )
    p = transition.rows
    if len(p_a) != len(p):
        raise ValueError("one probability per a-outcome is required")
    values = []
    for j, sign in ((0, eps), (1, -eps)):
        base = math.fsum(p_a[i] * p[i][j] for i in range(len(p)))
        cross = math.sqrt(math.prod(p_a[i] * p[i][j] for i in range(len(p))))
        values.append(base + 2.0 * sign * math.cosh(theta) * cross)
    return (values[0], values[1])
