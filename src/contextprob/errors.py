"""Exception hierarchy for the contextual probability calculus."""


class ContextualProbabilityError(Exception):
    """Base class for the library's refusals of its input."""


class ModelValidationError(ContextualProbabilityError):
    """A model document violates the loader contract."""


class ZeroConditioningContext(ContextualProbabilityError):
    """Conditioning on a context of probability zero is meaningless."""


class DegenerateCell(ContextualProbabilityError):
    """A conditioning cell has probability zero."""


class DegenerateContext(ContextualProbabilityError):
    """The context misses some partition cell, so conditioning breaks down."""


class MixedContext(ContextualProbabilityError):
    """Context mixes small and large interference coefficients; it has
    neither a complex nor a hyperbolic representation."""


class HyperbolicContext(ContextualProbabilityError):
    """Context has large interference coefficients; use the hyperbolic
    representation."""


class TrigonometricContext(ContextualProbabilityError):
    """Context has small interference coefficients; use the complex
    representation."""


class InvariantViolation(Exception):
    """An identity that must hold algebraically failed numerically; this
    signals an upstream bug, not bad input, so it is no
    :class:`ContextualProbabilityError`, and no handler of a refusal
    catches it."""


class NonUnitaryBasis(ContextualProbabilityError):
    """The requested change of basis is not unitary (its transition matrix
    is not double stochastic)."""


class NotInPositiveCone(ContextualProbabilityError):
    """Hyperbolic number has nonpositive squared norm; polar form undefined."""


class RapidityOverflow(ContextualProbabilityError):
    """Hyperbolic phase too large for double-precision cosh/sinh."""


class SplitOutOfRange(ContextualProbabilityError):
    """A splitting coefficient left [-1, 1]; the context is not
    representable by the dichotomous-splitting recursion."""

    def __init__(self, level: int, outcome, value: float):
        self.level = level
        self.outcome = outcome
        self.value = value
        super().__init__(
            f"splitting coefficient {value:+.6f} at level {level} for outcome "
            f"{outcome} is outside [-1, 1]"
        )


class QOutOfRange(ContextualProbabilityError):
    """The q parameter of the bundled four-point model must lie in (0, 1/2)."""


class ConstraintUnsatisfiable(ContextualProbabilityError):
    """Random model generation could not satisfy the requested constraints
    within the retry budget."""
