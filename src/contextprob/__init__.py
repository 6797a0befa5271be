"""Contextual probability calculus with complex and hyperbolic
Hilbert-space representations of finite probabilistic models."""

from .errors import (
    ConstraintUnsatisfiable,
    ContextualProbabilityError,
    DegenerateCell,
    DegenerateContext,
    HyperbolicContext,
    InvariantViolation,
    MixedContext,
    ModelValidationError,
    NonUnitaryBasis,
    NotInPositiveCone,
    QOutOfRange,
    RapidityOverflow,
    SplitOutOfRange,
    TrigonometricContext,
    ZeroConditioningContext,
)
from .space import (
    Event,
    FiniteKolmogorovSpace,
    RandomVariable,
    ReferencePair,
    TransitionMatrix,
    are_incompatible,
    check_incompatibility_structure,
    is_symmetrically_conditioned,
    transition_matrix,
)
from .interference import (
    ContextClass,
    InterferenceCoefficients,
    OutcomeClass,
    PhaseAssignment,
    assign_phases,
    global_alpha_from_coefficients,
    interference_coefficients,
    reconstruct_probability,
    verify_no_global_alpha,
)
from .complex_repr import (
    ComplexAmplitude,
    HermitianOperator,
    HilbertBasis,
    a_basis_for_context,
    amplitude_from_coefficients,
    born_probability,
    build_amplitude,
    commutator,
    distribution_mismatch,
    inner_product,
    operator_for_b,
    operator_for_variable,
    quantum_average,
    verify_average_preservation,
)
from .hyperbolic import (
    HyperbolicNumber,
    HyperbolicPolar,
    exp_j,
    polar,
)
from .hyperbolic_repr import (
    GModuleBasis,
    HyperbolicAmplitude,
    build_hyperbolic_amplitude,
    check_decomposability,
    expand_in_basis,
    hyperbolic_a_basis,
    hyperbolic_amplitude_from_coefficients,
    hyperbolic_born,
    hyperbolic_inner_product,
    hyperbolic_interference_transform,
)
from .multivalued import (
    SplitChain,
    build_amplitude_nvalued,
    contextual_total_probability_split,
    mu_coefficient,
)
from .models import (
    ModelDocument,
    dumps_model,
    generate_kq,
    generate_random_model,
    load_model,
    loads_model,
    save_model,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
