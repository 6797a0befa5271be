"""The tolerance policy: every tolerance of the package, each defined once.

Every bound is absolute, never relative: a value passes when its distance
from the reference (or, for a one-sided bound, how far it falls past it) is
at most the bound, whatever the size of the reference.  Each bound is sized
for the scale of what it compares, given by its group: probabilities,
coefficients and states of order 1, radians, or hyperbolic numbers whose
components are of order 10.

A bound is read in one of two ways.  A guard decides inside the library: it
raises when an identity the algebra guarantees fails, or it picks a class or
a branch (a snapped phase, a redrawn random model, or an outcome on the
|lambda| = 1 boundary: ``BOUNDARY_TOL`` decides each outcome's tag once, and
every phase body reads the tag).  A report tolerance decides whether a
``verify`` check (or the ``example kq`` comparison) passes.  The CLI's
``--tolerance`` replaces the report tolerance of a check and never a guard.
An identity that a ``verify`` check compares has no guard, not even in the
builders ``analyze`` and ``represent`` share with ``verify``: its failure is
reported by the check alone, with residual and witness.

Double stochasticity is one guard, ``space.is_double_stochastic``: each
column deviation sum_i F_ij / R_i - 1, exact on the pair's integer cell
units F_ij (R_i the row sums) and rounded once, is within
``DOUBLE_STOCHASTIC_TOL``, which ``--tolerance`` never moves.  Off it, the
predicted spread alone gates ``complex.global_phase_offset``: the check is
skipped while the offsets predicted off pi spread within twice
``OFFSET_TOL``, which the search cannot resolve.
"""

# probabilities
WEIGHT_TOL = 1e-12          # sum of a space's point weights against one
SUM_GATE = 1e-9             # declared weight sum of a model document against one
RENORM_SKIP = 1e-13         # a loaded weight sum this close to one is not rescaled
IDENTITY_TOL = 1e-12        # both sides of an exact probability identity
PREDICATE_TOL = 1e-10       # delta sums, unitarity, phases
DOUBLE_STOCHASTIC_TOL = 2e-14  # column deviation, transition entries and marginals
BORN_TOL = 1e-10            # squared modulus of a state against its probability
RECURSION_BORN_TOL = 1e-9   # the same at every level of the multivalued split
AVERAGE_TOL = 1e-9          # conditional average against its operator expectation
CELL_MASS_FLOOR = 1e-4      # random models redraw a joint cell mass below this
POINT_WEIGHT_FLOOR = 1e-9   # random models redraw a point weight at or below this

# coefficients and states, of order 1
BOUNDARY_TOL = 1e-12        # |lambda| against one: the boundary class
HERMITIAN_TOL = 1e-12       # operator entries against those of its adjoint
GRAM_TOL = 1e-10            # hyperbolic basis Gram entries against the identity
DECOMPOSABLE_TOL = 1e-12    # squared norm of a decomposable coordinate below zero
KQ_EXAMPLE_TOL = 1e-9       # example kq: computed values against the closed forms

# radians
PHASE_SNAP_TOL = 1e-15      # phase against a multiple of pi/2, snapped to a unit
OFFSET_TOL = 1e-9           # two phase offsets on the circle, or an offset and pi

# hyperbolic numbers with components of order 10
RING_LAW_TOL = 1e-9         # both sides of associativity, distributivity, commutativity
NORM_PRODUCT_TOL = 1e-8     # squared norm of a product against the product of norms
CONE_CLOSURE_TOL = 1e-9     # squared norm of a product of cone members below zero
POLAR_ROUNDTRIP_TOL = 1e-10  # a number against its reconstructed polar form
