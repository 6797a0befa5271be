"""Finite contextual probability spaces.

A model is a finite set of sample points carrying strictly positive weights
that sum to one.  Contexts and events are subsets of the sample points,
canonicalised as bitmasks over the fixed point ordering so that all set
algebra is exact (Python integers make the bitmask representation unbounded).
Random variables are total real-valued maps on the points; a reference pair
of variables induces the two partitions (value preimages) that the
representation machinery conditions on.

Zero-weight points are rejected at construction: every construction downstream
divides by cell probabilities, and null atoms add nothing but spurious
degeneracy.

Values in this module are immutable after construction and operations are
pure functions, with one exception: the space caches, in private attributes
that take no part in equality, hashing or printing, tables derived from its
weights: its one-cell tables, and :func:`pair_tables` keeps one
:class:`PairTables` per reference pair's two partitions, keyed by their
masks in (a, b) order, so a fresh :class:`ReferencePair` over the same
partitions reuses it, while the reversed pair (b, a) builds tables of its
own.  The facts of a reference pair (its transition matrices, its
incompatibility) are computed on every call, from the full event's cells in
its pair tables.  Nothing per context or per event is stored: the caller
reads a context's unit rows once, as
:func:`~contextprob.interference.read_contexts` yields them, into a
:class:`MeasureTable`; a ``verify`` run holds one per declared context.
A transition matrix keeps its cosine ratio once computed.
Values can still be shared across threads: a race between two threads only
computes the same entry twice.

Every table rests on exact integer weights.  Each weight is an exact integer
number of units of 1/scale: a float weight is a binary fraction, so its
denominator is a power of two and the largest denominator is such a scale.
Pair tables give each joint cell A_i & B_j a field of ``width`` bits in one
integer, ``width`` the bit length of the total units, and shift each
point's units into its cell's field; each byte of the point order has a
table of the 256 packed sums of the subsets of its 8 points.  One context
then costs one added entry per byte of its mask, and each field of the sum
is the exact unit sum of one cell within the context.  No field's sum can
exceed the total, which fits its width, so a sum never carries into the
next field.  An event measured on its own, such as a cell of the multivalued
event forms, reads the one-cell tables of the space, the one-field case of
the same tables.  Every probability, of an event or of a union of cells, is
an exact integer sum divided by the scale, and int / int is correctly
rounded, as ``math.fsum`` is: so it is the float that ``fsum`` of the
member weights gives, whichever table it is read from.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import attrgetter, getitem, or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DegenerateCell,
    InvariantViolation,
    ZeroConditioningContext,
)
from .records import Record, ValueTuple
from .tolerances import IDENTITY_TOL, PREDICATE_TOL, WEIGHT_TOL


class _EventFields(NamedTuple):
    mask: int
    size: int


class Event(ValueTuple, _EventFields):
    """A subset of sample points, stored as a bitmask over the point ordering.

    ``size`` is the number of points in the ambient space; bit ``i`` set means
    point ``i`` belongs to the event.  Intersection (``&``) is exact, and
    events compare and hash by value.  ``len`` is the number of points in
    the event.
    """

    __slots__ = ()

    def __new__(cls, mask: int, size: int):
        if mask < 0 or mask >> size:
            raise ValueError("event mask lies outside the sample space")
        return tuple.__new__(cls, (mask, size))

    @classmethod
    def _make(cls, iterable) -> "Event":
        # the NamedTuple one (and _replace, through it) counts the fields
        # with len, which counts points here
        return cls(*iterable)

    def _check(self, other: "Event") -> None:
        if self.size != other.size:
            raise ValueError("events from different sample spaces")

    def intersect(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.mask & other.mask, self.size)

    __and__ = intersect

    def issubset(self, other: "Event") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def is_empty(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


class FiniteKolmogorovSpace(Record):
    """Ordered sample points with strictly positive weights summing to one;
    spaces compare, hash and print by their points and weights.

    ``_bits`` maps each point to its bit, ``1 << index``, so an event's
    mask is one pass of ``|`` over its members.  :attr:`_byte_tables` is
    the one-cell :class:`PairTables` of the space, built at the first
    :meth:`probability` call.  ``_pairs`` maps the masks of a reference
    pair's two partitions to their :class:`PairTables`; :func:`pair_tables`
    is its only reader and writer.  Both are kept for the space's life.
    """

    _fields = ("points", "weights")
    _key = attrgetter(*_fields)

    def __init__(self, points: tuple[str, ...], weights: tuple[float, ...]):
        if len(points) != len(weights):
            raise ValueError("points and weights must have equal length")
        bits = {p: 1 << i for i, p in enumerate(points)}
        if len(bits) != len(points):
            raise ValueError("point identifiers must be unique")
        if not points:
            raise ValueError("sample space must be nonempty")
        for p, w in zip(points, weights):
            if not (w > 0.0):
                raise ValueError(f"point {p!r} has nonpositive weight {w!r}")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        self.__dict__.update(
            points=points, weights=weights, _bits=bits, _pairs={}
        )

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self._bits[point].bit_length() - 1
        except KeyError:
            raise KeyError(f"unknown point {point!r}") from None

    def event(self, members: Iterable[str]) -> Event:
        """The event of the named points; a repeated name adds nothing."""
        try:
            mask = reduce(or_, map(self._bits.__getitem__, members), 0)
        except KeyError as exc:
            raise KeyError(f"unknown point {exc.args[0]!r}") from None
        return Event(mask, self.n)

    def event_from_indices(self, indices: Iterable[int]) -> Event:
        mask = 0
        for i in indices:
            if not 0 <= i < self.n:
                raise ValueError(f"point index {i} out of range")
            mask |= 1 << i
        return Event(mask, self.n)

    def full_event(self) -> Event:
        return Event((1 << self.n) - 1, self.n)

    def members(self, e: Event) -> tuple[str, ...]:
        return tuple(self.points[i] for i in e.indices())

    def probability(self, e: Event) -> float:
        """Measure of an event: the correctly rounded sum of its point weights,
        read from the one-cell :attr:`_byte_tables`."""
        if e.size != len(self.points):
            raise ValueError("event does not belong to this space")
        one = self._byte_tables
        return one.units(e.mask) / one.scale

    def _masks(self, *events: Event) -> list[int]:
        """The masks of the given events; raises unless all belong here."""
        if {e.size for e in events} != {len(self.points)}:
            raise ValueError("event does not belong to this space")
        return [e.mask for e in events]

    @cached_property
    def _units(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, units)``: each weight is ``units[k]`` / ``scale``
        exactly, ``scale`` the largest denominator of the weights (a power
        of two, so every weight is a whole number of units)."""
        ratios = [w.as_integer_ratio() for w in self.weights]
        scale = max(den for _, den in ratios)
        return scale, tuple(num * (scale // den) for num, den in ratios)

    @cached_property
    def _byte_tables(self) -> "PairTables":
        full = (1 << self.n) - 1
        return PairTables(self, (full,), (full,))

    def conditional(self, b: Event, c: Event) -> float:
        """Conditional probability of ``b`` given the context ``c``."""
        pc = self.probability(c)
        if pc == 0.0:
            raise ZeroConditioningContext("conditioning context has probability zero")
        return self.probability(b & c) / pc


class RandomVariable(NamedTuple):
    """A total real-valued map on the sample points (aligned to point order);
    a model document keys each variable by its name."""

    values: tuple[float, ...]

    @classmethod
    def from_mapping(
        cls, space: FiniteKolmogorovSpace, name: str, mapping: Mapping[str, float]
    ) -> "RandomVariable":
        missing = [p for p in space.points if p not in mapping]
        if missing:
            raise ValueError(f"variable {name!r} misses points {missing}")
        extra = [p for p in mapping if p not in space._bits]
        if extra:
            raise ValueError(f"variable {name!r} names unknown points {extra}")
        try:
            values = tuple(float(mapping[p]) for p in space.points)
        except OverflowError:
            raise ValueError(
                f"variable {name!r} has a value too large for a float"
            ) from None
        nonfinite = [p for p, v in zip(space.points, values) if not math.isfinite(v)]
        if nonfinite:
            raise ValueError(f"variable {name!r} is not finite at {nonfinite}")
        return cls(values)

    def distinct_values(self) -> tuple[float, ...]:
        """Distinct values in order of first occurrence over the point order."""
        seen: list[float] = []
        for v in self.values:
            if v not in seen:
                seen.append(v)
        return tuple(seen)

    def preimage(self, value: float, size: int) -> Event:
        mask = 0
        for i, v in enumerate(self.values):
            if v == value:
                mask |= 1 << i
        return Event(mask, size)


class ReferencePair(NamedTuple):
    """Two random variables with their value sets and induced partitions.

    Value sets are ordered by first occurrence over the point ordering; the
    partitions are the value preimages, which are disjoint covers of the
    sample space by construction.
    """

    a: RandomVariable
    b: RandomVariable
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    a_partition: tuple[Event, ...]
    b_partition: tuple[Event, ...]

    @classmethod
    def from_variables(
        cls, space: FiniteKolmogorovSpace, a: RandomVariable, b: RandomVariable
    ) -> "ReferencePair":
        if len(a.values) != space.n or len(b.values) != space.n:
            raise ValueError("variables not defined over this space")
        a_values = a.distinct_values()
        b_values = b.distinct_values()
        a_partition = tuple(a.preimage(y, space.n) for y in a_values)
        b_partition = tuple(b.preimage(x, space.n) for x in b_values)
        return cls(a, b, a_values, b_values, a_partition, b_partition)


class TransitionMatrix(Record):
    """Matrix of transition probabilities between the two partitions.

    Entry (i, j) is the probability of the j-th outcome of one variable
    conditioned on the i-th outcome of the other, so rows sum to one; the
    matrix does not record which way it conditions, :func:`transition_matrix`
    builds the "b/a" or the "a/b" one.

    ``rows`` holds the entries as a tuple of rows of Python floats; the
    constructor accepts any nested sequence of numbers.  ``double_stochastic``
    is true iff the matrix is square and every column also sums to one
    within ``PREDICATE_TOL``.  Both are computed once, at construction, and
    matrices compare and hash by value.  ``cosine_ratio`` is computed on
    first use and never held against ``double_stochastic``; a raise is not
    kept, so every use on a matrix that has none raises.
    """

    _fields = ("rows",)
    _key = attrgetter("rows", "double_stochastic")

    def __init__(self, rows):
        self.__dict__["rows"] = rows = tuple(tuple(map(float, row)) for row in rows)
        deviation = max(abs(sum(row) - 1.0) for row in rows)
        if deviation > IDENTITY_TOL:
            raise InvariantViolation(
                "transition matrix rows do not sum to one (worst deviation "
                f"{deviation!r}, tolerance {IDENTITY_TOL!r})"
            )
        square = len(rows) == len(rows[0])
        col_deviation = max(abs(s - 1.0) for s in column_sums(self))
        self.__dict__["double_stochastic"] = (
            square and col_deviation <= PREDICATE_TOL
        )

    @cached_property
    def cosine_ratio(self) -> float:
        """The cosine ratio k = sqrt(p11 p21 / (p12 p22)) of a 2x2 matrix.
        It equals one exactly when the matrix is double stochastic; a k off
        one under the double stochastic flag breaks theta2 = theta1 + pi,
        which ``verify``'s ``core.reconstruction_identity`` and
        ``complex.born_b`` judge."""
        p = self.rows
        if len(p) != 2 or len(p[0]) != 2:
            raise ValueError("cosine ratio is defined for 2x2 matrices")
        if min(p[0] + p[1]) <= 0.0:
            raise DegenerateCell("all transition entries must be positive")
        return math.sqrt((p[0][0] * p[1][0]) / (p[0][1] * p[1][1]))


def transition_matrix(
    space: FiniteKolmogorovSpace, pair: ReferencePair, direction: str = "b/a"
) -> TransitionMatrix:
    """Transition probabilities of one reference variable conditioned on the
    other, from the full event's cells in the pair's :func:`pair_tables`;
    raises :class:`DegenerateCell` if a conditioning cell is null.  The
    matrix is context independent: compute it once per pair."""
    if direction not in ("b/a", "a/b"):
        raise ValueError(f"unknown direction {direction!r}")
    tables = pair_tables(space, pair)
    scale, rows, row_values = tables.scale, tables.cell_units, pair.a_values
    if direction == "a/b":
        rows, row_values = tuple(zip(*rows)), pair.b_values
    entries = []
    for i, row in enumerate(rows):
        p_row = sum(row) / scale
        if p_row == 0.0:
            raise DegenerateCell(
                f"conditioning cell {row_values[i]!r} has probability zero"
            )
        entries.append([u / scale / p_row for u in row])
    return TransitionMatrix(entries)


def are_incompatible(space: FiniteKolmogorovSpace, pair: ReferencePair) -> bool:
    """True iff every joint cell of the two partitions has positive
    probability.  Context independent: compute it once per pair."""
    # a cell of u > 0 units has probability u / scale >= 2**-1074 > 0
    return all(map(all, pair_tables(space, pair).cell_units))


class IncompatibilityStructure(NamedTuple):
    cell_nonempty: bool
    no_inclusions: bool


def check_incompatibility_structure(
    space: FiniteKolmogorovSpace, pair: ReferencePair
) -> IncompatibilityStructure:
    """Report whether all joint cells are nonempty and whether no cell of one
    partition is contained in a cell of the other.

    Nonempty cells imply no inclusions; for two dichotomous partitions the
    conditions are equivalent.  Both implications are forced by set algebra;
    ``verify``'s ``core.partition_structure`` judges them on the report.
    """
    cell_nonempty = all(
        not (ay & bx).is_empty()
        for ay in pair.a_partition
        for bx in pair.b_partition
    )
    no_inclusions = not any(
        ay.issubset(bx) or bx.issubset(ay)
        for ay in pair.a_partition
        for bx in pair.b_partition
    )
    return IncompatibilityStructure(cell_nonempty, no_inclusions)


class MeasureTable(NamedTuple):
    """The measures of one context C over a-cells A_i and b-cells B_j:
    P(C), ``a_row[i]`` = P(A_i & C), ``b_row[j]`` = P(B_j & C),
    ``cells[i][j]`` = P(A_i & B_j & C), and ``unions[S][j]`` =
    P(B_j & A_S & C) for the union A_S of the a-cells indexed by the
    frozenset S.  Each is the correctly rounded sum of its points' weights,
    read by :meth:`PairTables.table` from exact unit sums, so a union is
    never a float sum of cells and additivity stays a comparison.  The full
    event's table holds P(A_i) and P(A_i & B_j)."""

    pc: float
    a_row: tuple[float, ...]
    b_row: tuple[float, ...]
    cells: tuple[tuple[float, ...], ...]
    unions: dict[frozenset[int], tuple[float, ...]]


class PairTables:
    """Packed subset sums of the joint cells A_i & B_j of two partitions of
    a space, each a mask; see the module docstring.

    ``tables[k][b]`` is the sum, over the points of byte ``k`` whose bits
    are set in ``b``, of each point's units shifted into the field
    ``f = i * kb + j`` of its cell (i, j), the bits from ``f * width`` up
    to ``(f + 1) * width``.  ``cell_units[i][j]`` is the full event's units
    in A_i & B_j.
    :meth:`table` reads one context's :class:`MeasureTable` from one pass
    over the tables, and :attr:`free` is the full event's, built once.
    """

    def __init__(
        self, space: FiniteKolmogorovSpace, a_masks: Sequence[int],
        b_masks: Sequence[int],
    ):
        n, (scale, units) = space.n, space._units
        full = (1 << n) - 1
        # disjoint masks are those whose sum is their union
        if any(sum(m) != full or reduce(or_, m) != full for m in (a_masks, b_masks)):
            raise ValueError("the cells of a pair must partition the space")
        width = sum(units).bit_length()
        self.size, self.scale, self.width = n, scale, width
        self.kb = kb = len(b_masks)
        cells = [a & b for a in a_masks for b in b_masks]
        self.field_mask = (1 << width) - 1
        self.shifts = tuple(range(0, len(cells) * width, width))
        self.row_starts = tuple(range(0, len(cells), kb))
        packed = [0] * n
        for cell, shift in zip(cells, self.shifts):
            for k in Event(cell, n).indices():
                packed[k] = units[k] << shift
        tables = []
        for start in range(0, n, 8):
            # the doubling T[m | 2^k] = T[m] + u_k over the byte's points
            table = [0]
            for u in packed[start:start + 8]:
                table += [t + u for t in table]
            tables.append(tuple(table))
        self.tables = tuple(tables)
        self.cell_units = tuple(map(tuple, self._rows(sum(packed))))

    def units(self, mask: int) -> int:
        """The packed sum of the event ``mask``: one entry per byte of it."""
        tables = self.tables
        return sum(map(getitem, tables, mask.to_bytes(len(tables), "little")))

    def _rows(self, packed: int) -> list[list[int]]:
        """The units of each cell in a packed sum, row by row."""
        field_mask, kb = self.field_mask, self.kb
        units = [(packed >> shift) & field_mask for shift in self.shifts]
        return [units[f:f + kb] for f in self.row_starts]

    def table(
        self, context: Event, unions: Iterable[frozenset[int]] = ()
    ) -> MeasureTable:
        """The :class:`MeasureTable` of one context, with the given unions
        of the a-cells; see :func:`table_from_units`."""
        if context.size != self.size:
            raise ValueError("event does not belong to this space")
        rows = self._rows(self.units(context.mask))
        return table_from_units(rows, self.scale, unions)

    @cached_property
    def free(self) -> MeasureTable:
        """The full event's table, without unions."""
        return self.table(Event((1 << self.size) - 1, self.size))


def table_from_units(
    rows: Sequence[Sequence[int]], scale: int,
    unions: Iterable[frozenset[int]] = (),
) -> MeasureTable:
    """The :class:`MeasureTable` of one context from ``rows[i][j]``, the
    exact units of A_i & B_j & C, each of 1/``scale``, with the given
    unions of the a-cells, each a nonempty set of row indices.  The union
    of one a-cell is that cell's row, and the union of all of them is
    ``b_row``.  Each entry is one correctly rounded int / int division.

    A 2x2 ``rows`` takes a straight-line body: each of its unions is one of
    these two aliases."""
    if len(rows) == 2 and len(rows[0]) == 2:
        (u00, u01), (u10, u11) = rows
        cells = (u00 / scale, u01 / scale), (u10 / scale, u11 / scale)
        b0, b1 = u00 + u10, u01 + u11
        b_row = b0 / scale, b1 / scale
        return MeasureTable(
            (b0 + b1) / scale,
            ((u00 + u01) / scale, (u10 + u11) / scale),
            b_row,
            cells,
            {s: b_row if len(s) == 2 else cells[min(s)] for s in unions},
        )
    cells = tuple([tuple([u / scale for u in row]) for row in rows])
    b_units = [sum(col) for col in zip(*rows)]
    b_row = tuple([u / scale for u in b_units])
    union_rows = {}
    for s in unions:
        if len(s) == 1:
            union_rows[s] = cells[next(iter(s))]
        elif len(s) == len(rows):
            union_rows[s] = b_row
        else:
            union_rows[s] = tuple(
                [sum([rows[i][j] for i in s]) / scale for j in range(len(b_row))]
            )
    return MeasureTable(
        sum(b_units) / scale,
        tuple([sum(row) / scale for row in rows]),
        b_row,
        cells,
        union_rows,
    )


def pair_tables(space: FiniteKolmogorovSpace, pair: ReferencePair) -> PairTables:
    """The :class:`PairTables` of the pair's two partitions, keyed by the
    masks of their cells, built at the first call on the space and kept for
    its life; pairs over the same partitions share them."""
    a_cells, b_cells = pair.a_partition, pair.b_partition
    key = tuple([e.mask for e in a_cells]), tuple([e.mask for e in b_cells])
    tables = space._pairs.get(key)
    if tables is None:
        space._masks(*a_cells, *b_cells)
        tables = space._pairs[key] = PairTables(space, *key)
    return tables


def total_probability_from_table(
    pair: ReferencePair, table: MeasureTable
) -> dict[float, float]:
    """Exact decomposition of each b-outcome probability over the
    a-partition, conditioning the transition factor on the context as well,
    from the context's measure table.  This is an identity of the measure,
    which ``verify``'s ``core.total_probability_identity`` judges against the
    direct conditional probability."""
    pc = table.pc
    if pc == 0.0:
        raise ZeroConditioningContext("context has probability zero")
    out: dict[float, float] = {}
    for j, x in enumerate(pair.b_values):
        total = 0.0
        for i, p_cell in enumerate(table.a_row):
            if p_cell == 0.0:
                raise DegenerateCell(
                    f"cell for a={pair.a_values[i]!r} within the context is null"
                )
            total += (p_cell / pc) * (table.cells[i][j] / p_cell)
        out[x] = total
    return out


def column_sums(m: TransitionMatrix) -> list[float]:
    """The sum of each column of ``m``, each summed in row order."""
    return [sum(col) for col in zip(*m.rows)]


def is_symmetrically_conditioned(
    space: FiniteKolmogorovSpace, pair: ReferencePair
) -> bool:
    """True iff conditioning either way gives the same transition probabilities.

    For an incompatible dichotomous pair this is equivalent to both
    transition matrices being double stochastic, and to both marginals being
    uniform; ``verify``'s ``core.symmetry_equivalence`` judges the three
    readings against each other.
    """
    m_ba = transition_matrix(space, pair, "b/a")
    m_ab = transition_matrix(space, pair, "a/b")
    if len(m_ba.rows) != len(m_ba.rows[0]):
        raise ValueError("symmetric conditioning needs equal value-set sizes")
    return max(
        abs(p - q) for row, col in zip(m_ba.rows, zip(*m_ab.rows))
        for p, q in zip(row, col)
    ) <= PREDICATE_TOL
