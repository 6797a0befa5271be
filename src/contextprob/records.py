"""The bases of the package's records.

Plain records are ``typing.NamedTuple`` classes.

Records built per context or per number (``Event``,
``HyperbolicNumber``, ``InterferenceCoefficients``) are NamedTuples too:
a subclass of a NamedTuple of their fields, with a ``__new__`` where they
check or derive fields, so that one tuple construction builds each.  A
slotted class that sets 9 fields by one ``object.__setattr__`` each takes
2.0-2.1 us to build, a NamedTuple of the same fields 0.36-0.43 us
(``timeit`` on Python 3.11, a 2-vCPU shared Xeon VM).  :class:`ValueTuple`
makes such a record equal and hash by value against its own class only,
never against a plain tuple, and refuses the tuple's concatenation and
repetition; :func:`unordered` refuses to order it.

Records built once per model that keep derived state
(``FiniteKolmogorovSpace``, ``TransitionMatrix``, ``HermitianOperator``)
are classes with ``__slots__`` (or a ``__dict__`` where a
``cached_property`` needs one) and an explicit ``__init__`` that sets each
field past :meth:`Record.__setattr__`.  :class:`Record` gives them what a
frozen dataclass would, without generating code: refusal of attribute
assignment, the ``Name(field=value, ...)`` repr over ``_fields``, and
equality and hashing by the tuple that ``_key`` reads, or by identity where
``_key`` is None.
"""

from __future__ import annotations


def unordered(self, other):
    """The ordering methods of a tuple record: records have no order.  It
    raises rather than return ``NotImplemented``, which would let a plain
    tuple on the other side order the two item by item."""
    raise TypeError(f"{type(self).__name__!r} records have no order")


class ValueTuple:
    """Mixin, before a NamedTuple base, for records that equal and hash as
    the tuple of their fields, but only against their own class.  Python
    asks a tuple subclass first, so returning ``False`` for any other tuple
    keeps ``plain == record`` false in either order."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = unordered

    # a tuple's ``+`` and ``*`` would join or repeat the fields into a plain
    # tuple; a record with arithmetic of its own defines them in its body
    def __add__(self, other):
        raise TypeError(f"{type(self).__name__!r} records cannot be concatenated")

    def __mul__(self, other):
        raise TypeError(f"{type(self).__name__!r} records cannot be repeated")

    __radd__, __rmul__ = __add__, __mul__

    # a tuple's ``in`` would look among the fields: ``4 in Event(5, 4)``
    __contains__ = None


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key = None  # an operator.attrgetter of the compared fields

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if self._key is None or other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return object.__hash__(self) if self._key is None else hash(self._key(self))

    def __reduce__(self):
        # pickle and copy would set the slots through __setattr__
        slots = [n for c in type(self).__mro__ for n in getattr(c, "__slots__", ())]
        state = {n: getattr(self, n) for n in slots if n != "__dict__"}
        return _rebuild, (type(self), {**getattr(self, "__dict__", {}), **state})


def _rebuild(cls: type, state: dict) -> Record:
    record = object.__new__(cls)
    for name, value in state.items():
        object.__setattr__(record, name, value)
    return record
