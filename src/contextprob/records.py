"""The base of the package's slotted records.

Plain records are ``typing.NamedTuple`` classes.  Records that validate or
derive their fields, or do arithmetic, are classes with ``__slots__`` (or a
``__dict__`` where a ``cached_property`` needs one) and an explicit
``__init__`` that sets each field past :meth:`Record.__setattr__`.
:class:`Record` gives them what a frozen dataclass would, without
generating code: refusal of attribute assignment, the
``Name(field=value, ...)`` repr over ``_fields``, and equality and hashing
by the tuple that ``_key`` reads, or by identity where ``_key`` is None.
"""

from __future__ import annotations


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
