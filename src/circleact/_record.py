"""Immutable value records on ``__slots__``.

A record class declares its fields once, as ``__slots__`` in declaration
order, and writes its own ``__init__`` that stores each field with
``_set``.  The base supplies the rest of a frozen value type:

* field-wise ``__eq__`` and ``__hash__``, between instances of one class
  only (a record never equals a tuple or a record of another class);
* the ``Name(field=value, ...)`` repr;
* ``__reduce__``, so pickle, ``copy.copy`` and ``copy.deepcopy`` rebuild a
  record through its constructor, checks included;
* ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.

``_fields`` lists the ``__slots__`` of the class and its record bases,
base fields first, and ``_values`` is the tuple of field values in that
order; the constructor takes them positionally in that order.  ``_exact``
is the type check a constructor runs on a field.

``Family`` names the two orbit-space rings.  It lives here, below both
``classifier`` and ``gradedtop``, so that a classification loads no
linear algebra; ``gradedtop`` re-exports it.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

_set = object.__setattr__


def _exact(value, kind: type, field: str, *where: int):
    """``value`` itself if its type is exactly ``kind``: no bool for an int,
    no float or numeric string for either.  Otherwise ValueError naming
    ``field.format(*where)``."""
    if type(value) is not kind:
        raise ValueError(f"{field.format(*where)} must be of type {kind.__name__}, got {value!r}")
    return value


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(
            name for base in reversed(cls.__mro__) for name in base.__dict__.get("__slots__", ())
        )
        cls._fields = fields
        get = attrgetter(*fields)  # one name gives the bare value, more a tuple
        cls._values = property(get if len(fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values)
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Family(str, Enum):
    """The two orbit-space cohomology rings that can occur: the projective
    space ring (cup with t hits every even degree) and the ring of a
    half-projective space times a sphere (cup with t dies at degree n-1)."""

    CPN = "CPN"
    CPHALF_TIMES_SPHERE = "CPHALF_TIMES_SPHERE"
