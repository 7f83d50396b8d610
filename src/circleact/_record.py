"""Immutable value records on ``__slots__``, and the memo tables' holder.

A record class declares its fields once, as ``__slots__`` in declaration
order, and ``Record.__init_subclass__`` generates its field store from
them with one ``exec``, as ``collections.namedtuple`` does:
``def __init__(self, f1, ..., fk): _set0(self, f1); ...``, each ``_set``
the ``__set__`` of a field's slot, bound once per class.  The store is
``cls._store``, and the constructor too when no class in the MRO writes an
``__init__``; ``defaults=`` in the class line defaults the last fields.  A
checked record's ``__init__`` ends with ``self._store(...)``.  A subclass
that adds no slots generates nothing and inherits both, checks included.
The base supplies the rest of a frozen value type:

* field-wise ``__eq__`` and ``__hash__``, between instances of one class
  only (a record never equals a tuple or a record of another class);
* the ``Name(field=value, ...)`` repr;
* ``to_json_dict``, the fields by name in slot order: a record field by its
  own ``to_json_dict``, an enum by its value, a tuple or list as a list, a
  read-only mapping as a dict with string keys, anything else as it is;
* ``__reduce__``, so pickle, ``copy.copy`` and ``copy.deepcopy`` rebuild a
  record through its constructor, checks included;
* ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.

``_fields`` lists the ``__slots__`` of the class and its record bases,
base fields first, and ``_values`` is the tuple of field values in that
order; the constructor takes them positionally in that order.  ``_exact``
is the type check a constructor runs on a field.

The same ``exec`` makes the classmethod ``cls._make(f1, ..., fk)``: the
store's body on a new record, without ``cls.__init__``'s checks, for values
the library derived from checked inputs; a test pins each such site to the
record its checked constructor builds.

``Family`` names the two orbit-space rings, and ``_orbit_family`` is the
one check of an orbit space's n and handle count.  Both live here, below
``classifier`` and ``gradedtop``, so that a classification loads no linear
algebra; ``gradedtop`` re-exports ``Family``.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from types import MappingProxyType


def _exact(value, kind: type, field: str, *where: int):
    """``value`` itself if its type is exactly ``kind``: no bool for an int,
    no float or numeric string for either.  Otherwise ValueError naming
    ``field.format(*where)``."""
    if type(value) is not kind:
        raise ValueError(f"{field.format(*where)} must be of type {kind.__name__}, got {value!r}")
    return value


class Record:
    __slots__ = ()

    def __init_subclass__(cls, defaults=(), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.__dict__.get("__slots__"):
            return  # no new field: the base's store and constructor serve
        fields = tuple(
            name for base in reversed(cls.__mro__) for name in base.__dict__.get("__slots__", ())
        )
        cls._fields = fields
        get = attrgetter(*fields)  # one name gives the bare value, more a tuple
        cls._values = property(get if len(fields) > 1 else lambda record: (get(record),))
        # the template sees only the library's own __slots__ names; a slot's
        # setter bypasses the refusing __setattr__ below and the by-name
        # lookup of a generic setattr
        namespace = {f"_set{i}": getattr(cls, name).__set__ for i, name in enumerate(fields)}
        namespace.update(__name__=cls.__module__, _new=object.__new__)
        args = ", ".join(fields)
        body = "".join(f"\n    _set{i}(self, {name})" for i, name in enumerate(fields))
        exec(f"def __init__(self, {args}):{body}\n"
             f"def _make(cls, {args}):\n    self = _new(cls){body}\n    return self", namespace)
        for name in ("__init__", "_make"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        store = namespace["__init__"]
        store.__defaults__ = defaults
        if cls.__init__ in (object.__init__, getattr(cls, "_store", None)):
            cls.__init__ = store  # no hand-written constructor above this class
        cls._store, cls._make = store, classmethod(namespace["_make"])

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

    def to_json_dict(self) -> dict:
        return {name: _json_value(value) for name, value in zip(self._fields, self._values)}

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _json_value(value):
    if isinstance(value, Record):
        return value.to_json_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, MappingProxyType):
        return {str(key): _json_value(item) for key, item in value.items()}
    return value


class _Table:
    """A memo table that grows from its end, entry k at index k - 1.

    It keeps one ``(values, carry)`` pair: the entries, and what ``extend``
    needs to go on from the last.  ``upto(k)`` returns a list of at least k
    entries; a shorter table calls ``extend(values, carry, k)`` once for a
    new pair, the old entries first, and publishes it in one assignment.
    The caller bounds k.  No lock is needed: a concurrent reader holds one
    complete pair or the other.  A racing extension may publish a shorter
    pair last, so a caller reads only the list ``upto`` returned.
    """

    __slots__ = ("extend", "state")

    def __init__(self, extend) -> None:
        self.extend = extend
        self.state = ([], None)

    def upto(self, k: int) -> list:
        values, carry = self.state
        if len(values) < k:
            self.state = values, carry = self.extend(values, carry, k)
        return values


class Family(str, Enum):
    """The two orbit-space cohomology rings that can occur: the projective
    space ring (cup with t hits every even degree) and the ring of a
    half-projective space times a sphere (cup with t dies at degree n-1)."""

    CPN = "CPN"
    CPHALF_TIMES_SPHERE = "CPHALF_TIMES_SPHERE"


def _orbit_family(n: int, family: Family | str, r: int, r_name: str = "r") -> Family:
    """``family`` as a ``Family`` once n is an odd int >= 5 and the handle
    count r (``r_name`` in errors) an int >= 0; else ValueError."""
    _exact(n, int, "n")
    _exact(r, int, r_name)
    if n < 5 or n % 2 == 0:
        raise ValueError("dimension out of scope")
    if r < 0:
        raise ValueError("handle count must be nonnegative")
    return family if type(family) is Family else Family(family)
