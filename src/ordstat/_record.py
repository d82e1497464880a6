"""Plain record classes for the package's public value types.

A record lists its fields in ``__slots__`` and writes its own
``__init__``, whose parameters name the slots in the same order. The
bases derive the rest from the slot names, as ``dataclasses`` would:
``Name(field=value, ...)`` reprs, equality between instances of the same
class, and pickling and copying through the constructor. A frozen record
also hashes by value and refuses to set or delete a field, so its
``__init__`` stores through the slot descriptors (see slot_setters).
Importing ``dataclasses`` would cost more than all of ordstat's modules.
"""


class Record:
    """Mutable record; unhashable, since it defines __eq__ alone."""

    __slots__ = ()

    def _astuple(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __reduce__(self):
        return type(self), self._astuple()


class FrozenRecord(Record):
    """Immutable record, hashable by its field values."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def slot_setters(cls):
    """The ``__set__`` of each of cls's slot descriptors, in slot order.
    They bypass the frozen __setattr__ and cost less than
    object.__setattr__."""
    return tuple([cls.__dict__[name].__set__ for name in cls.__slots__])
