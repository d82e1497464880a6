"""Plain record classes for the package's public value types.

A record lists its fields in ``__slots__`` and writes its own
``__init__``, whose parameters name the slots in the same order; after
checking them, it stores them with one ``self._store(...)`` call, and
code that has values known to be right builds a record with
``cls._make(...)``, which skips ``__init__``. Both write through the slot
descriptors' ``__set__``, which bypasses a frozen record's
``__setattr__`` and costs less than ``object.__setattr__``. Each class
gets its own ``_store`` when it is defined, which makes one such call
per field and runs no Python loop: a one-field record's calls its
field's bound ``__set__``, and a wider record's maps the descriptors'
``__set__`` over its values in C. No source is generated. The bases
derive the rest from the slot names, as ``dataclasses`` would:
``Name(field=value, ...)`` reprs, equality between instances of the
same class, and pickling and copying through the constructor. A frozen
record also hashes by value and refuses to set or delete a field.
Importing ``dataclasses`` would cost more than all of ordstat's modules.
"""

from itertools import repeat
from types import MemberDescriptorType

_set_member = MemberDescriptorType.__set__


def _storer(members):
    """The _store of a class whose slot descriptors are `members`."""
    if len(members) == 1:
        set_value = members[0].__set__

        def _store(self, value):
            set_value(self, value)
    else:
        def _store(self, *values):
            # Each __set__ returns None, so any() runs every one of them.
            any(map(_set_member, members, repeat(self), values))
    return _store


class Record:
    """Mutable record; unhashable, since it defines __eq__ alone."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # getattr, not cls.__dict__: a subclass without __slots__ of its
        # own inherits its fields' descriptors.
        cls._store = _storer(tuple([getattr(cls, name) for name in cls.__slots__]))

    @classmethod
    def _make(cls, *values):
        """A record holding `values`, in slot order, built without __init__."""
        self = object.__new__(cls)
        self._store(*values)
        return self

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
