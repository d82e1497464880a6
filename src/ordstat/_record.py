"""Plain record classes for the package's public value types.

A record lists its fields in ``__slots__`` and writes its own
``__init__``, whose parameters name the slots in the same order; after
checking them, it stores them with one ``self._store(...)`` call, and
code that has values known to be right builds a record with
``cls._make(...)``, which skips ``__init__``. Both write through the slot
descriptors, whose ``__set__`` each class caches in slot order when it is
defined: that bypasses a frozen record's ``__setattr__`` and costs less
than ``object.__setattr__``. The bases derive the rest from the slot
names, as ``dataclasses`` would: ``Name(field=value, ...)`` reprs,
equality between instances of the same class, and pickling and copying
through the constructor. A frozen record also hashes by value and
refuses to set or delete a field.
Importing ``dataclasses`` would cost more than all of ordstat's modules.
"""


class Record:
    """Mutable record; unhashable, since it defines __eq__ alone."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # getattr, not cls.__dict__: a subclass without __slots__ of its
        # own inherits its fields' descriptors.
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def _store(self, *values):
        """Set the fields, in slot order."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

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
