"""Immutable value records without :mod:`dataclasses`.

``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, then compiles methods for every class it decorates: a quarter
of the import time of ``cxkit.cli``, paid by every CLI process.  A subclass
of :class:`Record` names its fields in ``__slots__``, in constructor order,
and stores them in its own ``__init__`` with ``object.__setattr__``.  It
behaves like a ``@dataclass(frozen=True)``: the same ``repr`` text, ``==``
and ``hash`` on the tuple of field values (instances of different classes
never equal), ``AttributeError`` on assigning or deleting a field, and
pickling and copying through the constructor.
"""

from __future__ import annotations

from operator import attrgetter


def field_repr(obj, names) -> str:
    """``Name(field=value, ...)``, the text of a dataclass ``repr``."""
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    return f"{type(obj).__qualname__}({fields})"


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # ``_values``: the tuple of field values, read in C (``Signature``s
        # are compared on every matrix operation)
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __repr__(self) -> str:
        return field_repr(self, self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        if name in self.__slots__:
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        if name in self.__slots__:
            raise AttributeError(f"cannot delete field {name!r}")
        super().__delattr__(name)

    def __reduce__(self):
        return type(self), self._values
