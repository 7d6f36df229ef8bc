"""Immutable value records without ``dataclasses``.

Importing ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each ``@dataclass`` compiles its methods from generated
source: on Python 3.11 the two cost a cold command 12-20 ms.  The records
of this package need only what :class:`Record` gives.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of an immutable record whose fields are its ``__init__``'s parameters.

    A subclass writes ``__init__`` with its fields as the parameters, in
    order and with their defaults; the body validates them and stores them
    with ``vars(self).update(...)``.  The base gives equality (same class,
    equal fields), a hash over the fields, the ``repr``
    ``Name(field=value, ...)``, and an ``AttributeError`` on assigning or
    deleting any attribute.  ``functools.cached_property`` still works: it
    writes the instance dictionary directly.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # the fields' values in one C call: the value itself for one field, else a tuple
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
