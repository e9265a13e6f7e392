"""Immutable value classes, built without ``dataclasses``.

Every CLI request starts a fresh interpreter, and importing
``dataclasses`` (with ``inspect``) plus its per-class code generation cost
that start about 20 ms; building these classes costs well under one.

A subclass lists its fields as class annotations in constructor order,
keeps them in ``__slots__`` and writes its own ``__init__``, which stores
each field with :data:`init_field`.  From the field names :class:`Frozen`
builds, once per class:

* ``==`` on the tuple of compared fields, ``NotImplemented`` across
  classes, and ``hash`` of that same tuple;
* ``repr`` as ``Name(field=value, ...)`` over every field;
* pickling and copying through the constructor.

Assigning or deleting an attribute raises ``AttributeError``.  The class
keyword ``compare`` names the compared fields when not all of them are.
"""

from operator import attrgetter

init_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        compared = names if compare is None else tuple(compare)
        get = attrgetter(*compared)
        # attrgetter of one name returns the bare value, not a 1-tuple
        key = get if len(compared) > 1 else (lambda obj: (get(obj),))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
            return f"{self.__class__.__qualname__}({shown})"

        def __reduce__(self):
            return self.__class__, tuple(getattr(self, name) for name in names)

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__
        cls.__reduce__ = __reduce__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
