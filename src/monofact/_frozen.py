"""Immutable value classes, built without ``dataclasses``.

Every CLI request starts a fresh interpreter, and importing
``dataclasses`` (with ``inspect``) plus its per-class code generation cost
that start about 20 ms; building these classes costs well under one.

A subclass lists its fields as class annotations and keeps them in
``__slots__``.  The constructor comes from the fields: ``Frozen.__init__``
takes one argument per field, positional in annotation order or by
keyword, and stores them; a missing or unknown argument raises
``TypeError``.  A subclass that checks or converts its arguments writes
its own ``__init__`` and ends it with one ``super().__init__(...)``.  From
the field names :class:`Frozen` also builds, once per class:

* ``==`` on the tuple of fields, ``NotImplemented`` across classes, and
  ``hash`` of that same tuple;
* ``repr`` as ``Name(field=value, ...)`` over every field;
* pickling and copying through the constructor.

Assigning or deleting an attribute raises ``AttributeError``;
:data:`init_field` stores a field past that guard.

:class:`computed_once` caches a derived value in the ``__dict__`` of a
subclass that keeps one, and :func:`kept` a value that depends on
arguments as well, under a key of the caller's choosing.
"""

from operator import attrgetter

init_field = object.__setattr__


def _arguments(cls, args, kwargs) -> tuple:
    """The field values of ``cls(*args, **kwargs)`` in annotation order;
    ``kwargs`` is the call's own dict, emptied here."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments, got {len(args)}")
    try:
        args += tuple(map(kwargs.pop, names[len(args) :]))
    except KeyError as exc:
        raise TypeError(f"{cls.__qualname__}() is missing {exc.args[0]!r}") from None
    if kwargs:
        name = next(iter(kwargs))
        raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument {name!r}")
    return args


class Frozen:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields = tuple(cls.__annotations__)
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple
        key = get if len(names) > 1 else (lambda obj: (get(obj),))

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

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = _arguments(self.__class__, args, kwargs)
        for name, value in zip(names, args):
            init_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class computed_once:
    """A method read as an attribute whose value is computed on the first
    read and kept in the instance ``__dict__`` under the same name.

    ``functools.cached_property`` does the same, but before Python 3.12 it
    takes a lock on every first read, which costs a small object more than
    many of its values take to compute.  This one takes none: two threads
    may both compute a first value, and the one stored last wins.  It is a
    non-data descriptor, so a value already in ``__dict__`` (stored there
    before the first read, or by that read) is found ahead of it, and a
    computation that raises stores nothing.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def kept(obj, key, build, *args):
    """``build(*args)``, built the first time ``key`` is asked for on
    ``obj`` and kept in its ``__dict__`` under that key; a build that
    raises keeps nothing.  ``key`` is a tuple, so it never meets an
    attribute name: a string key equal to a method's name would be found
    ahead of the method.  Like :class:`computed_once` it takes no lock."""
    memo = obj.__dict__
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = build(*args)
        return value
