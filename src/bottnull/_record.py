"""``Record``: the base of the package's immutable value types.

A subclass lists its fields as annotations, in order, with defaults as class
attributes::

    class Line(Record):
        coords: tuple[int, ...]

and gets an ``__init__`` that takes the fields by position or by keyword and
then runs the class's ``__post_init__``, if it has one; a ``__repr__`` such
as ``Line(coords=(1, -2))``; ``__eq__`` between instances of the same class
only; ``__hash__`` over the compared fields; and assignment and deletion
that raise ``FrozenInstanceError``.  Fields named in the class keyword
``uncompared`` are left out of equality and hash.  Instances keep a
``__dict__``, so ``functools.cached_property`` works on them.  A subclass
defines no ``__init__``, ``__eq__`` or ``__hash__`` of its own.

The methods are closures over each class's field names, made when the class
is defined, and nothing is ``exec``'d.  The standard library's frozen data
classes ``exec`` generated source for six methods of every class at every
import, and importing their module loads ``inspect``: about 35 ms of every
process start for the package's 20 value types.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a ``Record``."""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        cls._fields = cls.__match_args__ = fields
        cls.__init__ = _init(cls, fields, defaults)
        cls.__eq__, cls.__hash__ = _compare(
            attrgetter(*(f for f in fields if f not in uncompared)))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _init(cls, fields: tuple[str, ...], defaults: dict):
    n, names = len(fields), frozenset(fields)
    f0, f1 = (fields + (None,))[:2]
    post_init = getattr(cls, "__post_init__", None)

    # One or two fields by position (the expression nodes) are stored one
    # by one.  Any other call hands the instance one complete dict (the
    # call's own keyword dict when it names every field), which takes less
    # time than storing three or more fields one by one.
    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if args or kwargs.keys() != names:
                kwargs = _bind(cls, names, defaults, args, kwargs)
            _setattr(self, "__dict__", kwargs)
        elif n > 2:
            _setattr(self, "__dict__", dict(zip(fields, args)))
        else:
            _setattr(self, f0, args[0])
            if f1 is not None:
                _setattr(self, f1, args[1])
        if post_init is not None:
            post_init(self)

    return __init__


def _bind(cls, names: frozenset, defaults: dict, args: tuple,
          kwargs: dict) -> dict:
    """Field -> value for a call that passes fields both by position and by
    keyword, or leaves out defaults; or the ``TypeError`` of a call that
    binds no value, or two, to some field, or has too many arguments."""
    values = {**defaults, **kwargs}
    if args:
        given = cls._fields[:len(args)]
        if len(args) > len(cls._fields) or not kwargs.keys().isdisjoint(given):
            raise _call_error(cls, args, kwargs)
        values.update(zip(given, args))
    if values.keys() != names:
        raise _call_error(cls, args, kwargs)
    return values


def _call_error(cls, args: tuple, kwargs: dict) -> TypeError:
    name, fields = cls.__name__, cls._fields
    if len(args) > len(fields):
        return TypeError(f"{name}() takes {len(fields)} positional arguments "
                         f"but {len(args)} were given")
    for key in kwargs:
        if key not in fields:
            return TypeError(f"{name}() got an unexpected keyword argument "
                             f"{key!r}")
        if key in fields[:len(args)]:
            return TypeError(f"{name}() got multiple values for argument "
                             f"{key!r}")
    missing = next(f for f in fields[len(args):]
                   if f not in kwargs and not hasattr(cls, f))
    return TypeError(f"{name}() missing required argument {missing!r}")


def _compare(key):
    """``__eq__`` and ``__hash__`` over the values ``key`` reads."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__
