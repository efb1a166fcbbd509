"""Value records: the package's small stand-in for ``dataclasses``.

A subclass of ``Record`` takes its own class annotations, in order, as
its fields, and the values in its class body as their defaults; a
``factory(make)`` default gives each instance a new ``make()``.  One
shared ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` serve
every class, so defining a record runs no generated code.  They behave
as the methods ``dataclasses`` writes:

* ``__init__`` takes the fields positionally or by keyword, raises the
  interpreter's own ``TypeError`` wording for a missing, unexpected or
  repeated argument, then calls ``__post_init__``;
* two records are equal when they are of the same class and their field
  tuples are equal; a record's hash is the hash of its field tuple;
* ``repr`` reads ``Name(field=value!r, ...)``.

A class is frozen unless defined with ``frozen=False``: assigning to or
deleting an attribute of a frozen instance raises FrozenInstanceError,
and an instance of a mutable class cannot be hashed.  ``replace`` copies
a record with some fields changed.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenInstanceError", "factory", "replace"]

_MISSING = object()
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An attempt to assign to or delete an attribute of a frozen record."""


class factory:
    """A field default: each instance gets a new ``make()``, e.g. ``factory(list)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _names(names) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c': the interpreter's list of names."""
    quoted = [repr(name) for name in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def _bind(cls, args, kwargs) -> dict:
    """The field values of ``cls(*args, **kwargs)``, in field order, or the
    TypeError a generated ``__init__`` raises for these arguments."""
    fields, defaults = cls._fields, cls._defaults
    where = f"{cls.__qualname__}.__init__()"
    given = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields:
            raise TypeError(f"{where} got an unexpected keyword argument '{name}'")
        if name in given:
            raise TypeError(f"{where} got multiple values for argument '{name}'")
        given[name] = value
    if len(args) > len(fields):
        most = len(fields) + 1
        least = most - len(defaults)
        takes = f"from {least} to {most}" if least < most else str(most)
        plural = "s" if most > 1 or least < most else ""
        raise TypeError(f"{where} takes {takes} positional argument{plural} "
                        f"but {len(args) + 1} were given")
    values = {}
    missing = []
    for name in fields:
        if name in given:
            values[name] = given[name]
        elif name in defaults:
            default = defaults[name]
            values[name] = default.make() if isinstance(default, factory) else default
        else:
            missing.append(name)
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(f"{where} missing {len(missing)} required positional "
                        f"argument{plural}: {_names(missing)}")
    return values


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Record:
    """Base of the value classes; see the module docstring."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {}
        for name in cls._fields:
            default = cls.__dict__.get(name, _MISSING)
            if default is not _MISSING:
                cls._defaults[name] = default
                if isinstance(default, factory):
                    delattr(cls, name)
            elif cls._defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        if frozen:
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            values = zip(fields, args)
        else:
            values = _bind(self.__class__, args, kwargs).items()
        # object.__setattr__, not self.__dict__: the instance keeps the compact
        # attribute layout the interpreter reads fastest
        for name, value in values:
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Checks run after the fields are set; none by default."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return self.__class__.__qualname__ + "(" + ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._fields]) + ")"


def replace(obj: Record, **changes) -> Record:
    """A new record of ``obj``'s class with ``changes`` applied; the other fields
    are ``obj``'s, and ``__init__`` (with ``__post_init__``) runs as for any record."""
    for name in obj._fields:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
