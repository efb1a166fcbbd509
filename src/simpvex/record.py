"""Value records: the package's small stand-in for ``dataclasses``.

A subclass of ``Record`` takes its own class annotations, in order, as
its fields, and the values in its class body as their defaults; a
``factory(make)`` default gives each instance a new ``make()``.  Each
class gets one generated ``__init__``, made as ``dataclasses`` makes it
(one ``exec`` of a ``def`` whose parameters are the fields), which sets
every field with ``object.__setattr__`` and then calls
``__post_init__``; so the interpreter itself binds the arguments and
words each ``TypeError``.  One shared ``__eq__``, ``__hash__`` and
``__repr__`` serve every class, and behave as the ones ``dataclasses``
writes:

* two records are equal when they are of the same class and their field
  tuples are equal; a record's hash is the hash of its field tuple;
* ``repr`` reads ``Name(field=value!r, ...)``.

A class is frozen unless defined with ``frozen=False``: assigning to or
deleting an attribute of a frozen instance raises FrozenInstanceError,
and an instance of a mutable class cannot be hashed.  ``replace`` copies
a record with some fields changed.  Importing this module loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenInstanceError", "factory", "replace"]

_MISSING = object()
_FRESH = object()  # the parameter default of a factory field


class FrozenInstanceError(AttributeError):
    """An attempt to assign to or delete an attribute of a frozen record."""


class factory:
    """A field default: each instance gets a new ``make()``, e.g. ``factory(list)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Record:
    """Base of the value classes; see the module docstring."""

    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", {}))
        # the generated __init__'s globals, named so that no field shadows them;
        # object.__setattr__ gets past a frozen class's own __setattr__
        env = {"__record_set__": object.__setattr__, "__record_fresh__": _FRESH}
        defaults, body = [], []
        for name in fields:
            default, value = cls.__dict__.get(name, _MISSING), name
            if isinstance(default, factory):
                delattr(cls, name)
                env[f"__record_make_{name}__"] = default.make
                value = f"__record_make_{name}__() if {name} is __record_fresh__ else {name}"
                default = _FRESH
            if default is not _MISSING:
                defaults.append(default)
            elif defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
            body.append(f"    __record_set__(self, {name!r}, {value})\n")
        exec(f"def __init__({', '.join(('self',) + fields)}):\n{''.join(body)}"
             "    self.__post_init__()\n", env)
        init = cls.__init__ = env["__init__"]
        init.__qualname__, init.__defaults__ = f"{cls.__qualname__}.__init__", tuple(defaults)
        if frozen:
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
        else:
            cls.__hash__ = None

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
