"""Exception types, and the base of the value classes, shared across the
package.

The value classes are plain classes: each writes its own `__init__`, and
`Record` gives them `==`, `hash` and `repr` by their fields. Every
command-line run and benchmark pass starts a fresh interpreter, and
generating these methods at import, as `dataclasses` does, cost each run
several milliseconds.
"""

# Sets a field of a frozen value, bound once: each `__init__` calls it per
# field, and constructors are hot.
set_field = object.__setattr__


class Record:
    """A value whose `__init__` sets the fields `_fields`, in that order.
    Equal only to a value of its own class with equal fields; unhashable, as
    a mutable value must be. Its repr is `Name(field=value, ...)`.

    `==` and `hash` read the fields from the instance dict, which holds them
    in `_fields` order: on CPython 3.11 that is as fast as the methods
    `dataclasses` generates, where an `operator.attrgetter` is 1.8x slower."""

    __slots__ = ()
    _fields = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return self.__dict__ == other.__dict__
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by `set_field` in `__init__`, and
    that hashes by them."""

    __slots__ = ()

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ScheduleError(ValueError):
    """A toggle schedule visits a cell before its upper/left neighbours."""


class NonConvergenceError(RuntimeError):
    """An operator-word truncation failed to stabilise."""


class InvariantError(AssertionError):
    """An internal invariant failed. Carries the invariant's name and its
    counterexample: the offending input, or the first counterexample in
    enumeration order. Raised explicitly, so `python -O` keeps the check."""

    def __init__(self, name: str, counterexample):
        super().__init__(f"{name}: {counterexample!r}")
        self.name = name
        self.counterexample = counterexample
