"""Exception types shared across the package."""


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
