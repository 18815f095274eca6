"""Error taxonomy shared across the package.

Every failure mode that callers need to tell apart gets its own
exception class, all derived from ``PartiteError``:

* ``InvalidArgument``     -- the input value itself is malformed,
* ``PreconditionViolation`` -- the value is well formed but the operation's
  mathematical precondition (linearity, subhypergraph containment, ...)
  does not hold,
* ``BudgetExceeded``      -- an exhaustive search ran out of its budget.

``Budget`` holds the node limit that the arrowing searches check.
"""

from __future__ import annotations

from dataclasses import dataclass


class PartiteError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(PartiteError, ValueError):
    """A supplied value is malformed (wrong shape, wrong range, ...)."""


class PreconditionViolation(PartiteError, ValueError):
    """A structural precondition of the requested operation fails."""


class BudgetExceeded(PartiteError, RuntimeError):
    """An exhaustive search exceeded its resource budget.

    The exception records how far the search got so that callers can
    report progress or retry with a larger budget.
    """

    def __init__(self, message: str, *, spent: int | None = None,
                 budget: int | None = None):
        super().__init__(message)
        self.spent = spent
        self.budget = budget


def _require_int(what: str, x) -> None:
    """Raise ``InvalidArgument`` unless ``x`` is an int and not a bool."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidArgument(f"{what} must be an int, got {x!r}")


@dataclass(frozen=True)
class Budget:
    """Machine-readable resource limits for the exhaustive searches.

    ``nodes`` bounds the number of explored partial colourings (the unit
    used by the arrowing oracle); ``None`` means unlimited.  Anything
    but ``None`` or a nonnegative int raises ``InvalidArgument``.  The
    search of :func:`partite.arrowing.min_hj_exponent` is bounded by its
    own ``cap``.
    """

    nodes: int | None = 1 << 24

    def __post_init__(self):
        n = self.nodes
        if n is not None and (not isinstance(n, int) or isinstance(n, bool)
                              or n < 0):
            raise InvalidArgument(
                f"node budget must be None or a nonnegative int, got {n!r}")

    def check_nodes(self, spent: int) -> None:
        if self.nodes is not None and spent > self.nodes:
            raise BudgetExceeded(
                f"search budget exhausted after {spent} explored states",
                spent=spent, budget=self.nodes)
