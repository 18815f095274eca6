"""Error taxonomy shared across the package.

Every failure mode that callers need to tell apart gets its own
exception class, all derived from ``PartiteError``:

* ``InvalidArgument``     -- the input value itself is malformed,
* ``PreconditionViolation`` -- the value is well formed but the operation's
  mathematical precondition (linearity, subhypergraph containment, ...)
  does not hold,
* ``BudgetExceeded``      -- an exhaustive search ran out of its budget.

``Budget`` holds the limits that the searches check.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class Budget:
    """Machine-readable resource limits for the exhaustive searches.

    ``nodes`` bounds the number of explored partial colourings (the unit
    used by the arrowing oracle) and ``exponent`` bounds the search of
    :func:`partite.arrowing.min_hj_exponent`.  ``None`` means unlimited.
    """

    nodes: int | None = 1 << 24
    exponent: int | None = 12

    def check_nodes(self, spent: int) -> None:
        if self.nodes is not None and spent > self.nodes:
            raise BudgetExceeded(
                f"search budget exhausted after {spent} explored states",
                spent=spent, budget=self.nodes)
