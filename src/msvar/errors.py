"""Exception types and the parameter check shared across the solvers."""

import math


def check_number(name, value, positive):
    """Raise ValueError naming the parameter unless value is a finite number
    > 0 (positive) or >= 0; NaN and infinity are rejected."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


class ConvergenceError(RuntimeError):
    """An iterative solver failed to make progress.

    Carries the solver's Result for the state it stopped in (`result`), so
    callers can still inspect or export it.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result
