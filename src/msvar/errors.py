"""Exception types shared across the solvers."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to make progress.

    Carries the solver's Result for the state it stopped in (`result`), so
    callers can still inspect or export it.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result
