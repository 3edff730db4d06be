"""Exception types shared across the package.

Everything that indicates bad input or a violated precondition derives from
``ValueError`` (the CLI maps these to exit code 2); iterative-solver
breakdown is a ``SolverFailure`` (exit code 3).
"""


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class PositivityViolation(ValueError):
    """A tensor or density failed its positivity check."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class OutOfDomainError(ValueError):
    """A sample position lies outside a box grid's domain."""


class NonInvertibleMapError(ValueError):
    """A displacement map violates the contraction/orientation conditions."""


class DegeneratePathError(ValueError):
    """A metric path leaves the positive-definite cone at some time."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class FrameDegeneracyError(ValueError):
    """The nodewise frame system is singular."""


class FlatnessInconsistencyError(ValueError):
    """Line integrals of the connection disagree across path orders."""


class ClosednessViolationError(ValueError):
    """The developed coframe is not closed: reconstruction integrals disagree."""


class ConfigError(ValueError):
    """An experiment configuration failed schema validation."""


class InvalidResultError(ValueError):
    """A computed result cannot be written as an artifact (e.g. a non-finite real)."""


class SolverFailure(RuntimeError):
    """Conjugate gradient did not reach the requested tolerance.

    ``lane`` is the index of the failing system in a lane-stacked solve.
    """

    def __init__(self, message, residual=None, iterations=None, lane=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.lane = lane
