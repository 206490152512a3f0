"""Exception types shared across the package.

The CLI maps these onto its exit-code taxonomy: configuration problems
exit 2, model/feasibility problems exit 3, violated run assumptions exit 4.
"""


class UsecbError(Exception):
    """Base class for package errors."""


class ConfigError(UsecbError):
    """Bad or missing configuration input."""


class ModelError(UsecbError):
    """Network or objective construction failed (disconnected graph,
    non-convex objective, bad fixture data)."""


class IngestionError(UsecbError):
    """Malformed time-series or network file."""


class FeasibilityError(ModelError):
    """Constraint set is empty; carries the violation certificate."""

    def __init__(self, message, max_violation=None):
        super().__init__(message)
        self.max_violation = max_violation


class ProjectionError(UsecbError):
    """A projection could not be carried out: a non-finite point, a solve
    that stopped short of its KKT tolerance, or a dual solve that ended
    without a valid certificate that the set is empty."""


class AssumptionError(UsecbError):
    """A run-level assumption does not hold (e.g. regret experiment on a
    non-static scenario)."""
