"""Exception types shared across the package."""


class BudgetError(RuntimeError):
    """A computation would exceed a configured resource cap."""


class NotWellFormedError(ValueError):
    """Weights fail the omit-one-gcd condition required by the caller."""


class ParameterError(ValueError):
    """Family parameters outside the range the construction supports."""
