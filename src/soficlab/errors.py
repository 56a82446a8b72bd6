"""Exception types shared across the library."""


class SoficLabError(Exception):
    """Base class for library errors."""


class ArgumentError(SoficLabError, ValueError):
    """A caller violated a documented precondition."""


class UnsupportedOperationError(SoficLabError):
    """The operation is not defined for this kind of object (e.g. Folner
    sets of a free group, Markov measures on non-interval windows)."""


class ResourceBudgetError(SoficLabError):
    """An exact search exceeded its node budget.

    upper_bound, when set, is a bound the search found before the cut; it
    is never a result.
    """

    def __init__(self, message, upper_bound=None):
        super().__init__(message)
        self.upper_bound = upper_bound


class SpecError(SoficLabError):
    """An experiment spec file failed schema or cross-reference validation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
