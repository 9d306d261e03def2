"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument is outside its documented domain (wrong length, bad n, ...)."""


class DegenerateOrbitError(ValueError):
    """Initial data on which the scalar reduction is singular.

    Raised for non-positive entries or coincident entries, where the
    constants of the reduction divide by zero.
    """


class BranchError(ArithmeticError):
    """The real principal branch of a fractional power is undefined.

    Raised when a product that must stay positive is zero or negative.
    """
