"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument is outside its documented domain (wrong length, bad n, ...)."""


class DegenerateOrbitError(ValueError):
    """Initial data on which the scalar reduction is singular.

    Raised for zero or coincident entries, where the constants of the
    reduction divide by zero.
    """


class BranchError(ArithmeticError):
    """The real principal branch of a fractional power is undefined.

    Raised when an entry that must be nonzero is 0, or a factor leaves its sign.
    """
