"""Exception hierarchy shared by all grassmd modules."""


class GrassmdError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimePower(GrassmdError):
    """The requested field order is not a prime power."""


class TooLarge(GrassmdError):
    """The requested field order exceeds the configured ceiling."""


class DimensionMismatch(GrassmdError):
    """Operands live in incompatible spaces (columns or contexts differ)."""


class InvalidArgs(GrassmdError):
    """Arguments outside the documented domain of an operation."""


class BudgetExceeded(GrassmdError):
    """An enumeration would produce more objects than the configured ceiling."""


class NotDivisor(GrassmdError):
    """Spread dimension does not divide the ambient dimension."""


class InvalidShape(GrassmdError):
    """Parameters do not match the shape required by a construction."""


class DegenerateBound(GrassmdError):
    """A bound formula is undefined for these parameters (division by <= 0)."""
