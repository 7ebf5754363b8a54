"""Exception hierarchy shared by all modquant modules."""


class ModquantError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ModquantError):
    """Malformed input file: container bytes, JSON text, or contents."""


class InvariantError(ModquantError):
    """A structural precondition or invariant was violated."""


class NumericError(ModquantError):
    """Numeric failure, e.g. a Cholesky factorization that did not succeed."""
