"""Exception types shared across the package."""


class BitrunsError(Exception):
    """Base class for all package-specific errors."""


class NonUnitConstantTerm(BitrunsError):
    """Denominator constant term is not +-1, so an exact integer expansion
    is not available."""


class OracleBoundExceeded(BitrunsError):
    """Exhaustive enumeration was requested beyond the configured bound."""


class SeriesOrderExceeded(BitrunsError):
    """A series order or a length was requested beyond its configured
    bound."""


class EmptyEnsemble(BitrunsError):
    """The ensemble contains no strings of the requested length."""


class UnsupportedClass(BitrunsError):
    """The requested quantity is not available for this string class."""


class UndefinedFamily(BitrunsError):
    """No run family exists for this (class, bit) pair."""


class UnsupportedMoment(BitrunsError):
    """Moment order outside the supported range 1..4."""


class DegenerateVariance(BitrunsError):
    """A correlation was requested where one variance is zero."""


class OutOfFormulaRange(BitrunsError):
    """The piecewise closed-form formulas do not cover this input."""
