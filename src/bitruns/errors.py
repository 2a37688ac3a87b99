"""Exception types shared across the package; the CLI exits 3 on a
LimitExceeded and 1 on any other BitrunsError."""


class BitrunsError(Exception):
    """Base class for all package-specific errors."""


class LimitExceeded(BitrunsError):
    """A length, order, precision or oracle size beyond its bound."""


class NonUnitConstantTerm(LimitExceeded):
    """Denominator constant term is not +-1, so an exact integer expansion
    is not available."""


class EmptyEnsemble(BitrunsError):
    """The ensemble contains no strings of the requested length."""


class UnsupportedClass(BitrunsError):
    """The requested quantity or run family is not available for this
    string class."""


class DegenerateVariance(BitrunsError):
    """A correlation was requested where one variance is zero."""


class OutOfFormulaRange(BitrunsError):
    """The piecewise closed-form formulas do not cover this input."""
