"""Exception types shared across the package."""


class LexineqError(Exception):
    """Base class for all lexineq-specific errors."""


class ParseError(LexineqError):
    """Syntax error in an inequality expression.

    ``offset`` is the byte offset (UTF-8) into the input where scanning
    stopped.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class MultipleVariablesError(ParseError):
    """The expression uses a variable other than Z."""


class NonIntegerExponentError(ParseError):
    """A '^' exponent is not a positive integer literal."""


class UnsupportedFormError(LexineqError):
    """The normalized inequality is outside the solvable classes."""


class UnknownLawError(LexineqError):
    """A law id not present in the law registry."""


class NonPositiveScaleError(LexineqError):
    """A dilation transform was constructed with a factor r <= 0."""


class DegenerateFractionError(LexineqError):
    """Fractional inequality with B - A*C = 0 in strict mode."""


class ZeroLeadingCoefficientError(LexineqError):
    """Quadratic solver called with a leading coefficient of zero."""


class PoleError(LexineqError):
    """An operation that requires a finite value was given a pole point."""
