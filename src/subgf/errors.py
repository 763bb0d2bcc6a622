"""Shared exception types."""


class SubgfError(Exception):
    """Base class for all library errors."""


class RuleSyntaxError(SubgfError):
    """Malformed rule text; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class RuleFileError(SubgfError):
    """The rule file cannot be read, or is not UTF-8 text."""


class EmptyImageError(RuleSyntaxError):
    pass


class DuplicateRuleError(RuleSyntaxError):
    pass


class UnknownLetterError(RuleSyntaxError):
    pass


class NotPrimitiveError(SubgfError):
    pass


class NoGrowingFixedPointError(SubgfError):
    pass


class TooLargeError(SubgfError):
    pass


class InsufficientDataError(SubgfError):
    pass


class WitnessInvalidError(SubgfError):
    pass


class WrongAlphabetSizeError(SubgfError):
    pass


class ZeroPolynomialError(SubgfError):
    pass


class EndpointIsRootError(SubgfError):
    pass


class NoRootError(SubgfError):
    pass


class NoRootInIntervalError(SubgfError):
    pass


class RootPresentError(SubgfError):
    """Raised when a positivity certificate is impossible; carries a bracket
    around an offending root."""

    def __init__(self, message, bracket):
        super().__init__(message)
        self.bracket = bracket


class NegativeOnIntervalError(SubgfError):
    pass
