"""Exception types shared across the package."""


class OcclangError(Exception):
    """Base class for every domain error raised by this package."""


class EmptyPatternError(OcclangError):
    """A pattern argument was empty where a nonempty word is required."""


class EmptyWordError(OcclangError):
    """A word argument was empty where a nonempty word is required."""


class ForeignSymbolError(OcclangError):
    """A word contains a symbol outside the declared alphabet."""


class AlphabetMismatchError(OcclangError):
    """Two automata built over different alphabets were combined."""


class AlphabetTooSmallError(OcclangError):
    """The alphabet has fewer symbols than the operation requires."""


class AlphabetNotBinaryError(OcclangError):
    """The operation is defined only for words over {0, 1}."""


class NotBorderedError(OcclangError):
    """The word is not bordered by the given border."""


class NotInClassAError(OcclangError):
    """The pattern is not of one of the shapes 01^+, 10^+, 0^+1, 1^+0."""


class CriterionHoldsError(OcclangError):
    """A non-regularity certificate was requested for a regular instance."""


class NotRegularError(OcclangError):
    """A DFA was requested for a comparison language that is not regular."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CertificateError(OcclangError):
    """Internal consistency check of a non-regularity certificate failed."""


class UnequalLengthsError(OcclangError):
    """Patterns of differing lengths were given where equal lengths are required."""


class DuplicatePatternError(OcclangError):
    """The same pattern was given more than once."""


class BudgetExceededError(OcclangError):
    """An exhaustive enumeration was asked to exceed its configured budget."""


class MalformedJsonError(OcclangError):
    """A JSON document does not match the expected schema."""
