"""Exception types shared across the package.

The split into format and domain families mirrors the command line exit
codes: format problems mean the input could not be read, domain problems
mean the input was read fine but the requested answer does not exist.
"""


class OrdfactorError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(OrdfactorError):
    """Input could not be parsed or serialized."""


class DomainError(OrdfactorError):
    """Input is well-formed but the requested result does not exist."""


class MalformedHeader(FormatError):
    """A .cxt file does not start with the expected header lines."""


class CountMismatch(FormatError):
    """Declared object/attribute counts disagree with the file body."""


class IllegalCharacter(FormatError):
    """An incidence row contains a character other than 'X' or '.'."""


class DuplicateName(FormatError):
    """Object or attribute names are not pairwise distinct."""


class NotAPartialOrder(FormatError):
    """A relation violates antisymmetry after reflexive-transitive closure."""


class UnsupportedFormat(FormatError):
    """An unknown rendering format was requested."""


class IndexOutOfRange(DomainError):
    """An object or attribute index does not exist in the context."""


class PairNotIncident(DomainError):
    """A pair was expected to be an incidence of the context but is not."""


class NotTwoDimensional(DomainError):
    """A graph admits no transitive orientation."""


class NotTwoFactorizable(DomainError):
    """The incidence relation is not a union of two Ferrers relations."""


class ConceptBudgetExceeded(DomainError):
    """Concept enumeration exceeded the configured cap."""


class InvalidFactorization(DomainError):
    """A factorization result fails validation."""


class NotFerrers(DomainError):
    """A relation expected to be a Ferrers relation is not."""


class NotFound(DomainError):
    """An exhaustive search finished without finding a witness."""


class BudgetExceeded(OrdfactorError):
    """An exact computation ran out of its time budget.

    ``lower_bound`` is the size below which the computation proved that
    no answer exists, or None when it proved none.  ``best_known`` is
    the size of an answer the caller already holds, or None.
    """

    def __init__(
        self,
        message: str,
        lower_bound: int | None = None,
        best_known: int | None = None,
    ):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.best_known = best_known
