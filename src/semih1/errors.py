"""Exception hierarchy for the semih1 toolkit.

Every failure mode that callers are expected to handle has one class,
whichever entry point meets it: a vector, matrix or tensor of the wrong size
is a :class:`ShapeMismatch`, and a failed axiom, of an algebra, a module, a
corner or a character, is a :class:`ValidationFailed` whose ``report`` holds
the witnesses.  All of them derive from :class:`Semih1Error` so batch
drivers can catch one type.
"""


class Semih1Error(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(Semih1Error):
    """A vector, matrix or tensor does not have the size its use needs."""


class ValidationFailed(Semih1Error):
    """An algebra/module axiom fails; ``report`` holds the witnesses."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotHomomorphism(Semih1Error):
    """A linear map fails the algebra- or module-homomorphism law."""


class NotADerivation(Semih1Error):
    """A map handed to a derivation-only operation is not a derivation."""


class InternalInvariantViolation(Semih1Error):
    """Something the library guarantees internally broke: report as a bug."""


class UnknownHypothesis(Semih1Error):
    """An unrecognized hypothesis name was requested."""


class WrongConstructionKind(Semih1Error):
    """A verification rule was applied to a product of the wrong shape."""


class ParseError(Semih1Error):
    """An instance file is malformed; ``where`` locates the offending part."""

    def __init__(self, message, where=None):
        super().__init__(message if where is None else f"{where}: {message}")
        self.where = where


class UnresolvedReference(Semih1Error):
    """A job or definition refers to a name that does not exist."""
