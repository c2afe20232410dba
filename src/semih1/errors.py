"""Exception hierarchy for the semih1 toolkit.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from :class:`Semih1Error` so batch drivers can catch one
type.  Violated-axiom errors carry a ``witness`` attribute with the basis
indices (and values, where helpful) that falsify the axiom.
"""


class Semih1Error(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(Semih1Error):
    """Operands live in different ambient dimensions."""


class ShapeMismatch(Semih1Error):
    """A tensor or matrix does not have the declared shape."""


class ValidationFailed(Semih1Error):
    """An algebra/module axiom fails; ``report`` holds the witnesses."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidCharacter(Semih1Error):
    """A character is zero or not multiplicative."""


class NotHomomorphism(Semih1Error):
    """A linear map fails the algebra- or module-homomorphism law."""


class NotBimodule(Semih1Error):
    """A two-sided action fails one of the bimodule axioms."""


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
