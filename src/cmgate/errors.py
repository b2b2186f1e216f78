"""Exception hierarchy shared by every cmgate module.

All errors derive from CmgateError so callers can catch the whole family;
the leaf classes mirror the failure modes of the public operations.
"""


class CmgateError(Exception):
    """Base class for all cmgate errors."""


class InternalInvariant(CmgateError):
    """Internal sentinel: an invariant the algorithms rely on does not hold."""


def _require(cond: bool, msg: str) -> None:
    """Raise InternalInvariant unless cond holds (unlike assert, also under -O)."""
    if not cond:
        raise InternalInvariant(msg)


# --- field construction / arithmetic ---------------------------------------

class CompositeP(CmgateError):
    """p is not prime."""


class CharTooSmall(CmgateError):
    """Characteristic below 5 is not supported."""


class SizeExceeded(CmgateError):
    """Requested object lies beyond the configured size bound."""


class ContextMismatch(CmgateError):
    """Operands live in incompatible field contexts."""


class DivisionByZero(CmgateError):
    """Division by the zero element."""


class NotASubfield(CmgateError):
    """No embedding exists between the given contexts."""


class ZeroElement(CmgateError):
    """Operation undefined for the zero element."""


# --- polynomial algebra -----------------------------------------------------

class ZeroPolynomial(CmgateError):
    """Operation undefined for the zero polynomial."""


class ConstantPolynomial(CmgateError):
    """Operation undefined for constant polynomials."""


class UnsupportedCurveDegree(CmgateError):
    """Absolute-irreducibility decision not available for this shape."""


# --- isogenies / endomorphism rings ----------------------------------------

class UnsupportedLevel(CmgateError):
    """No vendored modular polynomial for this prime level."""


class SupersingularInput(CmgateError):
    """Operation defined only for ordinary j-invariants."""


class ProviderDisagreement(CmgateError):
    """Internal sentinel: the two endomorphism-ring providers disagree."""


# --- class polynomials -------------------------------------------------------

class NotADiscriminant(CmgateError):
    """Integer is not a negative discriminant (0 or 1 mod 4)."""


class PInert(CmgateError):
    """The prime is inert or ramified; sweep construction unsupported."""


class PDividesD(CmgateError):
    """The prime divides the discriminant."""


class SearchCeilingExceeded(CmgateError):
    """Discriminant search hit its configured ceiling."""


class BothZero(CmgateError):
    """Kronecker symbol undefined at (0, 0)."""


# --- cyclotomic / Galois tools -----------------------------------------------

class IndexDivisibleByP(CmgateError):
    """Cyclotomic index shares a factor with the characteristic."""


class EqualPrimes(CmgateError):
    """The two primes must be distinct."""


# --- CLI ----------------------------------------------------------------------

class ParseError(CmgateError):
    """Polynomial text failed to parse; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class WrongVariables(ParseError):
    """Polynomial text uses variables not allowed in this slot."""
