"""Exception hierarchy shared across the package.

Everything raised on purpose derives from IcalcError so callers (and the
command line driver) can separate expected failures from genuine bugs.
"""


class IcalcError(Exception):
    """Base class for all deliberate errors."""


class NotPrimeError(IcalcError):
    """Field modulus is not a prime in the supported range."""


class DimensionMismatchError(IcalcError):
    """Monomials of different lengths were compared or combined."""


class RingMismatchError(IcalcError):
    """Operands live in different rings."""


class RingSpecError(IcalcError, ValueError):
    """A polynomial ring was given a bad field, variable list or order."""


class BadArgumentError(IcalcError, ValueError):
    """A library call got an argument outside its domain: a negative
    exponent, a wrong-length exponent tuple, a repeated variable, or
    the zero polynomial where a leading term is needed."""


class ArgumentTypeError(IcalcError, TypeError):
    """A library call got an argument of the wrong type: a string or an
    int where a polynomial or an ideal belongs, or a seed that is not
    an integer."""


class CapacityError(IcalcError):
    """An exponent left the supported machine range."""


class UnknownVariableError(IcalcError):
    """A variable name is not declared in the ring."""


class VariableCollisionError(IcalcError):
    """Source and target rings of a map share a variable name."""


class ParseError(IcalcError):
    """Malformed polynomial or script text."""


class ZeroColonError(IcalcError):
    """Colon by the zero polynomial or the zero ideal."""


class EmptyRingError(IcalcError):
    """Quotient by the unit ideal: the ring collapses to zero."""


class BadDecompositionError(IcalcError):
    """Declared components do not match the defining ideal."""


class NeedsPrimesError(IcalcError):
    """Operation requires a ring presented with its minimal primes."""


class NotApplicableError(IcalcError):
    """Hypotheses of a structural criterion fail for this input."""


class PreconditionError(IcalcError):
    """Caller violated a documented operation precondition."""


class NormalizationError(IcalcError):
    """Generator normal form against a distinguished variable fails."""


class RedundantDecompositionError(BadDecompositionError):
    """A declared component is contained in another one."""


class NilpotencyBoundError(IcalcError):
    """No Frobenius exponent within the cap kills the nilradical."""


class InvalidMultiplierError(IcalcError):
    """Multiplier for a Frobenius membership test is zero."""


class ScriptError(IcalcError):
    """Script evaluation failed (unbound name, rebinding, no ring)."""
