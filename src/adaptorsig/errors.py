"""Exception types shared across the library, and the one reporter of
reason tags."""


def report(tag, reasons) -> bool:
    """Whether a check passed (tag is None); a failing tag is appended to
    `reasons` when one is given.  Every verifier reports through this."""
    if tag is not None and reasons is not None:
        reasons.append(tag)
    return tag is None


class ProtocolError(Exception):
    """Base class for all library errors."""


# parameter generation
class NoPrimeFound(ProtocolError):
    pass


class ConstraintViolation(ProtocolError):
    pass


# curves and points
class PointNotOnCurve(ProtocolError):
    pass


class SingularCurve(ProtocolError):
    pass


class NoBasis(ProtocolError):
    pass


class OrderMismatch(ProtocolError):
    pass


# isogenies
class BadKernel(ProtocolError):
    pass


class NonCoprimeDegree(ProtocolError):
    pass


class DomainMismatch(ProtocolError):
    pass


class NoPreimage(ProtocolError):
    pass


# orientations
class TorsionUnavailable(ProtocolError):
    pass


class LengthMismatch(ProtocolError):
    pass


# challenge walks
class IndexOutOfRange(ProtocolError):
    pass


# extraction oracles
class NotABasis(ProtocolError):
    pass


class NotFound(ProtocolError):
    pass


class AmbiguityBound(ProtocolError):
    pass


# zero-knowledge proofs
class WitnessMismatch(ProtocolError):
    pass


# adaptation
class WitnessStatementMismatch(ProtocolError):
    pass


# serialization
class ParseError(ProtocolError):
    pass


class InvariantViolation(ProtocolError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
