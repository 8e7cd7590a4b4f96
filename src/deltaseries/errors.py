"""Exception hierarchy shared by all deltaseries modules."""


class DeltaSeriesError(Exception):
    """Base class for all errors raised by this package."""


# scalar ring errors
class DivisionByZero(DeltaSeriesError):
    pass


class BothZero(DeltaSeriesError):
    pass


class ZeroDenominator(DeltaSeriesError):
    pass


class PoleAtValue(DeltaSeriesError):
    pass


class ScalarParseError(DeltaSeriesError):
    pass


class ScalarTooLarge(DeltaSeriesError):
    pass


# series errors
class OrderMismatch(DeltaSeriesError):
    pass


class RingMismatch(DeltaSeriesError):
    pass


class NonUnitConstantTerm(DeltaSeriesError):
    pass


class BadConstantTerm(DeltaSeriesError):
    pass


class NoExactRoot(DeltaSeriesError):
    pass


class IndexOutOfOrder(DeltaSeriesError):
    pass


class NotDelta(DeltaSeriesError):
    pass


# stirling errors
class InsufficientOrder(DeltaSeriesError):
    pass


class ArityTooSmall(DeltaSeriesError):
    pass


class NonUnitBaseForRationalPower(DeltaSeriesError):
    pass


class NonRepresentablePower(DeltaSeriesError):
    pass


# preset errors
class LambdaModeRequired(DeltaSeriesError):
    pass


class UnknownPreset(DeltaSeriesError):
    pass


class ZeroFirstMoment(DeltaSeriesError):
    pass


# expression parser errors
class ExprSyntaxError(DeltaSeriesError):
    def __init__(self, message, offset, expected=()):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset
        self.expected = tuple(expected)


class UnknownFunction(DeltaSeriesError):
    pass
