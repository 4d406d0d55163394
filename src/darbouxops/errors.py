"""Exception types shared across the package."""


class DarbouxOpsError(Exception):
    pass


class FieldMismatchError(DarbouxOpsError):
    """Two values live in different quadratic extensions Q(sqrt(d))."""


class InvalidFieldError(DarbouxOpsError):
    """The requested extension tag d is not a square-free non-negative integer."""


class ShapeMismatchError(DarbouxOpsError):
    pass


class SingularMatrixError(DarbouxOpsError):
    pass


class UnknownIndeterminateError(DarbouxOpsError):
    pass


class ParseError(DarbouxOpsError):
    pass


class NotALieAlgebraError(DarbouxOpsError):
    """Structure tensor fails skew-symmetry or the Jacobi identity."""


class NotACasimirError(DarbouxOpsError):
    pass


class MetricIncompatibleError(DarbouxOpsError):
    pass


class NotACocycleError(DarbouxOpsError):
    pass


class NonHydrodynamicDensityError(DarbouxOpsError):
    pass


class InvalidOperandError(DarbouxOpsError):
    pass


class UnknownEntryError(DarbouxOpsError):
    pass


class ExponentOverflowError(DarbouxOpsError):
    """A product operand has an exponent outside 0..poly.MAX_EXPONENT."""


class UnprintableValueError(DarbouxOpsError):
    """A computed value has more digits than Python's int-string limit lets `str` print."""
