"""Exception types shared across the package."""


class SimpvexError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SimpvexError):
    """Raised when an expression cannot be parsed.

    Attributes:
        source: the offending input string.
        position: 0-based character offset of the failure (may equal
            len(source) when the input ends too early).
        reason: short human-readable description.
    """

    def __init__(self, source: str, position: int, reason: str):
        self.source = source
        self.position = position
        self.reason = reason
        super().__init__(f"parse error at offset {position}: {reason}")


class EvalDomainError(SimpvexError):
    """Raised when evaluation hits a point outside a function's domain.

    Carries the offending sub-expression (pretty-printed) and the input
    value that triggered the failure.
    """

    def __init__(self, expr_text: str, value: float, reason: str):
        self.expr_text = expr_text
        self.value = value
        self.reason = reason
        super().__init__(f"{reason} in {expr_text} at {value!r}")


class InvalidEta(SimpvexError):
    """Raised when a direction map gives a non-positive step for (b, a)."""


class DomainError(SimpvexError):
    """Raised when an evaluation path leaves the ambient domain."""


class PreconditionUnmet(SimpvexError):
    """Raised when a corollary's extra precondition fails."""


class MissingFourthDerivative(SimpvexError):
    """Raised when the classical bound is requested without a d4sup value."""


class QuadratureError(SimpvexError):
    """Base class for integration failures.

    ``interval`` is the (lo, hi) of a panel too narrow to split, where that
    is the failure (``unrefinable``); None otherwise.
    """

    interval = None

    @classmethod
    def unrefinable(cls, lo: float, hi: float) -> "QuadratureError":
        error = cls(f"cannot refine interval [{lo!r}, {hi!r}] further; tolerance unreachable")
        error.interval = (lo, hi)
        return error


class BudgetExhausted(QuadratureError):
    """Raised when the evaluation budget runs out before convergence."""

    def __init__(self, evaluations: int, message: str = ""):
        self.evaluations = evaluations
        super().__init__(message or f"evaluation budget exhausted after {evaluations} calls")


class NonFiniteIntegrand(QuadratureError):
    """Raised when the integrand returns NaN or infinity."""

    def __init__(self, abscissa: float, value: float):
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"integrand returned {value!r} at x={abscissa!r}")


class CaseConfigError(SimpvexError):
    """Raised when a corpus case fails schema or consistency validation."""
