"""Exception types shared across the toolkit."""


class SobnatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SobnatError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(SobnatError):
    """A Cholesky pivot was <= 0; the caller should increase jitter/damping."""


class UnsupportedOrder(SobnatError):
    """Requested Sobolev order has no closed-form kernel here."""


class DegenerateGram(SobnatError):
    """Gram matrix stayed singular after jitter escalation."""


class SingularProbeSet(SobnatError):
    """Probe points do not expose the linear independence of the basis."""


class TooLarge(SobnatError):
    """Dense Jacobian would exceed the configured storage budget."""


class BudgetExceeded(SobnatError):
    """Quadrature request is beyond the desk-scale budget."""


class UnboundedRegion(SobnatError):
    """Flatness region touches the bounding box; epsilon is too large."""


class RateViolation(SobnatError):
    """Convergence-rate bound failed at some step."""

    def __init__(self, step: int, gap: float, bound: float):
        self.step = step
        self.gap = gap
        self.bound = bound
        super().__init__(f"rate bound violated at T={step}: gap {gap:.6g} > bound {bound:.6g}")


class Diverged(SobnatError):
    """Training produced a non-finite batch loss."""

    def __init__(self, step: int, loss: float):
        self.step = step
        self.loss = loss
        super().__init__(f"non-finite train loss {loss} at step {step}")


class ParseError(SobnatError):
    """CSV field could not be parsed."""

    def __init__(self, line: int, column: int, message: str = "malformed field"):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class InconsistentWidth(SobnatError):
    """CSV row has a different number of fields than the first row."""

    def __init__(self, line: int, expected: int, got: int):
        self.line = line
        super().__init__(f"line {line}: expected {expected} fields, got {got}")
