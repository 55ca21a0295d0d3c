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


class EmptyRegion(SobnatError):
    """No grid cell or sample lies in the flatness band; the sampling is too coarse."""


class RateViolation(SobnatError):
    """Convergence-rate bound failed at some step."""

    def __init__(self, step: int, gap: float, bound: float):
        self.step = step
        self.gap = gap
        self.bound = bound
        super().__init__(f"rate bound violated at T={step}: gap {gap:.6g} > bound {bound:.6g}")


class Diverged(SobnatError):
    """Training produced a non-finite batch loss, or a non-finite update
    from a finite one (update=True); or functional GD a non-finite
    coefficient (loss None)."""

    def __init__(self, step: int, loss: float = None, update: bool = False):
        self.step = step
        self.loss = loss
        self.update = update
        if loss is None:
            what = "coefficient"
        else:
            what = f"update (train loss {loss})" if update else f"train loss {loss}"
        super().__init__(f"non-finite {what} at step {step}")


class StepFailed(SobnatError):
    """A training step raised a SobnatError; the original is the __cause__.

    row is the dataset row of the first non-finite feature in the step's
    batch, when there is one.
    """

    def __init__(self, step: int, cause: SobnatError, row: int = None):
        self.step = step
        self.row = row
        where = "" if row is None else f" (non-finite feature in dataset row {row})"
        super().__init__(f"step {step}: {type(cause).__name__}: {cause}{where}")


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
