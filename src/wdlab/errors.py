"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Structural problem: wrong dimensions, non-square input, mismatched factors."""


class DomainError(ValueError):
    """Argument outside its mathematical domain (negative damping, bad label, ...)."""


class CapacityError(ValueError):
    """Dense construction requested above the configured parameter cap."""


class DegenerateError(ValueError):
    """Degenerate input: zero-norm layer, single-example batch under batch norm."""


class ContractError(ValueError):
    """Operation used outside the hypotheses its identity needs (a trace in the wrong mode, uninverted factors, ...)."""


class DataFormatError(ValueError):
    """Malformed data file; message names the byte offset where parsing failed."""


class InstabilityError(ValueError):
    """Update rule parameters that cannot yield a stable step (eta*beta >= 1)."""


class NumericalError(ArithmeticError):
    """Numerical failure that must surface instead of being clamped."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss during training; carries the last diagnostic record."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
