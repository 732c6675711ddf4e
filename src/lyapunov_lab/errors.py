"""Exception types of aborted runs (CLI exit 1); invalid parameters raise ValueError (exit 2)."""


class DegenerateDivisorError(RuntimeError):
    """A divisor coefficient fell below the representable threshold.

    Redrawing would bias the coefficient law, so the run is aborted instead.
    """


class TruncationBudgetError(RuntimeError):
    """Cumulative tail mass dropped by truncation exceeded its budget."""
