"""Exception types raised by the simulation and estimation routines."""


class MemoryBudgetError(RuntimeError):
    """A quadratic-cost simulation (exact integers, division recursion) asked to run past its step cap."""


class DegenerateDivisorError(RuntimeError):
    """A divisor coefficient fell below the representable threshold.

    Redrawing would bias the coefficient law, so the run is aborted instead.
    """


class TruncationBudgetError(RuntimeError):
    """Cumulative tail mass dropped by truncation exceeded its budget."""


class SeriesTooShortError(ValueError):
    """Increment series too short for the requested batch layout."""


class DegenerateWindowError(ValueError):
    """Regression window contains too few usable points."""


class TableBudgetError(ValueError):
    """Dynamic-programming table would exceed the configured size budget."""
