"""Exception types shared across the package."""

__all__ = [
    "SubgapError",
    "GridMismatchError",
    "NotBandlimitedError",
    "RefusalError",
    "NonConvergenceError",
    "DegenerateDesignError",
    "BoundViolationError",
    "ConfigError",
]


class SubgapError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(SubgapError, ValueError):
    """Two objects that must share a grid do not."""


class NotBandlimitedError(SubgapError, ValueError):
    """An input required to be bandlimited carries out-of-band energy."""


class RefusalError(SubgapError, RuntimeError):
    """A solver refused to run because its invertibility guard failed.

    The message carries the measured quantities (WT and the largest
    eigenvalue lambda0, the in-band dimension, or a tomography design's
    condition number) so the caller can see why.  ``report`` is the failed
    InvertibilityReport of a refusal at the uncertainty limit, which only
    its ``_require`` raises, worded ``refusing <stage>: <report.reason>``;
    it is None for every other guard.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonConvergenceError(SubgapError, RuntimeError):
    """An iterative solver stopped before reaching its tolerance.

    Raised by ``recover_state`` when the Neumann series exhausts its
    iteration cap or its update norm stops decreasing; the classical
    solvers return that as ``RecoveryReport.reason`` instead of raising.
    """


class BoundViolationError(SubgapError, RuntimeError):
    """A computed quantity broke a bound the theory guarantees.

    Raised instead of returning a value that contradicts the paper's
    inequalities (concentration above WT, spill below 1 - WT) or a
    position density rho(x, t) with an imaginary part; any of these
    points to a numerical fault, not to bad input.
    """


class ConfigError(SubgapError, ValueError):
    """An experiment config failed validation; the message names the field."""


class DegenerateDesignError(RefusalError):
    """A least-squares design matrix is numerically rank deficient.

    Attributes
    ----------
    pairs : list
        The (row, column) index pairs whose design columns are nearly
        parallel, when that diagnosis applies.
    """

    def __init__(self, message, pairs=None):
        super().__init__(message)
        self.pairs = list(pairs) if pairs is not None else []
