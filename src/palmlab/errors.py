"""Error types shared across the package."""


class PalmLabError(Exception):
    """Base class for all palmlab errors."""


class IndexOutOfPattern(PalmLabError):
    """A requested event index T_n (or gap between T_n and T_n+1) is not in the pattern."""


class OutsideWindow(PalmLabError):
    """A query interval is not contained in the pattern's observation window."""


class InsufficientContext(PalmLabError):
    """The window does not cover the dependency radius needed for an evaluation."""


class NoMean(PalmLabError):
    """An interval distribution without a finite positive mean was supplied."""


class UnknownTilt(PalmLabError):
    """The requested weight functional is not registered."""


class ZeroDenominator(PalmLabError):
    """A ratio estimator observed no occurrences in its denominator."""


class LowEffectiveSampleSize(PalmLabError):
    """Importance weights degenerated: the effective sample size fell below
    the loud-failure threshold for a weighted run."""


class InsufficientCoverage(PalmLabError):
    """The conditioning proxy accepted too few replications to report an estimate."""


class InsufficientWindow(PalmLabError):
    """The simulation window cannot contain the quantities the run needs."""


class TooFewCheckpoints(PalmLabError):
    """A Cesaro trace is too short for a convergence verdict."""


class NotApplicable(PalmLabError):
    """An identity check was requested on a model outside its applicability domain."""


class ConfigError(PalmLabError):
    """A run configuration is missing fields or contains invalid values."""
