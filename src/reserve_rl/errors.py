"""Typed exceptions shared across the package.

Three failure families map onto CLI exit codes: configuration/usage
problems (exit 1), data and I/O problems (exit 2), and numerical
failures (exit 3).  Everything raised on purpose inside the package
derives from :class:`ReserveRlError` so callers can catch broadly without
swallowing genuine bugs.
"""


class ReserveRlError(Exception):
    """Base class for all deliberate failures in this package."""


class ConfigError(ReserveRlError):
    """Bad configuration or usage (CLI exit code 1)."""


class DataError(ReserveRlError):
    """Bad or inconsistent input data (CLI exit code 2)."""


class NumericalError(ReserveRlError):
    """Numerical breakdown during computation (CLI exit code 3)."""


# --- triangle ingestion ----------------------------------------------------

class MalformedRow(DataError):
    """A CSV row failed to parse (bad header, field count, type, or sign)."""


class DuplicateCell(DataError):
    """Two rows describe the same (accident_year, dev_lag) cell."""


class EmptyTriangle(DataError):
    """The file contained a header but no data rows."""


class IrregularTriangle(DataError):
    """Observed cells do not form a contiguous run-off shape."""


class DegenerateScale(DataError):
    """Normalization scale would be zero or negative."""


class InvalidSplit(ConfigError):
    """Train/test split sizes are inconsistent with the triangle."""


class InsufficientData(DataError):
    """Not enough observed cells to estimate the requested quantity."""


class ZeroDenominator(NumericalError):
    """A development-factor denominator summed to zero."""


# --- regimes ----------------------------------------------------------------

class UnknownLevel(ConfigError):
    """Regime level outside the configured table."""


class InvalidProgress(ConfigError):
    """Interpolation progress outside [0, 1]."""


# --- environment -------------------------------------------------------------

class ConfigMismatch(ConfigError):
    """Environment configuration is incompatible with the supplied data."""


class ActionOutOfGrid(ConfigError):
    """Action index outside the discrete adjustment grid."""


class EpisodeFinished(ReserveRlError):
    """step() called after the terminal step of an episode."""


# --- risk functionals ---------------------------------------------------------

class EmptyBuffer(NumericalError):
    """Quantile requested from an empty sample buffer."""


class InvalidAlpha(ConfigError):
    """Tail level outside the open interval (0, 1)."""


# --- baselines ----------------------------------------------------------------

class MissingPremium(DataError):
    """An accident year needing development has no usable premium."""


class DegenerateResiduals(DataError):
    """Bootstrap residuals cannot be formed (non-positive fitted cells)."""


# --- agent ---------------------------------------------------------------------

class LengthMismatch(ConfigError):
    """Parallel arrays passed to the agent disagree in length."""


class EmptyBatch(ConfigError):
    """An update was requested on an empty transition batch."""


class NonFiniteGradient(NumericalError):
    """A gradient contained NaN or infinity."""


class NonFiniteActivation(NumericalError):
    """A network activation contained NaN or infinity."""


# --- evaluation -------------------------------------------------------------------

class NoEligibleSteps(DataError):
    """No trace steps satisfied the metric's eligibility guard."""


class TooFewSamples(DataError):
    """Not enough pooled samples for a stable tail estimate."""


class EmptyReport(DataError):
    """Report emission was requested with zero rows."""


# --- artifacts ---------------------------------------------------------------------

class IoFailure(DataError):
    """Filesystem problem while writing an artifact (CLI exit code 2)."""
