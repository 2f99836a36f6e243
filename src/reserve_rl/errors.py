"""Typed exceptions shared across the package.

Three failure families map onto CLI exit codes: configuration/usage
problems (exit 1), data and I/O problems (exit 2), and numerical
failures (exit 3).  Everything raised on purpose inside the package
derives from :class:`ReserveRlError` so callers can catch broadly without
swallowing genuine bugs; one in none of the families (stepping an
environment before ``reset``, a worker that died) exits 1.
"""


class ReserveRlError(Exception):
    """Base class for all deliberate failures in this package."""


class ConfigError(ReserveRlError):
    """Bad configuration or usage (CLI exit code 1)."""


class DataError(ReserveRlError):
    """Bad or inconsistent input data (CLI exit code 2)."""


class NumericalError(ReserveRlError):
    """Numerical breakdown during computation (CLI exit code 3)."""

