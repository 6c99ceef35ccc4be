"""Exception hierarchy shared by all modules.

The three concrete classes map onto the CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4. OutputError is a DataError, so it exits
3 as well.
"""


class SalisegError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SalisegError):
    """Invalid or inconsistent configuration."""


class DataError(SalisegError):
    """Malformed input data: files, annotations, valid lengths, dimensions."""


class NumericalError(SalisegError):
    """Numerical failure: NaN scalings, divergence, non-convergence with fail-fast."""


class OutputError(DataError):
    """An output file or directory could not be written. It is a fault of the
    destination, not of one video, so it always ends the run."""
