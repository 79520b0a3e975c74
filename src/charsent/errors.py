"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""


class CharsentError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CharsentError):
    """Invalid configuration value or malformed config file."""


class DataError(CharsentError):
    """Missing or malformed input data (corpus, lexicon, model files)."""


class NumericalError(CharsentError):
    """Non-finite loss or gradient, or a floating-point overflow or
    invalid operation, encountered during optimization."""
