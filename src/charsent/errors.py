"""Exception types shared across the package.

The CLI maps each onto a process exit code (`cli._EXIT_CODES`).
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
