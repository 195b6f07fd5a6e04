"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError (and OSError) to 1,
ConfigError (a ValueError) to 2, NumericError to 3, and the built-in
MemoryError to 4.
"""


class ParseError(Exception):
    """A data file failed to parse or is internally inconsistent."""

    def __init__(self, message: str, path: str | None = None, lineno: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
        super().__init__(loc + message)
        self.path = path
        self.lineno = lineno


class ConfigError(ValueError):
    """Invalid configuration, hyperparameters, or mismatched inputs."""


class NumericError(Exception):
    """Optimization produced non-finite values."""
