"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or impossible geometry."""


class DataError(ValueError):
    """Malformed input data, e.g. a label outside the class range or no labelled pixel."""


class TrainingError(RuntimeError):
    """Training produced a non-finite loss term or gradient."""

