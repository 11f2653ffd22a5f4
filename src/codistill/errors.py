"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or impossible geometry."""


class DataError(ValueError):
    """Malformed input data, e.g. a label outside the class range."""


class TrainingError(RuntimeError):
    """Training produced a non-finite loss term or gradient."""


class MetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. all pixels ignored)."""
