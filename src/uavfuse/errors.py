"""Exception hierarchy shared across the pipeline.

The CLI maps these onto process exit codes; library code raises them
directly and never calls sys.exit.
"""

import math
from dataclasses import fields


class UavFuseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(UavFuseError):
    """Invalid or unknown configuration value."""


def check_finite_fields(config) -> None:
    """Raise ConfigError naming the first float field of a dataclass that is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


class ShapeError(UavFuseError, ValueError):
    """Tensor shape rejected; the message names the offending dimension."""


class NumericFault(UavFuseError, ArithmeticError):
    """Non-finite value where the computation requires finite arithmetic."""


class DataError(UavFuseError):
    """Problems with stored or supplied data."""


class FormatError(DataError):
    """File does not look like the expected binary format (magic/version)."""


class CorruptionError(DataError):
    """File has the right framing but a truncated or inconsistent payload."""


class ValidationError(DataError):
    """Well-formed data violating a stated invariant (ordering, shapes)."""


class TrainingError(UavFuseError):
    """Training precondition not met (empty or single-class split)."""


class CompatibilityError(UavFuseError):
    """Model and dataset disagree on shapes or modality set."""
