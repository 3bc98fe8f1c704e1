"""Exception types shared across the package."""

import operator


class TTAlignError(Exception):
    """Base class for all package errors."""


class ShapeError(TTAlignError):
    """Operand dimensions are incompatible (message names both shapes)."""


class ConfigurationError(TTAlignError):
    """A configuration value is inconsistent with the model or data."""


class ContractError(TTAlignError):
    """A caller violated an operation's precondition."""


class DataError(TTAlignError):
    """A dataset is empty or malformed."""


class CompatibilityError(TTAlignError):
    """Artifacts do not belong together: stats of other model weights, or a
    dataset whose images or classes differ from the model's."""


class FormatError(TTAlignError):
    """A binary file has a bad magic, version, or is truncated."""


def check_int(name: str, value) -> int:
    """``value`` as an int; a bool, a float, a string or None raises
    ConfigurationError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be an int, got {value!r}")
