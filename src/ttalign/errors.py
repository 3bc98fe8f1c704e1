"""Exception types shared across the package."""

import math
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


def check_int(name: str, value, lo=None, *, error=ConfigurationError) -> int:
    """``value`` as an int; a bool, a float, a string, None or an int below
    ``lo`` raises ``error``."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if lo is not None and value < lo:
                raise error(f"{name} must be >= {lo}, got {value}")
            return value
    raise error(f"{name} must be an int, got {value!r}")


def check_real(name: str, value, lo, hi=math.inf, above=False, *, error=ConfigurationError):
    """``value`` if it is a finite real number, not a bool, in [lo, hi], or in
    (lo, hi] when ``above``; anything else raises ``error``."""
    try:
        ok = (not isinstance(value, bool) and math.isfinite(value)
              and (lo < value if above else lo <= value) and value <= hi)
    except (TypeError, OverflowError):  # not a real number, or an int too big for a float
        ok = False
    if not ok:
        interval = f"{'(' if above else '['}{lo}, {hi}{']' if hi < math.inf else ')'}"
        raise error(f"{name} must be a finite real in {interval}, got {value!r}")
    return value


def check_tuple(name: str, value) -> tuple:
    """``value`` as a tuple; a string or a value that is not iterable raises
    ConfigurationError."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be a sequence, got {value!r}")
