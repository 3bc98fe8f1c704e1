"""The one way the package turns a seed into random numbers."""

import numpy as np

from .errors import ConfigurationError, check_int


def check_seed(seed) -> int:
    """``seed`` as an int; one that is not an int in [0, 2**64) raises
    ConfigurationError."""
    seed = check_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def philox(seed: int, stream: int) -> np.random.Generator:
    """A generator on the Philox stream keyed on ``(seed, stream)``; the seed
    is checked as ``check_seed`` checks it."""
    seed = check_seed(seed)
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(stream)]))
