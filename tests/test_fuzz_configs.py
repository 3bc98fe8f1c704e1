"""Seeded bad values in every config field: each config must construct or
raise a ``TTAlignError``, never a raw exception."""

import dataclasses
import math

import numpy as np
import pytest

import ttalign as tl
from ttalign import harness
from ttalign.errors import TTAlignError

CONFIGS = (tl.ModelConfig, tl.TTAConfig, harness.GenConfig, harness.ShiftSpec)
BAD_VALUES = (None, "x", True, 1.5, -1, 0, math.nan, math.inf, ())
N_MIXES = 200  # configs per class with several fields set to bad values at once


def _construct_or_typed_error(cls, kwargs):
    try:
        cls(**kwargs)
    except TTAlignError:
        pass
    except Exception as exc:  # noqa: BLE001 - any other type is the failure
        pytest.fail(f"{cls.__name__}(**{kwargs!r}): raw {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("cls, field", [
    (cls, f.name) for cls in CONFIGS for f in dataclasses.fields(cls)
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_fuzz_one_field(cls, field):
    for value in BAD_VALUES:
        _construct_or_typed_error(cls, {field: value})


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_fuzz_mixed_fields(cls):
    rng = np.random.default_rng(CONFIGS.index(cls))
    names = [f.name for f in dataclasses.fields(cls)]
    for _ in range(N_MIXES):
        picked = rng.choice(len(names), size=int(rng.integers(1, len(names) + 1)), replace=False)
        kwargs = {names[i]: BAD_VALUES[int(rng.integers(len(BAD_VALUES)))] for i in picked}
        _construct_or_typed_error(cls, kwargs)
