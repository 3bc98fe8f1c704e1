"""Seeded corruption of the three binary artifacts: every damaged file must
load or raise a ``TTAlignError``, never a raw exception."""

import dataclasses
import struct

import numpy as np
import pytest

import ttalign as tl
from ttalign import harness
from ttalign import model as mm
from ttalign import stats as st
from ttalign.errors import TTAlignError
from ttalign.tta import GRADCHECK_CONFIG

from conftest import TINY_GEN

N_FLIPS = 150  # single-bit flips per file
N_CUTS = 48  # truncation offsets per file too large to cut at every byte


def _load_or_typed_error(load, path, data, what):
    path.write_bytes(data)
    try:
        load()
    except TTAlignError:
        pass
    except Exception as exc:  # noqa: BLE001 - any other type is the failure
        pytest.fail(f"{what}: raw {type(exc).__name__}: {exc}")


def _fuzz(load, path, rng, cut_all, hot=0):
    """Truncate ``path`` and flip single bits in it, restoring it after.

    ``hot`` > 0 aims half the flips at the first ``hot`` bytes (headers and
    embedded text), which uniform flips over a large array body rarely hit.
    """
    raw = path.read_bytes()
    cuts = range(len(raw)) if cut_all else rng.choice(len(raw), N_CUTS, replace=False)
    for cut in cuts:
        _load_or_typed_error(load, path, raw[:cut], f"{path.name} cut at {cut}")
    for n in range(N_FLIPS):
        span = hot if hot and n % 2 else len(raw)
        offset, bit = int(rng.integers(span)), int(rng.integers(8))
        flipped = bytearray(raw)
        flipped[offset] ^= 1 << bit
        _load_or_typed_error(load, path, bytes(flipped), f"{path.name} bit {bit} of byte {offset}")
    path.write_bytes(raw)


@pytest.fixture(scope="module")
def small_model():
    model = tl.DualEncoder(GRADCHECK_CONFIG, seed=0)
    model.freeze()
    return model


def test_fuzz_stats_file(small_model, tmp_path):
    rng = np.random.default_rng(0)
    images = rng.normal(size=(2, 1, 16, 16))
    path = tmp_path / "stats.bin"
    st.save_stats(st.source_stats(images, small_model, max_order=3, dataset_id="fz"), path)
    header = 8 + 32 + 12 + 4 + len(b"fz") + 8
    _fuzz(lambda: st.load_stats(path), path, rng, cut_all=True, hot=header)


def test_fuzz_checkpoint(small_model, tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "ckpt.bin"
    mm.save_checkpoint(small_model, path)
    (cfg_len,) = struct.unpack_from("<I", path.read_bytes(), 12)
    # The config JSON and the first array headers.
    _fuzz(lambda: mm.load_checkpoint(path), path, rng, cut_all=False, hot=16 + cfg_len + 256)


@pytest.mark.parametrize("name", ["meta.txt", "images.f32", "labels.u32"])
def test_fuzz_dataset_files(tmp_path, name):
    rng = np.random.default_rng(2)
    src, _ = harness.gen_synthetic(TINY_GEN, seed=0)
    src = harness.DatasetBundle(
        dataclasses.replace(src.meta, n_samples=4), src.images[:4], src.labels[:4]
    )
    harness.save_dataset(src, tmp_path / "ds")
    path = tmp_path / "ds" / name
    _fuzz(lambda: harness.load_dataset(tmp_path / "ds"), path, rng, cut_all=name != "images.f32")
