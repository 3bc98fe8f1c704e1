"""Per-layer channel-wise token statistics and their serialized form.

The test-sample side (``view_stats``) is computed inside the differentiable
graph from the token matrices a forward pass records at every transformer
layer: the view axis and the token axis collapse into the channel-wise
moments of orders 1..K per layer (the mean, the biased variance, then
biased central moments). The source side (``source_stats``) is the same
quantity over a whole dataset, computed prompt-free with the frozen encoder
in chunks of images and accumulated image by image in dataset order, so the
result is independent of the chunk size.

Stats file layout (little-endian):
  magic        8 bytes  b"TDSTATS1"
  model hash   32 bytes (SHA-256 of the checkpoint serialization)
  n_layers     u32
  dim          u32
  max_order    u32
  dataset id   u32 length + UTF-8 bytes
  sample count u64
  body         per layer: the moments of orders 1..max_order (mu, var, then
               central moments), f64[dim] each (layer-major, order-major)
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CompatibilityError, ContractError, DataError, FormatError
from .model import FORWARD_CHUNK

STATS_MAGIC = b"TDSTATS1"


@dataclass
class LayerStats:
    """Per-layer channel statistics as a table of moments of orders 1..K.

    ``moments[1]`` is the mean, ``moments[2]`` the biased variance and
    ``moments[k]``, k >= 3, the biased central moment of order k, each a list
    with one entry per layer: Tensors for a test sample's views, arrays for
    the source data.
    """

    moments: dict[int, list]

    def __post_init__(self):
        if len(self.moments) < 2 or set(self.moments) != set(range(1, len(self.moments) + 1)):
            raise ContractError(
                f"moments must hold orders 1..K with K >= 2, got orders {list(self.moments)}"
            )

    @property
    def mu(self) -> list:
        return self.moments[1]

    @property
    def var(self) -> list:
        return self.moments[2]

    @property
    def max_order(self) -> int:
        return len(self.moments)

    @property
    def n_layers(self) -> int:
        return len(self.mu)

    @property
    def dim(self) -> int:
        return self.mu[0].shape[-1]


@dataclass
class SourceStats(LayerStats):
    """Offline channel statistics of the source dataset (plain arrays)."""

    dataset_id: str
    sample_count: int
    model_hash: str


def _check_max_order(max_order) -> None:
    """Raise ContractError unless ``max_order`` is an int >= 2."""
    try:
        order = operator.index(max_order)
    except TypeError:
        order = 0
    if order < 2:
        raise ContractError(f"max_order must be an int >= 2, got {max_order!r}")


class RunningMoments:
    """Single-pass accumulator of raw power sums per channel.

    Central moments are recovered from the raw sums with the binomial
    expansion, so adding values in a fixed order gives bit-reproducible
    results regardless of how callers batch their data.
    """

    def __init__(self, dim: int, max_order: int = 2):
        _check_max_order(max_order)
        self.dim = dim
        self.max_order = max_order
        self.count = 0
        self._sums = [np.zeros(dim) for _ in range(max_order)]  # sums of x^1..x^K

    def add(self, values: np.ndarray) -> None:
        """Accumulate an (..., dim) block of channel values."""
        flat = np.asarray(values, dtype=np.float64).reshape(-1, self.dim)
        self.count += flat.shape[0]
        p = flat
        self._sums[0] += p.sum(axis=0)
        for j in range(1, self.max_order):
            p = p * flat
            self._sums[j] += p.sum(axis=0)

    def moment(self, order: int) -> np.ndarray:
        """The mean (order 1), the biased variance (order 2) or the biased
        central moment of ``order``."""
        if not 1 <= order <= self.max_order:
            raise ContractError(f"order {order} outside accumulated range")
        mu = self._sums[0] / self.count
        if order == 1:
            return mu
        raw = [np.ones(self.dim)] + [s / self.count for s in self._sums]
        out = np.zeros(self.dim)
        for j in range(order + 1):
            out += math.comb(order, j) * raw[j] * (-mu) ** (order - j)
        # Cancellation can leave a tiny negative residue on constant channels.
        return np.maximum(out, 0.0) if order == 2 else out


def view_stats(layer_tokens, token_indices, max_order: int = 2) -> LayerStats:
    """Channel-wise moments of orders 1..max_order per layer over all views
    and selected tokens: the mean, the biased variance, then biased central
    moments.

    ``layer_tokens`` is the list of (n_views, tokens, dim) tensors a forward
    pass records; ``token_indices`` picks the token positions that contribute
    (the patch positions, upstream). Differentiable w.r.t. anything the
    tokens depend on. Tokens of S prompt sets, (S, n_views, tokens, dim),
    give (S, dim) statistics, one row per set.
    """
    idx = np.asarray(token_indices, dtype=np.intp)
    if idx.size == 0:
        raise ContractError("token mask selects no positions")
    _check_max_order(max_order)
    moments: dict[int, list[Tensor]] = {k: [] for k in range(1, max_order + 1)}
    for x in layer_tokens:
        lead = x.ndim - 3  # 1 with a set axis
        axes = (lead, lead + 1)
        sel = ad.take(x, idx, axis=lead + 1)
        mu = sel.mean(axis=axes)
        dev = sel - (ad.reshape(mu, (mu.shape[0], 1, 1, -1)) if lead else mu)
        moments[1].append(mu)
        power = dev
        for k in range(2, max_order + 1):
            power = power * dev  # dev^k left to right, as RunningMoments.add multiplies
            moments[k].append(power.mean(axis=axes))
    return LayerStats(moments)


def source_stats(
    images: np.ndarray,
    model,
    max_order: int = 2,
    dataset_id: str = "",
) -> SourceStats:
    """Offline prompt-free statistics of a dataset under the frozen encoder.

    Images are forwarded ``FORWARD_CHUNK`` at a time; each image's tokens are
    then added on their own, in dataset order, so the sums do not depend on
    the chunking.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    if images.shape[0] == 0:
        raise DataError("source dataset is empty")

    idx = model.token_indices(prompted=False)
    accs: list[RunningMoments] | None = None
    with ad.no_grad():
        for lo in range(0, images.shape[0], FORWARD_CHUNK):
            _, layer_tokens = model.encode_image(images[lo : lo + FORWARD_CHUNK])
            if accs is None:
                accs = [RunningMoments(t.shape[-1], max_order) for t in layer_tokens]
            for acc, tokens in zip(accs, layer_tokens):
                for image_tokens in tokens.data[:, idx]:
                    acc.add(image_tokens)

    assert accs is not None
    return SourceStats(
        moments={k: [a.moment(k) for a in accs] for k in range(1, max_order + 1)},
        dataset_id=dataset_id,
        sample_count=int(images.shape[0]),
        model_hash=model.frozen_hash(),
    )


# -- serialization ------------------------------------------------------------


def save_stats(stats: SourceStats, path) -> None:
    with open(path, "wb") as fh:
        fh.write(STATS_MAGIC)
        fh.write(bytes.fromhex(stats.model_hash))
        fh.write(struct.pack("<III", stats.n_layers, stats.dim, stats.max_order))
        did = stats.dataset_id.encode()
        fh.write(struct.pack("<I", len(did)))
        fh.write(did)
        fh.write(struct.pack("<Q", stats.sample_count))
        for layer in range(stats.n_layers):
            for k in range(1, stats.max_order + 1):
                fh.write(np.ascontiguousarray(stats.moments[k][layer], dtype="<f8").tobytes())


def load_stats(path, expected_model_hash: str | None = None) -> SourceStats:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read stats file: {exc}") from exc
    off = 0

    def read(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise FormatError("stats file truncated")
        chunk = raw[off : off + n]
        off += n
        return chunk

    if read(8) != STATS_MAGIC:
        raise FormatError("bad stats file magic")
    model_hash = read(32).hex()
    n_layers, dim, max_order = struct.unpack("<III", read(12))
    if n_layers < 1 or dim < 1 or max_order < 2:
        raise FormatError(
            f"bad stats header: n_layers {n_layers}, dim {dim}, max_order {max_order}"
        )
    (did_len,) = struct.unpack("<I", read(4))
    try:
        dataset_id = read(did_len).decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"stats dataset id is not UTF-8: {exc}") from exc
    (sample_count,) = struct.unpack("<Q", read(8))
    body = n_layers * dim * max_order * 8
    if len(raw) - off != body:
        raise FormatError(f"stats body holds {len(raw) - off} bytes, header needs {body}")

    def read_vec() -> np.ndarray:
        return np.frombuffer(read(8 * dim), dtype="<f8").astype(np.float64)

    moments: dict[int, list[np.ndarray]] = {k: [] for k in range(1, max_order + 1)}
    for _ in range(n_layers):
        for k in range(1, max_order + 1):
            moments[k].append(read_vec())

    stats = SourceStats(
        moments=moments,
        dataset_id=dataset_id,
        sample_count=sample_count,
        model_hash=model_hash,
    )
    if expected_model_hash is not None and model_hash != expected_model_hash:
        raise CompatibilityError(
            f"stats were computed for model {model_hash[:12]}..., "
            f"expected {expected_model_hash[:12]}..."
        )
    return stats


def stats_to_json(stats: SourceStats) -> dict:
    """Inspection mirror of the binary stats file."""
    return {
        "format": STATS_MAGIC.decode(),
        "model_hash": stats.model_hash,
        "n_layers": stats.n_layers,
        "dim": stats.dim,
        "max_order": stats.max_order,
        "dataset_id": stats.dataset_id,
        "sample_count": stats.sample_count,
        "layers": [
            {
                {1: "mu", 2: "var"}.get(k, f"m{k}"): stats.moments[k][i].tolist()
                for k in range(1, stats.max_order + 1)
            }
            for i in range(stats.n_layers)
        ],
    }


def write_stats_json(stats: SourceStats, path) -> None:
    with open(path, "w") as fh:
        json.dump(stats_to_json(stats), fh)
        fh.write("\n")
