"""Per-layer channel-wise token statistics and their serialized form.

The test-sample side (``view_stats``) is computed inside the differentiable
graph from the token matrices a forward pass records at every transformer
layer: the view axis and the token axis collapse into one channel-wise mean
and one biased variance vector per layer. The source side (``source_stats``)
is the same quantity over a whole dataset, computed prompt-free with the
frozen encoder in chunks of images and accumulated image by image in dataset
order, so the result is independent of the chunk size.

Stats file layout (little-endian):
  magic        8 bytes  b"TDSTATS1"
  model hash   32 bytes (SHA-256 of the checkpoint serialization)
  n_layers     u32
  dim          u32
  max_order    u32
  dataset id   u32 length + UTF-8 bytes
  sample count u64
  body         per layer: mu f64[dim], var f64[dim], then central moments
               of orders 3..max_order, f64[dim] each (layer-major, order-major)
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CompatibilityError, ContractError, DataError, FormatError
from .model import FORWARD_CHUNK

STATS_MAGIC = b"TDSTATS1"


@dataclass
class LayerStats:
    """Differentiable per-layer channel statistics of one test sample's views."""

    mu: list[Tensor]
    var: list[Tensor]
    moments: dict[int, list[Tensor]] = field(default_factory=dict)

    @property
    def n_layers(self) -> int:
        return len(self.mu)

    @property
    def dim(self) -> int:
        return self.mu[0].shape[-1]


@dataclass
class SourceStats:
    """Offline channel statistics of the source dataset (plain arrays)."""

    mu: list[np.ndarray]
    var: list[np.ndarray]
    moments: dict[int, list[np.ndarray]]
    max_order: int
    dataset_id: str
    sample_count: int
    model_hash: str

    @property
    def n_layers(self) -> int:
        return len(self.mu)

    @property
    def dim(self) -> int:
        return self.mu[0].shape[-1]


class RunningMoments:
    """Single-pass accumulator of raw power sums per channel.

    Central moments are recovered from the raw sums with the binomial
    expansion, so adding values in a fixed order gives bit-reproducible
    results regardless of how callers batch their data.
    """

    def __init__(self, dim: int, max_order: int = 2):
        if max_order < 2:
            raise ContractError(f"max_order must be >= 2, got {max_order}")
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

    def mean(self) -> np.ndarray:
        return self._sums[0] / self.count

    def central(self, order: int) -> np.ndarray:
        if not 2 <= order <= self.max_order:
            raise ContractError(f"order {order} outside accumulated range")
        mu = self.mean()
        raw = [np.ones(self.dim)] + [s / self.count for s in self._sums]
        out = np.zeros(self.dim)
        for j in range(order + 1):
            out += math.comb(order, j) * raw[j] * (-mu) ** (order - j)
        return out

    def variance(self) -> np.ndarray:
        # Cancellation can leave a tiny negative residue on constant channels.
        return np.maximum(self.central(2), 0.0)


def view_stats(layer_tokens, token_indices, max_order: int = 2) -> LayerStats:
    """Channel-wise mean/variance per layer over all views and selected tokens.

    ``layer_tokens`` is the list of (n_views, tokens, dim) tensors a forward
    pass records; ``token_indices`` picks the token positions that contribute
    (patch positions by default upstream). Differentiable w.r.t. anything the
    tokens depend on. ``max_order > 2`` additionally fills biased central
    moments of orders 3..max_order.
    """
    idx = np.asarray(token_indices, dtype=np.intp)
    if idx.size == 0:
        raise ContractError("token mask selects no positions")
    if max_order < 2:
        raise ContractError(f"max_order must be >= 2, got {max_order}")
    mus, variances = [], []
    moments: dict[int, list[Tensor]] = {k: [] for k in range(3, max_order + 1)}
    for x in layer_tokens:
        sel = ad.take(x, idx, axis=1)
        mu = sel.mean(axis=(0, 1))
        dev = sel - mu
        mus.append(mu)
        variances.append((dev * dev).mean(axis=(0, 1)))
        for k in range(3, max_order + 1):
            moments[k].append(ad.power(dev, k).mean(axis=(0, 1)))
    return LayerStats(mu=mus, var=variances, moments=moments)


def central_moments(layer_tokens, token_indices, max_order: int) -> dict[int, list[Tensor]]:
    """Biased central moments of orders 2..max_order per layer and channel."""
    if max_order < 2:
        raise ContractError(f"max_order must be >= 2, got {max_order}")
    stats = view_stats(layer_tokens, token_indices, max_order=max_order)
    return {2: stats.var, **stats.moments}


def source_stats(
    images: np.ndarray,
    model,
    max_order: int = 2,
    dataset_id: str = "",
    include_cls: bool = False,
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

    idx = model.token_indices(prompted=False, include_cls=include_cls)
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
        mu=[a.mean() for a in accs],
        var=[a.variance() for a in accs],
        moments={
            k: [a.central(k) for a in accs] for k in range(3, max_order + 1)
        },
        max_order=max_order,
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
            fh.write(np.ascontiguousarray(stats.mu[layer], dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(stats.var[layer], dtype="<f8").tobytes())
            for k in range(3, stats.max_order + 1):
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
    (did_len,) = struct.unpack("<I", read(4))
    dataset_id = read(did_len).decode()
    (sample_count,) = struct.unpack("<Q", read(8))

    def read_vec() -> np.ndarray:
        return np.frombuffer(read(8 * dim), dtype="<f8").astype(np.float64)

    mu, var = [], []
    moments: dict[int, list[np.ndarray]] = {k: [] for k in range(3, max_order + 1)}
    for _ in range(n_layers):
        mu.append(read_vec())
        var.append(read_vec())
        for k in range(3, max_order + 1):
            moments[k].append(read_vec())
    if off != len(raw):
        raise FormatError("trailing bytes after stats payload")

    stats = SourceStats(
        mu=mu,
        var=var,
        moments=moments,
        max_order=max_order,
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
                "mu": stats.mu[i].tolist(),
                "var": stats.var[i].tolist(),
                **{
                    f"m{k}": stats.moments[k][i].tolist()
                    for k in range(3, stats.max_order + 1)
                },
            }
            for i in range(stats.n_layers)
        ],
    }


def write_stats_json(stats: SourceStats, path) -> None:
    with open(path, "w") as fh:
        json.dump(stats_to_json(stats), fh)
        fh.write("\n")
