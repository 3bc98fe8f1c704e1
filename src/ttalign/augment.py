"""Deterministic augmented views of a single test image.

Each view after the first is a random resized crop (area fraction in
[min_scale, 1.0] of the image, aspect ratio log-uniform in [3/4, 4/3],
bilinearly resized back to the input size with corner-aligned sampling)
followed by a horizontal flip with probability 1/2. View ``i`` draws its
parameters from a counter-based Philox stream keyed on ``(seed, i)``, so
views can be generated in any order, or in parallel, without changing the
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .seeds import check_seed, philox

DEFAULT_MIN_SCALE = 0.5
_LOG_ASPECT = (np.log(3.0 / 4.0), np.log(4.0 / 3.0))


@dataclass
class ViewParams:
    """Crop rectangle (top, left, height, width) and flip flag for one view."""

    top: int
    left: int
    height: int
    width: int
    flip: bool


@dataclass
class ViewBatch:
    """All views of one image; views[0] is the unmodified input."""

    views: np.ndarray  # (n_views, C, H, W) float64
    params_log: list[ViewParams] = field(default_factory=list)

    @property
    def n_views(self) -> int:
        return self.views.shape[0]


def _bilinear_resize(crop: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a (C, h, w) crop."""
    _, h, w = crop.shape
    if out_h > 1 and h > 1:
        ys = np.arange(out_h) * (h - 1) / (out_h - 1)
    else:
        ys = np.zeros(out_h)
    if out_w > 1 and w > 1:
        xs = np.arange(out_w) * (w - 1) / (out_w - 1)
    else:
        xs = np.zeros(out_w)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    top = crop[:, y0][:, :, x0] * (1.0 - wx) + crop[:, y0][:, :, x1] * wx
    bot = crop[:, y1][:, :, x0] * (1.0 - wx) + crop[:, y1][:, :, x1] * wx
    return top * (1.0 - wy) + bot * wy


def _sample_view(image: np.ndarray, seed: int, index: int, min_scale: float):
    """Draw one view's params from the (seed, index) Philox stream and apply."""
    _, h, w = image.shape
    rng = philox(seed, index)
    area = rng.uniform(min_scale, 1.0) * h * w
    aspect = np.exp(rng.uniform(*_LOG_ASPECT))
    cw = int(np.clip(round(np.sqrt(area * aspect)), 1, w))
    ch = int(np.clip(round(np.sqrt(area / aspect)), 1, h))
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    flip = bool(rng.integers(0, 2))
    crop = image[:, top : top + ch, left : left + cw]
    view = _bilinear_resize(crop, h, w)
    if flip:
        view = view[:, :, ::-1].copy()
    return view, ViewParams(top, left, ch, cw, flip)


def generate_views(
    image: np.ndarray,
    n_views: int,
    seed: int,
    min_scale: float = DEFAULT_MIN_SCALE,
) -> ViewBatch:
    """Build ``n_views`` views of ``image`` (C, H, W); view 0 is the original.
    The seed is checked even when no view is drawn from it."""
    seed = check_seed(seed)
    if n_views < 1:
        raise ContractError(f"n_views must be >= 1, got {n_views}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ContractError(f"expected (C, H, W) image, got shape {image.shape}")
    views = np.empty((n_views,) + image.shape, dtype=np.float64)
    views[0] = image
    log: list[ViewParams] = []
    for i in range(1, n_views):
        views[i], params = _sample_view(image, seed, i, min_scale)
        log.append(params)
    return ViewBatch(views=views, params_log=log)
