"""Experiment harness: synthetic domain-shift data, evaluation, ablations.

Dataset directory layout (little-endian):
  meta.txt    key=value lines (n_samples, channels, height, width, n_classes,
              class_names comma-separated, split)
  images.f32  float32 sample-major C*H*W buffers
  labels.u32  uint32 labels

Evaluation writes three files: ``records.jsonl`` (one record per sample),
``summary.json`` (aggregates and the config echo; fully deterministic under a
fixed seed), and ``timing.json`` (wall-clock numbers and the BLAS kernel and
thread count, deliberately kept out of the deterministic artifacts). The
deterministic files are byte-identical across reruns, ``workers`` counts and
BLAS thread counts on one BLAS kernel; another kernel may change their last
bits.
"""

from __future__ import annotations

import ctypes
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CompatibilityError, ConfigurationError, ContractError, DataError, FormatError
from .model import DEFAULT_CLASS_NAMES, DualEncoder, ModelConfig, PromptState, predict
from .seeds import philox
from .stats import SourceStats
from .tta import EpisodeResult, TTAConfig, adapt_and_predict

REPORT_SCHEMA_VERSION = 1
SHIFT_KINDS = ("mean-offset", "contrast-scale", "blur", "mixture")


# -- synthetic data -------------------------------------------------------------


@dataclass(frozen=True)
class ShiftSpec:
    """Distribution shift applied to the test split; magnitude 0 is identity."""

    kind: str = "mean-offset"
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ContractError(f"unknown shift kind {self.kind!r}")
        if self.magnitude < 0:
            raise ContractError(f"shift magnitude must be >= 0, got {self.magnitude}")


@dataclass(frozen=True)
class GenConfig:
    """Synthetic grating dataset: one (orientation, frequency) pair per class."""

    n_source: int = 512
    n_test: int = 256
    image_size: int = 32
    channels: int = 1
    class_names: tuple[str, ...] = DEFAULT_CLASS_NAMES
    noise_sigma: float = 0.25
    amplitude: float = 1.0
    shift: ShiftSpec = ShiftSpec()

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass
class DatasetMeta:
    n_samples: int
    channels: int
    height: int
    width: int
    n_classes: int
    class_names: tuple[str, ...]
    split: str


@dataclass
class DatasetBundle:
    meta: DatasetMeta
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) uint32

    def __post_init__(self):
        n = self.meta.n_samples
        expect = (n, self.meta.channels, self.meta.height, self.meta.width)
        if self.images.shape != expect:
            raise DataError(f"images shape {self.images.shape} != meta {expect}")
        if self.labels.shape != (n,):
            raise DataError(f"labels shape {self.labels.shape} != ({n},)")
        if n and int(self.labels.max()) >= self.meta.n_classes:
            raise DataError("label out of range")
        if not np.isfinite(self.images).all():
            raise DataError("images hold a non-finite pixel (NaN or inf)")


def _grating_bank(n_classes: int):
    """Per-class (angle, cycles) pairs: four orientations at two frequencies."""
    angles = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    pairs = []
    for k in range(n_classes):
        pairs.append((angles[k % 4], 3.0 if k < 4 else 6.0))
    return pairs


def _render_class_images(rng, labels, config: GenConfig) -> np.ndarray:
    size = config.image_size
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    bank = _grating_bank(config.n_classes)
    out = np.empty((len(labels), config.channels, size, size), dtype=np.float64)
    for i, label in enumerate(labels):
        angle, cycles = bank[int(label)]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * cycles * (xx * np.cos(angle) + yy * np.sin(angle)) + phase)
        noise = rng.normal(0.0, config.noise_sigma, (config.channels, size, size))
        out[i] = config.amplitude * wave[None] + noise
    return out


def apply_shift(images: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Apply a deterministic distribution shift; magnitude 0 returns a copy."""
    imgs = np.asarray(images, dtype=np.float64).copy()
    m = spec.magnitude
    if spec.kind == "mean-offset":
        return imgs + m
    if spec.kind == "contrast-scale":
        return imgs / (1.0 + m)
    if spec.kind == "blur":
        return _box_blur_mix(imgs, min(m, 1.0))
    # mixture: half-strength offset and contrast plus a mild blur
    imgs = imgs + 0.5 * m
    imgs = imgs / (1.0 + 0.5 * m)
    return _box_blur_mix(imgs, min(0.5 * m, 1.0))


def _box_blur_mix(imgs: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return imgs
    padded = np.pad(imgs, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    acc = np.zeros_like(imgs)
    for dy in range(3):
        for dx in range(3):
            acc += padded[:, :, dy : dy + imgs.shape[2], dx : dx + imgs.shape[3]]
    return (1.0 - alpha) * imgs + alpha * (acc / 9.0)


def _draw(
    config: GenConfig, seed: int, stream: int, n: int, split: str, shift: ShiftSpec | None
) -> DatasetBundle:
    """``n`` images from Philox stream ``(seed, stream)``, labels cycling classes."""
    rng = philox(seed, stream)
    labels = np.arange(n, dtype=np.uint32) % config.n_classes
    images = _render_class_images(rng, labels, config)
    if shift is not None:
        images = apply_shift(images, shift)
    meta = DatasetMeta(
        n_samples=n,
        channels=config.channels,
        height=config.image_size,
        width=config.image_size,
        n_classes=config.n_classes,
        class_names=tuple(config.class_names),
        split=split,
    )
    return DatasetBundle(meta=meta, images=images.astype(np.float32), labels=labels)


def gen_synthetic(config: GenConfig, seed: int) -> tuple[DatasetBundle, DatasetBundle]:
    """Generate a (source, shifted-test) bundle pair, fully seed-determined."""
    if config.n_classes < 2:
        raise ContractError("need at least 2 classes")
    source = _draw(config, seed, 0, config.n_source, "source-train", None)
    test = _draw(config, seed, 1, config.n_test, "test-shifted", config.shift)
    return source, test


def gen_source_val(config: GenConfig, seed: int) -> DatasetBundle:
    """An independent source-distribution draw, tagged as the validation split."""
    return _draw(config, seed, 2, config.n_test, "source-val", None)


# -- dataset files ------------------------------------------------------------


def save_dataset(bundle: DatasetBundle, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    meta = bundle.meta
    lines = [
        f"n_samples={meta.n_samples}",
        f"channels={meta.channels}",
        f"height={meta.height}",
        f"width={meta.width}",
        f"n_classes={meta.n_classes}",
        f"class_names={','.join(meta.class_names)}",
        f"split={meta.split}",
    ]
    with open(os.path.join(directory, "meta.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    bundle.images.astype("<f4").tofile(os.path.join(directory, "images.f32"))
    bundle.labels.astype("<u4").tofile(os.path.join(directory, "labels.u32"))


def load_dataset(directory) -> DatasetBundle:
    try:
        with open(os.path.join(directory, "meta.txt")) as fh:
            kv = dict(line.strip().split("=", 1) for line in fh if "=" in line)
        images = np.fromfile(os.path.join(directory, "images.f32"), dtype="<f4")
        labels = np.fromfile(os.path.join(directory, "labels.u32"), dtype="<u4")
    except OSError as exc:
        raise FormatError(f"cannot read dataset {directory}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"meta.txt is not UTF-8: {exc}") from exc
    try:
        meta = DatasetMeta(
            n_samples=int(kv["n_samples"]),
            channels=int(kv["channels"]),
            height=int(kv["height"]),
            width=int(kv["width"]),
            n_classes=int(kv["n_classes"]),
            class_names=tuple(kv["class_names"].split(",")),
            split=kv.get("split", ""),
        )
    except KeyError as exc:
        raise FormatError(f"meta.txt missing key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"meta.txt has a malformed value: {exc}") from exc
    if meta.n_samples < 0 or min(meta.channels, meta.height, meta.width) < 1:
        raise FormatError(
            f"meta.txt needs n_samples >= 0 and channels, height, width >= 1, got "
            f"{meta.n_samples}, {meta.channels}, {meta.height}, {meta.width}"
        )
    if meta.n_classes != len(meta.class_names):
        raise FormatError(
            f"meta.txt n_classes={meta.n_classes} but it names {len(meta.class_names)} classes"
        )
    expect = meta.n_samples * meta.channels * meta.height * meta.width
    if images.size != expect:
        raise FormatError(f"images.f32 holds {images.size} floats, expected {expect}")
    if labels.size != meta.n_samples:
        raise FormatError(f"labels.u32 holds {labels.size} labels, expected {meta.n_samples}")
    return DatasetBundle(
        meta=meta,
        images=images.reshape(meta.n_samples, meta.channels, meta.height, meta.width),
        labels=labels,
    )


def check_dataset_fits(config: ModelConfig, meta: DatasetMeta) -> None:
    """Raise CompatibilityError unless the dataset has the image size,
    channels and class names the model was built for."""
    pairs = (
        ("image size", (meta.height, meta.width), (config.image_size, config.image_size)),
        ("channels", meta.channels, config.channels),
        ("class names", meta.class_names, config.class_names),
    )
    wrong = [f"{name} {got} (model: {want})" for name, got, want in pairs if got != want]
    if wrong:
        raise CompatibilityError("dataset does not fit the model: " + "; ".join(wrong))


# -- evaluation ----------------------------------------------------------------


@dataclass
class EvalReport:
    records: list[dict]
    top1: float
    mean_entropy_loss: float
    mean_align_loss: float
    mean_final_loss: float
    config: dict
    seed: int
    n_samples: int
    runtime_s: float

    def summary_dict(self) -> dict:
        """Deterministic aggregate view (timing excluded by design)."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "top1": self.top1,
            "mean_entropy_loss": self.mean_entropy_loss,
            "mean_align_loss": self.mean_align_loss,
            "mean_final_loss": self.mean_final_loss,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "config": self.config,
        }


_U64 = (1 << 64) - 1


def _mix_seed(seed: int, index: int) -> int:
    """SplitMix64 of (seed, index): a stable per-sample augmentation seed."""
    z = (seed * 0x9E3779B97F4A7C15 + index) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    z = z ^ (z >> 31)
    return z & ((1 << 63) - 1)


def _record(index: int, label: int, episode: EpisodeResult) -> dict:
    return {
        "index": index,
        "label": label,
        "predicted": episode.predicted,
        "correct": bool(episode.predicted == label),
        "probs": [float(p) for p in episode.probs],
        "entropy_losses": episode.entropy_losses,
        "align_losses": episode.align_losses,
        "final_losses": episode.final_losses,
        "kept_views": episode.kept_views,
    }


def run_eval(
    model: DualEncoder,
    dataset: DatasetBundle,
    stats: SourceStats | None,
    config: TTAConfig,
    prompt_seed: int = 0,
    workers: int = 1,
    limit: int | None = None,
) -> EvalReport:
    """Adapt-and-predict over a dataset and aggregate Top-1 accuracy.

    Every episode resets the prompts, so samples are independent and may run
    on ``workers`` threads; results are collected by sample index and are
    identical for any worker count. Needs ``limit`` None or >= 0 and
    ``workers >= 1``.
    """
    if limit is not None and limit < 0:
        raise ConfigurationError(f"limit must be >= 0, got {limit}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    n = dataset.meta.n_samples if limit is None else min(limit, dataset.meta.n_samples)
    images = dataset.images[:n].astype(np.float64)
    labels = dataset.labels[:n].astype(np.int64)

    def one(i: int) -> EpisodeResult:
        prompts = PromptState(model.config, seed=prompt_seed)
        return adapt_and_predict(
            images[i], model, prompts, stats, config, view_seed=_mix_seed(config.seed, i)
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            episodes = list(pool.map(one, range(n)))
    else:
        episodes = [one(i) for i in range(n)]

    records = [_record(i, int(labels[i]), ep) for i, ep in enumerate(episodes)]
    correct = sum(r["correct"] for r in records)

    def mean_of(key: str) -> float:
        vals = [v for r in records for v in r[key]]
        return float(np.mean(vals)) if vals else 0.0

    return EvalReport(
        records=records,
        top1=correct / n if n else 0.0,
        mean_entropy_loss=mean_of("entropy_losses"),
        mean_align_loss=mean_of("align_losses"),
        mean_final_loss=mean_of("final_losses"),
        config=asdict(config),
        seed=config.seed,
        n_samples=n,
        runtime_s=time.perf_counter() - t0,
    )


def zero_shot_top1(model: DualEncoder, dataset: DatasetBundle,
                   prompt_seed: int | None = 0, limit: int | None = None) -> float:
    """Frozen-model accuracy without any adaptation (prompts at init if given)."""
    if limit is not None and limit < 0:
        raise ConfigurationError(f"limit must be >= 0, got {limit}")
    n = dataset.meta.n_samples if limit is None else min(limit, dataset.meta.n_samples)
    prompts = PromptState(model.config, seed=prompt_seed) if prompt_seed is not None else None
    preds = predict(model, dataset.images[:n].astype(np.float64), prompts)
    return float(np.mean(preds == dataset.labels[:n].astype(np.int64)))


def blas_runtime() -> dict:
    """The core name and thread count of numpy's bundled OpenBLAS, both None
    where the loaded library cannot be asked."""
    unknown = {"blas_core": None, "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return unknown
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            core = lib.scipy_openblas_get_corename64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        core.argtypes, core.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        name = core()
        return {"blas_core": name.decode("ascii", "replace") if name else None,
                "blas_threads": int(threads())}
    return unknown


def write_report(report: EvalReport, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "records.jsonl"), "w") as fh:
        for record in report.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(os.path.join(directory, "summary.json"), "w") as fh:
        json.dump(report.summary_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(directory, "timing.json"), "w") as fh:
        json.dump({"runtime_s": report.runtime_s, "n_samples": report.n_samples,
                   **blas_runtime()}, fh)
        fh.write("\n")


# -- ablations ------------------------------------------------------------------


ABLATION_AXES = ("beta", "n_views", "n_steps", "align_loss", "align_layers")


def run_ablation(
    model: DualEncoder,
    dataset: DatasetBundle,
    stats: SourceStats | None,
    base_config: TTAConfig,
    axis: str,
    values,
    prompt_seed: int = 0,
    workers: int = 1,
    limit: int | None = None,
) -> dict:
    """Sweep exactly one config axis; returns rows plus the full reports."""
    if not isinstance(axis, str) or axis not in ABLATION_AXES:
        raise ContractError(
            f"ablation sweeps exactly one of {ABLATION_AXES}, got {axis!r}"
        )
    values = list(values)
    if not values:
        raise ContractError("ablation needs at least one value")

    rows = []
    reports = []
    for value in values:
        cfg = replace(base_config, **{axis: value})
        report = run_eval(
            model, dataset, stats, cfg, prompt_seed=prompt_seed, workers=workers, limit=limit
        )
        per_sample = report.runtime_s / max(report.n_samples, 1)
        rows.append(
            {
                "axis": axis,
                "value": value if not isinstance(value, tuple) else list(value),
                "top1": report.top1,
                "mean_entropy_loss": report.mean_entropy_loss,
                "mean_align_loss": report.mean_align_loss,
                "mean_final_loss": report.mean_final_loss,
                "latency_per_sample_s": per_sample,
            }
        )
        reports.append(report)
    return {"axis": axis, "rows": rows, "reports": reports}


def write_ablation(result: dict, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    table = {"axis": result["axis"], "rows": result["rows"]}
    with open(os.path.join(directory, "ablation.json"), "w") as fh:
        json.dump(table, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for row, report in zip(result["rows"], result["reports"]):
        tag = str(row["value"]).replace(" ", "").replace("/", "-")
        write_report(report, os.path.join(directory, f"{result['axis']}={tag}"))


def format_ablation_table(result: dict) -> str:
    header = f"{'value':>16} {'top1':>8} {'ent':>10} {'align':>10} {'final':>10} {'s/sample':>10}"
    lines = [f"axis: {result['axis']}", header]
    for row in result["rows"]:
        lines.append(
            f"{str(row['value']):>16} {row['top1']:>8.4f} {row['mean_entropy_loss']:>10.4f} "
            f"{row['mean_align_loss']:>10.4f} {row['mean_final_loss']:>10.4f} "
            f"{row['latency_per_sample_s']:>10.4f}"
        )
    return "\n".join(lines)
