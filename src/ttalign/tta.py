"""Test-time adaptation engine.

Per test sample: generate augmented views, keep the most confident
predictions (lowest entropy) for the averaged-entropy loss, compute the
token-statistics alignment loss against precomputed source statistics over
*all* views, and update the prompt parameters on the combined objective.
Each step tapes only what that objective reads: the blocks up to the deepest
aligned layer over all views, and the blocks above it over the kept views.
Episodic mode resets the prompts before every sample; continuous mode lets
them persist, optionally pulled back toward their previous value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .augment import DEFAULT_MIN_SCALE, generate_views
from .errors import CompatibilityError, ConfigurationError, ContractError
from .model import DualEncoder, ModelConfig, PromptState, classify
from .optim import make_optimizer
from .stats import LayerStats, SourceStats, source_stats, view_stats

ALIGN_VARIANTS = ("l1", "l2", "kl")
KL_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class TTAConfig:
    """Every adaptation hyperparameter; defaults follow the reference recipe."""

    beta: float = 100.0
    n_views: int = 64
    filter_ratio: float = 0.10
    learning_rate: float = 5e-4
    n_steps: int = 1
    align_layers: tuple[int, ...] = (1, 2, 3)
    align_loss: str = "l1"  # "l1" | "l2" | "kl" | "cmd-K"
    mode: str = "episodic"  # "episodic" | "continuous"
    prompt_reg_lambda: float = 0.0
    optimizer: str = "adamw"  # "adamw" | "sgd"
    weight_decay: float = 0.0
    seed: int = 0
    update_coupling: bool = True
    include_cls_in_stats: bool = False
    crop_min_scale: float = DEFAULT_MIN_SCALE

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigurationError(f"beta must be finite and >= 0, got {self.beta}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        for name in ("weight_decay", "prompt_reg_lambda"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 < self.crop_min_scale <= 1.0:
            raise ConfigurationError(
                f"crop_min_scale must be in (0, 1], got {self.crop_min_scale}"
            )
        if not 0.0 < self.filter_ratio <= 1.0:
            raise ConfigurationError(f"filter_ratio must be in (0, 1], got {self.filter_ratio}")
        if self.n_views < 1:
            raise ConfigurationError(f"n_views must be >= 1, got {self.n_views}")
        if self.n_steps < 0:
            raise ConfigurationError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.mode not in ("episodic", "continuous"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.optimizer not in ("adamw", "sgd"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        parse_align_variant(self.align_loss)
        object.__setattr__(self, "align_layers", tuple(self.align_layers))
        if not self.align_layers:
            raise ConfigurationError("align_layers must name at least one layer")


def parse_align_variant(name: str) -> tuple[str, int]:
    """Split an alignment-loss name into (kind, max_order)."""
    low = name.lower()
    if low in ALIGN_VARIANTS:
        return low, 2
    if low.startswith("cmd-"):
        try:
            order = int(low[4:])
        except ValueError:
            order = 0
        if order < 3:
            raise ConfigurationError(f"cmd variant needs an order >= 3, got {name!r}")
        return "cmd", order
    raise ConfigurationError(f"unknown alignment loss {name!r}")


@dataclass
class EpisodeResult:
    """Outcome of adapting to one test sample."""

    predicted: int
    probs: np.ndarray
    entropy_losses: list[float] = field(default_factory=list)
    align_losses: list[float] = field(default_factory=list)
    final_losses: list[float] = field(default_factory=list)
    kept_views: list[list[int]] = field(default_factory=list)
    wall_time_s: float = 0.0


# -- losses -------------------------------------------------------------------


def shannon_entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Entropy in nats with the 0*log(0) := 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -np.sum(terms, axis=axis)


def kept_count(n: int, ratio: float) -> int:
    """How many of ``n`` views the confidence filter keeps: max(1, floor(ratio * n))."""
    return max(1, int(np.floor(ratio * n)))


def confidence_filter(view_probs: np.ndarray, ratio: float) -> np.ndarray:
    """Indices of the ``kept_count(N, ratio)`` lowest-entropy rows.

    Ties break toward the lower view index; the returned indices are sorted
    ascending, so ratio = 1.0 yields all view indices in order.
    """
    probs = np.asarray(view_probs, dtype=np.float64)
    keep = kept_count(probs.shape[0], ratio)
    entropies = shannon_entropy(probs)
    chosen = np.argsort(entropies, kind="stable")[:keep]
    return np.sort(chosen)


def entropy_loss(view_probs: Tensor, kept_indices: np.ndarray) -> Tensor:
    """Entropy of the mean class distribution over the kept views."""
    kept = np.asarray(kept_indices, dtype=np.intp)
    if kept.size == 0:
        raise ContractError("entropy_loss needs at least one kept view")
    p_bar = ad.take(view_probs, kept, axis=0).mean(axis=0)
    return -ad.tsum(ad.plogp(p_bar))


def align_loss(
    test: LayerStats,
    source: SourceStats,
    layers,
    variant: str = "l1",
) -> Tensor:
    """Distance between test-view statistics and source statistics.

    l1:    per layer, sum of |mu - mu_hat| plus |var - var_hat| over channels.
    l2:    the same with squared differences.
    kl:    channels treated as univariate Gaussians; forward KL(test || source)
           averaged over channels (variances floored at 1e-12).
    cmd-K: the l1 terms plus |m_k - m_hat_k| for central moments k = 3..K.
    All variants average over the selected layers.
    """
    kind, order = parse_align_variant(variant)
    layers = tuple(layers)
    if not layers:
        raise ContractError("align_loss needs at least one layer")
    for l in layers:
        if not 1 <= l <= test.n_layers or l > source.n_layers:
            raise ContractError(
                f"layer {l} outside stats range (test {test.n_layers}, source {source.n_layers})"
            )
    if test.dim != source.dim:
        raise ContractError(f"stat dims differ: test {test.dim} vs source {source.dim}")
    if kind == "cmd":
        if source.max_order < order or any(k not in test.moments for k in range(3, order + 1)):
            raise ContractError(
                f"cmd-{order} needs central moments up to order {order} on both sides"
            )

    total = None
    for l in layers:
        i = l - 1
        mu_t, var_t = test.mu[i], test.var[i]
        mu_s = Tensor(source.mu[i])
        if kind == "l1":
            term = ad.tsum(ad.absolute(mu_t - mu_s)) + ad.tsum(
                ad.absolute(var_t - Tensor(source.var[i]))
            )
        elif kind == "l2":
            dm = mu_t - mu_s
            dv = var_t - Tensor(source.var[i])
            term = ad.tsum(dm * dm) + ad.tsum(dv * dv)
        elif kind == "kl":
            vt = ad.clip_min(var_t, KL_VAR_FLOOR)
            vs = Tensor(np.maximum(source.var[i], KL_VAR_FLOOR))
            dm = mu_t - mu_s
            term = ad.tmean(0.5 * (ad.log(vs) - ad.log(vt)) + (vt + dm * dm) / (2.0 * vs) - 0.5)
        else:  # cmd
            term = ad.tsum(ad.absolute(mu_t - mu_s)) + ad.tsum(
                ad.absolute(var_t - Tensor(source.var[i]))
            )
            for k in range(3, order + 1):
                term = term + ad.tsum(
                    ad.absolute(test.moments[k][i] - Tensor(source.moments[k][i]))
                )
        total = term if total is None else total + term
    return total / float(len(layers))


def combined_loss(l_entropy: Tensor, l_align: Tensor | None, beta: float) -> Tensor:
    """Final objective: entropy plus beta-scaled alignment.

    With beta == 0 (or no alignment term) the entropy loss is returned
    unchanged, so the engine collapses bit-exactly onto the entropy-only path.
    """
    if beta == 0.0 or l_align is None:
        return l_entropy
    return l_entropy + beta * l_align


# -- the episode loop -----------------------------------------------------------


def _check_stats(model: DualEncoder, stats: SourceStats | None, config: TTAConfig) -> None:
    if config.beta > 0.0:
        if stats is None:
            raise ContractError("beta > 0 requires source statistics")
        if stats.model_hash != model.frozen_hash():
            raise CompatibilityError(
                f"source stats built for model {stats.model_hash[:12]}..., "
                f"current model is {model.frozen_hash()[:12]}..."
            )
    max_l = model.config.n_vision_layers
    for l in config.align_layers:
        if not 1 <= l <= max_l:
            raise ConfigurationError(f"align layer {l} outside 1..{max_l}")


def adapt_and_predict(
    image: np.ndarray,
    model: DualEncoder,
    prompts: PromptState,
    source_stats: SourceStats | None,
    config: TTAConfig,
    view_seed: int | None = None,
    optimizer=None,
) -> EpisodeResult:
    """Adapt the prompts to one test image and return the final prediction.

    Each step splits the vision encoder at layer h, the deepest aligned layer
    (h = 0, right after the embedding, when ``beta == 0``). Blocks 1..h run
    taped over all views and feed the alignment statistics. Blocks h+1..L
    first run untaped over all views to rank them for the confidence filter
    (skipped when the filter keeps every view), then run taped from the
    layer-h tokens of the kept views only, which feed the entropy loss.
    ``optimizer`` lets continuous mode persist optimizer state across
    samples; episodic callers leave it None for a fresh one.
    """
    t0 = time.perf_counter()
    _check_stats(model, source_stats, config)
    if config.mode == "episodic":
        prompts.reset()
    seed = config.seed if view_seed is None else view_seed

    params = prompts.parameters(include_coupling=config.update_coupling)
    if optimizer is None:
        optimizer = make_optimizer(
            config.optimizer, params, config.learning_rate, config.weight_decay
        )
    kind, order = parse_align_variant(config.align_loss)
    reg_snapshot = None
    if config.mode == "continuous" and config.prompt_reg_lambda > 0.0:
        reg_snapshot = [p.data.copy() for p in params]

    result = EpisodeResult(predicted=-1, probs=np.empty(0))
    if config.n_steps > 0:
        views = generate_views(image, config.n_views, seed, config.crop_min_scale).views
        n_layers = model.config.n_vision_layers
        split = max(config.align_layers) if config.beta > 0.0 else 0
        rank_views = kept_count(config.n_views, config.filter_ratio) < config.n_views
        for _ in range(config.n_steps):
            x_split, layer_tokens = model.run_blocks(
                model.embed_image(views, prompts), 0, split, prompts
            )
            text_feats = model.encode_text(prompts=prompts)
            kept = np.arange(config.n_views)
            if rank_views:
                with ad.no_grad():
                    x_top, _ = model.run_blocks(x_split, split, n_layers, prompts)
                    ranking = classify(model.image_head(x_top), text_feats, model.temperature)
                kept = confidence_filter(ranking.data, config.filter_ratio)
            x_top, _ = model.run_blocks(ad.take(x_split, kept), split, n_layers, prompts)
            probs = classify(model.image_head(x_top), text_feats, model.temperature)
            l_ent = entropy_loss(probs, np.arange(kept.size))
            l_align = None
            if config.beta > 0.0:
                token_idx = model.token_indices(
                    prompted=True, include_cls=config.include_cls_in_stats
                )
                tstats = view_stats(
                    layer_tokens, token_idx, max_order=order if kind == "cmd" else 2
                )
                l_align = align_loss(tstats, source_stats, config.align_layers, config.align_loss)
            l_final = combined_loss(l_ent, l_align, config.beta)
            if reg_snapshot is not None:
                penalty = None
                for p, prev in zip(params, reg_snapshot):
                    d = p - Tensor(prev)
                    term = ad.tsum(d * d)
                    penalty = term if penalty is None else penalty + term
                l_final = l_final + config.prompt_reg_lambda * penalty

            optimizer.zero_grad()
            ad.backward(l_final)
            optimizer.step()

            result.entropy_losses.append(l_ent.item())
            result.align_losses.append(l_align.item() if l_align is not None else 0.0)
            result.final_losses.append(l_final.item())
            result.kept_views.append([int(i) for i in kept])

    with ad.no_grad():
        feat, _ = model.encode_image(image, prompts)
        text_feats = model.encode_text(prompts=prompts)
        final_probs = classify(ad.reshape(feat, (1, -1)), text_feats, model.temperature)
    result.probs = final_probs.data[0].copy()
    result.predicted = int(np.argmax(result.probs))
    result.wall_time_s = time.perf_counter() - t0
    return result


def continuous_adapt(
    images,
    model: DualEncoder,
    prompts: PromptState,
    source_stats: SourceStats | None,
    config: TTAConfig,
    view_seeds=None,
) -> list[EpisodeResult]:
    """Adapt over a stream without resetting; optimizer state persists too."""
    if config.mode != "continuous":
        raise ContractError("continuous_adapt requires mode='continuous'")
    images = np.asarray(images, dtype=np.float64)
    if view_seeds is None:
        view_seeds = [config.seed + i for i in range(images.shape[0])]
    optimizer = make_optimizer(
        config.optimizer,
        prompts.parameters(include_coupling=config.update_coupling),
        config.learning_rate,
        config.weight_decay,
    )
    return [
        adapt_and_predict(
            img, model, prompts, source_stats, config,
            view_seed=seed, optimizer=optimizer,
        )
        for img, seed in zip(images, view_seeds)
    ]


# -- gradient diagnostics ---------------------------------------------------------


GRADCHECK_CONFIG = ModelConfig(
    image_size=16,
    channels=1,
    patch_size=8,
    embed_dim_v=16,
    embed_dim_t=16,
    feature_dim=16,
    n_vision_layers=3,
    n_text_layers=2,
    n_heads=2,
    mlp_ratio=2,
    n_prompt_tokens=2,
    prompt_depth=2,
    class_names=("ripple", "checker", "grid"),
)


def gradient_suite(
    n_episodes: int = 20,
    seed: int = 0,
    config: ModelConfig | None = None,
    n_views: int = 4,
    beta: float = 100.0,
    step: float = 1e-5,
) -> dict[str, float]:
    """Finite-difference check of every loss the engine optimizes.

    Builds a small random frozen model, then for each episode compares the
    analytic gradients of the entropy loss, each alignment variant, and the
    combined objective w.r.t. every prompt and coupling entry against central
    differences. Prompt and coupling values are drawn at a generic scale
    (rather than the tiny adaptation init, whose near-zero gradient entries
    sit at the float64 finite-difference noise floor), the kept-view set is
    fixed at the base point, and episodes whose L1 deviations or
    entropy-ranking margins sit too close to a kink are redrawn. Returns the
    max relative error per loss.
    """
    cfg = config or GRADCHECK_CONFIG
    mdl = DualEncoder(cfg, seed=seed)
    mdl.freeze()
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(3)]))

    src_images = rng.normal(0.0, 1.0, (4, cfg.channels, cfg.image_size, cfg.image_size))
    src = source_stats(src_images, mdl, max_order=5, dataset_id="gradcheck")
    token_idx = mdl.token_indices(prompted=True)

    worst = {
        "entropy": 0.0, "align_l1": 0.0, "align_l2": 0.0,
        "align_kl": 0.0, "align_cmd5": 0.0, "final": 0.0,
    }
    episode = 0
    attempts = 0
    while episode < n_episodes:
        attempts += 1
        if attempts > 20 * n_episodes:
            raise RuntimeError("could not sample kink-free gradient-check episodes")
        prompts = PromptState(cfg, seed=int(rng.integers(0, 2**31)))
        for p in prompts.parameters():
            p.data = rng.normal(0.0, 0.2, p.data.shape)
        image = rng.normal(0.0, 1.0, (cfg.channels, cfg.image_size, cfg.image_size))
        views = generate_views(image, n_views, int(rng.integers(0, 2**31))).views
        params = prompts.parameters()
        layers = tuple(range(1, cfg.n_vision_layers + 1))

        # Fix the kept set at the base point and reject borderline rankings or
        # L1 kinks, so finite differences never step across a non-smooth point.
        with ad.no_grad():
            feats, layer_tokens = mdl.encode_image(views, prompts)
            text_feats = mdl.encode_text(prompts=prompts)
            probs = classify(feats, text_feats, mdl.temperature)
            ent = np.sort(shannon_entropy(probs.data))
            keep = max(1, int(np.floor(0.25 * n_views)))
            if len(ent) > keep and ent[keep] - ent[keep - 1] < 1e-6:
                continue
            kept = confidence_filter(probs.data, 0.25)
            tstats = view_stats(layer_tokens, token_idx, max_order=5)
            margins = [
                np.min(np.abs(tstats.mu[i].data - src.mu[i])) for i in range(len(src.mu))
            ] + [
                np.min(np.abs(tstats.var[i].data - src.var[i])) for i in range(len(src.var))
            ] + [
                np.min(np.abs(tstats.moments[k][i].data - src.moments[k][i]))
                for k in (3, 4, 5)
                for i in range(len(src.mu))
            ]
            if min(margins) < 1e-6:
                continue

        def losses(kept=kept) -> dict[str, Tensor]:
            feats, layer_tokens = mdl.encode_image(views, prompts)
            text_feats = mdl.encode_text(prompts=prompts)
            probs = classify(feats, text_feats, mdl.temperature)
            l_ent = entropy_loss(probs, kept)
            tstats = view_stats(layer_tokens, token_idx, max_order=5)
            out = {
                "entropy": l_ent,
                "align_l1": align_loss(tstats, src, layers, "l1"),
                "align_l2": align_loss(tstats, src, layers, "l2"),
                "align_kl": align_loss(tstats, src, layers, "kl"),
                "align_cmd5": align_loss(tstats, src, layers, "cmd-5"),
            }
            out["final"] = combined_loss(l_ent, out["align_l1"], beta)
            return out

        # Gradient entries several orders below a loss's own scale sit inside
        # the float64 central-difference noise envelope (rounding
        # ~|loss|*eps/step, truncation ~step^2 on the sharpest
        # temperature-scaled directions), so hold those to loss-scaled
        # absolute agreement and everything above the floor to the plain
        # 1e-4 relative comparison.
        base = losses()
        floors = {name: max(1e-8, 2e-3 * max(1.0, abs(v.item()))) for name, v in base.items()}

        # The combined objective must also be an exact linear combination on
        # the tape, which pins its gradient beyond what FD can resolve.
        g_final = ad.backward(base["final"])
        g_ent = ad.backward(losses()["entropy"])
        g_l1 = ad.backward(losses()["align_l1"])
        for p in params:
            lin = g_ent.get(p, 0.0) + beta * g_l1.get(p, 0.0)
            if np.max(np.abs(g_final[p] - lin)) > 1e-9 * max(1.0, np.max(np.abs(lin))):
                raise AssertionError("combined loss gradient is not the linear combination")

        errors = ad.grad_check_many(losses, params, step=step, denom_floor=floors)
        for name, err in errors.items():
            worst[name] = max(worst[name], err)
        episode += 1

    return worst
