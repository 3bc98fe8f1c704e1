"""Test-time adaptation engine.

Per test sample: generate augmented views, keep the most confident
predictions (lowest entropy) for the averaged-entropy loss, compute the
token-statistics alignment loss against precomputed source statistics over
*all* views, and update the prompt parameters on the combined objective.
Each step tapes only what that objective reads: the blocks up to the deepest
aligned layer over all views, and the blocks above it over the kept views.
Every episode starts from the prompts' initial values, with a fresh
optimizer, so a sample's result never depends on the samples before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .augment import DEFAULT_MIN_SCALE, generate_views
from .errors import (CompatibilityError, ConfigurationError, ContractError, DataError,
                     check_int, check_real, check_tuple)
from .model import DualEncoder, ModelConfig, PromptState, classify
from .optim import AdamW
from .seeds import philox
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
    mode: str = "episodic"  # the only mode: every episode resets the prompts
    weight_decay: float = 0.0
    seed: int = 0
    update_coupling: bool = True
    crop_min_scale: float = DEFAULT_MIN_SCALE

    def __post_init__(self):
        object.__setattr__(self, "align_layers", check_tuple("align_layers", self.align_layers))
        check_int("n_views", self.n_views, 1)
        check_int("n_steps", self.n_steps, 0)
        check_int("seed", self.seed)
        for layer in self.align_layers:
            check_int("align_layers entry", layer)
        check_real("beta", self.beta, 0)
        check_real("learning_rate", self.learning_rate, 0, above=True)
        check_real("weight_decay", self.weight_decay, 0)
        check_real("crop_min_scale", self.crop_min_scale, 0, 1, above=True)
        check_real("filter_ratio", self.filter_ratio, 0, 1, above=True)
        if not isinstance(self.update_coupling, bool):
            raise ConfigurationError(
                f"update_coupling must be a bool, got {self.update_coupling!r}"
            )
        if self.mode != "episodic":
            raise ConfigurationError(
                f"mode must be 'episodic', got {self.mode!r} (continuous mode was removed)"
            )
        parse_align_variant(self.align_loss)
        if not self.align_layers:
            raise ConfigurationError("align_layers must name at least one layer")


def parse_align_variant(name: str) -> tuple[str, int]:
    """Split an alignment-loss name into (kind, max_order)."""
    low = name.lower() if isinstance(name, str) else ""
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
    """Entropy of the mean class distribution over the kept views.

    ``view_probs`` is (n_views, C), or (S, n_views, C) for S prompt sets,
    which gives one loss per set, (S,).
    """
    kept = np.asarray(kept_indices, dtype=np.intp)
    if kept.size == 0:
        raise ContractError("entropy_loss needs at least one kept view")
    p_bar = ad.take(view_probs, kept, axis=-2).mean(axis=-2)
    return -ad.tsum(ad.plogp(p_bar), axis=-1)


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
    All variants average over the selected layers. Statistics of S prompt
    sets, (S, dim), give one loss per set, (S,).
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
    if min(test.max_order, source.max_order) < order:
        raise ContractError(f"{variant} needs moments up to order {order} on both sides")

    total = None
    for l in layers:
        i = l - 1
        if kind == "kl":
            vt = ad.clip_min(test.var[i], KL_VAR_FLOOR)
            vs = Tensor(np.maximum(source.var[i], KL_VAR_FLOOR))
            dm = test.mu[i] - Tensor(source.mu[i])
            term = ad.tmean(
                0.5 * (ad.log(vs) - ad.log(vt)) + (vt + dm * dm) / (2.0 * vs) - 0.5, axis=-1
            )
        else:  # l1, l2 and cmd-K: one distance per order, summed over channels
            term = None
            for k in range(1, order + 1):
                d = test.moments[k][i] - Tensor(source.moments[k][i])
                t = ad.tsum(d * d if kind == "l2" else ad.absolute(d), axis=-1)
                term = t if term is None else term + t
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


def _step_loss(model: DualEncoder, prompts: PromptState, views: np.ndarray,
               source_stats: SourceStats | None, config: TTAConfig,
               result: EpisodeResult) -> Tensor:
    """Build one step's objective (see ``adapt_and_predict``), append its
    three loss values and kept views to ``result``, and return the loss, the
    one reference to the step's graph."""
    n_layers = model.config.n_vision_layers
    split = max(config.align_layers) if config.beta > 0.0 else 0
    x_split, layer_tokens = model.run_blocks(model.embed_image(views, prompts), 0, split, prompts)
    text_feats = model.encode_text(prompts=prompts)
    kept = np.arange(config.n_views)
    if kept_count(config.n_views, config.filter_ratio) < config.n_views:
        with ad.no_grad():
            top = model.image_head(model.run_blocks(x_split, split, n_layers, prompts)[0])
            ranking = classify(top, text_feats, model.temperature).data
        kept = confidence_filter(ranking, config.filter_ratio)
    x_top, _ = model.run_blocks(ad.take(x_split, kept), split, n_layers, prompts)
    probs = classify(model.image_head(x_top), text_feats, model.temperature)
    l_ent = entropy_loss(probs, np.arange(kept.size))
    l_align = None
    if config.beta > 0.0:
        _, order = parse_align_variant(config.align_loss)
        tstats = view_stats(layer_tokens, model.token_indices(prompted=True), order)
        l_align = align_loss(tstats, source_stats, config.align_layers, config.align_loss)
    l_final = combined_loss(l_ent, l_align, config.beta)

    result.entropy_losses.append(l_ent.item())
    result.align_losses.append(l_align.item() if l_align is not None else 0.0)
    result.final_losses.append(l_final.item())
    result.kept_views.append([int(i) for i in kept])
    return l_final


def adapt_and_predict(
    image: np.ndarray,
    model: DualEncoder,
    prompts: PromptState,
    source_stats: SourceStats | None,
    config: TTAConfig,
    view_seed: int | None = None,
) -> EpisodeResult:
    """Adapt the prompts to one test image and return the final prediction.

    Each step splits the vision encoder at layer h, the deepest aligned layer
    (h = 0, right after the embedding, when ``beta == 0``). Blocks 1..h run
    taped over all views and feed the alignment statistics. Blocks h+1..L
    first run untaped over all views to rank them for the confidence filter
    (skipped when the filter keeps every view), then run taped from the
    layer-h tokens of the kept views only, which feed the entropy loss.
    The prompts are reset first and get a fresh optimizer.
    """
    _check_stats(model, source_stats, config)
    if not np.isfinite(image).all():
        raise DataError("image holds a non-finite pixel (NaN or inf)")
    prompts.reset()
    seed = config.seed if view_seed is None else view_seed

    params = prompts.parameters(include_coupling=config.update_coupling)
    optimizer = AdamW(params, lr=config.learning_rate, weight_decay=config.weight_decay)

    result = EpisodeResult(predicted=-1, probs=np.empty(0))
    if config.n_steps > 0:
        views = generate_views(image, config.n_views, seed, config.crop_min_scale).views
        for _ in range(config.n_steps):
            # Only backward holds the step's graph, so it frees what it has passed.
            optimizer.step(ad.backward(_step_loss(model, prompts, views, source_stats,
                                                  config, result)))

    with ad.no_grad():
        feat, _ = model.encode_image(image, prompts)
        text_feats = model.encode_text(prompts=prompts)
        final_probs = classify(ad.reshape(feat, (1, -1)), text_feats, model.temperature)
    result.probs = final_probs.data[0].copy()
    result.predicted = int(np.argmax(result.probs))
    return result


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
GRADCHECK_VIEWS, GRADCHECK_BETA = 4, 100.0

# A step of ``step`` in one prompt entry moves a channel's central moment of
# order k by at most about k * max(1, sigma)^(k - 1) * step times the slope
# of its tokens, which was at most 21 over 76 drawn episodes. An episode is
# redrawn when a moment lies closer than this many such moves to its source
# value, the kink of its L1 term.
KINK_GUARD = 50.0


def suite_losses(
    mdl: DualEncoder,
    prompts: PromptState,
    views: np.ndarray,
    kept: np.ndarray,
    src: SourceStats,
) -> dict[str, Tensor]:
    """Every loss ``gradient_suite`` checks, over all vision layers: scalars,
    or one per set, (S,), for prompts with S stacked sets."""
    feats, layer_tokens = mdl.encode_image(views, prompts)
    text_feats = mdl.encode_text(prompts=prompts)
    probs = classify(feats, text_feats, mdl.temperature)
    l_ent = entropy_loss(probs, kept)
    tstats = view_stats(layer_tokens, mdl.token_indices(prompted=True), max_order=5)
    layers = tuple(range(1, mdl.config.n_vision_layers + 1))
    out = {
        "entropy": l_ent,
        "align_l1": align_loss(tstats, src, layers, "l1"),
        "align_l2": align_loss(tstats, src, layers, "l2"),
        "align_kl": align_loss(tstats, src, layers, "kl"),
        "align_cmd5": align_loss(tstats, src, layers, "cmd-5"),
    }
    out["final"] = combined_loss(l_ent, out["align_l1"], GRADCHECK_BETA)
    return out


def gradient_suite(n_episodes: int = 20, seed: int = 0, step: float = 1e-5) -> dict[str, float]:
    """Finite-difference check of every loss the engine optimizes.

    Builds a small random frozen model, then for each episode compares the
    analytic gradients of the entropy loss, each alignment variant, and the
    combined objective w.r.t. every prompt and coupling entry against central
    differences. Prompt and coupling values are drawn at a generic scale
    (rather than the tiny adaptation init, whose near-zero gradient entries
    sit at the float64 finite-difference noise floor), the kept-view set is
    fixed at the base point, and episodes whose L1 deviations or
    entropy-ranking margins sit too close to a kink are redrawn. Returns the
    max relative error per loss. Needs ``n_episodes >= 1`` and a finite
    ``step > 0``, so that it never reports a check it did not run.
    """
    n_episodes = check_int("n_episodes", n_episodes, 1)
    check_real("step", step, 0, above=True)
    cfg = GRADCHECK_CONFIG
    mdl = DualEncoder(cfg, seed=seed)
    mdl.freeze()
    rng = philox(seed, 3)

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
        views = generate_views(image, GRADCHECK_VIEWS, int(rng.integers(0, 2**31))).views
        params = prompts.parameters()

        # Fix the kept set at the base point and reject borderline rankings or
        # L1 kinks, so finite differences never step across a non-smooth point.
        with ad.no_grad():
            feats, layer_tokens = mdl.encode_image(views, prompts)
            text_feats = mdl.encode_text(prompts=prompts)
            probs = classify(feats, text_feats, mdl.temperature)
            ent = np.sort(shannon_entropy(probs.data))
            keep = kept_count(GRADCHECK_VIEWS, 0.25)
            if len(ent) > keep and ent[keep] - ent[keep - 1] < 1e-6:
                continue
            kept = confidence_filter(probs.data, 0.25)
            tstats = view_stats(layer_tokens, token_idx, max_order=5)
            margins = [
                np.min(np.abs(t.data - s) / (k * np.maximum(1.0, var.data) ** ((k - 1) / 2)))
                for k in src.moments
                for t, s, var in zip(tstats.moments[k], src.moments[k], tstats.var)
            ]
            if min(margins) < KINK_GUARD * step:
                continue

        losses = partial(suite_losses, mdl, prompts, views, kept, src)

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
        g_ent = ad.backward(base["entropy"])
        g_l1 = ad.backward(base["align_l1"])
        for p in params:
            lin = g_ent.get(p, 0.0) + GRADCHECK_BETA * g_l1.get(p, 0.0)
            if np.max(np.abs(g_final[p] - lin)) > 1e-9 * max(1.0, np.max(np.abs(lin))):
                raise AssertionError("combined loss gradient is not the linear combination")

        errors = ad.grad_check_many(losses, params, step=step, denom_floor=floors)
        for name, err in errors.items():
            worst[name] = max(worst[name], err)
        episode += 1

    return worst
