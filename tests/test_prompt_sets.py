"""Prompt tensors with a leading set axis: one forward evaluates S prompt
sets, bit for bit as S separate forwards, and the batched finite-difference
check built on it."""

import dataclasses
import math

import numpy as np
import pytest

import ttalign as tl
from ttalign import autodiff as ad
from ttalign import tta
from ttalign.errors import ShapeError
from ttalign.model import ModelConfig
from ttalign.tta import GRADCHECK_CONFIG

CFG = GRADCHECK_CONFIG
# 3 x 10 text prompt entries plus a 10 x 16 coupling map: 190 coordinates,
# not a multiple of FD_CHUNK.
ODD_CFG = ModelConfig(
    image_size=16, channels=1, patch_size=8, embed_dim_v=16, embed_dim_t=10,
    feature_dim=16, n_vision_layers=3, n_text_layers=2, n_heads=2, mlp_ratio=2,
    n_prompt_tokens=3, prompt_depth=1, class_names=("ripple", "checker", "grid"),
)


def _setup(cfg, seed=0, n_views=4):
    model = tl.DualEncoder(cfg, seed=seed)
    model.freeze()
    rng = np.random.default_rng(seed)
    shape = (cfg.channels, cfg.image_size, cfg.image_size)
    src = tl.source_stats(rng.normal(size=(4,) + shape), model, max_order=5)
    views = rng.normal(size=(n_views,) + shape)
    prompts = tl.PromptState(cfg, seed=seed)
    for p in prompts.parameters():
        p.data = rng.normal(0.0, 0.2, p.shape)
    return model, src, views, prompts, rng


def _forward(model, src, views, prompts, kept):
    feats, layer_tokens = model.encode_image(views, prompts)
    text_feats = model.encode_text(prompts=prompts)
    probs = tl.classify(feats, text_feats, model.temperature)
    stats = tl.view_stats(layer_tokens, model.token_indices(prompted=True), max_order=5)
    layers = (1, 2, 3)
    out = {
        "feats": feats, "text_feats": text_feats, "probs": probs,
        "entropy": tta.entropy_loss(probs, kept),
        **{f"tokens{i}": t for i, t in enumerate(layer_tokens)},
        **{f"mu{i}": m for i, m in enumerate(stats.mu)},
        **{f"var{i}": v for i, v in enumerate(stats.var)},
        **{f"m{k}_{i}": m for k, ms in stats.moments.items() for i, m in enumerate(ms)},
    }
    for variant in ("l1", "l2", "kl", "cmd-5"):
        out[f"align_{variant}"] = tta.align_loss(stats, src, layers, variant)
    return {name: t.data for name, t in out.items()}


def test_stacked_forward_is_bit_identical_per_set():
    sets = 5
    model, src, views, prompts, rng = _setup(CFG)
    kept = np.array([0, 2])
    stacks = [rng.normal(0.0, 0.2, (sets,) + p.shape) for p in prompts.parameters()]
    for p, stack in zip(prompts.parameters(), stacks):
        p.data = stack
    stacked = _forward(model, src, views, prompts, kept)
    assert stacked["feats"].shape == (sets, 4, CFG.feature_dim)
    assert stacked["text_feats"].shape == (sets, CFG.n_classes, CFG.feature_dim)
    assert stacked["probs"].shape == (sets, 4, CFG.n_classes)
    assert stacked["tokens0"].shape == (sets, 4, 1 + CFG.n_prompt_tokens + CFG.n_patches,
                                        CFG.embed_dim_v)
    assert stacked["m5_2"].shape == (sets, CFG.embed_dim_v)
    assert stacked["entropy"].shape == stacked["align_cmd-5"].shape == (sets,)
    for s in range(sets):
        for p, stack in zip(prompts.parameters(), stacks):
            p.data = stack[s].copy()
        single = _forward(model, src, views, prompts, kept)
        assert single.keys() == stacked.keys()
        for name, value in single.items():
            assert np.array_equal(stacked[name][s], value), (s, name)


def test_stacked_single_image_and_single_class():
    model, _, views, prompts, rng = _setup(CFG)
    for p in prompts.parameters():
        p.data = np.stack([p.data, rng.normal(0.0, 0.2, p.shape)])
    feat, _ = model.encode_image(views[0], prompts)
    batch, _ = model.encode_image(views[:1], prompts)
    assert feat.shape == (2, CFG.feature_dim)
    assert np.array_equal(feat.data, batch.data[:, 0])
    # a one-class model keeps its class axis
    one_class = dataclasses.replace(CFG, class_names=("ripple",))
    text = tl.DualEncoder(one_class).encode_text(prompts=prompts)
    assert text.shape == (2, 1, CFG.feature_dim)
    assert np.array_equal(tl.classify(batch, text, 100.0).data, np.ones((2, 1, 1)))


@pytest.mark.parametrize("which", ["text", "coupling"])
def test_one_stacked_tensor_equals_full_stack(which):
    sets = 3
    model, src, views, prompts, rng = _setup(CFG)
    kept = np.array([0, 2])
    stacked = prompts.text_prompts[0] if which == "text" else prompts.couplers[1]
    stack = rng.normal(0.0, 0.2, (sets,) + stacked.shape)
    base = [p.data for p in prompts.parameters()]
    stacked.data = stack
    shared = _forward(model, src, views, prompts, kept)
    for p, b in zip(prompts.parameters(), base):
        p.data = stack if p is stacked else np.stack([b] * sets)
    full = _forward(model, src, views, prompts, kept)
    assert shared.keys() == full.keys()
    if which == "coupling":
        assert shared["text_feats"].shape == (CFG.n_classes, CFG.feature_dim)
    for name, value in full.items():
        if not (which == "coupling" and name == "text_feats"):
            assert shared[name].shape == value.shape, name
        assert np.array_equal(np.broadcast_to(shared[name], value.shape), value), name


@pytest.mark.parametrize("which", ["set_count", "ndim"])
def test_mixed_set_axes_raise(which):
    model, _, views, prompts, _ = _setup(CFG)
    if which == "set_count":
        for p in prompts.parameters():
            p.data = np.stack([p.data] * 2)
        prompts.couplers[0].data = np.stack([prompts.couplers[0].data[0]] * 3)
    else:
        prompts.couplers[1].data = prompts.couplers[1].data[None, None]
    with pytest.raises(ShapeError):
        model.encode_image(views, prompts)
    with pytest.raises(ShapeError):
        model.encode_text(prompts=prompts)


def _reference_errors(f, params, floors, step=1e-5):
    """The per-coordinate central differences, one call of ``f`` per
    perturbation, as grad_check_many computed them before it stacked sets."""
    names = list(f().keys())
    analytic = {}
    for name in names:
        grads = ad.backward(f()[name])
        analytic[name] = [grads.get(p, np.zeros_like(p.data)) for p in params]
    fds = {name: [np.empty(p.size) for p in params] for name in names}
    with ad.no_grad():
        for j, p in enumerate(params):
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                fp = {k: float(v.data) for k, v in f().items()}
                flat[i] = orig - step
                fm = {k: float(v.data) for k, v in f().items()}
                flat[i] = orig
                for name in names:
                    fds[name][j][i] = (fp[name] - fm[name]) / (2.0 * step)
    return {
        name: max(
            ad._relative_error(a, fd.reshape(a.shape), floors[name])
            for a, fd in zip(analytic[name], fds[name])
        )
        for name in names
    }


@pytest.mark.parametrize("cfg", [CFG, ODD_CFG], ids=["gradcheck", "odd"])
def test_grad_check_many_equals_per_coordinate_loop(cfg):
    model, src, views, prompts, _ = _setup(cfg, seed=3)
    params = prompts.parameters()
    n_coords = sum(p.size for p in params)
    assert (n_coords % ad.FD_CHUNK != 0) == (cfg is ODD_CFG)
    with ad.no_grad():
        feats, _ = model.encode_image(views, prompts)
        probs = tl.classify(feats, model.encode_text(prompts=prompts), model.temperature)
    kept = tta.confidence_filter(probs.data, 0.25)

    def losses():
        return tta.suite_losses(model, prompts, views, kept, src)

    floors = {name: max(1e-8, 2e-3 * max(1.0, abs(v.item()))) for name, v in losses().items()}
    before = [p.data.copy() for p in params]
    expected = _reference_errors(losses, params, floors)
    got = ad.grad_check_many(losses, params, step=1e-5, denom_floor=floors)
    assert list(got) == list(expected)
    for name in expected:
        assert float(got[name]).hex() == float(expected[name]).hex(), name
    for p, b in zip(params, before):
        assert np.array_equal(p.data, b)


def test_grad_check_many_stacks_only_the_perturbed_params():
    rng = np.random.default_rng(1)
    shapes = [(3, 5), (7,), (4, 5)]
    params = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    calls = []

    def f():
        calls.append([p.shape for p in params])
        # one loss per set; a param without the set axis is shared by all sets
        total = sum(ad.tsum(p * p, axis=tuple(range(-len(s), 0))) for p, s in zip(params, shapes))
        return {"loss": total}

    ad.grad_check_many(f, params)
    owners = [j for j, p in enumerate(params) for _ in range(p.size)]
    chunks = [owners[lo : lo + ad.FD_CHUNK] for lo in range(0, len(owners), ad.FD_CHUNK)]
    assert len(calls) == 1 + math.ceil(len(owners) / ad.FD_CHUNK)
    assert calls[0] == shapes
    for got, chunk in zip(calls[1:], chunks):
        assert got == [(2 * len(chunk),) + s if j in chunk else s for j, s in enumerate(shapes)]


def test_grad_check_many_restores_params_when_f_raises():
    rng = np.random.default_rng(0)
    params = [ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True),
              ad.Tensor(rng.normal(size=(7,)), requires_grad=True)]
    base = [p.data for p in params]
    copies = [b.copy() for b in base]
    calls = 0

    def f():
        nonlocal calls
        calls += 1
        if calls == 3:  # after the analytic call and the first chunk
            # the second chunk perturbs the last 22 - FD_CHUNK entries of params[1]
            assert params[0].shape == (3, 5)
            assert params[1].shape == (2 * (22 - ad.FD_CHUNK), 7)
            raise RuntimeError("loss failed")
        total = ad.tsum(params[0] * params[0], axis=(-2, -1)) + ad.tsum(params[1], axis=-1)
        return {"loss": total}

    with pytest.raises(RuntimeError, match="loss failed"):
        ad.grad_check_many(f, params)
    for p, b, c in zip(params, base, copies):
        assert p.data is b
        assert np.array_equal(p.data, c)
