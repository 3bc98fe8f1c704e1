import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

import ttalign as tl
from ttalign import autodiff as ad
from ttalign import model as mm
from ttalign.autodiff import Tensor
from ttalign.errors import ConfigurationError, FormatError
from ttalign.tta import GRADCHECK_CONFIG

CFG = GRADCHECK_CONFIG


def _model(seed=1):
    m = tl.DualEncoder(CFG, seed=seed)
    m.freeze()
    return m


def _image(seed=0):
    return np.random.default_rng(seed).normal(size=(CFG.channels, CFG.image_size, CFG.image_size))


# -- patch embedding -----------------------------------------------------------


def test_patch_embed_token_count():
    m = _model()
    tokens = m.patch_embed(np.zeros((1, 16, 16))[None])
    assert tokens.shape == (1, 4, CFG.embed_dim_v)  # (16/8)^2 patches


def test_patch_embed_zero_image_is_pos_plus_bias():
    m = _model()
    tokens = m.patch_embed(np.zeros((1, 16, 16))[None])
    expect = m.vision.patch_proj.b.data + m.vision.pos.data[1:]
    npt.assert_allclose(tokens.data[0], expect, atol=1e-15)


def test_patch_embed_deterministic():
    m1, m2 = _model(3), _model(3)
    img = _image(1)[None]
    assert np.array_equal(m1.patch_embed(img).data, m2.patch_embed(img).data)


def test_patch_embed_rejects_indivisible_dims():
    m = _model()
    with pytest.raises(ConfigurationError):
        m.patch_embed(np.zeros((1, 15, 16))[None])


def test_config_rejects_indivisible_image():
    with pytest.raises(ConfigurationError):
        mm.ModelConfig(image_size=30, patch_size=8)


def test_config_rejects_deep_prompts():
    with pytest.raises(ConfigurationError):
        mm.ModelConfig(prompt_depth=7)


# -- image encoding --------------------------------------------------------------


def test_encode_image_records_every_layer_with_prompt_width():
    m = _model()
    prompts = tl.PromptState(CFG, seed=0)
    _, layer_tokens = m.encode_image(_image(2), prompts)
    assert len(layer_tokens) == CFG.n_vision_layers
    width = 1 + CFG.n_prompt_tokens + CFG.n_patches
    for tokens in layer_tokens:
        assert tokens.shape == (1, width, CFG.embed_dim_v)


def test_encode_image_promptfree_width():
    m = _model()
    _, layer_tokens = m.encode_image(_image(2))
    assert layer_tokens[0].shape == (1, 1 + CFG.n_patches, CFG.embed_dim_v)


def test_different_prompts_change_the_feature():
    m = _model()
    img = _image(3)
    f1, _ = m.encode_image(img, tl.PromptState(CFG, seed=0))
    f2, _ = m.encode_image(img, tl.PromptState(CFG, seed=1))
    assert not np.allclose(f1.data, f2.data)


def test_feature_is_normalized():
    m = _model()
    feats, _ = m.encode_image(np.stack([_image(4), _image(5)]), tl.PromptState(CFG, seed=0))
    npt.assert_allclose(np.linalg.norm(feats.data, axis=-1), np.ones(2), atol=1e-9)


def test_prompt_gradient_flows_and_matches_fd():
    m = _model()
    prompts = tl.PromptState(CFG, seed=0)
    img = _image(6)
    probe = np.random.default_rng(7).normal(size=(CFG.feature_dim,))

    def scalar():
        feat, _ = m.encode_image(img, prompts)
        return ad.tsum(feat * Tensor_probe)

    Tensor_probe = ad.Tensor(probe)
    grads = ad.backward(scalar())
    assert any(np.abs(grads[p]).max() > 1e-12 for p in prompts.text_prompts)
    err = ad.grad_check(scalar, prompts.parameters(), step=1e-5)
    assert err < 1e-4


# -- transformer block -------------------------------------------------------------


DEFAULT = mm.ModelConfig()


def _random_block(cfg, trainable, seed=0):
    """A vision-width block of ``cfg`` with random weights (LayerNorm gains
    near 1); every weight requires grad iff ``trainable``."""
    rng = np.random.default_rng(seed)
    blk = mm._Block(rng, cfg.embed_dim_v, cfg.n_heads, cfg.mlp_ratio)
    for name, p in mm._named_tensors(blk, "block"):
        p.data = rng.normal(size=p.shape) * 0.3 + (1.0 if name.endswith("gamma") else 0.0)
        p.requires_grad = trainable
    return blk


def composed_block(blk, x):
    """The block as the tape ops it replaces, one node each: ln1, the q, k and
    v projections, attention, wo, the residual add, ln2, fc1, GELU, fc2 and
    the second residual add."""
    at = blk.attn
    h = blk.ln1(x)
    x = x + at.wo(ad.attention(at.wq(h), at.wk(h), at.wv(h), at.n_heads))
    return x + blk.fc2(ad.gelu(blk.fc1(blk.ln2(x))))


def _block_tokens(cfg, rows, tokens, sets, seed=1):
    """(sets * rows, tokens, d) block inputs: ``sets`` stacked prompt sets of
    one batch, which differ only at the prompt positions."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(rows, tokens, cfg.embed_dim_v))
    stacked = [base]
    prompt = slice(1, 1 + cfg.n_prompt_tokens)
    for _ in range(sets - 1):
        other = base.copy()
        other[:, prompt] = rng.normal(size=other[:, prompt].shape)
        stacked.append(other)
    return np.concatenate(stacked)


def _block_bits(run, blk, xd, extra):
    """Output, input gradient and every weight gradient of ``run(blk, x)``
    under a random linear loss. ``extra`` adds a second taped reader of the
    block input, whose term enters the loss after ("after") or before
    ("before") the block's; the backward pass reaches that reader in the
    same order relative to the block."""
    rng = np.random.default_rng(2)
    x = Tensor(xd, requires_grad=True)
    out = run(blk, x)
    terms = [ad.tsum(out * Tensor(rng.normal(size=out.shape)))]
    if extra is not None:
        read = ad.tsum(x * Tensor(rng.normal(size=x.shape)))
        terms.insert(0 if extra == "before" else 1, read)
    grads = ad.backward(terms[0] if len(terms) == 1 else terms[0] + terms[1])
    weights = [p for _, p in mm._named_tensors(blk, "block") if p.requires_grad]
    return [out.data, grads[x]] + [grads[p] for p in weights]


_ROWS = ad.GELU_BLOCK // (DEFAULT.embed_dim_v * DEFAULT.mlp_ratio)  # token rows per GELU block


# (config, rows, tokens, prompt sets): one token row; fewer rows than one
# GELU block; exactly two blocks; two blocks and a ragged 16-row third; an
# episode's 64 views of 19 tokens (19 blocks); the tiny config; two stacked
# prompt sets of each config.
@pytest.mark.parametrize("cfg, rows, tokens, sets", [
    (DEFAULT, 1, 1, 1), (DEFAULT, 3, 19, 1), (DEFAULT, 2 * _ROWS // 16, 16, 1),
    (DEFAULT, 2 * _ROWS // 16 + 1, 16, 1), (DEFAULT, 64, 19, 1), (CFG, 4, 7, 1),
    (DEFAULT, 2, 19, 2), (CFG, 3, 7, 2),
], ids=["one-row", "one-gelu-block", "two-gelu-blocks", "ragged", "episode", "tiny",
        "default-2-sets", "tiny-2-sets"])
@pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "trainable"])
@pytest.mark.parametrize("extra", [None, "after", "before"])
def test_block_bit_identical_to_composition(cfg, rows, tokens, sets, trainable, extra):
    """Forward, the input gradient and (trainable) the weight, gamma and beta
    gradients equal the composed ops' bits."""
    blk = _random_block(cfg, trainable)
    xd = _block_tokens(cfg, rows, tokens, sets)
    got = _block_bits(lambda b, x: b(x), blk, xd, extra)
    want = _block_bits(composed_block, blk, xd, extra)
    assert len(got) == 2 + 16 * trainable
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _closure_arrays(fn):
    """The arrays a closure holds, through tuples."""
    found, stack = [], [c.cell_contents for c in fn.__closure__]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, tuple):
            stack.extend(item)
    return found


@pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "trainable"])
def test_block_tape_keeps_what_its_backward_reads(trainable):
    """One tape node per block, over an episode's 64 views. Frozen, it holds,
    for each row chunk, both LayerNorms' xhat and inv, the three head
    copies, the attention probabilities and the GELU derivative; trainable,
    the batch is one chunk that also holds the four linear inputs. Untaped
    it holds nothing, and its output keeps the taped bits."""
    cfg, b, t = DEFAULT, 64, 19
    blk = _random_block(cfg, trainable)
    d, h = cfg.embed_dim_v, cfg.n_heads
    x = Tensor(_block_tokens(cfg, b, t, 1), requires_grad=True)
    out = blk(x)
    assert out._parents[:2] == (x, x) and len(out._parents) == 18
    chunks = ad._row_chunks(b, x.size, trainable)
    assert len(chunks) == 1 if trainable else len(chunks) > 1
    want = []
    for rows in chunks:
        r = rows.stop - rows.start
        want += [r * t] * 2 + [r * t * d] * 5 + [r * h * t * t] + [r * t * d * cfg.mlp_ratio]
        if trainable:
            want += [r * t * d] * 3 + [r * t * d * cfg.mlp_ratio]
    assert sorted(a.size for a in _closure_arrays(out._vjp)) == sorted(want)
    with ad.no_grad():
        untaped = blk(x)
    frozen = _random_block(cfg, False)
    for y in (untaped, frozen(Tensor(x.data))):
        assert y._vjp is None and y._parents == () and not y.requires_grad
    assert untaped.data.tobytes() == out.data.tobytes()


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_block_chunks_keep_whole_batch_bits(monkeypatch, taped):
    """A frozen block over 7 rows split into uneven chunks gives the output
    and the input gradient of one whole-batch chunk, bit for bit."""
    cfg, rows, tokens = DEFAULT, 7, 19
    blk = _random_block(cfg, False)
    xd = _block_tokens(cfg, rows, tokens, 1)
    g = np.random.default_rng(4).normal(size=xd.shape)

    def bits(budget):
        monkeypatch.setattr(ad, "BLOCK_CHUNK", budget)
        x = Tensor(xd, requires_grad=taped)
        out = blk(x)
        if not taped:
            return [out.data.tobytes()]
        return [out.data.tobytes(), ad.backward(ad.tsum(out * Tensor(g)))[x].tobytes()]

    budget = xd.size // 3
    monkeypatch.setattr(ad, "BLOCK_CHUNK", budget)
    chunks = ad._row_chunks(rows, xd.size, False)
    assert [r.stop - r.start for r in chunks] == [1, 2, 2, 2]
    assert bits(budget) == bits(xd.size)


def test_block_gradients_match_finite_differences():
    """Every gradient but wk's bias, which is zero: a shift of all keys moves
    each query's scores by one constant, which the softmax ignores, so its
    central difference is rounding noise."""
    cfg = mm.ModelConfig(embed_dim_v=8, embed_dim_t=8, n_heads=2, mlp_ratio=2)
    blk = _random_block(cfg, True)
    x = Tensor(_block_tokens(cfg, 2, 3, 1), requires_grad=True)
    w = Tensor(np.random.default_rng(3).normal(size=x.shape))
    params = [x] + [p for name, p in mm._named_tensors(blk, "block") if name != "block.attn.wk.b"]
    err = ad.grad_check(lambda: ad.tsum(blk(x) * w), params, step=1e-5)
    assert err < 1e-6


# -- text encoding ---------------------------------------------------------------


def test_encode_text_purity():
    m = _model()
    prompts = tl.PromptState(CFG, seed=0)
    a = m.encode_text(prompts=prompts)
    b = m.encode_text(prompts=prompts)
    assert np.array_equal(a.data, b.data)


def test_encode_text_distinct_classes():
    m = _model()
    feats = m.encode_text().data
    for i in range(len(feats)):
        for j in range(i + 1, len(feats)):
            assert np.linalg.norm(feats[i] - feats[j]) > 0


def test_encode_text_prompts_matter():
    m = _model()
    a = m.encode_text(prompts=tl.PromptState(CFG, seed=0))
    b = m.encode_text(prompts=tl.PromptState(CFG, seed=1))
    assert not np.allclose(a.data, b.data)


def test_text_features_independent_of_adapted_image(tiny_model, tiny_stats, tiny_data):
    # static-label property: adapting on different images leaves the
    # text branch a pure function of the prompt values
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=100.0, n_views=4, seed=0)
    prompts = tl.PromptState(tiny_model.config, seed=0)
    before = tiny_model.encode_text(prompts=prompts).data.copy()
    tl.adapt_and_predict(test.images[0].astype(np.float64), tiny_model, prompts,
                         tiny_stats, config, view_seed=1)
    prompts.reset()
    after = tiny_model.encode_text(prompts=prompts).data.copy()
    assert np.array_equal(before, after)


# -- classifier head --------------------------------------------------------------


def _unit(v):
    return v / np.linalg.norm(v)


def test_classify_saturates_at_matching_feature():
    rng = np.random.default_rng(8)
    text = np.stack([_unit(rng.normal(size=8)) for _ in range(4)])
    probs = tl.classify(ad.Tensor(text[2:3]), ad.Tensor(text), 1000.0)
    assert probs.data[0, 2] > 0.99


def test_classify_uniform_when_orthogonal():
    eye = np.eye(8)
    img = eye[7:8]  # orthogonal to the first 4 basis rows
    probs = tl.classify(ad.Tensor(img), ad.Tensor(eye[:4]), 100.0)
    npt.assert_allclose(probs.data[0], np.full(4, 0.25), atol=1e-12)


def test_classify_zero_temperature_is_uniform():
    rng = np.random.default_rng(9)
    img = _unit(rng.normal(size=8))[None]
    text = np.stack([_unit(rng.normal(size=8)) for _ in range(5)])
    probs = tl.classify(ad.Tensor(img), ad.Tensor(text), 0.0)
    npt.assert_allclose(probs.data[0], np.full(5, 0.2), atol=1e-12)


def test_classify_rows_sum_to_one_and_permute():
    rng = np.random.default_rng(10)
    img = np.stack([_unit(rng.normal(size=8)) for _ in range(3)])
    text = np.stack([_unit(rng.normal(size=8)) for _ in range(5)])
    probs = tl.classify(ad.Tensor(img), ad.Tensor(text), 100.0).data
    npt.assert_allclose(probs.sum(axis=-1), np.ones(3), atol=1e-12)
    perm = np.array([3, 0, 4, 1, 2])
    permuted = tl.classify(ad.Tensor(img), ad.Tensor(text[perm]), 100.0).data
    npt.assert_allclose(permuted, probs[:, perm], atol=1e-14)


# -- coupling ---------------------------------------------------------------------


def test_couple_zero_map():
    pt = ad.Tensor(np.random.default_rng(11).normal(size=(2, 16)))
    out = tl.couple(pt, ad.Tensor(np.zeros((16, 16))))
    npt.assert_array_equal(out.data, np.zeros((2, 16)))


def test_couple_identity_map():
    pt = ad.Tensor(np.random.default_rng(12).normal(size=(2, 16)))
    out = tl.couple(pt, ad.Tensor(np.eye(16)))
    npt.assert_allclose(out.data, pt.data, atol=1e-15)


def test_couple_dim_mismatch():
    with pytest.raises(ConfigurationError):
        tl.couple(ad.Tensor(np.zeros((2, 8))), ad.Tensor(np.zeros((16, 16))))


def test_couple_gradients():
    rng = np.random.default_rng(13)
    pt = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    probe = ad.Tensor(rng.normal(size=(2, 5)))
    err = ad.grad_check(lambda: ad.tsum(tl.couple(pt, w) * probe), [pt, w], step=1e-5)
    assert err < 1e-4


# -- prompt state -------------------------------------------------------------------


def test_prompt_reset_is_bit_exact():
    prompts = tl.PromptState(CFG, seed=3)
    before = [p.data.copy() for p in prompts.parameters()]
    for p in prompts.parameters():
        p.data += 0.123
    prompts.reset()
    for arr, p in zip(before, prompts.parameters()):
        assert np.array_equal(arr, p.data)


def test_vision_prompts_follow_text_prompts():
    prompts = tl.PromptState(CFG, seed=4)
    pv1 = prompts.vision_prompt(0).data.copy()
    prompts.text_prompts[0].data *= 2.0
    pv2 = prompts.vision_prompt(0).data
    npt.assert_allclose(pv2, 2.0 * pv1, atol=1e-14)


# -- pretraining ---------------------------------------------------------------------


def test_pretrained_model_beats_90_percent(tiny_model, tiny_data):
    _, val, _ = tiny_data
    acc = float(np.mean(mm.predict(tiny_model, val.images.astype(np.float64)) == val.labels))
    assert acc > 0.9


def test_pretraining_is_seed_deterministic(tiny_data):
    source = tiny_data[0]
    hashes = []
    for _ in range(2):
        m = tl.DualEncoder(CFG, seed=1)
        tl.pretrain_backbone(m, source.images[:48], source.labels[:48], epochs=2, seed=0)
        hashes.append(mm.weights_hash(m))
    assert hashes[0] == hashes[1]


def test_untrained_model_is_at_chance(tiny_data):
    _, val, _ = tiny_data
    m = _model(seed=99)
    acc = float(np.mean(mm.predict(m, val.images.astype(np.float64)) == val.labels))
    assert abs(acc - 1.0 / CFG.n_classes) < 0.10


def test_pretrain_rejects_empty_dataset():
    m = tl.DualEncoder(CFG, seed=0)
    with pytest.raises(tl.DataError):
        tl.pretrain_backbone(m, np.empty((0, 1, 16, 16)), np.empty(0, dtype=np.int64),
                             epochs=1, seed=0)


@pytest.mark.parametrize("kwargs", [
    {"epochs": 0}, {"epochs": -2}, {"batch_size": 0},
    {"lr": 0.0}, {"lr": -1e-3}, {"lr": float("nan")}, {"lr": float("inf")},
    {"seed": -1}, {"seed": 2**64},
    {"epochs": 1.5}, {"batch_size": 2.5}, {"epochs": True}, {"lr": "x"}, {"lr": True},
])
def test_pretrain_rejects_bad_settings_before_training(kwargs):
    m = tl.DualEncoder(CFG, seed=0)
    before = m.frozen_hash()
    with pytest.raises(ConfigurationError):
        tl.pretrain_backbone(m, np.zeros((2, 1, 16, 16)), np.zeros(2, dtype=np.int64),
                             **{"epochs": 1, "seed": 0, **kwargs})
    assert mm.weights_hash(m) == before


# -- frozen backbone and checkpoints ---------------------------------------------------


def test_adaptation_leaves_backbone_bytes_unchanged(tiny_model, tiny_stats, tiny_data):
    _, _, test = tiny_data
    before = mm.weights_hash(tiny_model)
    prompts = tl.PromptState(tiny_model.config, seed=0)
    config = tl.TTAConfig(beta=100.0, n_views=8, seed=0)
    for i in range(3):
        tl.adapt_and_predict(test.images[i].astype(np.float64), tiny_model, prompts,
                             tiny_stats, config, view_seed=i)
    assert mm.weights_hash(tiny_model) == before


def test_checkpoint_round_trip(tiny_model, tmp_path):
    path = tmp_path / "ckpt.bin"
    mm.save_checkpoint(tiny_model, path)
    loaded = mm.load_checkpoint(path)
    assert mm.weights_hash(loaded) == mm.weights_hash(tiny_model)
    img = _image(20)
    f1, _ = tiny_model.encode_image(img)
    f2, _ = loaded.encode_image(img)
    assert np.array_equal(f1.data, f2.data)


def test_checkpoint_bad_magic(tiny_model, tmp_path):
    path = tmp_path / "ckpt.bin"
    mm.save_checkpoint(tiny_model, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        mm.load_checkpoint(path)


def test_checkpoint_truncated(tiny_model, tmp_path):
    path = tmp_path / "ckpt.bin"
    mm.save_checkpoint(tiny_model, path)
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(FormatError):
        mm.load_checkpoint(path)


def _rewrite_config(path, edit):
    """Replace the checkpoint's config JSON with ``edit(json_bytes)``."""
    import struct

    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 12)
    cfg = edit(raw[16 : 16 + cfg_len])
    path.write_bytes(raw[:12] + struct.pack("<I", len(cfg)) + cfg + raw[16 + cfg_len :])


def _set_config(**fields):
    return lambda c: json.dumps({**json.loads(c), **fields}).encode()


@pytest.mark.parametrize("edit", [
    lambda c: c.replace(b'"channels"', b'"chanels"'),  # unknown key
    lambda c: c.replace(b'"class_names"', b'"class_nomes"'),  # missing class names
    lambda c: c.replace(b'"ripple"', b'"r\xffpple"'),
    lambda c: c[:-1],  # malformed JSON
    lambda c: b"[1, 2]",  # not an object
    _set_config(embed_dim_v=16.0),  # a float in an int field
    _set_config(mlp_ratio=2.5),
    _set_config(n_heads=2.0),  # would load and fail only at the first forward
    _set_config(n_heads=0),  # a value ModelConfig refuses
    _set_config(prompt_depth=True),  # a bool is not an int
], ids=["unknown-key", "no-class-names", "not-utf8", "bad-json", "not-object",
        "float-dim", "float-ratio", "float-heads", "zero-heads", "bool-depth"])
def test_checkpoint_bad_config_is_format_error(tmp_path, edit):
    path = tmp_path / "ckpt.bin"
    mm.save_checkpoint(_model(), path)
    _rewrite_config(path, edit)
    with pytest.raises(FormatError):
        mm.load_checkpoint(path)


def test_checkpoint_duplicate_array_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    mm.save_checkpoint(_model(), path)
    raw = path.read_bytes()
    # Two same-shaped arrays; renaming the second to the first leaves one unset.
    a, b = b"vision.blocks.0.ln1.gamma", b"vision.blocks.1.ln1.gamma"
    assert raw.count(a) == raw.count(b) == 1
    path.write_bytes(raw.replace(b, a))
    with pytest.raises(FormatError, match="twice"):
        mm.load_checkpoint(path)


def test_default_model_array_names_are_pinned():
    """The names of ``DualEncoder(ModelConfig())``'s arrays, in order, are
    part of the checkpoint bytes; each Tensor reachable from the model is
    named exactly once, so a new Tensor attribute cannot enter or miss
    checkpoints unnoticed."""
    model = tl.DualEncoder(mm.ModelConfig())
    named = model.named_parameters()
    names = [n for n, _ in named]
    assert len(names) == 172 and names[0] == "vision.patch_proj.w" and names[-1] == "text.proj"
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
        "9d5d2bc8e95afc9a6400609f69930cce8c137e4c15c52c7201b1e5269f7aafeb"
    )

    reachable, seen = [], set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, ad.Tensor):
            reachable.append(obj)
        elif isinstance(obj, (list, tuple, dict)):
            for item in obj.values() if isinstance(obj, dict) else obj:
                walk(item)
        elif hasattr(obj, "__dict__"):
            for value in vars(obj).values():
                walk(value)

    walk(model)
    assert len({id(p) for _, p in named}) == len(named)
    assert {id(p) for _, p in named} == {id(t) for t in reachable}
