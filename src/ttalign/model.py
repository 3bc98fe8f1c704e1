"""Desk-scale frozen dual encoder with deep multi-modal prompts.

A small vision transformer over image patches and a text transformer over
tokenized class templates meet in a shared feature space; classification is
softmax over temperature-scaled cosine similarities. Learnable prompt tokens
can be injected into the first ``prompt_depth`` layers of both branches;
vision prompts are always derived from the text prompts of the same layer
through a per-layer linear coupling map, so the prompts and the coupling
weights are the only test-time parameters.

Checkpoint file layout (little-endian):
  magic   8 bytes  b"DUALENC1"
  version u32      1
  config  u32 length + UTF-8 JSON of the model config
  count   u32      number of named arrays
  arrays  repeated: u16 name length, name UTF-8, u32 ndim,
          u64 dims..., float64 data
The model hash used for artifact compatibility checks is the SHA-256 of
exactly these serialized bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, ContractError, DataError, FormatError
from .optim import AdamW

CHECKPOINT_MAGIC = b"DUALENC1"
CHECKPOINT_VERSION = 1

TEMPLATE_WORDS = ("a", "photo", "of", "a")
DEFAULT_CLASS_NAMES = (
    "ripple", "checker", "diagonal", "grid", "bands", "waves", "mesh", "stripes",
)
# Images per encode_image call when a dataset is forwarded without a tape
# (predict, source_stats).
FORWARD_CHUNK = 64


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    channels: int = 1
    patch_size: int = 8
    embed_dim_v: int = 64
    embed_dim_t: int = 64
    feature_dim: int = 64
    n_vision_layers: int = 6
    n_text_layers: int = 4
    n_heads: int = 4
    mlp_ratio: int = 4
    n_prompt_tokens: int = 2
    prompt_depth: int = 3
    temperature: float = 100.0
    class_names: tuple[str, ...] = DEFAULT_CLASS_NAMES

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, int) and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigurationError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.image_size % self.patch_size != 0:
            raise ConfigurationError(
                f"image size {self.image_size} not divisible by patch {self.patch_size}"
            )
        if self.embed_dim_v % self.n_heads or self.embed_dim_t % self.n_heads:
            raise ConfigurationError("embed dims must be divisible by n_heads")
        if self.prompt_depth > min(self.n_vision_layers, self.n_text_layers):
            raise ConfigurationError(
                f"prompt_depth {self.prompt_depth} exceeds encoder depth "
                f"({self.n_vision_layers} vision / {self.n_text_layers} text layers)"
            )
        if len(set(self.class_names)) != len(self.class_names):
            raise ConfigurationError("class names must be unique")
        for name in self.class_names:
            if (not name) or (" " in name):
                raise ConfigurationError(f"class name must be a single word: {name!r}")
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def vocab(self) -> tuple[str, ...]:
        base = ["<sos>", "<eos>"]
        for w in TEMPLATE_WORDS:
            if w not in base:
                base.append(w)
        for name in self.class_names:
            if name not in base:
                base.append(name)
        return tuple(base)

    @property
    def text_seq_len(self) -> int:
        # <sos> + template + class word + <eos>
        return 1 + len(TEMPLATE_WORDS) + 1 + 1


# -- building blocks ---------------------------------------------------------


class _Linear:
    def __init__(self, rng, d_in: int, d_out: int, bias: bool = True):
        self.w = Tensor(rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_out)))
        self.b = Tensor(np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)

    def params(self, prefix: str):
        yield f"{prefix}.w", self.w
        if self.b is not None:
            yield f"{prefix}.b", self.b


class _LayerNorm:
    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d))
        self.beta = Tensor(np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.gamma, self.beta)

    def params(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta


class _Attention:
    def __init__(self, rng, d: int, n_heads: int):
        self.n_heads = n_heads
        self.d_head = d // n_heads
        self.wq = _Linear(rng, d, d)
        self.wk = _Linear(rng, d, d)
        self.wv = _Linear(rng, d, d)
        self.wo = _Linear(rng, d, d)

    def __call__(self, x: Tensor) -> Tensor:
        b, t, d = x.shape
        h, dh = self.n_heads, self.d_head

        def split(v):  # (B,T,d) -> (B,h,T,dh)
            return ad.transpose(ad.reshape(v, (b, t, h, dh)), (0, 2, 1, 3))

        q = split(self.wq(x)) * (1.0 / np.sqrt(dh))
        k = split(self.wk(x))
        v = split(self.wv(x))
        att = ad.softmax(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), axis=-1)
        ctx = ad.reshape(ad.transpose(ad.matmul(att, v), (0, 2, 1, 3)), (b, t, d))
        return self.wo(ctx)

    def params(self, prefix: str):
        for name, lin in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            yield from lin.params(f"{prefix}.{name}")


class _Block:
    """Pre-LN transformer block; output = residual stream after the MLP add."""

    def __init__(self, rng, d: int, n_heads: int, mlp_ratio: int):
        self.ln1 = _LayerNorm(d)
        self.attn = _Attention(rng, d, n_heads)
        self.ln2 = _LayerNorm(d)
        self.fc1 = _Linear(rng, d, d * mlp_ratio)
        self.fc2 = _Linear(rng, d * mlp_ratio, d)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.fc2(ad.gelu(self.fc1(self.ln2(x))))

    def params(self, prefix: str):
        yield from self.ln1.params(f"{prefix}.ln1")
        yield from self.attn.params(f"{prefix}.attn")
        yield from self.ln2.params(f"{prefix}.ln2")
        yield from self.fc1.params(f"{prefix}.fc1")
        yield from self.fc2.params(f"{prefix}.fc2")


# -- prompts -----------------------------------------------------------------


class PromptState:
    """The test-time learnable state: per-layer text prompts plus the linear
    maps deriving the vision prompts from them.

    ``reset()`` restores every parameter bit-exactly to its value at
    construction, which is what makes per-sample adaptation episodic.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0x9E3779B9)]))
        t, dt, dv = config.n_prompt_tokens, config.embed_dim_t, config.embed_dim_v
        self.text_prompts = [
            Tensor(rng.normal(0.0, 0.02, (t, dt)), requires_grad=True)
            for _ in range(config.prompt_depth)
        ]
        self.couplers = [
            Tensor(rng.normal(0.0, 1.0 / np.sqrt(dt), (dt, dv)), requires_grad=True)
            for _ in range(config.prompt_depth)
        ]
        self._snapshot = [p.data.copy() for p in self.parameters()]

    def vision_prompt(self, layer: int) -> Tensor:
        """Derived vision prompts for a prompted layer: p_text @ coupling."""
        return couple(self.text_prompts[layer], self.couplers[layer])

    def parameters(self, include_coupling: bool = True) -> list[Tensor]:
        params = list(self.text_prompts)
        if include_coupling:
            params += list(self.couplers)
        return params

    def reset(self) -> None:
        for p, snap in zip(self.parameters(), self._snapshot):
            p.data = snap.copy()
            p.grad = None


def couple(text_prompt: Tensor, coupling: Tensor) -> Tensor:
    """Map text prompt tokens into the vision token space (linear, per layer)."""
    if text_prompt.shape[-1] != coupling.shape[0]:
        raise ConfigurationError(
            f"coupling dims mismatch: prompts {text_prompt.shape} vs map {coupling.shape}"
        )
    return ad.matmul(text_prompt, coupling)


# -- encoders ----------------------------------------------------------------


class VisionEncoder:
    def __init__(self, rng, config: ModelConfig):
        self.config = config
        d = config.embed_dim_v
        patch_dim = config.channels * config.patch_size**2
        self.patch_proj = _Linear(rng, patch_dim, d)
        self.cls = Tensor(rng.normal(0.0, 0.02, (d,)))
        self.pos = Tensor(rng.normal(0.0, 0.02, (1 + config.n_patches, d)))
        self.blocks = [
            _Block(rng, d, config.n_heads, config.mlp_ratio)
            for _ in range(config.n_vision_layers)
        ]
        self.ln_post = _LayerNorm(d)
        self.proj = Tensor(rng.normal(0.0, 1.0 / np.sqrt(d), (d, config.feature_dim)))

    def params(self, prefix: str = "vision"):
        yield from self.patch_proj.params(f"{prefix}.patch_proj")
        yield f"{prefix}.cls", self.cls
        yield f"{prefix}.pos", self.pos
        for i, blk in enumerate(self.blocks):
            yield from blk.params(f"{prefix}.blocks.{i}")
        yield from self.ln_post.params(f"{prefix}.ln_post")
        yield f"{prefix}.proj", self.proj


class TextEncoder:
    def __init__(self, rng, config: ModelConfig):
        self.config = config
        d = config.embed_dim_t
        self.token_table = Tensor(rng.normal(0.0, 0.02, (len(config.vocab), d)))
        self.pos = Tensor(rng.normal(0.0, 0.02, (config.text_seq_len, d)))
        self.blocks = [
            _Block(rng, d, config.n_heads, config.mlp_ratio)
            for _ in range(config.n_text_layers)
        ]
        self.ln_final = _LayerNorm(d)
        self.proj = Tensor(rng.normal(0.0, 1.0 / np.sqrt(d), (d, config.feature_dim)))

    def params(self, prefix: str = "text"):
        yield f"{prefix}.token_table", self.token_table
        yield f"{prefix}.pos", self.pos
        for i, blk in enumerate(self.blocks):
            yield from blk.params(f"{prefix}.blocks.{i}")
        yield from self.ln_final.params(f"{prefix}.ln_final")
        yield f"{prefix}.proj", self.proj


class DualEncoder:
    """The frozen classifier: vision branch, text branch, cosine/temperature head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(1)]))
        self.vision = VisionEncoder(rng, config)
        self.text = TextEncoder(rng, config)
        self.temperature = config.temperature
        word_to_id = {w: i for i, w in enumerate(config.vocab)}
        self._class_ids = np.array(
            [
                [word_to_id["<sos>"]]
                + [word_to_id[w] for w in TEMPLATE_WORDS]
                + [word_to_id[name], word_to_id["<eos>"]]
                for name in config.class_names
            ],
            dtype=np.intp,
        )
        self._frozen_hash: str | None = None

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.vision.params()) + list(self.text.params())

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def set_trainable(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag
        self._frozen_hash = None

    def freeze(self) -> str:
        """Freeze all backbone weights and cache their hash."""
        self.set_trainable(False)
        self._frozen_hash = weights_hash(self)
        return self._frozen_hash

    def frozen_hash(self) -> str:
        if self._frozen_hash is None:
            self._frozen_hash = weights_hash(self)
        return self._frozen_hash

    # -- vision branch --------------------------------------------------------

    def patch_embed(self, image: np.ndarray) -> Tensor:
        """Project non-overlapping patches and add positional embeddings.

        Accepts (C, H, W) or a batch (B, C, H, W); returns (M, d) or (B, M, d).
        """
        single = np.ndim(image) == 3
        imgs = np.asarray(image, dtype=np.float64)
        if single:
            imgs = imgs[None]
        b, c, h, w = imgs.shape
        p = self.config.patch_size
        if h % p or w % p:
            raise ConfigurationError(f"image dims {h}x{w} not divisible by patch {p}")
        gh, gw = h // p, w // p
        patches = (
            imgs.reshape(b, c, gh, p, gw, p)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(b, gh * gw, c * p * p)
        )
        tokens = self.patch_proj_tokens(Tensor(patches))
        return tokens[0] if single else tokens

    def patch_proj_tokens(self, patches: Tensor) -> Tensor:
        return self.vision.patch_proj(patches) + self.vision.pos[1:]

    def embed_image(self, images: np.ndarray, prompts: PromptState | None = None) -> Tensor:
        """Token matrix entering the first block for a batch (B, C, H, W):
        CLS, then the layer-0 vision prompts if ``prompts`` is given, then the
        patch tokens."""
        b = images.shape[0]
        d = self.config.embed_dim_v
        v = self.config.n_prompt_tokens
        tokens = self.patch_embed(images)
        cls = ad.broadcast_to(ad.reshape(self.vision.cls + self.vision.pos[0], (1, 1, d)), (b, 1, d))
        if prompts is None:
            return ad.concat([cls, tokens], axis=1)
        pv = ad.broadcast_to(ad.reshape(prompts.vision_prompt(0), (1, v, d)), (b, v, d))
        return ad.concat([cls, pv, tokens], axis=1)

    def run_blocks(self, x: Tensor, lo: int, hi: int, prompts: PromptState | None = None):
        """Run vision blocks ``lo..hi-1`` (layers lo+1..hi) on a token batch.

        A prompted block below ``prompt_depth`` first replaces the prompt
        tokens with its own layer's vision prompts. Returns the output tokens
        and the list of each block's output.
        """
        b, _, d = x.shape
        v = self.config.n_prompt_tokens
        layer_tokens: list[Tensor] = []
        for i in range(lo, hi):
            if prompts is not None and 1 <= i < self.config.prompt_depth:
                pv = ad.broadcast_to(ad.reshape(prompts.vision_prompt(i), (1, v, d)), (b, v, d))
                x = ad.concat([x[:, :1], pv, x[:, 1 + v :]], axis=1)
            x = self.vision.blocks[i](x)
            layer_tokens.append(x)
        return x, layer_tokens

    def image_head(self, x: Tensor) -> Tensor:
        """L2-normalized projected CLS feature of the last block's tokens."""
        return ad.l2_normalize(ad.matmul(self.vision.ln_post(x[:, 0]), self.vision.proj))

    def encode_image(self, image, prompts: PromptState | None = None):
        """Encode one image or a batch of views.

        Returns (features, layer_tokens): the L2-normalized projected CLS
        feature per image, and each transformer layer's full output token
        matrix (used for the token-distribution statistics).
        """
        single = np.ndim(image) == 3
        imgs = np.asarray(image, dtype=np.float64)
        if single:
            imgs = imgs[None]
        x = self.embed_image(imgs, prompts)
        x, layer_tokens = self.run_blocks(x, 0, self.config.n_vision_layers, prompts)
        feat = self.image_head(x)
        if single:
            feat = feat[0]
        return feat, layer_tokens

    # -- text branch ----------------------------------------------------------

    def encode_text(self, class_id: int | None = None, prompts: PromptState | None = None) -> Tensor:
        """Encode one class (``class_id``) or all classes (``None``).

        The feature is the projected, L2-normalized <eos>-position token.
        """
        if class_id is None:
            ids = self._class_ids
        else:
            if not 0 <= class_id < self.config.n_classes:
                raise ContractError(f"unknown class id {class_id}")
            ids = self._class_ids[class_id : class_id + 1]
        b = ids.shape[0]
        d = self.config.embed_dim_t
        t = self.config.n_prompt_tokens

        emb = ad.take(self.text.token_table, ids, axis=0) + self.text.pos
        if prompts is not None:
            pt = ad.broadcast_to(ad.reshape(prompts.text_prompts[0], (1, t, d)), (b, t, d))
            x = ad.concat([emb[:, :1], pt, emb[:, 1:]], axis=1)
        else:
            x = emb

        for i, blk in enumerate(self.text.blocks):
            if prompts is not None and 1 <= i < self.config.prompt_depth:
                pt = ad.broadcast_to(ad.reshape(prompts.text_prompts[i], (1, t, d)), (b, t, d))
                x = ad.concat([x[:, :1], pt, x[:, 1 + t :]], axis=1)
            x = blk(x)

        feat = ad.l2_normalize(ad.matmul(self.text.ln_final(x[:, -1]), self.text.proj))
        return feat[0] if class_id is not None else feat

    # -- token layout -----------------------------------------------------------

    def token_indices(self, prompted: bool, include_cls: bool = False) -> np.ndarray:
        """Positions of patch tokens (optionally plus CLS) in a layer's output."""
        offset = 1 + (self.config.n_prompt_tokens if prompted else 0)
        idx = np.arange(offset, offset + self.config.n_patches, dtype=np.intp)
        if include_cls:
            idx = np.concatenate([[0], idx])
        return idx


def classify(img_features: Tensor, text_features: Tensor, temperature: float) -> Tensor:
    """Class probabilities: softmax over temperature-scaled cosine similarities.

    Both feature sets must already be L2-normalized; inputs are (B, d) and
    (C, d), output is (B, C) with rows summing to 1.
    """
    logits = ad.matmul(img_features, ad.transpose(text_features, (1, 0))) * float(temperature)
    return ad.softmax(logits, axis=-1)


def predict(model: DualEncoder, images: np.ndarray,
            prompts: PromptState | None = None) -> np.ndarray:
    """Argmax labels for a batch of images, without building a grad graph."""
    images = np.asarray(images, dtype=np.float64)
    out = np.empty(images.shape[0], dtype=np.int64)
    with ad.no_grad():
        text_feats = model.encode_text(prompts=prompts)
        for lo in range(0, images.shape[0], FORWARD_CHUNK):
            chunk = images[lo : lo + FORWARD_CHUNK]
            feats, _ = model.encode_image(chunk, prompts)
            probs = classify(feats, text_feats, model.temperature)
            out[lo : lo + chunk.shape[0]] = np.argmax(probs.data, axis=-1)
    return out


# -- pretraining --------------------------------------------------------------


def pretrain_backbone(
    model: DualEncoder,
    images: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    seed: int,
    lr: float = 1e-3,
    batch_size: int = 32,
) -> list[float]:
    """Train every backbone weight (no prompts) with cross-entropy over the
    cosine/temperature classifier, then freeze. Returns per-epoch mean loss.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = images.shape[0]
    if n == 0:
        raise DataError("pretraining dataset is empty")

    model.set_trainable(True)
    params = model.parameters()
    opt = AdamW(params, lr=lr, weight_decay=0.0)
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(2)]))
    c = model.config.n_classes

    history = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            idx = perm[lo : lo + batch_size]
            feats, _ = model.encode_image(images[idx])
            text_feats = model.encode_text()
            probs = classify(feats, text_feats, model.temperature)
            onehot = np.zeros((len(idx), c))
            onehot[np.arange(len(idx)), labels[idx]] = 1.0
            loss = -ad.tsum(Tensor(onehot) * ad.log(probs)) / float(len(idx))
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            total += loss.item() * len(idx)
        history.append(total / n)

    model.freeze()
    return history


# -- checkpoint serialization --------------------------------------------------


def _serialize(model: DualEncoder) -> bytes:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg = json.dumps(asdict(model.config), sort_keys=True).encode()
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    named = model.named_parameters()
    buf.write(struct.pack("<I", len(named)))
    for name, p in named:
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<I", p.ndim))
        for dim in p.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return buf.getvalue()


def weights_hash(model: DualEncoder) -> str:
    return hashlib.sha256(_serialize(model)).hexdigest()


def save_checkpoint(model: DualEncoder, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_serialize(model))


def load_checkpoint(path) -> DualEncoder:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint: {exc}") from exc
    view = memoryview(raw)
    off = 0

    def read(n: int) -> memoryview:
        nonlocal off
        if off + n > len(view):
            raise FormatError("checkpoint file truncated")
        chunk = view[off : off + n]
        off += n
        return chunk

    if bytes(read(8)) != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    (version,) = struct.unpack("<I", read(4))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", read(4))
    cfg_dict = json.loads(bytes(read(cfg_len)).decode())
    cfg_dict["class_names"] = tuple(cfg_dict["class_names"])
    config = ModelConfig(**cfg_dict)

    model = DualEncoder(config, seed=0)
    named = dict(model.named_parameters())
    (count,) = struct.unpack("<I", read(4))
    if count != len(named):
        raise FormatError(f"checkpoint holds {count} arrays, model needs {len(named)}")
    for _ in range(count):
        (name_len,) = struct.unpack("<H", read(2))
        name = bytes(read(name_len)).decode()
        (ndim,) = struct.unpack("<I", read(4))
        dims = struct.unpack(f"<{ndim}Q", read(8 * ndim))
        data = np.frombuffer(read(8 * int(np.prod(dims))), dtype="<f8").reshape(dims)
        if name not in named:
            raise FormatError(f"unknown array {name!r} in checkpoint")
        if named[name].shape != tuple(dims):
            raise FormatError(f"array {name!r} has shape {dims}, expected {named[name].shape}")
        named[name].data = data.astype(np.float64).copy()
    if off != len(view):
        raise FormatError("trailing bytes after checkpoint payload")
    model.freeze()
    return model
