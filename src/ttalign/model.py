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
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (ConfigurationError, DataError, FormatError, ShapeError, check_int,
                     check_real, check_tuple)
from .optim import AdamW
from .seeds import philox

CHECKPOINT_MAGIC = b"DUALENC1"
CHECKPOINT_VERSION = 1

TEMPLATE_WORDS = ("a", "photo", "of", "a")
DEFAULT_CLASS_NAMES = (
    "ripple", "checker", "diagonal", "grid", "bands", "waves", "mesh", "stripes",
)
# Images per encode_image call when a dataset is forwarded without a tape
# (predict, source_stats).
FORWARD_CHUNK = 64


def check_class_names(names) -> tuple[str, ...]:
    """``names`` as a tuple of unique single words; anything else raises
    ConfigurationError."""
    names = check_tuple("class_names", names)
    for name in names:
        if not isinstance(name, str) or not name or " " in name:
            raise ConfigurationError(f"class name must be a single word: {name!r}")
    if len(set(names)) != len(names):
        raise ConfigurationError("class names must be unique")
    return names


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
        for f in fields(self):
            if f.type == "int":
                check_int(f.name, getattr(self, f.name), 1)
        check_real("temperature", self.temperature, 0, above=True)
        object.__setattr__(self, "class_names", check_class_names(self.class_names))
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
    def __init__(self, rng, d_in: int, d_out: int):
        self.w = Tensor(rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_out)))
        self.b = Tensor(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class _LayerNorm:
    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d))
        self.beta = Tensor(np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.gamma, self.beta)


class _Attention:
    def __init__(self, rng, d: int, n_heads: int):
        self.n_heads = n_heads
        self.wq = _Linear(rng, d, d)
        self.wk = _Linear(rng, d, d)
        self.wv = _Linear(rng, d, d)
        self.wo = _Linear(rng, d, d)


class _Block:
    """Pre-LN transformer block; output = residual stream after the MLP add."""

    def __init__(self, rng, d: int, n_heads: int, mlp_ratio: int):
        self.ln1 = _LayerNorm(d)
        self.attn = _Attention(rng, d, n_heads)
        self.ln2 = _LayerNorm(d)
        self.fc1 = _Linear(rng, d, d * mlp_ratio)
        self.fc2 = _Linear(rng, d * mlp_ratio, d)

    def __call__(self, x: Tensor) -> Tensor:
        at = self.attn
        params = (self.ln1.gamma, self.ln1.beta, at.wq.w, at.wq.b, at.wk.w, at.wk.b,
                  at.wv.w, at.wv.b, at.wo.w, at.wo.b, self.ln2.gamma, self.ln2.beta,
                  self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b)
        return ad.block(x, params, at.n_heads)


# -- prompts -----------------------------------------------------------------


class PromptState:
    """The test-time learnable state: per-layer text prompts plus the linear
    maps deriving the vision prompts from them.

    Any tensor may carry a leading set axis of S prompt sets, (S, t, d_t)
    or (S, d_t, d_v); one forward then evaluates all S sets, and a tensor
    without the axis is shared by every set (``prompt_sets``).
    ``reset()`` restores every parameter bit-exactly to its value at
    construction, which is what makes per-sample adaptation episodic.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = philox(seed, 0x9E3779B9)
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


def couple(text_prompt: Tensor, coupling: Tensor) -> Tensor:
    """Map text prompt tokens into the vision token space (linear, per layer,
    and per set when both carry a set axis)."""
    if text_prompt.shape[-1] != coupling.shape[-2]:
        raise ConfigurationError(
            f"coupling dims mismatch: prompts {text_prompt.shape} vs map {coupling.shape}"
        )
    return ad.matmul(text_prompt, coupling)


def prompt_sets(prompts: PromptState | None) -> int | None:
    """S when at least one prompt tensor carries a set axis of length S, None
    when none does (or there are no prompts). A tensor without the axis is
    shared by all S sets. Two different set counts, or a tensor that is
    neither (t, d) nor (S, t, d), raise ShapeError."""
    if prompts is None:
        return None
    params = prompts.parameters()
    lead = {p.shape[0] for p in params if p.ndim == 3}
    if len(lead) > 1 or any(p.ndim not in (2, 3) for p in params):
        raise ShapeError(
            "prompt tensors mix set axes: " + ", ".join(str(p.shape) for p in params)
        )
    return lead.pop() if lead else None


def _prompt_rows(prompt: Tensor, rows: int, sets: int | None) -> Tensor:
    """Prompt tokens for a batch of ``rows`` token matrices: (t, d) repeated
    for every row (shared by all sets), or (S, t, d) repeated for every row
    of its own set, where the rows are set-major (rows = S * B)."""
    if prompt.ndim == 2:
        t, d = prompt.shape
        return ad.broadcast_to(ad.reshape(prompt, (1, t, d)), (rows, t, d))
    return ad.take(prompt, np.repeat(np.arange(sets), rows // sets), axis=0)


def _unfold_sets(x: Tensor, sets: int) -> Tensor:
    """(S * B, ...) set-major rows -> (S, B, ...)."""
    return ad.reshape(x, (sets, x.shape[0] // sets) + x.shape[1:])


# -- encoders ----------------------------------------------------------------


class VisionEncoder:
    def __init__(self, rng, config: ModelConfig):
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


class TextEncoder:
    def __init__(self, rng, config: ModelConfig):
        d = config.embed_dim_t
        self.token_table = Tensor(rng.normal(0.0, 0.02, (len(config.vocab), d)))
        self.pos = Tensor(rng.normal(0.0, 0.02, (config.text_seq_len, d)))
        self.blocks = [
            _Block(rng, d, config.n_heads, config.mlp_ratio)
            for _ in range(config.n_text_layers)
        ]
        self.ln_final = _LayerNorm(d)
        self.proj = Tensor(rng.normal(0.0, 1.0 / np.sqrt(d), (d, config.feature_dim)))


def _named_tensors(obj, prefix: str):
    """(attribute path, tensor) for every Tensor reachable from ``obj``: its
    attributes in assignment order, list items by index (``blocks.3``)."""
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _named_tensors(item, f"{prefix}.{i}")
    elif isinstance(obj, (VisionEncoder, TextEncoder, _Block, _Attention, _Linear, _LayerNorm)):
        for name, value in vars(obj).items():
            yield from _named_tensors(value, f"{prefix}.{name}")


class DualEncoder:
    """The frozen classifier: vision branch, text branch, cosine/temperature head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = philox(seed, 1)
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
        return [*_named_tensors(self.vision, "vision"), *_named_tensors(self.text, "text")]

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

    def patch_embed(self, images: np.ndarray) -> Tensor:
        """Project the non-overlapping patches of a batch (B, C, H, W) and add
        positional embeddings; returns (B, M, d)."""
        imgs = np.asarray(images, dtype=np.float64)
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
        return self.vision.patch_proj(Tensor(patches)) + self.vision.pos[1:]

    def embed_image(self, images: np.ndarray, prompts: PromptState | None = None) -> Tensor:
        """Token matrix entering the first block for a batch (B, C, H, W):
        CLS, then the layer-0 vision prompts if ``prompts`` is given, then the
        patch tokens. With S prompt sets the batch repeats once per set, as
        S * B set-major rows."""
        d = self.config.embed_dim_v
        sets = prompt_sets(prompts)
        tokens = self.patch_embed(images)
        if sets is not None:
            tokens = ad.concat([tokens] * sets, axis=0)
        b = tokens.shape[0]
        cls = ad.broadcast_to(ad.reshape(self.vision.cls + self.vision.pos[0], (1, 1, d)), (b, 1, d))
        if prompts is None:
            return ad.concat([cls, tokens], axis=1)
        pv = _prompt_rows(prompts.vision_prompt(0), b, sets)
        return ad.concat([cls, pv, tokens], axis=1)

    def run_blocks(self, x: Tensor, lo: int, hi: int, prompts: PromptState | None = None):
        """Run vision blocks ``lo..hi-1`` (layers lo+1..hi) on a token batch.

        A prompted block below ``prompt_depth`` first replaces the prompt
        tokens with its own layer's vision prompts. Returns the output tokens
        and the list of each block's output.
        """
        layer_prompt = None if prompts is None else prompts.vision_prompt
        sets = prompt_sets(prompts)
        return self._run_prompted(self.vision.blocks, x, lo, hi, layer_prompt, sets)

    def _run_prompted(self, blocks, x: Tensor, lo: int, hi: int, layer_prompt, sets):
        """The deep-prompting rule of both branches: run ``blocks[lo:hi]``,
        and before each block i in 1..prompt_depth-1 replace the prompt tokens
        after the first token with ``layer_prompt(i)`` (none when
        ``layer_prompt`` is None). Returns the output and each block's output."""
        t = self.config.n_prompt_tokens
        layer_tokens: list[Tensor] = []
        for i in range(lo, hi):
            if layer_prompt is not None and 1 <= i < self.config.prompt_depth:
                p = _prompt_rows(layer_prompt(i), x.shape[0], sets)
                x = ad.concat([x[:, :1], p, x[:, 1 + t :]], axis=1)
            x = blocks[i](x)
            layer_tokens.append(x)
        return x, layer_tokens

    def image_head(self, x: Tensor) -> Tensor:
        """L2-normalized projected CLS feature of the last block's tokens."""
        return ad.l2_normalize(ad.matmul(self.vision.ln_post(x[:, 0]), self.vision.proj))

    def encode_image(self, image, prompts: PromptState | None = None):
        """Encode one image or a batch of views.

        Returns (features, layer_tokens): the L2-normalized projected CLS
        feature per image, (B, f), and each transformer layer's full output
        token matrix, (B, T, d) (used for the token-distribution statistics).
        With S prompt sets they are (S, B, f) and (S, B, T, d).
        """
        single = np.ndim(image) == 3
        imgs = np.asarray(image, dtype=np.float64)
        if single:
            imgs = imgs[None]
        sets = prompt_sets(prompts)
        x = self.embed_image(imgs, prompts)
        x, layer_tokens = self.run_blocks(x, 0, self.config.n_vision_layers, prompts)
        feat = self.image_head(x)
        if sets is not None:
            feat = _unfold_sets(feat, sets)
            layer_tokens = [_unfold_sets(t, sets) for t in layer_tokens]
        if single:
            feat = feat[0] if sets is None else feat[:, 0]
        return feat, layer_tokens

    # -- text branch ----------------------------------------------------------

    def encode_text(self, *, prompts: PromptState | None = None) -> Tensor:
        """Encode every class name in its template.

        The feature is the projected, L2-normalized <eos>-position token:
        (C, f), or (S, C, f) when a text prompt carries a set axis of S sets.
        Sets that differ only in their coupling maps share one (C, f) result.
        """
        sets = prompt_sets(prompts)
        if sets is not None and all(p.ndim == 2 for p in prompts.text_prompts):
            sets = None

        emb = ad.take(self.text.token_table, self._class_ids, axis=0) + self.text.pos
        if sets is not None:
            emb = ad.concat([emb] * sets, axis=0)
        x, layer_prompt = emb, None
        if prompts is not None:
            layer_prompt = prompts.text_prompts.__getitem__
            pt = _prompt_rows(layer_prompt(0), emb.shape[0], sets)
            x = ad.concat([emb[:, :1], pt, emb[:, 1:]], axis=1)
        n_layers = self.config.n_text_layers
        x, _ = self._run_prompted(self.text.blocks, x, 0, n_layers, layer_prompt, sets)
        feat = ad.l2_normalize(ad.matmul(self.text.ln_final(x[:, -1]), self.text.proj))
        return feat if sets is None else _unfold_sets(feat, sets)

    # -- token layout -----------------------------------------------------------

    def token_indices(self, prompted: bool) -> np.ndarray:
        """Positions of the patch tokens in a layer's output."""
        offset = 1 + (self.config.n_prompt_tokens if prompted else 0)
        return np.arange(offset, offset + self.config.n_patches, dtype=np.intp)


def classify(img_features: Tensor, text_features: Tensor, temperature: float) -> Tensor:
    """Class probabilities: softmax over temperature-scaled cosine similarities.

    Both feature sets must already be L2-normalized; inputs are (B, d) and
    (C, d), output is (B, C) with rows summing to 1. With S prompt sets the
    image features are (S, B, d), the text features (S, C, d) or, when the
    sets share their text prompts, (C, d), and the output is (S, B, C).
    """
    lead = tuple(range(text_features.ndim - 2))
    axes = lead + (text_features.ndim - 1, text_features.ndim - 2)
    logits = ad.matmul(img_features, ad.transpose(text_features, axes)) * float(temperature)
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
    Needs ``epochs >= 1``, ``batch_size >= 1`` and a finite ``lr > 0``.
    """
    epochs = check_int("epochs", epochs, 1)
    batch_size = check_int("batch_size", batch_size, 1)
    check_real("lr", lr, 0, above=True)
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = images.shape[0]
    if n == 0:
        raise DataError("pretraining dataset is empty")

    rng = philox(seed, 2)
    model.set_trainable(True)
    params = model.parameters()
    opt = AdamW(params, lr=lr, weight_decay=0.0)
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
            opt.step(ad.backward(loss))
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


class ByteReader:
    """The bytes of one binary file, read front to back; an unreadable file
    and a read past its end raise a FormatError that names ``what``."""

    def __init__(self, path, what: str):
        try:
            with open(path, "rb") as fh:
                self._raw = memoryview(fh.read())
        except OSError as exc:
            raise FormatError(f"cannot read {what}: {exc}") from exc
        self.what = what
        self.off = 0

    @property
    def left(self) -> int:
        return len(self._raw) - self.off

    def read(self, n: int) -> memoryview:
        if n > self.left:
            raise FormatError(f"{self.what} truncated")
        self.off += n
        return self._raw[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def load_checkpoint(path) -> DualEncoder:
    r = ByteReader(path, "checkpoint file")
    if r.read(8) != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = r.unpack("<I")
    try:
        cfg_dict = json.loads(bytes(r.read(cfg_len)).decode())
        cfg_dict["class_names"] = tuple(cfg_dict["class_names"])
        config = ModelConfig(**cfg_dict)
    except (ValueError, TypeError, KeyError, ConfigurationError) as exc:
        # ValueError covers undecodable bytes and malformed JSON; TypeError an
        # unknown key or a non-object; KeyError a missing class list;
        # ConfigurationError a value ModelConfig refuses.
        raise FormatError(f"bad checkpoint config: {type(exc).__name__}: {exc}") from exc

    model = DualEncoder(config, seed=0)
    named = dict(model.named_parameters())
    (count,) = r.unpack("<I")
    if count != len(named):
        raise FormatError(f"checkpoint holds {count} arrays, model needs {len(named)}")
    loaded: set[str] = set()
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = bytes(r.read(name_len)).decode(errors="replace")
        if name not in named:
            raise FormatError(f"unknown array {name!r} in checkpoint")
        if name in loaded:
            raise FormatError(f"array {name!r} appears twice in checkpoint")
        loaded.add(name)
        (ndim,) = r.unpack("<I")
        dims = r.unpack(f"<{ndim}Q")
        if named[name].shape != dims:
            raise FormatError(f"array {name!r} has shape {dims}, expected {named[name].shape}")
        data = np.frombuffer(r.read(8 * named[name].size), dtype="<f8").reshape(dims)
        named[name].data = data.astype(np.float64)
    if r.left:
        raise FormatError("trailing bytes after checkpoint payload")
    model.freeze()
    return model
