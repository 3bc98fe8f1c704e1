"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is exactly what the prompted dual-encoder model and its losses
need: elementwise arithmetic with numpy broadcasting, matmul over stacked
matrices, shape/indexing ops, reductions, and softmax / layernorm / gelu /
multi-head attention primitives. A tensor produced by an op keeps references to its parents and
a vector-Jacobian closure; ``backward`` walks that graph in reverse
topological order. Gradients are only tracked through tensors flagged
``requires_grad`` (the prompt leaves and coupling weights at test time),
so the frozen backbone never accumulates gradients by construction.
"""

from __future__ import annotations

import ctypes
import math
import threading

import numpy as np

from .errors import ContractError, ShapeError

# An adaptation episode tapes about 70 MiB of arrays and frees them when it
# ends. By default glibc then returns the top of its heap, and every block it
# served by mmap, to the kernel, so the next episode faults the same pages in
# again (9,000-22,000 minor page faults per episode on a 2-vCPU x86-64 guest
# with glibc 2.36). Serving blocks up to 32 MiB (glibc's own ceiling for its
# dynamic mmap threshold) from the heap and never trimming it keeps those
# pages for the next episode. Both values must be set: setting either one
# alone turns off glibc's dynamic threshold, which faults more than the
# default. Without glibc's mallopt, nothing changes.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (OSError, AttributeError):
    pass
else:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-3, 32 * 1024 * 1024)  # M_MMAP_THRESHOLD
    _mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim

_state = threading.local()

def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables graph construction on this thread."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """A dense float64 array plus optional participation in the grad tape."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return getitem(self, key)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents, vjp) -> Tensor:
    """Build an op-output tensor, attaching the tape record only if needed."""
    out = Tensor.__new__(Tensor)
    out.data = data
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data / b.data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def absolute(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0 (np.sign(0) == 0), the usual L1 convention.
    def vjp(g):
        return (g * np.sign(a.data),)

    return _node(np.abs(a.data), (a,), vjp)


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _node(out, (a,), lambda g: (g * 0.5 / out,))


def clip_min(a: Tensor, lo: float) -> Tensor:
    """max(a, lo) elementwise; gradient is 0 where the clamp is active."""
    mask = a.data > lo

    def vjp(g):
        return (g * mask,)

    return _node(np.maximum(a.data, lo), (a,), vjp)


def plogp(a: Tensor) -> Tensor:
    """x * log(x) with the 0 * log(0) := 0 convention."""
    pos = a.data > 0.0
    safe = np.where(pos, a.data, 1.0)
    out = np.where(pos, safe * np.log(safe), 0.0)

    def vjp(g):
        return (g * np.where(pos, np.log(safe) + 1.0, 0.0),)

    return _node(out, (a,), vjp)


# -- linear algebra and shape ops -----------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return linear(a, b)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w`` over stacked matrices, plus ``b`` if given, as one tape node.

    The bias is added in place to the product. That gives the same bits as a
    separate ``add`` node, and each gradient is computed as that node and the
    product would compute it.
    """
    if x.ndim < 2 or w.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {x.shape} @ {w.shape}")
    out = np.matmul(x.data, w.data)
    if b is not None:
        out += b.data

    def vjp(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = _unbroadcast(np.matmul(g, np.swapaxes(w.data, -1, -2)), x.shape)
        if w.requires_grad:
            gw = _unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), g), w.shape)
        if b is not None and b.requires_grad:
            gb = _unbroadcast(g, b.shape)
        return gx, gw, gb

    return _node(out, (x, w) if b is None else (x, w, b), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _node(
        np.ascontiguousarray(np.transpose(a.data, axes)),
        (a,),
        lambda g: (np.transpose(g, inverse),),
    )


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _node(
        np.broadcast_to(a.data, shape).copy(),
        (a,),
        lambda g: (_unbroadcast(g, a.shape),),
    )


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def getitem(a: Tensor, key) -> Tensor:
    """Basic (slice/int/ellipsis) indexing only; selections must be disjoint."""

    def vjp(g):
        z = np.zeros_like(a.data)
        z[key] = g
        return (z,)

    return _node(a.data[key].copy(), (a,), vjp)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather along ``axis``. Indices may repeat; gradients accumulate."""
    idx = np.asarray(indices, dtype=np.intp)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"take axis {axis} out of range for shape {a.shape}")
    key = (slice(None),) * (axis % a.ndim) + (idx,)

    def vjp(g):
        z = np.zeros_like(a.data)
        if np.unique(idx % a.shape[axis]).size == idx.size:
            # np.add.at's bits, 0.0 + g (so -0.0 comes out as +0.0), without its loop.
            z[key] = g + 0.0
        else:
            np.add.at(z, key, g)
        return (z,)

    return _node(a.data[key].copy(), (a,), vjp)


# -- reductions -----------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = np.sum(a.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _node(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    out = np.mean(a.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp / count, a.shape).copy(),)

    return _node(out, (a,), vjp)


# -- neural-net primitives -------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; rows sum to 1, shift-invariant."""
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), vjp)


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.
    Means are ``np.add.reduce`` divided in place, as ``np.mean`` computes them."""
    if a.shape[-1] < 2:
        raise ContractError(f"layernorm needs last-axis length >= 2, got {a.shape}")
    if eps <= 0.0:
        raise ContractError("layernorm eps must be positive")
    n = a.shape[-1]
    mu = np.add.reduce(a.data, axis=-1, keepdims=True)
    mu /= n
    xhat = a.data - mu
    out = np.multiply(xhat, xhat)  # squared deviations, then the output
    var = np.add.reduce(out, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def vjp(g):
        ga = gg = gb = None
        if a.requires_grad:
            ga = g * gamma.data  # dxhat, then the input gradient
            m1 = np.add.reduce(ga, axis=-1, keepdims=True)
            m1 /= n
            tmp = ga * xhat
            m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
            m2 /= n
            ga -= m1
            ga -= np.multiply(xhat, m2, out=tmp)
            ga *= inv
        if gamma.requires_grad:
            gg = _unbroadcast(g * xhat, gamma.shape)
        if beta.requires_grad:
            gb = _unbroadcast(g, beta.shape)
        return ga, gg, gb

    return _node(out, (a, gamma, beta), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head attention from (B, T, d) q, k and v to the context, as one
    tape node. It runs the composed ops (contiguous head copies, q scaled by
    1/sqrt(d / n_heads), softmax of q @ k^T, ``att @ v`` merged back) on the
    same operand layouts, so forward and gradients keep their bits."""
    if not q.shape == k.shape == v.shape or q.ndim != 3 or q.shape[-1] % n_heads:
        raise ShapeError(f"attention needs equal (B, T, d) q, k, v with d divisible by "
                         f"{n_heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    b, t, d = q.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x, axes):  # contiguous per-head copy of a (B, T, d) projection
        return np.ascontiguousarray(x.reshape(b, t, n_heads, dh).transpose(axes))

    qh = heads(q.data, (0, 2, 1, 3))
    qh *= scale
    kt = heads(k.data, (0, 2, 3, 1))  # k^T, (B, h, dh, T)
    vh = heads(v.data, (0, 2, 1, 3))
    att = np.matmul(qh, kt)
    att -= np.max(att, axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= np.sum(att, axis=-1, keepdims=True)
    out = np.ascontiguousarray(np.matmul(att, vh).transpose(0, 2, 1, 3)).reshape(b, t, d)

    def vjp(g):
        go = g.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if v.requires_grad:
            gv = np.matmul(np.swapaxes(att, -1, -2), go).transpose(0, 2, 1, 3).reshape(b, t, d)
        if q.requires_grad or k.requires_grad:
            gs = np.matmul(go, np.swapaxes(vh, -1, -2))  # d att, then d scores
            gs -= np.sum(gs * att, axis=-1, keepdims=True)
            gs *= att
            if q.requires_grad:
                gq = np.matmul(gs, np.swapaxes(kt, -1, -2)) * scale
                gq = gq.transpose(0, 2, 1, 3).reshape(b, t, d)
            if k.requires_grad:
                gk = np.matmul(np.swapaxes(qh, -1, -2), gs).transpose(0, 3, 1, 2).reshape(b, t, d)
        return gq, gk, gv

    return _node(out, (q, k, v), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)

# Elements per GELU block, so that forward and vjp temporaries stay in L2. On
# an episode's (1,216, 256) fc1 output (2-vCPU x86-64, 2 MiB L2 per core),
# forward plus vjp took 4.8-5.7 ms unblocked and 4.2-5.7 / 3.1-4.4 / 2.8-3.7 /
# 2.8-3.7 / 3.2-4.1 ms at 4,096 / 8,192 / 16,384 / 32,768 / 65,536 (4 sweeps).
GELU_BLOCK = 16384


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation GELU.

    0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))), evaluated in that order
    (so the bits equal the plain expression's), block by block over the
    flattened array into reused buffers.
    """
    x = a.data.reshape(-1)
    t = np.empty_like(x)
    out = np.empty_like(x)
    tmp = np.empty(min(x.size, GELU_BLOCK))
    for lo in range(0, x.size, GELU_BLOCK):
        xb, tb, ob = (v[lo : lo + GELU_BLOCK] for v in (x, t, out))
        np.multiply(xb, xb, out=tb)
        tb *= 0.044715
        tb *= xb
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.multiply(xb, 0.5, out=ob)
        ob *= np.add(tb, 1.0, out=tmp[: xb.size])

    def vjp(g):
        # 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2)
        gf = g.reshape(-1)
        d = np.empty_like(x)
        d_inner, rest = np.empty((2, min(x.size, GELU_BLOCK)))
        for lo in range(0, x.size, GELU_BLOCK):
            xb, tb, db, gb = (v[lo : lo + GELU_BLOCK] for v in (x, t, d, gf))
            di, re = d_inner[: xb.size], rest[: xb.size]
            np.multiply(xb, xb, out=di)
            di *= 3.0 * 0.044715
            di += 1.0
            di *= _GELU_C
            np.multiply(tb, tb, out=re)
            np.subtract(1.0, re, out=re)
            np.multiply(xb, 0.5, out=db)
            db *= re
            db *= di
            np.add(tb, 1.0, out=re)
            re *= 0.5
            db += re
            db *= gb
        return (d.reshape(a.shape),)

    return _node(out.reshape(a.shape), (a,), vjp)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Rows scaled to unit L2 norm (composed from primitives)."""
    norm = sqrt(tsum(a * a, axis=axis, keepdims=True) + eps)
    return a / norm


# -- backward pass ----------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns a mapping from each reachable gradient-participating leaf to
    its gradient array, and writes nothing to any tensor. Accumulation order
    is fixed by the graph structure, so repeated runs over an identically
    built graph are bit-identical.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}

    order = _toposort(loss)
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    result: dict[Tensor, np.ndarray] = {}

    for node in reversed(order):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._vjp is None:
            result[node] = g
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if p in grads:
                grads[p] = grads[p] + pg
            else:
                grads[p] = pg
    return result


# -- finite-difference checking ---------------------------------------------


def _relative_error(analytic: np.ndarray, fd: np.ndarray, floor: float = 1e-8) -> float:
    """Max relative mismatch with an absolute-scale floor on the denominator.

    Coordinates whose gradient is at least ``floor`` face the plain relative
    comparison; smaller ones are held to ``floor``-relative absolute
    agreement instead. The floor exists for losses whose value dwarfs some
    gradient entries: there a float64 central difference carries
    rounding/truncation noise larger than any fixed fraction of the entry
    itself, so a pure relative comparison measures noise, not the gradient.
    A non-finite entry in either array is an infinite error, so that no
    ``max`` over errors can drop it as it drops a NaN.
    """
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(fd))):
        return math.inf
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float(np.max(np.abs(analytic - fd) / denom))


def grad_check(f, params, step: float = 1e-5) -> float:
    """Max relative error between analytic gradients of ``f()`` and central
    finite differences, over every coordinate of ``params``.

    ``f`` must rebuild its graph from the current param values on each call.
    It is called once per perturbed coordinate, so it may be any scalar
    function of the params; ``grad_check_many`` is the batched form.
    """
    params = list(params)
    grads = backward(f())
    errors = []
    with no_grad():
        for p in params:
            fd = np.empty(p.size)
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                try:
                    flat[i] = orig + step
                    fp = float(f().data)
                    flat[i] = orig - step
                    fm = float(f().data)
                finally:
                    flat[i] = orig
                fd[i] = (fp - fm) / (2.0 * step)
            analytic = grads.get(p, np.zeros_like(p.data))
            errors.append(_relative_error(analytic, fd.reshape(p.shape)))
    return max(errors)


# Coordinates perturbed per call of ``f`` in ``grad_check_many``: each takes
# two stacked parameter sets (+step and -step).
FD_CHUNK = 16


def grad_check_many(f, params, step: float = 1e-5, denom_floor=None) -> dict[str, float]:
    """Like ``grad_check`` for an ``f()`` returning a dict of scalar losses.

    ``f`` is called once on the unstacked params, and the analytic gradient
    of every loss is taken from that one graph. Each further call covers
    ``FD_CHUNK`` coordinates at once (fewer in the last chunk), shared by all
    losses: every param that owns a coordinate of the chunk holds a leading
    set axis of two stacked copies of its base value per coordinate, where
    set 2r is the r-th coordinate of the chunk at ``+step`` and set 2r+1 the
    same coordinate at ``-step``; every other param keeps its base array,
    shared by all sets. So ``f`` must accept any mix of stacked and unstacked
    params and then return one loss per set (shape (S,)). The params hold
    their base data again when this returns or raises. ``denom_floor`` maps a
    loss name to its floor (1e-8 where absent); see ``_relative_error``.
    """
    params = list(params)
    losses = f()
    names = list(losses)
    denom_floor = denom_floor or {}

    analytic = {}
    for name in names:
        grads = backward(losses[name])
        analytic[name] = [grads.get(p, np.zeros_like(p.data)) for p in params]
    del losses  # free the tape before the stacked forwards

    fds = {name: [np.empty(p.size) for p in params] for name in names}
    coords = [(j, i) for j, p in enumerate(params) for i in range(p.size)]
    base = [p.data for p in params]
    try:
        with no_grad():
            for lo in range(0, len(coords), FD_CHUNK):
                chunk = coords[lo : lo + FD_CHUNK]
                owners = {j for j, _ in chunk}
                sets = {j: np.repeat(base[j].reshape(1, -1), 2 * len(chunk), axis=0)
                        for j in owners}
                for r, (j, i) in enumerate(chunk):
                    orig = base[j].reshape(-1)[i]
                    sets[j][2 * r, i] = orig + step
                    sets[j][2 * r + 1, i] = orig - step
                for j, (p, b) in enumerate(zip(params, base)):
                    p.data = sets[j].reshape((-1,) + b.shape) if j in sets else b
                values = {k: v.data for k, v in f().items()}
                for r, (j, i) in enumerate(chunk):
                    for name in names:
                        v = values[name]
                        fds[name][j][i] = (v[2 * r] - v[2 * r + 1]) / (2.0 * step)
    finally:
        for p, b in zip(params, base):
            p.data = b

    return {
        name: max(
            _relative_error(a, fd.reshape(a.shape), denom_floor.get(name, 1e-8))
            for a, fd in zip(analytic[name], fds[name])
        )
        for name in names
    }
