"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is exactly what the prompted dual-encoder model and its losses
need: elementwise arithmetic with numpy broadcasting, matmul over stacked
matrices, shape/indexing ops, reductions, and softmax / layernorm / gelu
primitives. A tensor produced by an op keeps references to its parents and
a vector-Jacobian closure; ``backward`` walks that graph in reverse
topological order. Gradients are only tracked through tensors flagged
``requires_grad`` (the prompt leaves and coupling weights at test time),
so the frozen backbone never accumulates gradients by construction.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .errors import ContractError, ShapeError

_uid = itertools.count()
_state = threading.local()

# Optional forward-value finiteness checks (invariant: finite in -> finite out).
_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Enable NaN/Inf checks on every op output (slow; for tests)."""
    global _debug_checks
    _debug_checks = bool(enabled)


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

    __slots__ = ("data", "requires_grad", "grad", "_uid", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._uid = next(_uid)
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

    def __len__(self):
        return self.data.shape[0]

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

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        return backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents, vjp) -> Tensor:
    """Build an op-output tensor, attaching the tape record only if needed."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._uid = next(_uid)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite value produced by a forward op")
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


def power(a: Tensor, exponent: float) -> Tensor:
    k = float(exponent)

    def vjp(g):
        return (g * k * np.power(a.data, k - 1.0),)

    return _node(np.power(a.data, k), (a,), vjp)


def absolute(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0 (np.sign(0) == 0), the usual L1 convention.
    def vjp(g):
        return (g * np.sign(a.data),)

    return _node(np.abs(a.data), (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _node(out, (a,), lambda g: (g * 0.5 / out,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


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
    if axis == 0:
        key = (idx,)
    else:
        key = (slice(None),) * axis + (idx,)

    def vjp(g):
        z = np.zeros_like(a.data)
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
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if a.shape[-1] < 2:
        raise ContractError(f"layernorm needs last-axis length >= 2, got {a.shape}")
    if eps <= 0.0:
        raise ContractError("layernorm eps must be positive")
    mu = np.mean(a.data, axis=-1, keepdims=True)
    var = np.mean((a.data - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def vjp(g):
        ga = gg = gb = None
        if a.requires_grad:
            dxhat = g * gamma.data
            m1 = np.mean(dxhat, axis=-1, keepdims=True)
            m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
            ga = (dxhat - m1 - xhat * m2) * inv
        if gamma.requires_grad:
            gg = _unbroadcast(g * xhat, gamma.shape)
        if beta.requires_grad:
            gb = _unbroadcast(g, beta.shape)
        return ga, gg, gb

    return _node(out, (a, gamma, beta), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation GELU.

    0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))), evaluated in that order
    (so the bits equal the plain expression's) into reused buffers;
    ``empty_like`` keeps 0-d inputs as arrays that ``out=`` can write to.
    """
    x = a.data
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    out *= np.add(t, 1.0, out=np.empty_like(x))

    def vjp(g):
        # 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2)
        d_inner = np.multiply(x, x, out=np.empty_like(x))
        d_inner *= 3.0 * 0.044715
        d_inner += 1.0
        d_inner *= _GELU_C
        rest = np.multiply(t, t, out=np.empty_like(x))
        np.subtract(1.0, rest, out=rest)
        d = np.multiply(x, 0.5, out=np.empty_like(x))
        d *= rest
        d *= d_inner
        np.add(t, 1.0, out=rest)
        rest *= 0.5
        d += rest
        d *= g
        return (d,)

    return _node(out, (a,), vjp)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Rows scaled to unit L2 norm (composed from primitives)."""
    norm = sqrt(tsum(a * a, axis=axis, keepdims=True) + eps)
    return a / norm


# -- backward pass ----------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node._uid in seen:
            continue
        seen.add(node._uid)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p._uid not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns a mapping from each reachable gradient-participating leaf to
    its gradient array, and accumulates the same values into ``leaf.grad``.
    Accumulation order is fixed by the graph structure, so repeated runs
    over an identically built graph are bit-identical.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}

    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {loss._uid: np.ones_like(loss.data)}
    result: dict[Tensor, np.ndarray] = {}

    for node in reversed(order):
        g = grads.pop(node._uid, None)
        if g is None:
            continue
        if node._vjp is None:
            result[node] = g
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if p._uid in grads:
                grads[p._uid] = grads[p._uid] + pg
            else:
                grads[p._uid] = pg
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
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float(np.max(np.abs(analytic - fd) / denom))


def grad_check(f, params, step: float = 1e-5) -> float:
    """Max relative error between analytic gradients of ``f()`` and central
    finite differences, over every coordinate of ``params``.

    ``f`` must rebuild its graph from the current param values on each call.
    """
    return grad_check_many(lambda: {"f": f()}, params, step)["f"]


def grad_check_many(f, params, step: float = 1e-5, denom_floor=None) -> dict[str, float]:
    """Like ``grad_check`` for an ``f()`` returning a dict of scalar losses.

    All losses share each finite-difference evaluation, which makes checking
    a family of losses over the same forward pass much cheaper than checking
    them one by one. ``denom_floor`` may be a float or a per-loss dict; see
    ``_relative_error``.
    """
    params = list(params)
    names = list(f().keys())
    if denom_floor is None:
        denom_floor = {}
    if not isinstance(denom_floor, dict):
        denom_floor = {name: float(denom_floor) for name in names}

    analytic = {}
    for name in names:
        grads = backward(f()[name])
        analytic[name] = [grads.get(p, np.zeros_like(p.data)) for p in params]

    fds = {name: [np.empty(p.size) for p in params] for name in names}
    with no_grad():
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
            _relative_error(a, fd.reshape(a.shape), denom_floor.get(name, 1e-8))
            for a, fd in zip(analytic[name], fds[name])
        )
        for name in names
    }
