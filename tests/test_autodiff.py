import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ttalign
from ttalign import autodiff as ad
from ttalign.autodiff import Tensor
from ttalign.errors import ContractError, ShapeError


def matmul_oracle(a, b):
    """Schoolbook triple loop."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def layernorm_oracle(row, eps=1e-5):
    """Two-pass mean/variance normalization of one row."""
    mu = sum(row) / len(row)
    var = sum((x - mu) ** 2 for x in row) / len(row)
    return [(x - mu) / math.sqrt(var + eps) for x in row]


def layernorm_reference(a, gamma, beta, g, eps=1e-5):
    """LayerNorm over the last axis and its input, gamma and beta gradients,
    written out operation by operation with ``np.mean``."""
    mu = np.mean(a, axis=-1, keepdims=True)
    var = np.mean((a - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a - mu) * inv
    dxhat = g * gamma
    m1 = np.mean(dxhat, axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    lead = tuple(range(a.ndim - 1))
    return (xhat * gamma + beta, (dxhat - m1 - xhat * m2) * inv,
            (g * xhat).sum(axis=lead), g.sum(axis=lead))


def composed_attention(q, k, v, n_heads):
    """Multi-head attention composed of tape ops, one op at a time: split the
    heads, scale q, softmax of q @ k^T, merge ``att @ v`` back."""
    b, t, d = q.shape
    h, dh = n_heads, d // n_heads

    def split(x):  # (B,T,d) -> (B,h,T,dh)
        return ad.transpose(ad.reshape(x, (b, t, h, dh)), (0, 2, 1, 3))

    att = ad.softmax(ad.matmul(split(q) * (1.0 / np.sqrt(dh)),
                               ad.transpose(split(k), (0, 1, 3, 2))), axis=-1)
    return ad.reshape(ad.transpose(ad.matmul(att, split(v)), (0, 2, 1, 3)), (b, t, d))


def gelu_reference(x, g):
    """The tanh-approximation GELU and its input gradient ``g * gelu'(x)``,
    written out operation by operation."""
    c = math.sqrt(2.0 / math.pi)
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * x2 * x))
    out = 0.5 * x * (1.0 + t)
    d_inner = c * (1.0 + 3.0 * 0.044715 * x2)
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)


# -- forward values -----------------------------------------------------------


def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    npt.assert_array_equal(out.data, a)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    out = ad.matmul(Tensor(a), Tensor(b))
    npt.assert_array_equal(out.data, [[3.0], [7.0]])
    npt.assert_array_equal(out.data, matmul_oracle(a, b))


def test_matmul_zero_annihilates():
    a = np.zeros((2, 3))
    b = np.random.default_rng(0).normal(size=(3, 5))
    out = ad.matmul(Tensor(a), Tensor(b))
    npt.assert_array_equal(out.data, np.zeros((2, 5)))


def test_matmul_random_vs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        npt.assert_allclose(ad.matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), rtol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    npt.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_closed_form():
    x = np.log([1.0, 2.0, 3.0])
    out = ad.softmax(Tensor(x))
    npt.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)
    # cross-check against the direct exp/sum formula
    direct = np.exp(x) / np.exp(x).sum()
    npt.assert_allclose(out.data, direct, atol=1e-15)


def test_softmax_shift_invariant_and_normalized():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 7))
    a = ad.softmax(Tensor(x), axis=-1).data
    b = ad.softmax(Tensor(x + 10.0), axis=-1).data
    npt.assert_allclose(a, b, atol=1e-12)
    npt.assert_allclose(a.sum(axis=-1), np.ones(5), atol=1e-12)


def test_layernorm_constant_row_is_zero():
    out = ad.layernorm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    npt.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)


def test_layernorm_hand_case():
    out = ad.layernorm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    npt.assert_allclose(out.data, layernorm_oracle([1.0, 2.0, 3.0]), atol=1e-12)


def test_layernorm_mean_equals_beta():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 8))
    beta = 0.7
    out = ad.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.full(8, beta)))
    npt.assert_allclose(out.data.mean(axis=-1), np.full(4, beta), atol=1e-10)


def test_layernorm_rejects_short_rows():
    with pytest.raises(ContractError):
        ad.layernorm(Tensor([[1.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)))


def test_gelu_values():
    assert ad.gelu(Tensor(0.0)).item() == 0.0
    assert abs(ad.gelu(Tensor(10.0)).item() - 10.0) < 1e-6


def test_gelu_gradient_at_one():
    p = Tensor(np.array(1.0), requires_grad=True)
    err = ad.grad_check(lambda: ad.gelu(p), [p], step=1e-6)
    assert err < 1e-6


# 0-d, one block, exactly three blocks and two blocks plus a ragged third.
@pytest.mark.parametrize("shape", [(), (4, 7, 9), (3, ad.GELU_BLOCK // 8, 8),
                                   (2, ad.GELU_BLOCK + 77)])
def test_gelu_bit_identical_to_formula(shape):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape) * 3.0
    g = rng.normal(size=shape)
    want_out, want_grad = gelu_reference(x, g)
    p = Tensor(x.copy(), requires_grad=True)
    out = ad.gelu(p)
    assert out.shape == shape
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(ad.backward(ad.tsum(out * Tensor(g)))[p], want_grad)
    assert np.array_equal(p.data, x)


@pytest.mark.parametrize("shape", [(5, 3), (8, 17, 64)])
def test_layernorm_bit_identical_to_formula(shape):
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=shape) * 2.0 + 0.5, requires_grad=True)
    gamma = Tensor(rng.normal(size=shape[-1:]), requires_grad=True)
    beta = Tensor(rng.normal(size=shape[-1:]), requires_grad=True)
    g = rng.normal(size=shape)
    want = layernorm_reference(a.data, gamma.data, beta.data, g)
    out = ad.layernorm(a, gamma, beta)
    grads = ad.backward(ad.tsum(out * Tensor(g)))
    for got, ref in zip((out.data, grads[a], grads[gamma], grads[beta]), want):
        assert got.tobytes() == ref.tobytes()


# Token rows of a (B, T, 16) batch against GELU blocks of its (B, T, 64) MLP
# hidden layer: one row, fewer rows than one block, exactly two blocks, two
# blocks and a ragged 16-row third; then two stacked prompt sets of one batch.
_BLOCK_ROWS = ad.GELU_BLOCK // 64


@pytest.mark.parametrize("b, t, sets", [
    (1, 1, 1), (3, 17, 1), (2 * _BLOCK_ROWS // 16, 16, 1), (2 * _BLOCK_ROWS // 16 + 1, 16, 1),
    (4, 9, 2),
])
def test_attention_bit_identical_to_composition(b, t, sets):
    """Forward and the q, k and v gradients equal the composed ops' bits, and
    so does the gradient of the block input the three projections share,
    which sums their products in the same order."""
    rng = np.random.default_rng(21)
    base = rng.normal(size=(b, t, 16))
    xd = np.concatenate([base] + [np.concatenate(
        [base[:, :1], rng.normal(size=(b, min(2, t - 1), 16)), base[:, 3:]], axis=1)
        for _ in range(sets - 1)])
    ws = [rng.normal(size=(16, 16)) * 0.5 for _ in range(3)]
    g = rng.normal(size=xd.shape)

    def run(attend, leaves):
        x = Tensor(xd, requires_grad=True)
        if leaves:
            params = [Tensor(xd @ w, requires_grad=True) for w in ws]
            q, k, v = params
        else:
            params = [x]
            q, k, v = (ad.linear(x, Tensor(w)) for w in ws)
        out = attend(q, k, v, 4)
        grads = ad.backward(ad.tsum(out * Tensor(g)))
        return [out.data] + [grads[p] for p in params]

    for leaves in (True, False):
        got, want = run(ad.attention, leaves), run(composed_attention, leaves)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_attention_rejects_mismatched_shapes():
    q = Tensor(np.zeros((2, 3, 8)))
    with pytest.raises(ShapeError):
        ad.attention(q, Tensor(np.zeros((2, 4, 8))), q, 2)
    with pytest.raises(ShapeError):
        ad.attention(q, q, q, 3)


@pytest.mark.parametrize("indices, axis", [
    ([3, 0, 2], 0),       # unique
    ([1, 3, 1, 1], 0),    # repeated
    ([-1, 0, 2], 1),      # unique, one negative
    ([4, -1], 1),         # the same column twice, once as a negative index
])
def test_take_gradient_bits_equal_add_at(indices, axis):
    """Signed zeros included: np.add.at gives 0.0 + g, so -0.0 becomes +0.0."""
    a = Tensor(np.arange(20.0).reshape(4, 5), requires_grad=True)
    out = ad.take(a, indices, axis=axis)
    g = np.random.default_rng(4).normal(size=out.shape)
    g[..., 0] = -0.0
    g.reshape(-1)[1] = 0.0
    want = np.zeros_like(a.data)
    np.add.at(want, (slice(None),) * axis + (np.asarray(indices),), g)
    (got,) = out._vjp(g)
    assert got.tobytes() == want.tobytes()
    assert not np.any(np.signbit(got[got == 0.0]))


def test_plogp_zero_convention():
    out = ad.plogp(Tensor([0.0, 0.5, 1.0]))
    npt.assert_allclose(out.data, [0.0, 0.5 * math.log(0.5), 0.0], atol=1e-15)


# -- backward -----------------------------------------------------------------


def test_backward_sum_gives_ones():
    p = Tensor(np.arange(5.0), requires_grad=True)
    grads = ad.backward(ad.tsum(p))
    npt.assert_array_equal(grads[p], np.ones(5))


def test_backward_quadratic():
    p = Tensor([1.0, 2.0], requires_grad=True)
    grads = ad.backward(ad.tsum(p * p))
    npt.assert_array_equal(grads[p], [2.0, 4.0])


def test_backward_rejects_non_scalar():
    p = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(p * p)


def test_backward_skips_frozen_leaves():
    frozen = Tensor([1.0, 2.0], requires_grad=False)
    live = Tensor([3.0, 4.0], requires_grad=True)
    grads = ad.backward(ad.tsum(frozen * live))
    assert live in grads and frozen not in grads


def test_backward_linearity():
    rng = np.random.default_rng(4)
    p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)))

    def l1():
        return ad.tsum(ad.matmul(p, w) * ad.matmul(p, w))

    def l2():
        return ad.tsum(ad.gelu(p))

    g_sum = ad.backward(l1() + l2())[p]
    g_parts = ad.backward(l1())[p] + ad.backward(l2())[p]
    npt.assert_allclose(g_sum, g_parts, atol=1e-12)


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(5)
    p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 4)))

    def build():
        h = ad.gelu(ad.matmul(p, c))
        return ad.tsum(ad.softmax(h, axis=-1) * h)

    g1 = ad.backward(build())[p]
    g2 = ad.backward(build())[p]
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("op, sign", [(ad.add, 1.0), (ad.sub, -1.0)])
def test_add_sub_vjp_skips_frozen_operand(op, sign):
    rng = np.random.default_rng(8)
    live = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(4,)))
    g = rng.normal(size=(2, 3, 4))

    g_live, g_bias = op(live, bias)._vjp(g)
    assert g_bias is None
    npt.assert_array_equal(g_live, g)
    g_bias, g_live = op(bias, live)._vjp(g)
    assert g_bias is None
    npt.assert_array_equal(g_live, sign * g)

    w = Tensor(g)
    npt.assert_array_equal(ad.backward(ad.tsum(op(live, bias) * w))[live], g)
    npt.assert_array_equal(ad.backward(ad.tsum(op(bias, live) * w))[live], sign * g)


def test_backward_keeps_no_state():
    p = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, -1.0])
    loss = ad.tsum(p * p * w)
    g1 = ad.backward(loss)
    g2 = ad.backward(loss)
    assert list(g1) == list(g2) == [p]
    npt.assert_array_equal(g1[p], [6.0, -4.0])
    npt.assert_array_equal(g2[p], g1[p])
    for t in (p, w, loss):
        assert not hasattr(t, "grad")


def test_backward_frees_the_nodes_it_has_passed():
    """In a chain of eight 1-MiB nodes whose loss only ``backward`` holds,
    the first node's vjp runs after the seven above it are freed: it sees
    about 3 MiB of traced memory above the start (the leaf, its own value and
    its gradient), not the whole chain."""
    import tracemalloc

    seen = []

    def link(a, first):
        def vjp(g):
            if first:
                seen.append(tracemalloc.get_traced_memory()[0])
            return (g * 2.0,)

        return ad._node(a.data * 2.0, (a,), vjp)

    def chain():
        x = Tensor(np.ones(2**17), requires_grad=True)  # 1 MiB of float64
        for i in range(8):
            x = link(x, i == 0)
        return ad.tsum(x)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = ad.backward(chain())
    finally:
        tracemalloc.stop()
    (g,) = grads.values()
    npt.assert_array_equal(g, np.full(2**17, 256.0))
    assert (seen[0] - start) / 2**20 < 4.0


def test_no_grad_suppresses_graph():
    p = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        out = ad.tsum(p * p)
    assert not out.requires_grad
    assert ad.backward(out) == {}


# -- finite differences on every op -------------------------------------------


def _fd_case(name, build, params):
    err = ad.grad_check(build, params, step=1e-5)
    assert err < 1e-4, f"{name}: max relative error {err:.3e}"


def test_gradients_elementwise_ops():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)) + 3.0, requires_grad=True)  # positive, broadcast
    w = Tensor(rng.normal(size=(3, 4)))
    _fd_case("add", lambda: ad.tsum((a + b) * w), [a, b])
    _fd_case("sub", lambda: ad.tsum((a - b) * w), [a, b])
    _fd_case("mul", lambda: ad.tsum((a * b) * w), [a, b])
    _fd_case("div", lambda: ad.tsum((a / b) * w), [a, b])
    _fd_case("neg", lambda: ad.tsum(-a * w), [a])
    _fd_case("log", lambda: ad.tsum(ad.log(b) * w[0]), [b])
    _fd_case("sqrt", lambda: ad.tsum(ad.sqrt(b) * w[0]), [b])
    _fd_case("abs", lambda: ad.tsum(ad.absolute(a) * w), [a])  # entries away from 0
    _fd_case("plogp", lambda: ad.tsum(ad.plogp(b) * w[0]), [b])
    _fd_case("clip", lambda: ad.tsum(ad.clip_min(a, -10.0) * w), [a])


def test_gradients_matmul_variants():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    _fd_case("matmul", lambda: ad.tsum(ad.matmul(a, b)), [a, b])
    # stacked-batch times shared matrix
    c = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
    _fd_case("batched", lambda: ad.tsum(ad.matmul(c, b) * 0.3), [c, b])
    # full 4D attention-style product
    q = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
    _fd_case("qkT", lambda: ad.tsum(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))), [q, k])
    # fused linear layer, stacked input and broadcast bias
    bias = Tensor(rng.normal(size=(2,)), requires_grad=True)
    _fd_case("linear", lambda: ad.tsum(ad.linear(c, b, bias) * ad.linear(c, b, bias)),
             [c, b, bias])


def test_gradients_shape_ops():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = rng.normal(size=(2, 3, 4))
    _fd_case("reshape", lambda: ad.tsum(ad.reshape(a, (6, 4)) * Tensor(w.reshape(6, 4))), [a])
    _fd_case("transpose", lambda: ad.tsum(ad.transpose(a, (2, 0, 1)) * Tensor(w.transpose(2, 0, 1))), [a])
    _fd_case("slice", lambda: ad.tsum(a[:, 1:, :2] * Tensor(w[:, 1:, :2])), [a])
    _fd_case("take0", lambda: ad.tsum(ad.take(a, np.array([1, 0, 1]), axis=0)), [a])
    _fd_case("take1", lambda: ad.tsum(ad.take(a, np.array([2, 2, 0]), axis=1)), [a])
    _fd_case("concat", lambda: ad.tsum(ad.concat([a, a * 2.0], axis=1) * 0.7), [a])
    _fd_case("broadcast", lambda: ad.tsum(ad.broadcast_to(a[:, :1], (2, 5, 4)) * 1.3), [a])


def test_take_negative_axis_gathers_along_that_axis():
    a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = ad.take(a, [0, 1, 1], axis=-1)
    assert out.shape == (3, 3)
    assert np.array_equal(out.data, a.data[:, [0, 1, 1]])
    grads = ad.backward(ad.tsum(out * Tensor(np.arange(9.0).reshape(3, 3))))
    expect = np.zeros((3, 4))
    expect[:, 0] = [0.0, 3.0, 6.0]
    expect[:, 1] = [1.0 + 2.0, 4.0 + 5.0, 7.0 + 8.0]
    assert np.array_equal(grads[a], expect)
    assert np.array_equal(ad.take(a, [2], axis=-2).data, ad.take(a, [2], axis=0).data)
    idx = np.array([3, 0, 3])
    _fd_case("take-1", lambda: ad.tsum(ad.take(a, idx, axis=-1) * ad.take(a, idx, axis=-1)), [a])


@pytest.mark.parametrize("axis", [2, -3])
def test_take_axis_out_of_range(axis):
    with pytest.raises(ShapeError):
        ad.take(Tensor(np.zeros((3, 4))), [0], axis=axis)


# The reference is a matmul node followed by an add node, written in numpy.
# At (8, 17, 64) a 2-D GEMM over the flattened rows already changes the last
# bits of the input gradient, so these shapes tell the two apart.
@pytest.mark.parametrize("x_shape", [(17, 64), (8, 17, 64)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("grads", [(x, w, b) for x in (0, 1) for w in (0, 1) for b in (0, 1)])
def test_linear_bit_identical_to_matmul_add(x_shape, bias, grads):
    rng = np.random.default_rng(12)
    xd, wd, bd = rng.normal(size=x_shape), rng.normal(size=(64, 48)), rng.normal(size=(48,))
    g = rng.normal(size=x_shape[:-1] + (48,))
    x = Tensor(xd, requires_grad=bool(grads[0]))
    w = Tensor(wd, requires_grad=bool(grads[1]))
    b = Tensor(bd, requires_grad=bool(grads[2])) if bias else None
    out = ad.linear(x, w, b)
    want = np.matmul(xd, wd) + bd if bias else np.matmul(xd, wd)
    assert np.array_equal(out.data, want)
    live = [t for t in (x, w, b) if t is not None and t.requires_grad]
    assert out.requires_grad == bool(live)
    if not live:
        return
    got = ad.backward(ad.tsum(out * Tensor(g)))
    gw = np.matmul(np.swapaxes(xd, -1, -2), g)
    want_grads = {
        x: np.matmul(g, np.swapaxes(wd, -1, -2)),
        w: gw.sum(axis=0) if gw.ndim == 3 else gw,
        b: g.sum(axis=tuple(range(g.ndim - 1))),
    }
    assert set(got) == set(live)
    for t in live:
        assert np.array_equal(got[t], want_grads[t])


def test_gradients_reductions_and_nn_ops():
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    g = Tensor(rng.normal(size=(5,)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    _fd_case("sum-axis", lambda: ad.tsum(ad.tsum(a, axis=0) * b), [a, b])
    _fd_case("mean", lambda: ad.tmean(a * a), [a])
    _fd_case("mean-axes", lambda: ad.tsum(ad.tmean(ad.broadcast_to(a, (2, 3, 5)), axis=(0, 1)) * b), [a])
    _fd_case("softmax", lambda: ad.tsum(ad.softmax(a, axis=-1) * w), [a])
    _fd_case("layernorm", lambda: ad.tsum(ad.layernorm(a, g, b) * w), [a, g, b])
    _fd_case("gelu", lambda: ad.tsum(ad.gelu(a) * w), [a])
    _fd_case("l2norm", lambda: ad.tsum(ad.l2_normalize(a) * w), [a])


def test_gradients_attention():
    rng = np.random.default_rng(10)
    q, k, v = (Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(3))
    w = Tensor(rng.normal(size=(2, 3, 4)))
    _fd_case("attention", lambda: ad.tsum(ad.attention(q, k, v, 2) * w), [q, k, v])


def test_grad_check_sum_of_squares_is_tight():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    err = ad.grad_check(lambda: ad.tsum(p * p), [p], step=1e-5)
    assert err < 1e-9


def test_grad_check_nan_difference_is_infinite_error():
    # sqrt(0 - step) is NaN: a NaN difference must fail the check, not vanish
    # from the max over coordinates.
    p = Tensor(np.array([2.0, 0.0]), requires_grad=True)
    with np.errstate(invalid="ignore"):
        err = ad.grad_check(lambda: ad.tsum(ad.sqrt(p + 1e-12)), [p], step=1e-5)
    assert err == math.inf
    assert ad._relative_error(np.array([1.0]), np.array([np.nan])) == math.inf
    assert ad._relative_error(np.array([np.inf]), np.array([1.0])) == math.inf


def _has_mallopt() -> bool:
    # Asked of the C library itself, not of ttalign, so that the test also
    # runs (and fails) where ttalign never calls mallopt.
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# Two warm-up episodes fill the heap; the six after them are counted.
_EPISODE_FAULTS = """
import resource
import ttalign as tl
from ttalign import harness

source, test = harness.gen_synthetic(harness.GenConfig(n_source=16, n_test=8), seed=0)
model = tl.DualEncoder(tl.ModelConfig(), seed=1)
stats = tl.source_stats(source.images, model, dataset_id="source")
prompts = tl.PromptState(model.config, seed=0)
config = tl.TTAConfig(learning_rate=5e-3)

def episode(i):
    image = test.images[i].astype("float64")
    tl.adapt_and_predict(image, model, prompts, stats, config, view_seed=i)

for i in range(2):
    episode(i)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(2, 8):
    episode(i)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 6)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_episodes_reuse_freed_heap_pages():
    """An episode's tape reuses the previous episode's pages: it faults
    none of them in again (about 9,000 minor faults per episode otherwise)."""
    src = str(Path(ttalign.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _EPISODE_FAULTS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    faults_per_episode = float(run.stdout)
    assert faults_per_episode < 100, faults_per_episode
