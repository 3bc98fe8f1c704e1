import math

import numpy as np
import numpy.testing as npt
import pytest

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


@pytest.mark.parametrize("shape", [(), (4, 7, 9)])
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
    assert frozen.grad is None


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


def test_grad_accumulates_on_leaf():
    p = Tensor([1.0, 1.0], requires_grad=True)
    ad.backward(ad.tsum(p * p))
    ad.backward(ad.tsum(p * p))
    npt.assert_array_equal(p.grad, [4.0, 4.0])


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
    _fd_case("pow", lambda: ad.tsum(ad.power(b, 3) * w[0]), [b])
    _fd_case("exp", lambda: ad.tsum(ad.exp(a) * w), [a])
    _fd_case("log", lambda: ad.tsum(ad.log(b) * w[0]), [b])
    _fd_case("sqrt", lambda: ad.tsum(ad.sqrt(b) * w[0]), [b])
    _fd_case("tanh", lambda: ad.tsum(ad.tanh(a) * w), [a])
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


def test_grad_check_sum_of_squares_is_tight():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    err = ad.grad_check(lambda: ad.tsum(p * p), [p], step=1e-5)
    assert err < 1e-9


def test_debug_checks_flag_catches_nonfinite():
    ad.set_debug_checks(True)
    try:
        with pytest.raises(FloatingPointError), np.errstate(divide="ignore"):
            ad.log(Tensor([0.0]))
        out = ad.log(Tensor([1.0, 2.0]))  # finite input stays fine
        assert np.all(np.isfinite(out.data))
    finally:
        ad.set_debug_checks(False)
