import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import check_gradients
from tabdiffuse import nn
from tabdiffuse import tensor as T
from tabdiffuse.denoisers import (DenoiserConfig, TimeStepMLPBlock, UNetStage, build_denoiser,
                                  film_pair)
from tabdiffuse.optim import smooth_l1
from tabdiffuse.rng import Rng
from tabdiffuse.tensor import NumericError, Tensor, parameter


def test_shape_invariant():
    t = Tensor(np.zeros((2, 3)))
    assert t.shape == (2, 3) and t.data.size == 6


def test_nonfinite_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        T.power(Tensor([0.0]), -1.0)


def test_float32_selectable():
    t = Tensor([1.0, 2.0], dtype=np.float32)
    assert t.data.dtype == np.float32
    assert (t + t).data.dtype == np.float32
    # a Python scalar takes the tensor's dtype instead of promoting it
    for out in (t - t, -t, t * 2.0, 2.0 * t, 1.0 + t, t - 1.0, t.mean()):
        assert out.data.dtype == np.float32
    for arch in ("transformer", "unet"):
        den = build_denoiser(DenoiserConfig(arch=arch, n_features=4, embed_dim=8, heads=2,
                                            unet_channels=(4, 8), groupnorm_groups=2,
                                            dtype="float32"), seed=0)
        x = np.random.default_rng(0).normal(size=(3, 4))
        with T.no_grad():
            assert den(x, np.array([5])).data.dtype == np.float32
        assert den(x, np.array([1, 2, 3]), training=True, rng=Rng(0)).data.dtype == np.float32


def test_linear_backward_matches_input():
    # loss = sum(w * x) -> dloss/dw == x
    x = np.array([1.0, -2.0, 3.0])
    w = parameter(np.array([0.5, 0.5, 0.5]))
    loss = (w * x).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, x)


def test_matmul_backward():
    a = parameter(np.arange(6, dtype=float).reshape(2, 3) / 7.0)
    b = parameter(np.arange(12, dtype=float).reshape(3, 4) / 11.0)
    check_gradients(lambda: (a @ b).sum(), [a, b])


def test_batched_matmul_backward():
    a = parameter(np.linspace(-1, 1, 24).reshape(2, 3, 4))
    b = parameter(np.linspace(0.1, 0.9, 8).reshape(4, 2))
    check_gradients(lambda: ((a @ b) * (a @ b)).mean(), [a, b])


def test_broadcast_add_mul_backward():
    a = parameter(np.linspace(-1, 1, 6).reshape(2, 3))
    bias = parameter(np.array([0.3, -0.2, 0.1]))
    check_gradients(lambda: ((a + bias) * (a + bias)).sum(), [a, bias])


@pytest.mark.parametrize(
    "opname",
    ["relu", "exp", "silu", "gelu", "abs"],
)
def test_elementwise_op_gradients(opname):
    p = parameter(np.array([0.31, 0.77, 1.53, 2.1]))
    op = {
        "relu": T.relu, "exp": T.exp,
        "silu": T.silu, "gelu": T.gelu, "abs": T.absolute,
    }[opname]
    check_gradients(lambda: op(p).sum(), [p])


def test_softmax_rows_sum_to_one_and_grad():
    p = parameter(np.array([[0.2, -1.0, 0.5], [2.0, 0.1, -0.3]]))
    s = T.softmax(p, axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), [1.0, 1.0], atol=1e-12)
    target = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    check_gradients(lambda: ((T.softmax(p, axis=-1) - target) ** 2.0).sum(), [p])


def test_take_concat_reshape_transpose_gradients():
    p = parameter(np.linspace(-2, 2, 12).reshape(3, 4))

    def loss():
        a = p[1:, :2]
        b = T.concat([a, a], axis=1)
        c = T.transpose(T.reshape(b, (2, 2, 2)), (1, 0, 2))
        return (c * c).sum()

    check_gradients(loss, [p])


def test_conv1d_forward_matches_direct():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5))
    w = rng.normal(size=(4, 3, 3))
    b = rng.normal(size=(4,))
    out = T.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    expect = np.zeros((2, 4, 5))
    for bi in range(2):
        for o in range(4):
            for l in range(5):
                expect[bi, o, l] = (xp[bi, :, l : l + 3] * w[o]).sum() + b[o]
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_conv1d_gradients():
    rng = np.random.default_rng(1)
    x = parameter(rng.normal(size=(2, 2, 6)) * 0.5)
    w = parameter(rng.normal(size=(3, 2, 3)) * 0.5)
    b = parameter(rng.normal(size=(3,)) * 0.5)
    check_gradients(lambda: (T.conv1d(x, w, b) ** 2.0).mean(), [x, w, b])


def test_reused_node_accumulates():
    p = parameter(np.array([2.0]))
    loss = (p * p + p).sum()  # d/dp = 2p + 1 = 5
    loss.backward()
    np.testing.assert_allclose(p.grad, [5.0])


# 1e16 + 1.0 rounds back to 1e16, so each sum below reads 0.0 or 1.0 by the
# order in which the shares were added.
@pytest.mark.parametrize("coeffs,expect", [
    ((1e16, 1.0, -1e16), 0.0),
    ((1.0, 1e16, -1e16), 0.0),
    ((1e16, -1e16, 1.0), 1.0),
])
@pytest.mark.parametrize("node", ["leaf", "intermediate"])
def test_gradient_shares_sum_in_arrival_order(coeffs, expect, node):
    p = parameter([1.0])
    x = p if node == "leaf" else p * 1.0
    sum((x * c).sum() for c in coeffs).backward()
    assert p.grad.tolist() == [expect]


@pytest.mark.parametrize("negate_middle,weights,expect", [
    (True, [1.0, 1.0, -1.0, 1.0, 1.0, 1.0], [3.0, 1.0]),
    # the leaf takes both direct shares before the share through p * -1.0
    (True, [1e16, 1.0, 1e16, 1.0, 1.0, 1.0], [0.0, 1.0]),
    # three direct shares in parent order, (1 + 1e16) - 1e16; the reverse order gives 1.0
    (False, [1.0, 1.0, 1e16, 1.0, -1e16, 1.0], [0.0, 3.0]),
])
def test_concat_shares_reach_the_leaf_in_walk_order(negate_middle, weights, expect):
    p = parameter([1e16, 1.0])
    parts = [p, p * -1.0 if negate_middle else p, p]
    (T.concat(parts) * np.array(weights)).sum().backward()
    assert p.grad.tolist() == expect


def test_backward_requires_scalar():
    p = parameter(np.ones(3))
    with pytest.raises(ValueError):
        (p * 2.0).backward()


# -- backward() consumes the graph it walks -------------------------------------------


def test_second_backward_raises():
    p = parameter(np.array([1.0, 2.0]))
    loss = (p * p).sum()
    loss.backward()
    assert loss._parents == ()
    with pytest.raises(RuntimeError, match="earlier backward"):
        loss.backward()
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])


def test_backward_through_a_walked_intermediate_raises():
    p = parameter(np.array([1.0, 2.0]))
    h = p * 2.0
    h.sum().backward()
    assert h._parents == () and h.requires_grad
    with pytest.raises(RuntimeError, match="earlier backward"):
        (h * 3.0).sum().backward()
    np.testing.assert_array_equal(p.grad, [2.0, 2.0])


def test_backward_releases_the_arrays_the_graph_saved():
    x = np.linspace(0.5, 1.5, 4)
    free = sys.getrefcount(x)
    p = parameter(np.ones(4))
    loss = T.exp(p * x).sum()
    assert sys.getrefcount(x) > free  # the product's backward saved x
    loss.backward()
    assert sys.getrefcount(x) == free
    np.testing.assert_allclose(p.grad, x * np.exp(x))


def test_no_grad_suppresses_graph():
    p = parameter(np.ones(3))
    with T.no_grad():
        out = (p * 2.0).sum()
    assert not out.requires_grad


def test_where_mask_selects():
    m = np.array([True, False, True])
    out = T.where_mask(m, Tensor([1.0, 1.0, 1.0]), Tensor([9.0, 9.0, 9.0]))
    np.testing.assert_allclose(out.data, [1.0, 9.0, 1.0])


# -- fused kernels against the composed chains they replaced ---------------------


def _linear_ref(x, w, b):
    return T.matmul(x, w) + b


def _layer_norm_ref(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * ((var + eps) ** -0.5) * gamma + beta


def _conv1d_ref(x, w, b, padding):
    B, C, L = x.shape
    O, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)
    cols = windows.transpose(0, 1, 3, 2).reshape(B, C * K, -1)
    return np.einsum("ok,bkl->bol", w.reshape(O, C * K), cols) + b[None, :, None]


def _group_norm_ref(x, gamma, beta, groups, eps):
    B, C, L = x.shape
    g = T.reshape(x, (B, groups, (C // groups) * L))
    mu = g.mean(axis=-1, keepdims=True)
    gc = g - mu
    var = (gc * gc).mean(axis=-1, keepdims=True)
    return T.reshape(gc * ((var + eps) ** -0.5), (B, C, L)) * gamma + beta


def _attention_ref(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, dropout=lambda p: p):
    B, n, d = x.shape

    def split(h):
        return T.transpose(T.reshape(h, (B, n, heads, d // heads)), (0, 2, 1, 3))

    scores = T.matmul(split(T.linear(x, wq, bq)),
                      T.transpose(split(T.linear(x, wk, bk)), (0, 1, 3, 2)))
    probs = dropout(T.softmax(scores * (1.0 / math.sqrt(d // heads)), axis=-1))
    mixed = T.matmul(probs, split(T.linear(x, wv, bv)))
    return T.linear(T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (B, n, d)), wo, bo)


def _reglu_film_ref(u, scale, shift):
    h = u.shape[-1] // 2
    return u[:, :, :h] * T.relu(u[:, :, h:]) * (scale + 1.0) + shift


def _linear_film_relu_ref(x, w, b, scale, shift):
    return T.relu(T.linear(x, w, b) * (scale + 1.0) + shift)


def _attention_args(rng, B=3, n=4, d=6):
    """x, then (weight, bias) for q, k, v and the output projection."""
    args = [rng.normal(size=(B, n, d))]
    for _ in range(4):
        args += [rng.normal(size=(d, d)) * 0.5, rng.normal(size=(d,)) * 0.5]
    return [parameter(a) for a in args]


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)], ids=["2d", "3d"])
def test_linear_kernel_gradients(shape):
    rng = np.random.default_rng(2)
    x = parameter(rng.normal(size=shape))
    w = parameter(rng.normal(size=(3, 4)) * 0.5)
    b = parameter(rng.normal(size=(4,)))
    check_gradients(lambda: (T.linear(x, w, b) ** 2.0).mean(), [x, w, b])


def test_layer_norm_kernel_gradients():
    rng = np.random.default_rng(3)
    x = parameter(rng.normal(1.0, 2.0, size=(2, 3, 5)))
    gamma = parameter(rng.normal(size=(5,)))
    beta = parameter(rng.normal(size=(5,)))
    target = rng.normal(size=(2, 3, 5))
    check_gradients(lambda: ((T.layer_norm(x, gamma, beta, 1e-5) - target) ** 2.0).mean(),
                    [x, gamma, beta])


def test_conv1d_kernel_one_gradients():
    # the U-Net's channel-changing skip path; kernel 3 is test_conv1d_gradients
    rng = np.random.default_rng(4)
    x = parameter(rng.normal(size=(2, 3, 5)) * 0.5)
    w = parameter(rng.normal(size=(4, 3, 1)) * 0.5)
    b = parameter(rng.normal(size=(4,)) * 0.5)
    check_gradients(lambda: (T.conv1d(x, w, b, padding=0) ** 2.0).mean(), [x, w, b])


def test_group_norm_kernel_gradients():
    rng = np.random.default_rng(9)
    x = parameter(rng.normal(1.0, 2.0, size=(2, 4, 5)))
    gamma = parameter(rng.normal(size=(4, 1)))
    beta = parameter(rng.normal(size=(4, 1)))
    target = rng.normal(size=(2, 4, 5))
    check_gradients(lambda: ((T.group_norm(x, gamma, beta, 2, 1e-5) - target) ** 2.0).mean(),
                    [x, gamma, beta])


@pytest.mark.parametrize("film", [False, True], ids=["silu", "film_silu"])
def test_group_norm_epilogue_gradients(film):
    rng = np.random.default_rng(25)
    x = parameter(rng.normal(1.0, 2.0, size=(2, 4, 5)))
    gamma, beta = parameter(rng.normal(size=(4, 1))), parameter(rng.normal(size=(4, 1)))
    pair = (parameter(rng.normal(1.0, 0.5, size=(2, 4, 1))),
            parameter(rng.normal(size=(2, 4, 1)))) if film else None
    target = rng.normal(size=(2, 4, 5))
    check_gradients(
        lambda: ((T.group_norm(x, gamma, beta, 2, 1e-5, pair, silu=True) - target) ** 2.0).mean(),
        [x, gamma, beta, *(pair or ())])


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "dropout_mask"])
def test_attention_kernel_gradients(masked):
    rng = np.random.default_rng(10)
    params = _attention_args(rng)
    mask = (rng.uniform(size=(3, 2, 4, 4)) > 0.3) / 0.7 if masked else None
    target = rng.normal(size=(3, 4, 6))
    check_gradients(lambda: ((T.attention(*params, 2, mask) - target) ** 2.0).mean(), params)


def test_reglu_film_kernel_gradients():
    rng = np.random.default_rng(11)
    u = parameter(rng.normal(size=(3, 4, 10)))
    scale = parameter(rng.normal(size=(3, 1, 5)))
    shift = parameter(rng.normal(size=(3, 1, 5)))
    check_gradients(lambda: (T.reglu_film(u, scale, shift) ** 2.0).mean(), [u, scale, shift])


def test_reglu_film_rejects_mismatched_modulation():
    with pytest.raises(ValueError, match="modulation dim"):
        T.reglu_film(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 1, 3))),
                     Tensor(np.zeros((1, 1, 3))))


def test_linear_film_relu_kernel_gradients():
    # a per-row modulation, scaled so that some pre-activations are negative
    rng = np.random.default_rng(18)
    x = parameter(rng.normal(size=(5, 3)))
    w = parameter(rng.normal(size=(3, 4)) * 0.5)
    b = parameter(rng.normal(size=(4,)) * 0.5)
    scale1 = parameter(rng.normal(size=(5, 4)))
    shift = parameter(rng.normal(size=(5, 4)) * 0.5)
    check_gradients(lambda: (T.linear_film_relu(x, w, b, scale1, shift) ** 2.0).mean(),
                    [x, w, b, scale1, shift])


def test_linear_film_relu_rejects_mismatched_modulation():
    with pytest.raises(ValueError, match="modulation dim"):
        T.linear_film_relu(*map(Tensor, (np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(4),
                                         np.ones((1, 5)), np.zeros((1, 5)))))


def test_layer_norm_forward_is_bitwise_the_composed_chain():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(3.0, 2.0, size=(16, 11, 24)))
    gamma, beta = Tensor(rng.normal(size=(24,))), Tensor(rng.normal(size=(24,)))
    np.testing.assert_array_equal(T.layer_norm(x, gamma, beta, 1e-5).data,
                                  _layer_norm_ref(x, gamma, beta, 1e-5).data)


def test_group_norm_forward_is_bitwise_the_composed_chain():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(3.0, 2.0, size=(16, 32, 10)))
    gamma, beta = Tensor(rng.normal(size=(32, 1))), Tensor(rng.normal(size=(32, 1)))
    np.testing.assert_array_equal(T.group_norm(x, gamma, beta, 4, 1e-5).data,
                                  _group_norm_ref(x, gamma, beta, 4, 1e-5).data)


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "dropout_mask"])
def test_attention_forward_is_bitwise_the_composed_chain(masked):
    # the transformer's shape: 11 tokens, dim 192, 8 heads
    rng = np.random.default_rng(13)
    args = [Tensor(a.data) for a in _attention_args(rng, B=16, n=11, d=192)]
    mask = (rng.uniform(size=(16, 8, 11, 11)) > 0.2) / 0.8 if masked else None
    np.testing.assert_array_equal(
        T.attention(*args, 8, mask).data,
        _attention_ref(*args, 8, dropout=(lambda p: p * mask) if masked else (lambda p: p)).data)


def test_reglu_film_forward_is_bitwise_the_composed_chain():
    rng = np.random.default_rng(14)
    u = Tensor(rng.normal(size=(16, 11, 512)))
    for lead in (1, 16):  # one shared time step, or one per row
        scale = Tensor(rng.normal(size=(lead, 1, 256)))
        shift = Tensor(rng.normal(size=(lead, 1, 256)))
        np.testing.assert_array_equal(T.reglu_film(u, scale, shift).data,
                                      _reglu_film_ref(u, scale, shift).data)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("grad", [False, True], ids=["in_place", "recorded"])
def test_linear_film_relu_forward_is_bitwise_the_composed_chain(dtype, grad):
    # the MLP block's shape: 1200 rows, width 32
    rng = np.random.default_rng(19)
    make = parameter if grad else Tensor
    x, w, b = (make(rng.normal(size=s).astype(dtype)) for s in ((1200, 32), (32, 32), (32,)))
    for lead in (1, 1200):  # one shared time step, or one per row
        scale, shift = (make(rng.normal(size=(lead, 32)).astype(dtype)) for _ in range(2))
        out = T.linear_film_relu(x, w, b, scale + 1.0, shift)
        assert out.data.dtype == dtype and out.requires_grad == grad
        np.testing.assert_array_equal(out.data, _linear_film_relu_ref(x, w, b, scale, shift).data)


@pytest.mark.parametrize("arch", ["mlp", "resnet"])
def test_mlp_block_training_step_matches_the_composed_chain(monkeypatch, arch):
    # every gradient share reaches the tokenizer in the composed chain's order,
    # and dropout draws its mask where it did, so trained weights keep their bits
    cfg = DenoiserConfig(arch=arch, n_features=5, hidden=12, blocks=3, ffn_dropout=0.3)
    x = np.random.default_rng(15).normal(size=(8, 5))
    t = np.arange(1, 9)
    target = Tensor(np.random.default_rng(16).normal(size=(8, 5)))

    def step():
        den, rng = build_denoiser(cfg, seed=3), Rng(17)
        smooth_l1(den(x, t, training=True, rng=rng), target).backward()
        return [(name, p.grad) for name, p in den.named_parameters()], rng.uniform((4,))

    grads, after = step()

    def composed(self, a, scale, shift, training, rng):
        h = _linear_film_relu_ref(a, self.linear.weight, self.linear.bias, scale, shift)
        return self.dropout(h, training, rng)

    monkeypatch.setattr(TimeStepMLPBlock, "__call__", composed)
    ref_grads, ref_after = step()
    np.testing.assert_array_equal(after, ref_after)
    assert [name for name, _ in grads] == [name for name, _ in ref_grads]
    for (name, g), (_, ref) in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("channels", [(16, 32), (8, 16, 32)], ids=["2-level", "3-level"])
def test_unet_stage_training_step_matches_the_transposed_film(monkeypatch, dtype, channels):
    # FiLM applied on (B, C, L) gives the forward bits and every gradient share
    # of FiLM applied on the (B, L, C) transpose, so trained U-Nets keep their bits
    cfg = DenoiserConfig(arch="unet", n_features=6, unet_channels=channels, heads=4,
                         attention_dropout=0.2, dtype=dtype)
    x = np.random.default_rng(15).normal(size=(8, 6))
    t = np.arange(1, 9)
    target = Tensor(np.random.default_rng(16).normal(size=(8, 6)).astype(dtype))

    def step():
        den, rng = build_denoiser(cfg, seed=3), Rng(17)
        out = den(x, t, training=True, rng=rng)
        smooth_l1(out, target).backward()
        return out.data, [(name, p.grad) for name, p in den.named_parameters()], rng.uniform((4,))

    out, grads, after = step()

    def transposed(self, x, t, training, rng):
        scale, shift = film_pair(self.tokenizer, t)
        h = T.transpose(self.gn1(self.conv1(x)), (0, 2, 1))
        c = self.out_ch
        h = h * (T.reshape(scale, (-1, 1, c)) + 1.0) + T.reshape(shift, (-1, 1, c))
        h = T.silu(T.transpose(h, (0, 2, 1)))
        h = T.silu(self.gn2(self.conv2(h))) + (x if self.skip is None else self.skip(x))
        return h + T.transpose(self.attn(T.transpose(h, (0, 2, 1)), training, rng), (0, 2, 1))

    monkeypatch.setattr(UNetStage, "__call__", transposed)
    ref_out, ref_grads, ref_after = step()
    assert out.tobytes() == ref_out.tobytes()
    np.testing.assert_array_equal(after, ref_after)
    assert [name for name, _ in grads] == [name for name, _ in ref_grads]
    for (name, g), (_, ref) in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes(), name


def test_transformer_training_step_matches_composed_attention(monkeypatch):
    # attention dropout draws its mask at the point in the rng stream the
    # composed chain's Dropout did, so training losses and streams carry over
    cfg = DenoiserConfig(arch="transformer", n_features=5, embed_dim=16, heads=4, blocks=2,
                         attention_dropout=0.2)
    x = np.random.default_rng(15).normal(size=(8, 5))
    t = np.arange(1, 9)
    target = Tensor(np.random.default_rng(16).normal(size=(8, 5)))

    def step():
        rng = Rng(17)
        loss = smooth_l1(build_denoiser(cfg, seed=3)(x, t, training=True, rng=rng), target)
        return loss.item(), rng.uniform((4,))

    loss, after = step()

    def composed(self, a, training=False, rng=None):
        return _attention_ref(a, self.q.weight, self.q.bias, self.k.weight, self.k.bias,
                              self.v.weight, self.v.bias, self.out.weight, self.out.bias,
                              self.heads, dropout=lambda p: self.attn_dropout(p, training, rng))

    monkeypatch.setattr(nn.MultiHeadSelfAttention, "__call__", composed)
    ref_loss, ref_after = step()
    np.testing.assert_array_equal(after, ref_after)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)


def _padded_window_conv1d(x, w, b, g, padding):
    """The np.pad + sliding_window_view conv1d that the gathering one
    replaced: its output, and its gradients for the output gradient ``g``."""
    B, C, L = x.shape
    O, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    Lout = L + 2 * padding - K + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)
    cols = windows.transpose(0, 2, 1, 3).reshape(B * Lout, C * K)
    out = cols @ w.reshape(O, C * K).T
    out += b
    out = np.ascontiguousarray(out.reshape(B, Lout, O).transpose(0, 2, 1))
    g2 = g.transpose(0, 2, 1).reshape(B * Lout, O)
    gcols = (g2 @ w.reshape(O, C * K)).reshape(B, Lout, C, K)
    gxp = np.zeros((B, C, L + 2 * padding), dtype=x.dtype)
    for k in range(K):
        gxp[:, :, k : k + Lout] += gcols[:, :, :, k].transpose(0, 2, 1)
    return out, gxp[:, :, padding : padding + L], (g2.T @ cols).reshape(O, C, K), g2.sum(axis=0)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kernel,padding", [(1, 0), (3, 1), (5, 2), (3, 0), (1, 1)])
def test_conv1d_is_bitwise_the_padded_window_composition(kernel, padding, dtype):
    # the U-Net's shapes: 64 rows, 10 positions; zero inputs pin the signed zeros
    rng = np.random.default_rng(22)
    x = rng.normal(size=(64, 16, 10)).astype(dtype)
    x[:, :, 3] = -0.0
    w = rng.normal(size=(32, 16, kernel)).astype(dtype)
    b = rng.normal(size=(32,)).astype(dtype)
    xt, wt, bt = parameter(x), parameter(w), parameter(b)
    out = T.conv1d(xt, wt, bt, padding=padding)
    g = rng.normal(size=out.shape).astype(dtype)
    (out * g).sum().backward()  # hands the conv exactly g
    expect = _padded_window_conv1d(x, w, b, g, padding)
    for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), expect):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_silu_is_bitwise_the_two_branch_sigmoid():
    a = np.concatenate([np.random.default_rng(23).normal(0.0, 4.0, size=200),
                        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]])
    for x in (a, a.astype(np.float32)):
        e = np.exp(-np.abs(x))
        expect = x * np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert T.silu(Tensor(x)).data.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("film", [False, True], ids=["silu", "film_silu"])
@pytest.mark.parametrize("lead", [1, 16], ids=["shared_t", "per_row_t"])
def test_group_norm_epilogues_are_bitwise_the_composed_chain(film, lead, dtype):
    # forward bits and every gradient of GroupNorm [-> FiLM] -> SiLU as one node
    # equal those of the chain of nodes the U-Net stage used to build
    rng = np.random.default_rng(24)
    data = [rng.normal(1.0, 2.0, size=(16, 32, 10)), rng.normal(size=(32, 1)),
            rng.normal(size=(32, 1)), rng.normal(1.0, 0.5, size=(lead, 32, 1)),
            rng.normal(size=(lead, 32, 1))]
    g = rng.normal(size=(16, 32, 10)).astype(dtype)

    def run(fused):
        x, gamma, beta, scale1, shift = (parameter(a.astype(dtype)) for a in data)
        pair = (scale1, shift) if film else None
        if fused:
            out = T.group_norm(x, gamma, beta, 4, 1e-5, pair, silu=True)
        else:
            h = T.group_norm(x, gamma, beta, 4, 1e-5)
            out = T.silu(h * scale1 + shift if film else h)
        (out * g).sum().backward()
        return [out.data] + [p.grad for p in (x, gamma, beta) + (pair or ())]

    for got, ref in zip(run(True), run(False), strict=True):
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()


def test_linear_forward_matches_matmul_plus_bias():
    rng = np.random.default_rng(6)
    w, b = Tensor(rng.normal(size=(24, 7))), Tensor(rng.normal(size=(7,)))
    x2 = Tensor(rng.normal(size=(32, 24)))
    np.testing.assert_array_equal(T.linear(x2, w, b).data, _linear_ref(x2, w, b).data)
    x3 = Tensor(rng.normal(size=(16, 11, 24)))
    assert _rel_err(T.linear(x3, w, b).data, _linear_ref(x3, w, b).data) <= 1e-12
    head_w, head_b = Tensor(rng.normal(size=(24, 1))), Tensor(rng.normal(size=(1,)))
    assert _rel_err(T.linear(x3, head_w, head_b).data,
                    _linear_ref(x3, head_w, head_b).data) <= 1e-12


@pytest.mark.parametrize("kernel", [1, 3])
def test_conv1d_forward_matches_einsum(kernel):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 6, 10))
    w, b = rng.normal(size=(5, 6, kernel)), rng.normal(size=(5,))
    pad = (kernel - 1) // 2
    out = T.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=pad).data
    assert out.shape == (8, 5, 10)
    assert _rel_err(out, _conv1d_ref(x, w, b, pad)) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", ["linear", "layer_norm", "conv1d", "group_norm", "attention",
                                "reglu_film", "linear_film_relu"])
def test_fused_ops_reject_nonfinite_output(op):
    big = 1e308
    # attention: q and k are finite (1e200), their scores overflow
    eye, zero = Tensor(np.eye(2)), Tensor(np.zeros(2))
    call = {
        "linear": lambda: T.linear(*map(Tensor, (np.full((2, 3), big), np.full((3, 2), big),
                                                 np.zeros(2)))),
        "layer_norm": lambda: T.layer_norm(*map(Tensor, (np.array([[big, -big, big]]),
                                                         np.ones(3), np.zeros(3))), 1e-5),
        "conv1d": lambda: T.conv1d(*map(Tensor, (np.full((1, 2, 4), big),
                                                 np.full((3, 2, 3), big), np.zeros(3)))),
        "group_norm": lambda: T.group_norm(*map(Tensor, (np.array([[[big, -big], [big, -big]]]),
                                                         np.ones((2, 1)), np.zeros((2, 1)))),
                                           1, 1e-5),
        "attention": lambda: T.attention(Tensor(np.full((1, 2, 2), 1e200)), eye, zero, eye,
                                         zero, eye, zero, eye, zero, 1),
        "reglu_film": lambda: T.reglu_film(*map(Tensor, (np.full((1, 2, 4), 1e200),
                                                         np.zeros((1, 1, 2)),
                                                         np.zeros((1, 1, 2))))),
        # -inf before the ReLU, which would turn it into 0
        "linear_film_relu": lambda: T.linear_film_relu(
            *map(Tensor, (np.full((2, 3), big), np.full((3, 2), -big), np.zeros(2),
                          np.ones((1, 2)), np.zeros((1, 2))))),
    }[op]
    with pytest.raises(NumericError, match=op):
        call()


# -- grad mode is per thread, and backward passes share nothing ------------------------


def test_grad_mode_and_sink_are_per_thread():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(6, 4)))
    w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(3,))

    def grads():
        w, b = parameter(w0.copy()), parameter(b0.copy())
        h = T.linear(x, w, b)
        for _ in range(8):  # a deep graph keeps the backward pass busy
            h = T.gelu(h) * 1.5
        (h**2.0).sum().backward()
        return w.grad, b.grad

    expect = grads()
    workers = min(2 * (os.cpu_count() or 1), 64) + 2  # more threads than cores
    start = threading.Barrier(workers)

    def worker():
        start.wait(timeout=30)
        out = []
        for _ in range(100):
            with T.no_grad():
                assert not T.linear(x, parameter(w0), parameter(b0)).requires_grad
            out.append(grads())
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker) for _ in range(workers)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for gw, gb in (g for res in results for g in res):
        np.testing.assert_array_equal(gw, expect[0])
        np.testing.assert_array_equal(gb, expect[1])
    assert T._grad_enabled.get()
