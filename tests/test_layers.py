import math

import numpy as np
import pytest

from conftest import check_gradients
from tabdiffuse.nn import (
    BatchNorm1d,
    BatchSizeError,
    Dropout,
    GroupNorm,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    TimeStepTokenizer,
    sinusoid_embed,
)
from tabdiffuse.rng import Rng
from tabdiffuse.tensor import Tensor


# -- sinusoid embedding ---------------------------------------------------------


def test_sinusoid_t_zero():
    sin, cos = sinusoid_embed(0, 6)
    np.testing.assert_allclose(sin, np.zeros(6))
    np.testing.assert_allclose(cos, np.ones(6))


def test_sinusoid_kprime_one():
    sin, cos = sinusoid_embed(1, 1)
    assert sin[0] == pytest.approx(math.sin(1.0))
    assert cos[0] == pytest.approx(math.cos(1.0))


def test_sinusoid_frequency_decay():
    kp = 8
    freqs = np.exp(-math.log(1e4) * np.arange(kp) / kp)
    ratios = freqs[1:] / freqs[:-1]
    np.testing.assert_allclose(ratios, math.exp(-math.log(1e4) / kp))
    sin, _ = sinusoid_embed(1, kp)
    np.testing.assert_allclose(sin, np.sin(freqs))


def test_sinusoid_batched():
    sin, cos = sinusoid_embed(np.array([0, 1, 5]), 4)
    assert sin.shape == (3, 4) and cos.shape == (3, 4)


# -- time step tokenizer ----------------------------------------------------------


def test_tokenizer_zero_params_zero_embedding():
    tok = TimeStepTokenizer(4, Rng(0))
    for _, p in tok.named_parameters():
        p.data[...] = 0.0
    out = tok(np.array([3, 17]))
    np.testing.assert_array_equal(out.data, np.zeros((2, 8)))


def test_tokenizer_output_length():
    tok = TimeStepTokenizer(5, Rng(1))
    assert tok(np.array([9])).shape == (1, 10)
    scale, shift = tok.split(tok(np.array([9])))
    assert scale.shape == (1, 5) and shift.shape == (1, 5)


def test_tokenizer_distinct_times_distinct_embeddings():
    tok = TimeStepTokenizer(6, Rng(2))
    out = tok(np.array([3, 7])).data
    assert not np.allclose(out[0], out[1])


def test_tokenizer_disabled_emits_zeros():
    tok = TimeStepTokenizer(4, Rng(0), enabled=False)
    np.testing.assert_array_equal(tok(np.array([5])).data, np.zeros((1, 8)))


# -- dropout ----------------------------------------------------------------------


def test_dropout_eval_identity():
    x = Tensor(np.linspace(-1, 1, 10))
    out = Dropout(0.5)(x, training=False, rng=None)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_training_mean_matches_eval():
    p = 0.3
    x = np.full(8, 2.0)
    drop = Dropout(p)
    rng = Rng(0)
    n = 10_000
    acc = np.zeros(8)
    for _ in range(n):
        acc += drop(Tensor(x), training=True, rng=rng).data
    avg = acc / n
    sigma = abs(2.0) * math.sqrt(p / (1 - p) / n)
    assert np.all(np.abs(avg - x) <= 3 * sigma + 1e-9)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dropout_mask_is_the_scaled_keep_mask(dtype):
    mask = Dropout(0.3).mask((5, 7), dtype, True, Rng(4))
    expect = (Rng(4).uniform((5, 7)) > 0.3).astype(dtype) / (1.0 - 0.3)
    assert mask.dtype == dtype and mask.tobytes() == expect.tobytes()


def test_dropout_needs_rng_in_training():
    with pytest.raises(ValueError):
        Dropout(0.5)(Tensor(np.ones(3)), training=True, rng=None)
    with pytest.raises(ValueError):
        Dropout(1.0)


# -- norms --------------------------------------------------------------------------


def test_batchnorm_batch_of_one_rejected():
    bn = BatchNorm1d(3)
    with pytest.raises(BatchSizeError):
        bn(Tensor(np.ones((1, 3))), training=True)
    bn(Tensor(np.ones((1, 3))), training=False)  # eval mode is fine


def test_batchnorm_normalizes_in_training():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(3.0, 2.0, size=(64, 4)))
    out = BatchNorm1d(4)(x, training=True)
    np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-3)


def test_layernorm_normalizes_rows():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(2.0, 3.0, size=(5, 16)))
    out = LayerNorm(16)(x)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)


def test_groupnorm_normalizes_groups():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(1.0, 2.0, size=(3, 8, 10)))
    out = GroupNorm(8, 4)(x)
    grouped = out.data.reshape(3, 4, 2 * 10)
    np.testing.assert_allclose(grouped.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(grouped.var(axis=-1), 1.0, atol=1e-3)


# -- attention -----------------------------------------------------------------------


def test_single_token_attention_is_affine():
    attn = MultiHeadSelfAttention(8, 2, attn_dropout=0.0, rng=Rng(3))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(1, 1, 8)), rng.normal(size=(1, 1, 8))

    def f(v):
        return attn(Tensor(v)).data

    lhs = f(x) + f(y) - f(np.zeros((1, 1, 8)))
    np.testing.assert_allclose(lhs, f(x + y), atol=1e-10)


def test_attention_shape_and_determinism():
    attn = MultiHeadSelfAttention(6, 3, attn_dropout=0.0, rng=Rng(4))
    x = np.random.default_rng(1).normal(size=(2, 5, 6))
    out1, out2 = attn(Tensor(x)), attn(Tensor(x))
    assert out1.shape == (2, 5, 6)
    np.testing.assert_array_equal(out1.data, out2.data)


# -- per-layer gradient checks (acceptance: every layer type) -------------------------


def _rand(shape, scale=0.7, seed=0):
    return np.random.default_rng(seed).normal(size=shape) * scale


def test_linear_gradients():
    lin = Linear(3, 4, Rng(0))
    x = Tensor(_rand((5, 3)))
    check_gradients(lambda: (lin(x) ** 2.0).mean(), [lin.weight, lin.bias])


def test_batchnorm_gradients_training_mode():
    bn = BatchNorm1d(3)
    x = Tensor(_rand((6, 3), seed=1))
    check_gradients(lambda: (bn(x, training=True) ** 2.0).mean(), [bn.gamma, bn.beta])


def test_layernorm_gradients():
    ln = LayerNorm(4)
    x = Tensor(_rand((5, 4), seed=2))
    check_gradients(lambda: (ln(x) ** 2.0).mean(), [ln.gamma, ln.beta])


def test_groupnorm_gradients():
    gn = GroupNorm(4, 2)
    x = Tensor(_rand((2, 4, 5), seed=3))
    check_gradients(lambda: (gn(x) ** 2.0).mean(), [gn.gamma, gn.beta])


def test_attention_gradients():
    attn = MultiHeadSelfAttention(4, 2, attn_dropout=0.0, rng=Rng(5))
    x = Tensor(_rand((2, 3, 4), seed=4))
    params = [p for _, p in attn.named_parameters()]
    check_gradients(lambda: (attn(x) ** 2.0).mean(), params)


def test_tokenizer_gradients():
    tok = TimeStepTokenizer(3, Rng(6))
    params = [p for _, p in tok.named_parameters()]
    check_gradients(lambda: (tok(np.array([2, 9])) ** 2.0).mean(), params)


def test_film_gradients_through_modulation():
    lin = Linear(3, 3, Rng(7))
    tok = TimeStepTokenizer(3, Rng(8))
    x = Tensor(_rand((4, 3), seed=5))

    def loss():
        scale, shift = tok.split(tok(np.array([1, 5, 9, 2])))
        return ((lin(x) * (scale + 1.0) + shift) ** 2.0).mean()

    params = [p for _, p in lin.named_parameters()] + [p for _, p in tok.named_parameters()]
    check_gradients(loss, params)


def test_dropout_gradients_fixed_mask():
    # backward through a frozen dropout pattern equals mask-scaled gradient
    x = Tensor(_rand((4, 3), seed=6), requires_grad=True)
    mask = (np.random.default_rng(7).random((4, 3)) > 0.5) / 0.5
    loss = ((x * mask) ** 2.0).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data * mask**2, atol=1e-12)
