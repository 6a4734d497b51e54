import dataclasses

import numpy as np
import pytest

from tabdiffuse.denoisers import (
    ARCHITECTURES,
    DenoiserConfig,
    build_denoiser,
)
from tabdiffuse.nn import BatchSizeError
from tabdiffuse.rng import Rng
from tabdiffuse.tensor import Tensor, relu

TINY = {
    "mlp": dict(arch="mlp", n_features=3, hidden=5, blocks=2,
                ffn_dropout=0.0, residual_dropout=0.0),
    "resnet": dict(arch="resnet", n_features=3, hidden=4, blocks=2,
                   ffn_dropout=0.0, residual_dropout=0.0),
    "transformer": dict(arch="transformer", n_features=3, embed_dim=8, heads=2, blocks=1,
                        attention_dropout=0.0, ffn_dropout=0.0, residual_dropout=0.0),
    "unet": dict(arch="unet", n_features=8, unet_channels=(4, 8), groupnorm_groups=2,
                 heads=2, attention_dropout=0.0),
}


def tiny(arch, **overrides):
    cfg = dict(TINY[arch])
    cfg.update(overrides)
    return DenoiserConfig(**cfg)


def fixture_batch(k, n=5, seed=0):
    x = Rng(seed).normal((n, k)) * 0.6
    t = np.array([1, 7, 19, 3, 11])[:n]
    return x, t


# -- shared contracts -----------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_output_shape_and_finite(arch):
    cfg = tiny(arch)
    den = build_denoiser(cfg, seed=3)
    x, t = fixture_batch(cfg.n_features)
    out = den(x, t)
    assert out.shape == x.shape
    assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_eval_forward_deterministic(arch):
    cfg = tiny(arch)
    den = build_denoiser(cfg, seed=4)
    x, t = fixture_batch(cfg.n_features)
    np.testing.assert_array_equal(den(x, t).data, den(x, t).data)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_same_seed_same_weights(arch):
    cfg = tiny(arch)
    a, b = build_denoiser(cfg, seed=9), build_denoiser(cfg, seed=9)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_disabled_time_embedding_makes_t_irrelevant(arch):
    cfg = dataclasses.replace(tiny(arch), time_embedding=False)
    den = build_denoiser(cfg, seed=5)
    x, _ = fixture_batch(cfg.n_features)
    low = den(x, np.full(5, 1))
    high = den(x, np.full(5, 499))
    np.testing.assert_array_equal(low.data, high.data)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_time_step_changes_output_when_enabled(arch):
    cfg = tiny(arch)
    den = build_denoiser(cfg, seed=6)
    x, _ = fixture_batch(cfg.n_features)
    low = den(x, np.full(5, 1))
    high = den(x, np.full(5, 499))
    assert not np.allclose(low.data, high.data)


def test_batch_broadcast_and_shape_validation():
    cfg = tiny("mlp")
    den = build_denoiser(cfg, seed=0)
    x, _ = fixture_batch(3)
    out = den(x, np.array([5]))  # scalar t broadcast over the batch
    assert out.shape == (5, 3)
    with pytest.raises(ValueError):
        den(np.zeros((2, 4)), np.array([1, 1]))
    with pytest.raises(ValueError):
        den(np.zeros((2, 3)), np.array([1, 1, 1]))


# -- architecture-specific structure -----------------------------------------------


def test_mlp_zero_head_returns_bias():
    cfg = tiny("mlp")
    den = build_denoiser(cfg, seed=1)
    den.head.weight.data[...] = 0.0
    den.head.bias.data[...] = np.array([0.25, -0.5, 1.0])
    x, t = fixture_batch(3)
    out = den(x, t)
    np.testing.assert_allclose(out.data, np.tile([0.25, -0.5, 1.0], (5, 1)))


def test_resnet_zero_residual_branch_reduces_to_stem_head():
    cfg = tiny("resnet")
    den = build_denoiser(cfg, seed=2)
    for block in den.blocks:
        block.body.linear.weight.data[...] = 0.0
        block.body.linear.bias.data[...] = 0.0
        block.proj.weight.data[...] = 0.0
        block.proj.bias.data[...] = 0.0
    x, t = fixture_batch(3)
    out = den(x, t)
    # with dead residual branches the network is head(relu(bn(stem(x))))
    h = den.stem(Tensor(x))
    h = den.out_norm(h, training=False)
    expect = den.head(relu(h)).data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_resnet_batch_of_one_training_rejected():
    den = build_denoiser(tiny("resnet"), seed=0)
    with pytest.raises(BatchSizeError):
        den(np.zeros((1, 3)), np.array([1]), training=True, rng=Rng(0))


def test_transformer_head_drops_cls():
    cfg = tiny("transformer")
    den = build_denoiser(cfg, seed=7)
    x, t = fixture_batch(3)
    assert den(x, t).shape == (5, 3)  # k outputs from k+1 tokens


def test_transformer_embed_dim_head_divisibility():
    with pytest.raises(ValueError):
        DenoiserConfig(arch="transformer", n_features=3, embed_dim=9, heads=2)


def test_unet_decoder_inputs_double_channels():
    cfg = tiny("unet")
    den = build_denoiser(cfg, seed=8)
    chans = cfg.unet_channels
    for dec, ch in zip(den.decoders, reversed(chans)):
        assert dec.in_ch == 2 * ch


def test_unet_minimum_features():
    with pytest.raises(ValueError):
        DenoiserConfig(arch="unet", n_features=3)


@pytest.mark.parametrize("field, value", [("n_features", 3.0), ("blocks", True),
                                          ("hidden", 2.5), ("heads", None),
                                          ("unet_channels", (16, False))])
def test_config_sizes_must_be_ints(field, value):
    with pytest.raises(ValueError, match="must be an int"):
        DenoiserConfig(**{"arch": "mlp", "n_features": 3, field: value})


@pytest.mark.parametrize("field, value", [
    ("time_embedding", "x"), ("time_embedding", 1),
    ("ffn_factor", "x"), ("ffn_factor", 0), ("ffn_factor", float("inf")), ("ffn_factor", True),
    ("attention_dropout", "x"), ("ffn_dropout", False), ("residual_dropout", float("nan")),
])
def test_config_switches_and_rates_are_typed(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a"):
        DenoiserConfig(**{"arch": "transformer", "n_features": 3, field: value})


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError):
        DenoiserConfig(arch="vae", n_features=3)


def test_transformer_kaiming_preactivation_variance_band():
    # the feed-forward pre-activation scales directly with the weight init,
    # so it is the sensitive probe for a broken gain
    cfg = DenoiserConfig(arch="transformer", n_features=6, embed_dim=64, heads=8, blocks=3,
                         attention_dropout=0.0, ffn_dropout=0.0, residual_dropout=0.0)
    den = build_denoiser(cfg, seed=11)
    x = Rng(1).normal((32, 6))
    t = np.full(32, 25)
    scale, shift = den.tokenizer.split(den.tokenizer(t))
    h = den.feature_tokenizer(Tensor(x))
    cls = den.cls + Tensor(np.zeros((32, 1, 64)))
    from tabdiffuse.tensor import concat

    h = concat([cls, h], axis=1)
    for block in den.blocks:
        pre_act = block.ffn_in(block.norm2(h + block.attn(block.norm1(h))))
        v = float(pre_act.data.var())
        assert 0.1 <= v <= 10.0, f"pre-activation variance {v} outside sanity band"
        h = block(h, scale, shift, training=False, rng=None)
        assert float(h.data.var()) <= 10.0  # residual stream must not blow up


# -- time-step MLP block unit behavior ----------------------------------------


def _identity_block(dim):
    from tabdiffuse.denoisers import TimeStepMLPBlock

    block = TimeStepMLPBlock(dim, dim, drop=0.5, rng=Rng(0))
    block.linear.weight.data[...] = np.eye(dim)
    block.linear.bias.data[...] = 0.0
    return block


def test_timestep_block_eval_identity_on_nonnegative_input():
    block = _identity_block(3)
    x = Tensor(np.array([[0.0, 0.5, 2.0]]))
    zero = np.zeros((1, 3))
    out = block(x, zero, zero, training=False, rng=None)
    np.testing.assert_array_equal(out.data, x.data)


def test_timestep_block_relu_zeroes_negative_preactivation():
    block = _identity_block(3)
    x = Tensor(np.array([[-1.0, -0.1, 3.0]]))
    zero = np.zeros((1, 3))
    out = block(x, zero, zero, training=False, rng=None)
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 3.0]])


def test_timestep_block_matches_layer_by_layer_oracle():
    from tabdiffuse.denoisers import TimeStepMLPBlock

    block = TimeStepMLPBlock(3, 4, drop=0.0, rng=Rng(5))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    scale = rng.normal(size=(6, 4))
    shift = rng.normal(size=(6, 4))
    out = block(Tensor(x), Tensor(scale), Tensor(shift), training=False, rng=None)
    pre = x @ block.linear.weight.data + block.linear.bias.data
    expect = np.maximum(pre * (scale + 1.0) + shift, 0.0)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)
