"""Noise-prediction networks: MLP, ResNet, Transformer, and U-Net.

Every architecture maps a batch of feature rows (B, k) plus per-row integer
time steps (B,) to a predicted noise profile (B, k).  Time enters through a
learnable tokenizer that turns sinusoidal encodings into a FiLM scale/shift
pair applied at each block's hidden state; the tokenizer dimension always
matches the site where the modulation lands (the hidden width for MLP and
ResNet, the FFN interior for the Transformer, the channel count per level
for the U-Net), so it is a derived quantity rather than a free knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .nn import (
    BatchNorm1d,
    Dropout,
    GroupNorm,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadSelfAttention,
    TimeStepTokenizer,
    apply_film,
)
from .optim import ParamStore
from .rng import Rng
from .tensor import Tensor, concat, relu, reshape, silu, transpose

ARCHITECTURES = ("mlp", "resnet", "transformer", "unet")


@dataclass(frozen=True)
class DenoiserConfig:
    """Architecture hyper-parameters of a noise-prediction network."""

    arch: str
    n_features: int
    blocks: int = 3
    hidden: int | None = None  # mlp/resnet width; defaults to 8 * n_features
    embed_dim: int = 192  # transformer token dim
    heads: int = 8
    ffn_factor: float = 4.0 / 3.0
    attention_dropout: float = 0.2
    ffn_dropout: float = 0.1
    residual_dropout: float = 0.0
    unet_channels: tuple[int, ...] = (16, 32)
    groupnorm_groups: int = 4
    time_embedding: bool = True  # False disables the tokenizer (identity FiLM)
    dtype: str = "float64"

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")
        for name in ("attention_dropout", "ffn_dropout", "residual_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.arch == "transformer" and self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")
        if self.arch == "unet":
            if self.n_features < 4:
                raise ValueError("unet needs at least 4 features")
            for c in self.unet_channels:
                if c % self.groupnorm_groups != 0:
                    raise ValueError("unet channel counts must divide into groupnorm groups")
                if c % self.heads != 0:
                    raise ValueError("unet channel counts must be divisible by heads")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be 'float64' or 'float32'")

    @property
    def resolved_hidden(self) -> int:
        return self.hidden if self.hidden is not None else 8 * self.n_features

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def without_time_embedding(self) -> "DenoiserConfig":
        return replace(self, time_embedding=False)


class Denoiser(Module):
    """Base class: config + parameter store + eval/train forward."""

    def __init__(self, config: DenoiserConfig):
        super().__init__()
        self.config = config
        self._store: ParamStore | None = None

    @property
    def params(self) -> ParamStore:
        if self._store is None:
            self._store = self.param_store()
        return self._store

    def forward(self, x, t, training: bool = False, rng: Rng | None = None) -> Tensor:
        raise NotImplementedError

    def __call__(self, x, t, training: bool = False, rng: Rng | None = None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.config.np_dtype))
        t = np.atleast_1d(np.asarray(t))
        if x.ndim != 2 or x.shape[1] != self.config.n_features:
            raise ValueError(f"expected (batch, {self.config.n_features}) input, got {x.shape}")
        if t.shape[0] == 1 and x.shape[0] > 1:
            t = np.repeat(t, x.shape[0])
        if t.shape[0] != x.shape[0]:
            raise ValueError("one time step per row required")
        out = self.forward(x, t, training=training, rng=rng)
        if out.shape != x.shape:
            raise ValueError(f"denoiser produced {out.shape}, expected {x.shape}")
        return out


def film_pair(tokenizer: TimeStepTokenizer, t: np.ndarray) -> tuple[Tensor, Tensor]:
    """Tokenize per-row time steps into a FiLM (scale, shift) pair.

    A batch sharing one time step (the sampler's case) is tokenized once
    and broadcast, which keeps inference cost independent of batch size.
    """
    t = np.atleast_1d(t)
    if t.size > 1 and (t == t[0]).all():
        t = t[:1]
    return tokenizer.split(tokenizer(t))


class TimeStepMLPBlock(Module):
    """Dropout(ReLU(FiLM(Linear(x)))) with the modulation from the tokenizer."""

    def __init__(self, in_dim: int, width: int, drop: float, rng: Rng, dtype):
        super().__init__()
        self.linear = Linear(in_dim, width, rng, dtype)
        self.dropout = Dropout(drop)

    def forward(self, x, scale, shift, training, rng):
        h = apply_film(self.linear(x), scale, shift)
        return self.dropout(relu(h), training, rng)

    __call__ = forward


class MLPDenoiser(Denoiser):
    """Stack of time-modulated MLP blocks with a linear head."""

    def __init__(self, config: DenoiserConfig, rng: Rng):
        super().__init__(config)
        k, w, dt = config.n_features, config.resolved_hidden, config.np_dtype
        self.tokenizer = TimeStepTokenizer(w, rng, enabled=config.time_embedding, dtype=dt)
        blocks = [TimeStepMLPBlock(k, w, config.ffn_dropout, rng, dt)]
        blocks += [
            TimeStepMLPBlock(w, w, config.ffn_dropout, rng, dt)
            for _ in range(config.blocks - 1)
        ]
        self.blocks = ModuleList(blocks)
        self.head = Linear(w, k, rng, dt)

    def forward(self, x, t, training=False, rng=None):
        scale, shift = film_pair(self.tokenizer, t)
        h = x
        for block in self.blocks:
            h = block(h, scale, shift, training, rng)
        return self.head(h)


class ResNetBlock(Module):
    """x + Dropout(Linear(TimeStepMLP(BatchNorm(x))))."""

    def __init__(self, width: int, config: DenoiserConfig, rng: Rng):
        super().__init__()
        dt = config.np_dtype
        self.norm = BatchNorm1d(width, dtype=dt)
        self.body = TimeStepMLPBlock(width, width, config.ffn_dropout, rng, dt)
        self.proj = Linear(width, width, rng, dt)
        self.dropout = Dropout(config.residual_dropout)

    def forward(self, x, scale, shift, training, rng):
        h = self.body(self.norm(x, training), scale, shift, training, rng)
        return x + self.dropout(self.proj(h), training, rng)

    __call__ = forward


class ResNetDenoiser(Denoiser):
    def __init__(self, config: DenoiserConfig, rng: Rng):
        super().__init__(config)
        k, w, dt = config.n_features, config.resolved_hidden, config.np_dtype
        self.tokenizer = TimeStepTokenizer(w, rng, enabled=config.time_embedding, dtype=dt)
        self.stem = Linear(k, w, rng, dt)
        self.blocks = ModuleList([ResNetBlock(w, config, rng) for _ in range(config.blocks)])
        self.out_norm = BatchNorm1d(w, dtype=dt)
        self.head = Linear(w, k, rng, dt)

    def forward(self, x, t, training=False, rng=None):
        scale, shift = film_pair(self.tokenizer, t)
        h = self.stem(x)
        for block in self.blocks:
            h = block(h, scale, shift, training, rng)
        return self.head(relu(self.out_norm(h, training)))


class FeatureTokenizer(Module):
    """Per-feature affine lift of scalar entries to embed_dim token vectors."""

    def __init__(self, k: int, d: int, rng: Rng, dtype):
        super().__init__()
        self.weight = Tensor(nn.kaiming_uniform(rng, (k, d), fan_in=d, gain=1.0), True, dtype)
        self.bias = Tensor(nn.kaiming_uniform(rng, (k, d), fan_in=d, gain=1.0), True, dtype)

    def forward(self, x: Tensor) -> Tensor:
        B, k = x.shape
        return reshape(x, (B, k, 1)) * self.weight + self.bias

    __call__ = forward


class TransformerBlock(Module):
    """Pre-norm attention and a gated, time-modulated feed-forward."""

    def __init__(self, config: DenoiserConfig, rng: Rng):
        super().__init__()
        d, dt = config.embed_dim, config.np_dtype
        self.ffn_hidden = math.ceil(config.ffn_factor * d)
        self.norm1 = LayerNorm(d, dtype=dt)
        self.attn = MultiHeadSelfAttention(d, config.heads, config.attention_dropout, rng, dt)
        self.norm2 = LayerNorm(d, dtype=dt)
        self.ffn_in = Linear(d, 2 * self.ffn_hidden, rng, dt)  # ReGLU: value and gate halves
        self.ffn_out = Linear(self.ffn_hidden, d, rng, dt)
        self.ffn_dropout = Dropout(config.ffn_dropout)
        self.res_dropout = Dropout(config.residual_dropout)

    def forward(self, x, scale, shift, training, rng):
        # Nested calls let inference free each activation as soon as it is used.
        x = x + self.res_dropout(self.attn(self.norm1(x), training, rng), training, rng)
        hidden = self._reglu(self.ffn_in(self.norm2(x)))
        hidden = apply_film(hidden, reshape(scale, (-1, 1, self.ffn_hidden)),
                            reshape(shift, (-1, 1, self.ffn_hidden)))
        h = self.ffn_out(self.ffn_dropout(hidden, training, rng))
        return x + self.res_dropout(h, training, rng)

    __call__ = forward

    def _reglu(self, u: Tensor) -> Tensor:
        """The value half of ``u`` times the rectified gate half."""
        return u[:, :, : self.ffn_hidden] * relu(u[:, :, self.ffn_hidden :])


class TransformerDenoiser(Denoiser):
    """Feature tokens + CLS through pre-norm blocks; per-token linear head.

    The CLS token aggregates global context during attention and is dropped
    before the head so each output coordinate stays tied to its feature.
    """

    def __init__(self, config: DenoiserConfig, rng: Rng):
        super().__init__(config)
        k, d, dt = config.n_features, config.embed_dim, config.np_dtype
        ffn_hidden = math.ceil(config.ffn_factor * d)
        self.tokenizer = TimeStepTokenizer(ffn_hidden, rng, enabled=config.time_embedding, dtype=dt)
        self.feature_tokenizer = FeatureTokenizer(k, d, rng, dt)
        self.cls = Tensor(nn.kaiming_uniform(rng, (1, 1, d), fan_in=d, gain=1.0), True, dt)
        self.blocks = ModuleList([TransformerBlock(config, rng) for _ in range(config.blocks)])
        self.out_norm = LayerNorm(d, dtype=dt)
        self.head = Linear(d, 1, rng, dt)

    def forward(self, x, t, training=False, rng=None):
        B, k = x.shape
        scale, shift = film_pair(self.tokenizer, t)
        cls = self.cls + Tensor(np.zeros((B, 1, self.config.embed_dim), dtype=self.config.np_dtype))
        h = concat([cls, self.feature_tokenizer(x)], axis=1)
        for block in self.blocks:
            h = block(h, scale, shift, training, rng)
        h = h[:, 1:, :]  # drop CLS; keep per-feature correspondence
        out = self.head(relu(self.out_norm(h)))
        return reshape(out, (B, k))


class UNetStage(Module):
    """Conv -> GroupNorm -> FiLM -> SiLU -> Conv -> GroupNorm -> SiLU, residual,
    then self-attention over feature positions."""

    def __init__(self, in_ch: int, out_ch: int, config: DenoiserConfig, rng: Rng):
        super().__init__()
        dt = config.np_dtype
        g = config.groupnorm_groups
        self.in_ch, self.out_ch = in_ch, out_ch
        self.tokenizer = TimeStepTokenizer(out_ch, rng, enabled=config.time_embedding, dtype=dt)
        self.conv1 = _Conv1d(in_ch, out_ch, rng, dt)
        self.gn1 = GroupNorm(out_ch, g, dtype=dt)
        self.conv2 = _Conv1d(out_ch, out_ch, rng, dt)
        self.gn2 = GroupNorm(out_ch, g, dtype=dt)
        self.skip = _Conv1d(in_ch, out_ch, rng, dt, kernel=1) if in_ch != out_ch else None
        self.attn = MultiHeadSelfAttention(out_ch, config.heads, config.attention_dropout, rng, dt)

    def forward(self, x, t, training, rng):
        scale, shift = film_pair(self.tokenizer, t)
        h = self.gn1(self.conv1(x))
        h = apply_film(transpose(h, (0, 2, 1)), reshape(scale, (-1, 1, self.out_ch)),
                       reshape(shift, (-1, 1, self.out_ch)))
        h = transpose(h, (0, 2, 1))
        h = silu(h)
        h = silu(self.gn2(self.conv2(h)))
        res = x if self.skip is None else self.skip(x)
        h = h + res
        # attention over positions with channels as token features
        a = transpose(h, (0, 2, 1))
        a = self.attn(a, training, rng)
        return h + transpose(a, (0, 2, 1))

    __call__ = forward


class _Conv1d(Module):
    def __init__(self, in_ch: int, out_ch: int, rng: Rng, dtype, kernel: int = 3):
        super().__init__()
        fan_in = in_ch * kernel
        gain = 1.0 / math.sqrt(3.0)  # fan-in uniform, same family as Linear
        self.weight = Tensor(
            nn.kaiming_uniform(rng, (out_ch, in_ch, kernel), fan_in, gain), True, dtype
        )
        self.bias = Tensor((2.0 * rng.uniform((out_ch,)) - 1.0) / math.sqrt(fan_in), True, dtype)
        self.padding = (kernel - 1) // 2

    def forward(self, x: Tensor) -> Tensor:
        from .tensor import conv1d

        return conv1d(x, self.weight, self.bias, padding=self.padding)

    __call__ = forward


class UNetDenoiser(Denoiser):
    """Channel-ramp encoder/decoder over the feature axis with skip concat.

    Feature rows are treated as one-channel length-k sequences; positions are
    never downsampled (tabular k is small and fixed), only channels ramp up
    and back down.  Each decoder stage consumes the concatenation of the
    upsampled path and the matching encoder output.
    """

    def __init__(self, config: DenoiserConfig, rng: Rng):
        super().__init__(config)
        chans, dt = config.unet_channels, config.np_dtype
        self.encoders = ModuleList(
            [UNetStage(1 if i == 0 else chans[i - 1], chans[i], config, rng)
             for i in range(len(chans))]
        )
        self.bottleneck = UNetStage(chans[-1], chans[-1], config, rng)
        decs = []
        for i in reversed(range(len(chans))):
            out_ch = chans[i - 1] if i > 0 else chans[0]
            decs.append(UNetStage(2 * chans[i], out_ch, config, rng))
        self.decoders = ModuleList(decs)
        self.head = Linear(chans[0], 1, rng, dt)

    def forward(self, x, t, training=False, rng=None):
        B, k = x.shape
        h = reshape(x, (B, 1, k))
        skips = []
        for enc in self.encoders:
            h = enc(h, t, training, rng)
            skips.append(h)
        h = self.bottleneck(h, t, training, rng)
        for dec, skip in zip(self.decoders, reversed(skips)):
            h = dec(concat([h, skip], axis=1), t, training, rng)
        out = self.head(transpose(h, (0, 2, 1)))  # (B, k, 1)
        return reshape(out, (B, k))


def build_denoiser(config: DenoiserConfig, seed: int = 0) -> Denoiser:
    """Construct and initialize a denoiser; same (config, seed) -> same weights."""
    rng = Rng(seed)
    cls = {
        "mlp": MLPDenoiser,
        "resnet": ResNetDenoiser,
        "transformer": TransformerDenoiser,
        "unet": UNetDenoiser,
    }[config.arch]
    return cls(config, rng)
