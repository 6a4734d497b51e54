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
import numbers
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import MinMaxScaler
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
)
from .rng import Rng
from .tensor import (Tensor, concat, linear_film_relu, parameter, reglu_film, relu, reshape,
                     transpose)

ARCHITECTURES = ("mlp", "resnet", "transformer", "unet")
# The FiLM entry (``Denoiser.film``) that forwards on this thread take in place
# of their tokenizers' output; ``parallel`` sets it around each shard it runs.
TABLED_FILM: ContextVar[dict | None] = ContextVar("tabled_film", default=None)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        sizes = [("n_features", self.n_features), ("blocks", self.blocks),
                 ("embed_dim", self.embed_dim), ("heads", self.heads),
                 ("groupnorm_groups", self.groupnorm_groups)]
        if self.hidden is not None:  # else 8 * n_features
            sizes.append(("hidden", self.hidden))
        for name, size in sizes + [("every unet_channels entry", c) for c in self.unet_channels]:
            if isinstance(size, bool) or not isinstance(size, int):
                raise ValueError(f"{name} must be an int, got {size!r}")
            if size < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("attention_dropout", "ffn_dropout", "residual_dropout"):
            rate = getattr(self, name)
            if not (_is_real(rate) and 0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be a number in [0, 1), got {rate!r}")
        if not (_is_real(self.ffn_factor) and math.isfinite(self.ffn_factor)
                and self.ffn_factor > 0):
            raise ValueError(f"ffn_factor must be a finite number > 0, got {self.ffn_factor!r}")
        if not isinstance(self.time_embedding, bool):
            raise ValueError(f"time_embedding must be a bool, got {self.time_embedding!r}")
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


class Denoiser(Module):
    """Base class: config + eval/train forward.

    A network also carries what a checkpoint stores beside its weights, all
    None until set: ``train_t``, the time-axis length it was trained on (set
    by ``training.train``; the sampler maps its steps onto this axis), and the
    ``scaler`` and ``feature_names`` of the table it was trained on.
    """

    def __init__(self, config: DenoiserConfig):
        super().__init__()
        self.config = config
        self.train_t: int | None = None
        self.scaler: MinMaxScaler | None = None
        self.feature_names: tuple[str, ...] | None = None

    @property
    def row_cost(self) -> int:
        """Activation elements one row carries through the widest hidden state;
        how much work a row is, for deciding whether to shard a batch."""
        raise NotImplementedError

    def forward(self, x, t, training: bool = False, rng: Rng | None = None) -> Tensor:
        raise NotImplementedError

    def film(self, t) -> dict:
        """The ``TABLED_FILM`` entry of network time ``t`` (a 1-row array): each
        tokenizer's owner -> the modulation its blocks take (here the MLP blocks'
        (scale + 1, shift)), with the bits of a forward's own calls and ops."""
        scale, shift = film_pair(self.tokenizer, t)
        return {self: (scale + 1.0, shift)}

    def __call__(self, x, t, training: bool = False, rng: Rng | None = None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.config.dtype))
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


def _tabled(owner: Module):
    return None if (entry := TABLED_FILM.get()) is None else entry[owner]


def film_pair(tokenizer: TimeStepTokenizer, t: np.ndarray) -> tuple[Tensor, Tensor]:
    """Tokenize per-row time steps into a FiLM (scale, shift) pair.

    A batch sharing one time step is tokenized once, as one row, and
    broadcast; the sampler tables these per network time (``Denoiser.film``).
    """
    t = np.atleast_1d(t)
    if t.size > 1 and (t == t[0]).all():
        t = t[:1]
    return tokenizer.split(tokenizer(t))


class TimeStepMLPBlock(Module):
    """Dropout(ReLU(FiLM(Linear(x)))) with the modulation from the tokenizer.

    Linear, FiLM and ReLU are one ``linear_film_relu`` node.  ``scale + 1`` is
    each block's own node: the blocks' gradient shares then reach the tokenizer
    in the order they did when FiLM was composed, so trained weights keep their
    bits.  Under a ``TABLED_FILM`` entry, ``scale`` is already ``scale + 1``.
    """

    def __init__(self, in_dim: int, width: int, drop: float, rng: Rng | None):
        super().__init__()
        self.linear = Linear(in_dim, width, rng)
        self.dropout = Dropout(drop)

    def __call__(self, x, scale, shift, training, rng):
        scale1 = scale if TABLED_FILM.get() is not None else scale + 1.0
        h = linear_film_relu(x, self.linear.weight, self.linear.bias, scale1, shift)
        return self.dropout(h, training, rng)


class MLPDenoiser(Denoiser):
    """Stack of time-modulated MLP blocks with a linear head."""

    def __init__(self, config: DenoiserConfig, rng: Rng | None):
        super().__init__(config)
        k, w = config.n_features, config.resolved_hidden
        self.tokenizer = TimeStepTokenizer(w, rng, enabled=config.time_embedding)
        self.blocks = ModuleList([TimeStepMLPBlock(k if i == 0 else w, w, config.ffn_dropout, rng)
                                  for i in range(config.blocks)])
        self.head = Linear(w, k, rng)

    @property
    def row_cost(self) -> int:
        return self.config.resolved_hidden

    def forward(self, x, t, training=False, rng=None):
        scale, shift = _tabled(self) or film_pair(self.tokenizer, t)
        h = x
        for block in self.blocks:
            h = block(h, scale, shift, training, rng)
        return self.head(h)


class ResNetBlock(Module):
    """x + Dropout(Linear(TimeStepMLP(BatchNorm(x))))."""

    def __init__(self, width: int, config: DenoiserConfig, rng: Rng | None):
        super().__init__()
        self.norm = BatchNorm1d(width)
        self.body = TimeStepMLPBlock(width, width, config.ffn_dropout, rng)
        self.proj = Linear(width, width, rng)
        self.dropout = Dropout(config.residual_dropout)

    def __call__(self, x, scale, shift, training, rng):
        h = self.body(self.norm(x, training), scale, shift, training, rng)
        return x + self.dropout(self.proj(h), training, rng)


class ResNetDenoiser(Denoiser):
    def __init__(self, config: DenoiserConfig, rng: Rng | None):
        super().__init__(config)
        k, w = config.n_features, config.resolved_hidden
        self.tokenizer = TimeStepTokenizer(w, rng, enabled=config.time_embedding)
        self.stem = Linear(k, w, rng)
        self.blocks = ModuleList([ResNetBlock(w, config, rng) for _ in range(config.blocks)])
        self.out_norm = BatchNorm1d(w)
        self.head = Linear(w, k, rng)

    @property
    def row_cost(self) -> int:
        return self.config.resolved_hidden

    def forward(self, x, t, training=False, rng=None):
        scale, shift = _tabled(self) or film_pair(self.tokenizer, t)
        h = self.stem(x)
        for block in self.blocks:
            h = block(h, scale, shift, training, rng)
        return self.head(relu(self.out_norm(h, training)))


class FeatureTokenizer(Module):
    """Per-feature affine lift of scalar entries to embed_dim token vectors."""

    def __init__(self, k: int, d: int, rng: Rng | None):
        super().__init__()
        self.weight = parameter(nn.kaiming_uniform(rng, (k, d), fan_in=d, gain=1.0))
        self.bias = parameter(nn.kaiming_uniform(rng, (k, d), fan_in=d, gain=1.0))

    def __call__(self, x: Tensor) -> Tensor:
        B, k = x.shape
        return reshape(x, (B, k, 1)) * self.weight + self.bias


class TransformerBlock(Module):
    """Pre-norm attention and a gated, time-modulated feed-forward."""

    def __init__(self, config: DenoiserConfig, rng: Rng | None):
        super().__init__()
        d = config.embed_dim
        self.ffn_hidden = math.ceil(config.ffn_factor * d)
        self.norm1 = LayerNorm(d)
        self.attn = MultiHeadSelfAttention(d, config.heads, config.attention_dropout, rng)
        self.norm2 = LayerNorm(d)
        self.ffn_in = Linear(d, 2 * self.ffn_hidden, rng)  # ReGLU: value and gate halves
        self.ffn_out = Linear(self.ffn_hidden, d, rng)
        self.ffn_dropout = Dropout(config.ffn_dropout)
        self.res_dropout = Dropout(config.residual_dropout)

    def __call__(self, x, scale, shift, training, rng):
        # Nested calls let inference free each activation as soon as it is used.
        x = x + self.res_dropout(self.attn(self.norm1(x), training, rng), training, rng)
        hidden = reglu_film(self.ffn_in(self.norm2(x)), reshape(scale, (-1, 1, self.ffn_hidden)),
                            reshape(shift, (-1, 1, self.ffn_hidden)))
        h = self.ffn_out(self.ffn_dropout(hidden, training, rng))
        return x + self.res_dropout(h, training, rng)


class TransformerDenoiser(Denoiser):
    """Feature tokens + CLS through pre-norm blocks; per-token linear head.

    The CLS token aggregates global context during attention and is dropped
    before the head so each output coordinate stays tied to its feature.
    """

    def __init__(self, config: DenoiserConfig, rng: Rng | None):
        super().__init__(config)
        k, d = config.n_features, config.embed_dim
        ffn_hidden = math.ceil(config.ffn_factor * d)
        self.tokenizer = TimeStepTokenizer(ffn_hidden, rng, enabled=config.time_embedding)
        self.feature_tokenizer = FeatureTokenizer(k, d, rng)
        self.cls = parameter(nn.kaiming_uniform(rng, (1, 1, d), fan_in=d, gain=1.0))
        self.blocks = ModuleList([TransformerBlock(config, rng) for _ in range(config.blocks)])
        self.out_norm = LayerNorm(d)
        self.head = Linear(d, 1, rng)

    @property
    def row_cost(self) -> int:
        return (self.config.n_features + 1) * self.config.embed_dim  # feature tokens + CLS

    def film(self, t):
        return {self: film_pair(self.tokenizer, t)}

    def forward(self, x, t, training=False, rng=None):
        B, k = x.shape
        scale, shift = _tabled(self) or film_pair(self.tokenizer, t)
        cls = self.cls + Tensor(np.zeros((B, 1, self.config.embed_dim), dtype=self.cls.data.dtype))
        h = concat([cls, self.feature_tokenizer(x)], axis=1)
        for block in self.blocks:
            h = block(h, scale, shift, training, rng)
        h = h[:, 1:, :]  # drop CLS; keep per-feature correspondence
        out = self.head(relu(self.out_norm(h)))
        return reshape(out, (B, k))


class UNetStage(Module):
    """Conv -> GroupNorm -> FiLM -> SiLU -> Conv -> GroupNorm -> SiLU, residual,
    then self-attention over feature positions."""

    def __init__(self, in_ch: int, out_ch: int, config: DenoiserConfig, rng: Rng | None):
        super().__init__()
        g = config.groupnorm_groups
        self.in_ch, self.out_ch = in_ch, out_ch
        self.tokenizer = TimeStepTokenizer(out_ch, rng, enabled=config.time_embedding)
        self.conv1 = _Conv1d(in_ch, out_ch, rng)
        self.gn1 = GroupNorm(out_ch, g)
        self.conv2 = _Conv1d(out_ch, out_ch, rng)
        self.gn2 = GroupNorm(out_ch, g)
        self.skip = _Conv1d(in_ch, out_ch, rng, kernel=1) if in_ch != out_ch else None
        self.attn = MultiHeadSelfAttention(out_ch, config.heads, config.attention_dropout, rng)

    def film(self, t):
        scale, shift = film_pair(self.tokenizer, t)
        c = self.out_ch  # FiLM per channel, broadcast over positions
        return reshape(scale, (-1, c, 1)) + 1.0, reshape(shift, (-1, c, 1))

    def __call__(self, x, t, training, rng):
        h = self.gn1(self.conv1(x), _tabled(self) or self.film(t), silu=True)
        h = self.gn2(self.conv2(h), silu=True)
        res = x if self.skip is None else self.skip(x)
        h = h + res
        # attention over positions with channels as token features
        a = transpose(h, (0, 2, 1))
        a = self.attn(a, training, rng)
        return h + transpose(a, (0, 2, 1))


class _Conv1d(Module):
    def __init__(self, in_ch: int, out_ch: int, rng: Rng | None, kernel: int = 3):
        super().__init__()
        fan_in = in_ch * kernel
        gain = 1.0 / math.sqrt(3.0)  # fan-in uniform, same family as Linear
        self.weight = parameter(nn.kaiming_uniform(rng, (out_ch, in_ch, kernel), fan_in, gain))
        bias = (np.zeros(out_ch) if rng is None
                else (2.0 * rng.uniform((out_ch,)) - 1.0) / math.sqrt(fan_in))
        self.bias = parameter(bias)
        self.padding = (kernel - 1) // 2

    def __call__(self, x: Tensor) -> Tensor:
        from .tensor import conv1d

        return conv1d(x, self.weight, self.bias, padding=self.padding)


class UNetDenoiser(Denoiser):
    """Channel-ramp encoder/decoder over the feature axis with skip concat.

    Feature rows are treated as one-channel length-k sequences; positions are
    never downsampled (tabular k is small and fixed), only channels ramp up
    and back down.  Each decoder stage consumes the concatenation of the
    upsampled path and the matching encoder output.
    """

    def __init__(self, config: DenoiserConfig, rng: Rng | None):
        super().__init__(config)
        chans = config.unet_channels
        self.encoders = ModuleList(
            [UNetStage(1 if i == 0 else chans[i - 1], chans[i], config, rng)
             for i in range(len(chans))]
        )
        self.bottleneck = UNetStage(chans[-1], chans[-1], config, rng)
        self.decoders = ModuleList([UNetStage(2 * chans[i], chans[max(i - 1, 0)], config, rng)
                                    for i in reversed(range(len(chans)))])
        self.head = Linear(chans[0], 1, rng)

    @property
    def row_cost(self) -> int:
        return self.config.n_features * max(self.config.unet_channels)

    def film(self, t):
        return {s: s.film(t) for s in (*self.encoders, self.bottleneck, *self.decoders)}

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


def build_denoiser(config: DenoiserConfig, seed: int | None = 0) -> Denoiser:
    """Construct and initialize a denoiser; same (config, seed) -> same weights.

    ``seed`` None draws nothing and leaves every random-initialized weight
    zero, for a checkpoint to fill.  The network is built in float64 and cast
    to ``config.dtype`` here, once: each weight is rounded from the same
    float64 draw whatever the dtype.
    """
    rng = None if seed is None else Rng(seed)
    cls = {
        "mlp": MLPDenoiser,
        "resnet": ResNetDenoiser,
        "transformer": TransformerDenoiser,
        "unet": UNetDenoiser,
    }[config.arch]
    denoiser = cls(config, rng)
    denoiser.cast(config.dtype)
    return denoiser
