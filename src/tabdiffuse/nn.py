"""Network building blocks shared by the denoising architectures.

Modules are plain containers over :class:`~tabdiffuse.tensor.Tensor`
parameters; ``named_parameters`` walks the tree in construction order,
which also fixes checkpoint layout.  Every module is built in float64;
``denoisers.build_denoiser`` casts a whole network to its configured dtype
once, with :meth:`Module.cast`.  Stochastic layers (dropout) draw from
an explicit rng passed in each call so runs stay reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import Rng
from .tensor import (
    Tensor,
    attention,
    gelu,
    group_norm,
    layer_norm,
    linear,
    parameter,
    silu,
)


NORM_EPS = 1e-5  # added to every norm layer's variance
BATCH_NORM_MOMENTUM = 0.1  # weight of a training batch in the running statistics


class BatchSizeError(ValueError):
    """Batch statistics are undefined for a single-row training batch."""


class Module:
    """Minimal parameter/submodule container."""

    buffers: tuple[str, ...] = ()  # attributes holding state that is not trained but saved

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def named_arrays(self, prefix: str = ""):
        """What a checkpoint stores: each parameter's values, then each buffer."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p.data)
        for name in self.buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, mod in self._modules.items():
            yield from mod.named_arrays(prefix=f"{prefix}{name}.")

    def cast(self, dtype) -> None:
        """Convert every parameter and buffer of the tree to ``dtype`` in place."""
        for p in self._params.values():
            p.data = p.data.astype(dtype, copy=False)
        for name in self.buffers:
            setattr(self, name, getattr(self, name).astype(dtype, copy=False))
        for mod in self._modules.values():
            mod.cast(dtype)


class ModuleList(Module):
    """Submodules named by their position, iterated in order."""

    def __init__(self, modules=()):
        super().__init__()
        for i, m in enumerate(modules):
            self._modules[str(i)] = m

    def __iter__(self):
        return iter(self._modules.values())


# -- initialization -----------------------------------------------------------


def kaiming_uniform(rng: Rng | None, shape, fan_in: int, gain: float):
    """Fan-in scaled uniform init, U(-bound, bound] with bound = gain*sqrt(3/fan_in).

    With ``rng`` None the values are zeros and nothing is drawn: the network
    is being built for a checkpoint to fill.
    """
    if rng is None:
        return np.zeros(shape)
    bound = gain * math.sqrt(3.0 / max(fan_in, 1))
    return (2.0 * rng.uniform(shape) - 1.0) * bound


# -- layers ---------------------------------------------------------------------


class Linear(Module):
    """y = x @ W + b with W of shape (in_dim, out_dim).

    Weights are drawn from the fan-in uniform U(-1/sqrt(in), 1/sqrt(in)].
    """

    def __init__(self, in_dim: int, out_dim: int, rng: Rng | None):
        super().__init__()
        gain = 1.0 / math.sqrt(3.0)
        self.weight = parameter(kaiming_uniform(rng, (in_dim, out_dim), in_dim, gain))
        bb = 1.0 / math.sqrt(in_dim)
        bias = np.zeros(out_dim) if rng is None else (2.0 * rng.uniform((out_dim,)) - 1.0) * bb
        self.bias = parameter(bias)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Dropout(Module):
    """Inverted dropout: scales by 1/keep at train time, identity at eval."""

    def __init__(self, p: float):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.p = p

    def mask(self, shape, dtype, training: bool, rng: Rng | None) -> np.ndarray | None:
        """The scaled keep mask for one call, or None when dropout is off."""
        if not training or self.p == 0.0:
            return None
        if rng is None:
            raise ValueError("training-mode dropout requires an rng")
        mask = (rng.uniform(shape) > self.p).astype(dtype)
        mask /= 1.0 - self.p
        return mask

    def __call__(self, x: Tensor, training: bool, rng: Rng | None) -> Tensor:
        mask = self.mask(x.shape, x.data.dtype, training, rng)
        return x if mask is None else x * mask


class BatchNorm1d(Module):
    buffers = ("running_mean", "running_var")

    def __init__(self, dim: int):
        super().__init__()
        self.gamma = parameter(np.ones(dim))
        self.beta = parameter(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if training:
            if x.shape[0] < 2:
                raise BatchSizeError("batch norm needs batch size >= 2 in training mode")
            mu = x.mean(axis=0, keepdims=True)
            xc = x - mu
            var = (xc * xc).mean(axis=0, keepdims=True)
            m = BATCH_NORM_MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mu.data[0]
            self.running_var = (1 - m) * self.running_var + m * var.data[0]
            xhat = xc * ((var + NORM_EPS) ** -0.5)
        else:
            xhat = (x - self.running_mean) * ((self.running_var + NORM_EPS) ** -0.5)
        return xhat * self.gamma + self.beta


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = parameter(np.ones(dim))
        self.beta = parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, NORM_EPS)


class GroupNorm(Module):
    """Normalizes (batch, channels, length) over channel groups."""

    def __init__(self, channels: int, groups: int):
        super().__init__()
        if channels % groups != 0:
            raise ValueError(f"channels ({channels}) not divisible by groups ({groups})")
        self.groups = groups
        self.gamma = parameter(np.ones((channels, 1)))
        self.beta = parameter(np.zeros((channels, 1)))

    def __call__(self, x: Tensor, film=None, silu: bool = False) -> Tensor:
        """See ``tensor.group_norm`` for the FiLM and SiLU epilogues."""
        return group_norm(x, self.gamma, self.beta, self.groups, NORM_EPS, film, silu)


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product self-attention over (batch, tokens, dim)."""

    def __init__(self, dim: int, heads: int, attn_dropout: float, rng: Rng | None):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim ({dim}) not divisible by heads ({heads})")
        self.heads = heads
        self.q = Linear(dim, dim, rng)
        self.k = Linear(dim, dim, rng)
        self.v = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)
        self.attn_dropout = Dropout(attn_dropout)

    def __call__(self, x: Tensor, training: bool = False, rng: Rng | None = None) -> Tensor:
        B, T, _ = x.shape
        mask = self.attn_dropout.mask((B, self.heads, T, T), x.data.dtype, training, rng)
        return attention(x, self.q.weight, self.q.bias, self.k.weight, self.k.bias,
                         self.v.weight, self.v.bias, self.out.weight, self.out.bias,
                         self.heads, mask)


# -- time conditioning ------------------------------------------------------------


def sinusoid_embed(t, kprime: int):
    """Fixed sine/cosine encodings of integer time steps.

    Returns (scale, shift) arrays of trailing dimension ``kprime``; component
    i oscillates at frequency exp(-ln(1e4) * i / kprime).
    """
    if kprime < 1:
        raise ValueError("kprime must be >= 1")
    t = np.asarray(t, dtype=np.float64)
    freqs = np.exp(-math.log(1e4) * np.arange(kprime) / kprime)
    angles = t[..., None] * freqs if t.ndim else t * freqs
    return np.sin(angles), np.cos(angles)


class TimeStepTokenizer(Module):
    """Learnable projection of sinusoidal time encodings to FiLM scale/shift.

    Three linear maps with GELU then SiLU between them; input and output
    dimension 2 * kprime, split evenly into the scale and shift embeddings.
    When disabled, emits zeros so time conditioning becomes the identity.
    """

    def __init__(self, kprime: int, rng: Rng | None, enabled: bool = True):
        super().__init__()
        self.kprime = kprime
        self.enabled = enabled
        d = 2 * kprime
        self.lin1 = Linear(d, d, rng)
        self.lin2 = Linear(d, d, rng)
        self.lin3 = Linear(d, d, rng)

    def __call__(self, t) -> Tensor:
        """t: int array (batch,); returns embedding of shape (batch, 2*kprime)."""
        t = np.atleast_1d(np.asarray(t))
        dtype = self.lin1.weight.data.dtype
        if not self.enabled:
            return Tensor(np.zeros((t.shape[0], 2 * self.kprime), dtype=dtype))
        sin, cos = sinusoid_embed(t, self.kprime)
        h = Tensor(np.concatenate([sin, cos], axis=-1).astype(dtype))
        return self.lin3(silu(self.lin2(gelu(self.lin1(h)))))

    def split(self, t_emb: Tensor) -> tuple[Tensor, Tensor]:
        """(scale, shift) halves of a tokenized embedding."""
        return t_emb[:, : self.kprime], t_emb[:, self.kprime :]
