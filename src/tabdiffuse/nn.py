"""Network building blocks shared by the denoising architectures.

Modules are plain containers over :class:`~tabdiffuse.tensor.Tensor`
parameters; ``named_parameters`` walks the tree in construction order,
which also fixes checkpoint layout.  Stochastic layers (dropout) draw from
an explicit rng passed through ``forward`` so runs stay reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .optim import ParamStore
from .rng import Rng
from .tensor import (
    Tensor,
    as_tensor,
    gelu,
    layer_norm,
    linear,
    matmul,
    parameter,
    reshape,
    silu,
    softmax,
    transpose,
)


class BatchSizeError(ValueError):
    """Batch statistics are undefined for a single-row training batch."""


class Module:
    """Minimal parameter/submodule container."""

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

    def param_store(self) -> ParamStore:
        store = ParamStore()
        for name, p in self.named_parameters():
            store.register(name, p)
        return store


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


# -- initialization -----------------------------------------------------------


def kaiming_uniform(rng: Rng, shape, fan_in: int, gain: float = math.sqrt(2.0)):
    """Fan-in scaled uniform init, U(-bound, bound] with bound = gain*sqrt(3/fan_in)."""
    bound = gain * math.sqrt(3.0 / max(fan_in, 1))
    return (2.0 * rng.uniform(shape) - 1.0) * bound


# -- layers ---------------------------------------------------------------------


class Linear(Module):
    """y = x @ W + b with W of shape (in_dim, out_dim).

    Weights default to the fan-in uniform U(-1/sqrt(in), 1/sqrt(in)]; pass
    ``gain=sqrt(2)`` for the hotter rectifier variant.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: Rng, dtype=np.float64,
                 gain: float = 1.0 / math.sqrt(3.0)):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.weight = parameter(kaiming_uniform(rng, (in_dim, out_dim), in_dim, gain), dtype=dtype)
        bb = 1.0 / math.sqrt(in_dim)
        self.bias = parameter((2.0 * rng.uniform((out_dim,)) - 1.0) * bb, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    __call__ = forward


class Dropout(Module):
    """Inverted dropout: scales by 1/keep at train time, identity at eval."""

    def __init__(self, p: float):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.p = p

    def forward(self, x: Tensor, training: bool, rng: Rng | None) -> Tensor:
        if not training or self.p == 0.0:
            return x
        if rng is None:
            raise ValueError("training-mode dropout requires an rng")
        keep = 1.0 - self.p
        mask = (rng.uniform(x.shape) > self.p).astype(x.data.dtype) / keep
        return x * mask

    __call__ = forward


class BatchNorm1d(Module):
    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5, dtype=np.float64):
        super().__init__()
        self.dim, self.momentum, self.eps = dim, momentum, eps
        self.gamma = parameter(np.ones(dim), dtype=dtype)
        self.beta = parameter(np.zeros(dim), dtype=dtype)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if training:
            if x.shape[0] < 2:
                raise BatchSizeError("batch norm needs batch size >= 2 in training mode")
            mu = x.mean(axis=0, keepdims=True)
            xc = x - mu
            var = (xc * xc).mean(axis=0, keepdims=True)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu.data[0]
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var.data[0]
            xhat = xc * ((var + self.eps) ** -0.5)
        else:
            xhat = (x - self.running_mean) * ((self.running_var + self.eps) ** -0.5)
        return xhat * self.gamma + self.beta

    __call__ = forward


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5, dtype=np.float64):
        super().__init__()
        self.dim, self.eps = dim, eps
        self.gamma = parameter(np.ones(dim), dtype=dtype)
        self.beta = parameter(np.zeros(dim), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)

    __call__ = forward


class GroupNorm(Module):
    """Normalizes (batch, channels, length) over channel groups."""

    def __init__(self, channels: int, groups: int, eps: float = 1e-5, dtype=np.float64):
        super().__init__()
        if channels % groups != 0:
            raise ValueError(f"channels ({channels}) not divisible by groups ({groups})")
        self.channels, self.groups, self.eps = channels, groups, eps
        self.gamma = parameter(np.ones((channels, 1)), dtype=dtype)
        self.beta = parameter(np.zeros((channels, 1)), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        B, C, L = x.shape
        g = reshape(x, (B, self.groups, (C // self.groups) * L))
        mu = g.mean(axis=-1, keepdims=True)
        gc = g - mu
        var = (gc * gc).mean(axis=-1, keepdims=True)
        xhat = reshape(gc * ((var + self.eps) ** -0.5), (B, C, L))
        return xhat * self.gamma + self.beta

    __call__ = forward


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product self-attention over (batch, tokens, dim)."""

    def __init__(self, dim: int, heads: int, attn_dropout: float, rng: Rng, dtype=np.float64):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim ({dim}) not divisible by heads ({heads})")
        self.dim, self.heads, self.head_dim = dim, heads, dim // heads
        self.q = Linear(dim, dim, rng, dtype)
        self.k = Linear(dim, dim, rng, dtype)
        self.v = Linear(dim, dim, rng, dtype)
        self.out = Linear(dim, dim, rng, dtype)
        self.attn_dropout = Dropout(attn_dropout)

    def _split(self, x: Tensor, B: int, T: int) -> Tensor:
        return transpose(reshape(x, (B, T, self.heads, self.head_dim)), (0, 2, 1, 3))

    def forward(self, x: Tensor, training: bool = False, rng: Rng | None = None) -> Tensor:
        B, T, _ = x.shape
        # Each projection is made where it is consumed, so inference never
        # holds q, k, v and the head outputs at once.
        scores = matmul(self._split(self.q(x), B, T),
                        transpose(self._split(self.k(x), B, T), (0, 1, 3, 2)))
        probs = softmax(scores * (1.0 / math.sqrt(self.head_dim)), axis=-1)
        probs = self.attn_dropout(probs, training, rng)
        mixed = matmul(probs, self._split(self.v(x), B, T))  # (B, heads, T, head_dim)
        return self.out(reshape(transpose(mixed, (0, 2, 1, 3)), (B, T, self.dim)))

    __call__ = forward


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


def apply_film(x: Tensor, scale, shift) -> Tensor:
    """Feature-wise affine modulation: x * (scale + 1) + shift."""
    scale, shift = as_tensor(scale), as_tensor(shift)
    if scale.shape[-1] != x.shape[-1] or shift.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"modulation dim {scale.shape[-1]} does not match features {x.shape[-1]}"
        )
    return x * (scale + 1.0) + shift


class TimeStepTokenizer(Module):
    """Learnable projection of sinusoidal time encodings to FiLM scale/shift.

    Three linear maps with GELU then SiLU between them; input and output
    dimension 2 * kprime, split evenly into the scale and shift embeddings.
    When disabled, emits zeros so time conditioning becomes the identity.
    """

    def __init__(self, kprime: int, rng: Rng, enabled: bool = True, dtype=np.float64):
        super().__init__()
        self.kprime = kprime
        self.enabled = enabled
        d = 2 * kprime
        self.lin1 = Linear(d, d, rng, dtype)
        self.lin2 = Linear(d, d, rng, dtype)
        self.lin3 = Linear(d, d, rng, dtype)
        self._dtype = dtype

    def forward(self, t) -> Tensor:
        """t: int array (batch,); returns embedding of shape (batch, 2*kprime)."""
        t = np.atleast_1d(np.asarray(t))
        if not self.enabled:
            return Tensor(np.zeros((t.shape[0], 2 * self.kprime), dtype=self._dtype))
        sin, cos = sinusoid_embed(t, self.kprime)
        h = Tensor(np.concatenate([sin, cos], axis=-1).astype(self._dtype))
        return self.lin3(silu(self.lin2(gelu(self.lin1(h)))))

    __call__ = forward

    def split(self, t_emb: Tensor) -> tuple[Tensor, Tensor]:
        """(scale, shift) halves of a tokenized embedding."""
        return t_emb[:, : self.kprime], t_emb[:, self.kprime :]
