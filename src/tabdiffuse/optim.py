"""The smooth-L1 training loss and AdamW."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, tmean, where_mask


def smooth_l1(pred: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Mean smooth-L1 (Huber-style) loss.

    Per element, with d = target - pred: 0.5 d^2 / beta when |d| < beta,
    |d| - 0.5 beta otherwise.  Continuous and C1 at |d| = beta.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    d = target - pred
    absd = d.abs()
    quadratic = (d * d) * (0.5 / beta)
    linear = absd - 0.5 * beta
    return tmean(where_mask(absd.data < beta, quadratic, linear))


@dataclass
class AdamW:
    """Decoupled-weight-decay Adam with bias correction.

    ``params`` maps names to trainable tensors, as ``Module.named_parameters``
    yields them.  ``step()`` applies one update to every parameter with a
    gradient, clears all gradients, and returns how many it updated.
    """

    params: dict[str, Tensor]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-5
    step_count: int = 0
    _m: dict[str, np.ndarray] = field(default_factory=dict)
    _v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self) -> int:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        updated = 0
        for name, p in self.params.items():
            if p.grad is None:
                continue
            updated += 1
            g = p.grad
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            m = self._m.setdefault(name, np.zeros_like(p.data))
            v = self._v.setdefault(name, np.zeros_like(p.data))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)
        for p in self.params.values():
            p.grad = None
        return updated
