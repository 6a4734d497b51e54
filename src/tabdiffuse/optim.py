"""The smooth-L1 training loss and AdamW."""

from __future__ import annotations

from dataclasses import dataclass

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

    The weights and both moments each live in one flat buffer, every
    parameter's ``data`` a view of its slice, so a step is a few whole-buffer
    passes in the per-tensor update's arithmetic order.
    """

    params: dict[str, Tensor]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-5
    step_count: int = 0

    def __post_init__(self):
        arrays = [p.data for p in self.params.values()]
        if len({a.dtype for a in arrays}) > 1:
            raise ValueError("AdamW's parameters must share one dtype")
        self._w = np.concatenate([a.ravel() for a in arrays] or [np.zeros(0)])
        self._m, self._v = np.zeros_like(self._w), np.zeros_like(self._w)
        self._sizes = [a.size for a in arrays]
        for p, view in zip(self.params.values(), np.split(self._w, np.cumsum(self._sizes)[:-1])):
            p.data = view.reshape(p.data.shape)

    def step(self) -> int:
        grads = [p.grad for p in self.params.values()]
        # every check before any buffer is written, so a failed step changes nothing
        for (name, p), g in zip(self.params.items(), grads):
            if p.data.base is not self._w:
                raise ValueError(f"parameter {name} no longer views the optimizer's buffer")
            if g is not None and g.shape != p.data.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
        self.step_count += 1
        bc1, bc2 = 1.0 - self.beta1**self.step_count, 1.0 - self.beta2**self.step_count
        updated = sum(g is not None for g in grads)
        if updated:
            w, m, v, tmp = self._w, self._m, self._v, np.empty_like(self._w)
            g = np.concatenate([np.zeros(n) if gi is None else gi.ravel()
                                for gi, n in zip(grads, self._sizes)], out=np.empty_like(w))
            # a grad-less parameter keeps its weight and moments bit for bit
            keep = True if updated == len(grads) else np.repeat(
                [gi is not None for gi in grads], self._sizes)
            np.multiply(m, self.beta1, out=m, where=keep)
            np.add(m, np.multiply(g, 1.0 - self.beta1, out=tmp), out=m, where=keep)
            np.multiply(v, self.beta2, out=v, where=keep)
            np.multiply(np.multiply(g, 1.0 - self.beta2, out=tmp), g, out=tmp)
            np.add(v, tmp, out=v, where=keep)
            np.sqrt(np.divide(v, bc2, out=g), out=g)  # g is spent: sqrt(v_hat) + eps
            g += self.eps
            np.divide(np.divide(m, bc1, out=tmp), g, out=tmp)
            tmp += np.multiply(w, self.weight_decay, out=g)
            tmp *= self.lr
            np.subtract(w, tmp, out=w, where=keep)
        for p in self.params.values():
            p.grad = None
        return updated
