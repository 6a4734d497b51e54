"""Tensor-core micro numbers for the traced run.

The fixed cost of one small op (a 4x4 add with grad recording off and on)
and one forward+backward through each layer the workloads lean on, at the
shapes they use it: Linear, attention and LayerNorm at the transformer's
(128 rows, 11 tokens, 192 dims) with the ReGLU feed-forward's 192 -> 512
Linear; conv1d and GroupNorm at the U-Net's first stage in training
(64 rows, 16 -> 32 channels, 10 positions); the time tokenizer at the
grid MLP's width (kprime 32) on the sampler's single shared time step.
"""

from __future__ import annotations

import time

import numpy as np

from tracing import distribution

ADD_BATCHES, ADD_OPS = 40, 250  # 40 samples, each the mean of 250 adds
LAYER_REPS = 20


def _timed(fn, reps: int) -> list[float]:
    fn()  # warm-up
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def micro_metrics(seed: int) -> dict:
    from tabdiffuse import nn
    from tabdiffuse.rng import Rng
    from tabdiffuse.tensor import Tensor, conv1d, no_grad, parameter

    rng = Rng(seed)
    out = {}

    def adds(a, b):
        def run():
            for _ in range(ADD_OPS):
                a + b
        return [s / ADD_OPS for s in _timed(run, ADD_BATCHES)]

    a, b = Tensor(rng.normal((4, 4))), Tensor(rng.normal((4, 4)))
    with no_grad():
        out.update(distribution("tensor.op_us_nograd", adds(a, b), "us", 1e6))
    out.update(distribution("tensor.op_us_grad",
                            adds(parameter(rng.normal((4, 4))), parameter(rng.normal((4, 4)))),
                            "us", 1e6))

    def fwd_bwd(layer, *inputs):
        def run():
            layer(*inputs).sum().backward()
        return _timed(run, LAYER_REPS)

    tokens = Tensor(rng.normal((128, 11, 192)))
    conv_in = Tensor(rng.normal((64, 16, 10)))
    cases = {
        "linear": (nn.Linear(192, 512, rng), tokens),
        "attention": (nn.MultiHeadSelfAttention(192, 8, 0.0, rng), tokens),
        "layernorm": (nn.LayerNorm(192), tokens),
        "conv1d": (lambda x, w=parameter(rng.normal((32, 16, 3))),
                   c=parameter(rng.normal((32,))): conv1d(x, w, c), conv_in),
        "groupnorm": (nn.GroupNorm(32, 4), Tensor(rng.normal((64, 32, 10)))),
        "tokenizer": (nn.TimeStepTokenizer(32, rng), np.array([250])),
    }
    for name, (layer, x) in cases.items():
        out.update(distribution(f"micro.{name}_fwd_bwd_ms", fwd_bwd(layer, x), "ms", 1e3))
    return out
