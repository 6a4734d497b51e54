"""Deterministic random number generation.

Every stochastic component (weight init, noise draws, masks, shuffling,
dropout) pulls from an explicit :class:`Rng` so that a run is fully
determined by its seeds.  Bits come from the counter-based Philox 4x64-10
generator; normal variates are produced by the Box-Muller transform on top
of those bits.  The same seed yields the same uniforms, integers and
permutations on every platform.  The normals go through ``np.log``,
``np.cos`` and ``np.sin``, whose last bits follow numpy's SIMD dispatch
and the C math library, so they repeat only under the same numpy build,
CPU features and libm.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    # SplitMix64 finalizer; used only to derive child seeds.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a child seed from ``seed`` and a path of stream indices.

    Used to give mask seeds, ensemble inferences, and worker streams
    disjoint, reproducible substreams of one run seed.
    """
    z = _splitmix64(seed & _MASK64)
    for idx in indices:
        z = _splitmix64(z ^ _splitmix64((idx + 1) & _MASK64))
    return z


class Rng:
    """Seeded random stream (Philox 4x64-10 bits, Box-Muller normals)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws on the half-open interval (0, 1]."""
        # 1 - U maps numpy's [0, 1) onto (0, 1], keeping log() finite below.
        return 1.0 - self._gen.random(size=shape)

    def normal(self, shape=()) -> np.ndarray:
        """I.i.d. standard normal draws via Box-Muller."""
        z = self.draw_normals(1, shape)[0]
        return z if shape else float(z)

    def draw_normals(self, count: int, shape) -> np.ndarray:
        """The stream's next ``count`` normal draws of ``shape``, stacked: the
        bits of ``count`` calls of ``normal(shape)``, for fewer numpy calls."""
        n = math.prod(shape)
        m = (n + 1) // 2
        # each call's uniforms: the first m pair with the next m
        u = self.uniform((count, 2, m))
        r = np.sqrt(-2.0 * np.log(u[:, 0]))
        angle = 2.0 * np.pi * u[:, 1]
        z = np.empty((count, 2 * m))
        z[:, 0::2] = r * np.cos(angle)
        z[:, 1::2] = r * np.sin(angle)
        return z[:, :n].reshape(count, *shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, size: int) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=False)
