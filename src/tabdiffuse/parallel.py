"""Row-sharded denoiser inference.

In eval mode every denoiser treats each row on its own, so one network
evaluation can be cut into contiguous row shards that run side by side, one
per core the process may run on.  Shard 0 runs on the calling thread, the
others on a pool of worker threads; numpy releases the GIL inside its
kernels, so the shards overlap.

Cut positions are multiples of ``ROW_ALIGN`` (8) rows.  OpenBLAS computes a
product in blocks of rows, and for some shapes (a single-column output head,
a 10-column MLP head) a row's rounding depends on where it sits in its
block, so a cut inside a block changes the last bits of some rows.  On
8-row boundaries every row is computed exactly as in one unsharded call, so
the shard count never changes an output.

numpy's OpenBLAS already spreads each large product over every core, and two
shards gain nothing while it does.  So while a sharded sampler runs, the
library's thread count is pinned to 1; the count is process-wide, so the pin
nests (a lock and a depth count) across concurrent callers and the saved
count is restored when the last one leaves.  When the library's thread
controls cannot be found, inference runs as one shard.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import os
import threading

import numpy as np

from .tensor import no_grad

ROW_ALIGN = 8
# Elements of the widest hidden state a shard must carry before a second core
# pays for its threads: below it, Python overhead, not arithmetic, sets the time.
MIN_SHARD_ELEMENTS = 1 << 16


class BlasThreads:
    """The OpenBLAS thread count, pinned to 1 while any holder is inside."""

    def __init__(self, get, set_):
        self._get, self._set = get, set_
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def get(self) -> int:
        return int(self._get())

    @contextlib.contextmanager
    def pinned(self):
        with self._lock:
            if self._depth == 0:
                self._saved = self.get()
                self._set(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self._set(self._saved)


def find_openblas(paths) -> BlasThreads | None:
    """The thread controls of the first OpenBLAS library among ``paths``."""
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy 2 wheels bundle scipy-openblas; older ones plain OpenBLAS, either
        # with 64-bit integer symbols (suffix 64_) or without
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return BlasThreads(get, set_)
    return None


@functools.cache
def numpy_blas() -> BlasThreads | None:
    """The thread controls of the OpenBLAS bundled with numpy, if any."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    return find_openblas(sorted(glob.glob(libs)))


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def shard_count(denoiser, n_rows: int) -> int:
    """How many row shards one evaluation of ``n_rows`` rows runs as."""
    by_work = n_rows * denoiser.row_cost // MIN_SHARD_ELEMENTS
    by_rows = -(-n_rows // ROW_ALIGN)
    n = max(1, min(_cores(), by_work, by_rows))
    return n if n == 1 or numpy_blas() is not None else 1


def shard_bounds(n_rows: int, n_shards: int) -> list[int]:
    """Cut points 0 = b0 < b1 < ... = n_rows of at most ``n_shards`` shards,
    as even as cuts on multiples of ``ROW_ALIGN`` allow."""
    blocks = -(-n_rows // ROW_ALIGN)
    n = max(1, min(n_shards, blocks))
    return [min(n_rows, ROW_ALIGN * (blocks * i // n)) for i in range(n + 1)]


def _eval(denoiser, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    with no_grad():
        return denoiser(x, t).data


@contextlib.contextmanager
def sharded_eval(denoiser, n_rows: int, n_shards: int | None = None):
    """Yields ``evaluate(x, t)``: the eval-mode output array of
    ``denoiser(x, t)`` for ``n_rows``-row inputs, computed in row shards.

    ``n_shards`` defaults to ``shard_count``.  BLAS stays pinned and the
    worker threads stay up for the whole block, so a sampler pays for them
    once, not once per step.
    """
    if n_shards is None:
        n_shards = shard_count(denoiser, n_rows)
    bounds = shard_bounds(n_rows, n_shards)
    if len(bounds) == 2:
        yield functools.partial(_eval, denoiser)
        return
    from concurrent.futures import ThreadPoolExecutor  # only sharded runs pay for its import

    blas = numpy_blas()
    with blas.pinned() if blas is not None else contextlib.nullcontext(), \
            ThreadPoolExecutor(len(bounds) - 2, thread_name_prefix="shard") as pool:

        def evaluate(x, t):
            if len(x) != n_rows:
                raise ValueError(f"sharded for {n_rows} rows, got {len(x)}")
            rest = [pool.submit(_eval, denoiser, x[a:b], t[a:b])
                    for a, b in zip(bounds[1:-1], bounds[2:])]
            first = _eval(denoiser, x[: bounds[1]], t[: bounds[1]])
            return np.concatenate([first] + [f.result() for f in rest])

        yield evaluate
