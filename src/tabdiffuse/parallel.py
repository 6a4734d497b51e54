"""Row-sharded denoiser inference.

In eval mode every denoiser treats each row on its own, so one network
evaluation can be cut into contiguous row shards.  The cuts depend only on
the network and the row count (``shard_bounds``); the core count and numpy's
BLAS decide only how many threads run the shards (``shard_threads``), so no
output depends on the host.  numpy releases the GIL inside its kernels, so
threaded shards overlap.

Cut positions are multiples of ``ROW_ALIGN`` (8) rows.  OpenBLAS computes a
product in blocks of rows, and for some shapes (a single-column output head,
a 10-column MLP head) a row's rounding depends on where it sits in its
block, so a cut inside a block changes the last bits of some rows.  A cut
on the 8-row grid keeps every row's bits on the SkylakeX and SandyBridge
kernels, where that was measured, but not on Haswell or Zen.  OpenBLAS also
picks its kernel by problem size, so a shard can round differently from one
call over all the rows: the cuts must not move with the host.

numpy's OpenBLAS already spreads each large product over every core, and two
shards gain nothing while it does.  So while shards run on several threads,
the library's thread count is pinned to 1; the count is process-wide, so the
pin nests (a lock and a depth count) across concurrent callers and the saved
count is restored when the last one leaves.  When the library's thread
controls cannot be found, the shards run one after another on the caller.

``read_ahead`` runs an iterator a few items ahead of its reader on a
one-worker ``ThreadPoolExecutor`` under the same pin, on a core the shards
leave idle: the sampler's noise thread, ``tabdiffuse-noise_0``.  Leaving
cancels the calls not yet begun and joins the worker.
"""

from __future__ import annotations

import collections
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
# Elements of the widest hidden state a shard carries at least: below it,
# Python overhead, not arithmetic, sets a shard's time.
MIN_SHARD_ELEMENTS = 1 << 16


class BlasThreads:
    """The OpenBLAS thread count, pinned to 1 while any holder is inside."""

    def __init__(self, get, set_, corename=None):
        self._get, self._set, self._corename = get, set_, corename
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def get(self) -> int:
        return int(self._get())

    def corename(self) -> str | None:
        """The kernel family the library picked for this CPU, such as SkylakeX."""
        return self._corename().decode() if self._corename is not None else None

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
                corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                return BlasThreads(get, set_, corename)
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


def shard_bounds(denoiser, n_rows: int) -> list[int]:
    """Cut points 0 = b0 < b1 < ... = n_rows of one ``n_rows``-row evaluation:
    every R rows, R the smallest multiple of ``ROW_ALIGN`` whose rows carry
    ``MIN_SHARD_ELEMENTS`` elements of ``denoiser.row_cost``.  The last shard
    takes the rest; a rest under ``ROW_ALIGN`` rows joins the shard before it,
    as numpy runs a 1-row product through a matrix-vector kernel.  The cuts
    keep every row's bits on the SkylakeX and SandyBridge kernels only."""
    rows = ROW_ALIGN * -(-MIN_SHARD_ELEMENTS // (ROW_ALIGN * denoiser.row_cost))
    return [0, *range(rows, n_rows - ROW_ALIGN + 1, rows), n_rows]


def walks_per_batch(denoiser, n_rows: int) -> int:
    """How many sampler walks over ``n_rows`` rows to stack into one state: the
    fewest whose rows carry ``MIN_SHARD_ELEMENTS // 2`` elements of
    ``denoiser.row_cost``, so a batch of several walks never carries more
    hidden state than one shard does."""
    return max(1, -(-(MIN_SHARD_ELEMENTS // 2) // (n_rows * denoiser.row_cost)))


def shard_threads(n_shards: int) -> int:
    """One thread per core, at most one per shard; one if BLAS cannot be pinned."""
    return min(_cores(), n_shards) if numpy_blas() is not None else 1


def _eval(denoiser, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    with no_grad():
        return denoiser(x, t).data


@contextlib.contextmanager
def sharded_eval(denoiser, n_rows: int):
    """Yields ``evaluate(x, t)``: the eval-mode output array of
    ``denoiser(x, t)`` for ``n_rows``-row inputs, computed shard by shard at
    ``shard_bounds``.

    On more than one thread, BLAS stays pinned and the worker threads stay up
    for the whole block, so a sampler pays for them once, not once per step.
    """
    bounds = shard_bounds(denoiser, n_rows)
    threads = shard_threads(len(bounds) - 1)

    def evaluate(x, t, map_=map):
        if len(x) != n_rows:
            raise ValueError(f"sharded for {n_rows} rows, got {len(x)}")
        parts = list(map_(lambda a, b: _eval(denoiser, x[a:b], t[a:b]), bounds, bounds[1:]))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    if threads == 1:
        yield evaluate
        return
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay for its import

    with numpy_blas().pinned(), ThreadPoolExecutor(threads, thread_name_prefix="shard") as pool:
        yield functools.partial(evaluate, map_=pool.map)


@contextlib.contextmanager
def read_ahead(items, depth: int, name: str, busy: int):
    """Yields an iterator over ``items`` that one worker thread, named
    ``name`` + ``_0``, runs up to ``depth`` + 1 items ahead of the reader.

    The items come in their order, and an error raised by ``items`` reaches
    the reader, as itself, when it reads that far.  BLAS stays pinned to one
    thread for the whole block.  On leaving, the calls not yet begun are
    cancelled and the worker is joined.  The reader runs ``items`` itself
    when the ``busy`` threads it keeps running meanwhile (say,
    ``shard_threads``) take every core, or when BLAS cannot be pinned: a
    thread would only contend with them, and its heap arena would keep pages
    of theirs mapped.
    """
    items, blas = iter(items), numpy_blas()
    if _cores() <= busy or blas is None:
        yield items
        return
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay for its import

    end = object()
    with blas.pinned(), ThreadPoolExecutor(1, thread_name_prefix=name) as worker:
        ahead = collections.deque(worker.submit(next, items, end) for _ in range(depth + 1))

        def read():
            while (item := ahead.popleft().result()) is not end:
                ahead.append(worker.submit(next, items, end))
                yield item

        try:
            yield read()
        finally:
            worker.shutdown(cancel_futures=True)
