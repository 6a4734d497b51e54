"""Row-sharded inference: cuts fixed by the network and the row count, the
same bits on any number of threads, BLAS pin restored."""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from tabdiffuse import parallel
from tabdiffuse.checkpoint import save_checkpoint
from tabdiffuse.cli import main
from tabdiffuse.data import MinMaxScaler, write_csv
from tabdiffuse.denoisers import ARCHITECTURES, DenoiserConfig, build_denoiser
from tabdiffuse.rng import Rng
from tabdiffuse.sampling import MaskedTable, SamplerOptions, impute
from tabdiffuse.tensor import NumericError, no_grad

CONFIGS = {
    "mlp": DenoiserConfig(arch="mlp", n_features=10, hidden=24, blocks=2),
    "resnet": DenoiserConfig(arch="resnet", n_features=10, hidden=24, blocks=2),
    "transformer": DenoiserConfig(arch="transformer", n_features=10, embed_dim=16, heads=2,
                                  blocks=1),
    "unet": DenoiserConfig(arch="unet", n_features=10, unet_channels=(4, 8),
                           groupnorm_groups=2, heads=2),
}

@pytest.fixture
def blas():
    """numpy's OpenBLAS controls, set to 2 threads, so that a pin left behind
    (1 thread) shows even on a one-core machine."""
    controls = parallel.numpy_blas()
    if controls is None:
        pytest.skip("numpy's OpenBLAS thread controls not found")
    saved = controls.get()
    controls._set(2)
    yield controls
    controls._set(saved)


@pytest.fixture(scope="module")
def networks():
    return {arch: build_denoiser(cfg, seed=4) for arch, cfg in CONFIGS.items()}


def _n_shards(den, n_rows):
    return len(parallel.shard_bounds(den, n_rows)) - 1


# OpenBLAS kernels (as ``corename`` names them) on which an 8-row cut was
# measured to keep every row's bits; under Haswell, which OpenBLAS also runs
# on Zen CPUs, 2 of the 129-row transformer's 1290 outputs differ in the last bit
BIT_KERNELS = ("SkylakeX", "Sandybridge")


def _cut_into(monkeypatch, den, n_rows, n_shards):
    """Make ``shard_bounds`` cut ``n_rows`` rows into ``n_shards`` 8-row-aligned
    shards (fewer when the rows have fewer 8-row blocks)."""
    blocks = -(-n_rows // parallel.ROW_ALIGN)
    rows = parallel.ROW_ALIGN * -(-blocks // n_shards)
    monkeypatch.setattr(parallel, "MIN_SHARD_ELEMENTS", rows * den.row_cost)
    assert _n_shards(den, n_rows) == min(n_shards, blocks)


@pytest.mark.parametrize("n_rows", [7, 24, 129, 1000])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_the_same_cuts_give_the_same_bytes_on_1_2_and_3_threads(monkeypatch, networks, arch,
                                                                 n_rows):
    """The contract, on any BLAS kernel: the cuts decide the bits, and the
    number of threads that runs the shards does not."""
    den = networks[arch]
    x = Rng(n_rows).normal((n_rows, 10))
    t = np.full(n_rows, 37)
    for n_shards in (1, 2, 3):
        _cut_into(monkeypatch, den, n_rows, n_shards)
        outputs = set()
        for cores in (1, 2, 3):
            monkeypatch.setattr(parallel, "_cores", lambda: cores)
            with parallel.sharded_eval(den, n_rows) as evaluate:
                outputs.add(evaluate(x, t).tobytes())
        assert len(outputs) == 1


@pytest.mark.parametrize("n_rows", [7, 24, 129, 1000])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_sharded_eval_is_bitwise_the_unsharded_call(monkeypatch, networks, arch, n_rows):
    """A kernel measurement: for these shapes, a cut on the 8-row grid into 1,
    2 or 3 shards keeps every row's bits, on two threads.  A lower minimum
    makes finer cuts."""
    kernel = parallel.numpy_blas() and parallel.numpy_blas().corename()
    if kernel not in BIT_KERNELS:
        pytest.skip(f"measured on the {' and '.join(BIT_KERNELS)} kernels, not on {kernel}")
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den = networks[arch]
    x = Rng(n_rows).normal((n_rows, 10))
    t = np.full(n_rows, 37)
    with no_grad():
        expected = den(x, t).data
    for n_shards in (1, 2, 3):
        _cut_into(monkeypatch, den, n_rows, n_shards)
        with parallel.sharded_eval(den, n_rows) as evaluate:
            np.testing.assert_array_equal(evaluate(x, t), expected)


def test_a_cut_off_the_8_row_grid_changes_bits(networks):
    """Why the cuts sit on multiples of 8: the sharded test above would catch
    a cut anywhere else."""
    den = networks["transformer"]
    x, t = Rng(0).normal((129, 10)), np.full(129, 37)
    with no_grad():
        whole = den(x, t).data
        cut = np.concatenate([den(x[:5], t[:5]).data, den(x[5:], t[5:]).data])
    assert not np.array_equal(whole, cut)


class _RowCost:
    def __init__(self, row_cost):
        self.row_cost = row_cost


@pytest.mark.parametrize("n_rows,blocks", [(7, 3), (8, 2), (24, 3), (129, 2), (129, 3),
                                           (1000, 3), (1000, 64)])
def test_shard_bounds_cover_the_rows_on_8_row_boundaries(monkeypatch, n_rows, blocks):
    """Rows that carry the minimum round up to a whole number of 8-row
    blocks; every shard but the last holds that many rows, and the last holds
    the rest, but never fewer than 8 rows when the table has them."""
    align = parallel.ROW_ALIGN
    rows = align * blocks
    monkeypatch.setattr(parallel, "MIN_SHARD_ELEMENTS", 10 * (rows - align) + 1)
    bounds = parallel.shard_bounds(_RowCost(10), n_rows)
    assert bounds[0] == 0 and bounds[-1] == n_rows
    assert all(b - a == rows for a, b in zip(bounds, bounds[1:-1]))
    assert min(n_rows, align) <= bounds[-1] - bounds[-2] < rows + align
    assert len(bounds) - 1 == 1 + max(0, (n_rows - align) // rows)


def test_shard_count_follows_the_work_per_row(monkeypatch):
    big = build_denoiser(DenoiserConfig(arch="transformer", n_features=10), seed=0)
    grid_mlp = build_denoiser(DenoiserConfig(arch="mlp", n_features=4), seed=0)
    for cores in (2, 1):
        monkeypatch.setattr(parallel, "_cores", lambda: cores)
        assert _n_shards(big, 128) == 4  # 32 rows of (10 + 1) * 192: 67584 elements >= 2**16
        assert _n_shards(big, 39) == 1  # a rest under 8 rows joins the shard before it
        assert _n_shards(big, 40) == 2
        assert _n_shards(grid_mlp, 400) == 1  # hidden 32: 2048-row shards
        assert _n_shards(grid_mlp, 10000) == 5


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_shard_bounds_do_not_depend_on_the_host(monkeypatch, arch):
    den = build_denoiser(DenoiserConfig(arch=arch, n_features=10), seed=0)
    seen = set()
    for cores, blas in itertools.product((1, 2, 3, 64), (parallel.numpy_blas, lambda: None)):
        monkeypatch.setattr(parallel, "_cores", lambda: cores)
        monkeypatch.setattr(parallel, "numpy_blas", blas)
        seen.add(tuple(tuple(parallel.shard_bounds(den, n)) for n in (1, 7, 8, 129, 1000, 10000)))
    assert len(seen) == 1


def test_shard_threads_follow_the_cores_and_the_shards(monkeypatch, blas):
    for cores, n_shards, threads in ((1, 4, 1), (2, 4, 2), (64, 4, 4), (2, 1, 1)):
        monkeypatch.setattr(parallel, "_cores", lambda: cores)
        assert parallel.shard_threads(n_shards) == threads
    monkeypatch.setattr(parallel, "numpy_blas", lambda: None)
    assert parallel.shard_threads(4) == 1


def _impute_big_transformer(table_rows=64, **opts):
    den = build_denoiser(DenoiserConfig(arch="transformer", n_features=10, blocks=1), seed=2)
    rng = Rng(5)
    table = MaskedTable(rng.uniform((table_rows, 10)), rng.uniform((table_rows, 10)) > 0.3)
    return den, [(table, 9)], SamplerOptions(t_sampling=20, tau=3, **opts)


def test_blas_threads_restored_after_impute(monkeypatch, blas):
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den, walks, opts = _impute_big_transformer()
    seen = []
    impute(den, walks, opts, on_step=lambda level, x: seen.append(blas.get()))
    assert _n_shards(den, 64) == 2
    assert set(seen) == {1}  # pinned for the whole walk, its first draws included
    assert blas.get() == 2


def test_blas_threads_restored_after_a_shard_raises(monkeypatch, blas):
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den, walks, opts = _impute_big_transformer()
    forward = type(den).forward

    def failing(self, x, t, training=False, rng=None):
        if x.shape[0] < 64 and threading.current_thread() is not threading.main_thread():
            raise NumericError("non-finite values produced by 'test'")
        return forward(self, x, t, training, rng)

    monkeypatch.setattr(type(den), "forward", failing)
    with pytest.raises(NumericError):
        impute(den, walks, opts)
    assert blas.get() == 2


def _noise_threads():
    return [t for t in threading.enumerate() if t.name == "tabdiffuse-noise_0"]


def _mlp_walk():
    den = build_denoiser(DenoiserConfig(arch="mlp", n_features=4), seed=2)
    rng = Rng(6)
    table = MaskedTable(rng.uniform((40, 4)), rng.uniform((40, 4)) > 0.3)
    return den, [(table, 3), (table, 4)], SamplerOptions(t_sampling=20, jump_n_sample=2)


def test_no_noise_thread_while_the_shards_take_every_core(monkeypatch, blas):
    """A thread beside two shard threads on two cores would only contend."""
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den, walks, _ = _impute_big_transformer()
    opts = SamplerOptions(t_sampling=24)  # more batches of draws than the thread may hold
    assert parallel.shard_threads(_n_shards(den, 64)) == 2
    producing = []
    impute(den, walks, opts, on_step=lambda level, x: producing.append(bool(_noise_threads())))
    assert not any(producing)
    monkeypatch.setattr(parallel, "_cores", lambda: 3)
    producing.clear()
    impute(den, walks, opts, on_step=lambda level, x: producing.append(bool(_noise_threads())))
    assert producing[0]


def test_a_network_error_mid_walk_stops_the_noise_thread(monkeypatch, blas):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
    den, walks, opts = _mlp_walk()
    forward = type(den).forward
    calls, producing = [], []
    error = NumericError("non-finite values produced by 'step 5'")

    def failing(self, x, t, training=False, rng=None):
        calls.append(t[0])
        producing.append(bool(_noise_threads()))
        if len(calls) == 5:
            raise error
        return forward(self, x, t, training, rng)

    monkeypatch.setattr(type(den), "forward", failing)
    with pytest.raises(NumericError) as raised:
        impute(den, walks, opts)
    assert raised.value is error
    assert producing[0] and len(calls) == 5
    assert not _noise_threads()
    assert blas.get() == 2


@pytest.mark.parametrize("method,fail_at,thread", [("draw_normals", 4, "tabdiffuse-noise_0"),
                                                   ("draw_normals", 7, "MainThread")],
                         ids=["draw_normals-4-tabdiffuse-noise", "draw_normals-7-MainThread"])
def test_a_draw_error_reaches_the_caller_and_stops_the_noise_thread(monkeypatch, blas, method,
                                                                    fail_at, thread):
    """The noise thread makes the draws on two cores, and the loop makes
    them itself on one.  An error on either side ends the walk the same way."""
    cores = {0, 1} if thread == "tabdiffuse-noise_0" else {0}
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: cores)
    den, walks, opts = _mlp_walk()
    original = getattr(Rng, method)
    drawn = []
    error = RuntimeError(f"draw {fail_at} failed")

    def failing(self, *args):
        drawn.append(threading.current_thread().name)
        if len(drawn) == fail_at:
            raise error
        return original(self, *args)

    monkeypatch.setattr(Rng, method, failing)
    with pytest.raises(RuntimeError) as raised:
        impute(den, walks, opts)
    assert raised.value is error
    assert set(drawn) == {thread}
    assert not _noise_threads()
    assert blas.get() == 2


def test_one_core_draws_inline_with_the_same_bytes(monkeypatch, blas):
    den, walks, opts = _mlp_walk()
    outputs = {}
    for cores in ({0, 1}, {0}):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid, cores=cores: cores)
        producing = []
        out = impute(den, walks, opts,
                     on_step=lambda level, x: producing.append(bool(_noise_threads())))
        outputs[len(cores)] = [o.tobytes() for o in out]
        assert producing[0] == (len(cores) == 2)
        assert len(cores) == 2 or not any(producing)
    assert outputs[1] == outputs[2]
    assert blas.get() == 2


@pytest.mark.parametrize("leave_after", [0, 1, 2, 3, 5, 8])
def test_a_reader_that_leaves_early_stops_the_thread(monkeypatch, blas, leave_after):
    """Whether the thread waits for room, draws, or has finished when the
    reader leaves, the block joins it; four readers at once, the switch
    interval shortened so the interleavings vary."""
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    read, errors = [], []

    def reader():
        try:
            with parallel.read_ahead(iter(range(8)), 2, "tabdiffuse-noise", 1) as items:
                read.append(list(itertools.islice(items, leave_after)))
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors and read == [list(range(min(leave_after, 8)))] * 4
    assert not _noise_threads()
    assert blas.get() == 2


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_the_thread_reads_at_most_depth_plus_one_items_ahead(monkeypatch, blas, depth):
    """While the reader holds r items, ``items`` has yielded r + depth + 1 and
    no more: with the sampler's depth of 2, at most four batches of draws are
    held.  Each count is read after the thread has had time to run further."""
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    yielded = []

    def items():
        for i in range(20):
            yielded.append(i)
            yield i

    with parallel.read_ahead(items(), depth, "tabdiffuse-noise", 1) as ahead:
        for held in range(6):
            deadline = time.monotonic() + 10
            while len(yielded) < held + depth + 1 and time.monotonic() < deadline:
                time.sleep(1e-3)
            time.sleep(0.02)
            assert len(yielded) == held + depth + 1
            assert next(ahead) == held
    assert not _noise_threads()
    assert blas.get() == 2


def test_pins_nest_across_threads(blas):
    inside, release = threading.Barrier(2, timeout=10), threading.Event()

    def holder():
        with blas.pinned():
            inside.wait()
            release.wait(timeout=10)

    worker = threading.Thread(target=holder)
    worker.start()
    with blas.pinned():
        inside.wait()
        release.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert blas.get() == 1  # the other holder left; this one still holds the pin
    assert blas.get() == 2


def test_pin_depth_survives_many_concurrent_holders(blas):
    """A lost update of the depth count would unpin while a holder is inside,
    or leave the library pinned after the last one left."""
    unpinned_inside = []

    def holder():
        for _ in range(200):
            with blas.pinned():
                if blas.get() != 1:
                    unpinned_inside.append(1)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=holder) for _ in range(2 * parallel._cores() + 2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert unpinned_inside == []
    assert blas.get() == 2


def test_blas_names_the_kernel_it_picked(blas):
    # recorded beside output manifests: output bytes repeat only on the same kernel
    core = blas.corename()
    assert isinstance(core, str) and core.strip()


def test_missing_openblas_runs_the_same_shards_on_one_thread_with_the_same_bytes(monkeypatch):
    assert parallel.find_openblas([]) is None
    assert parallel.find_openblas(["no-such-library.so"]) is None
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den, walks, opts = _impute_big_transformer()
    threaded = impute(den, walks, opts)[0]
    monkeypatch.setattr(parallel, "numpy_blas", lambda: None)
    forward, calls = type(den).forward, []

    def recorded(self, x, t, training=False, rng=None):
        calls.append((x.shape[0], threading.current_thread() is threading.main_thread()))
        return forward(self, x, t, training, rng)

    monkeypatch.setattr(type(den), "forward", recorded)
    np.testing.assert_array_equal(impute(den, walks, opts)[0], threaded)
    assert _n_shards(den, 64) == 2
    assert calls and set(calls) == {(32, True)}


def test_impute_writes_the_same_bytes_on_one_core_and_on_two(monkeypatch, tmp_path):
    """A table above OpenBLAS's small-matrix switch: a 10000-row MLP (hidden
    32) evaluation, whose halves round differently from the whole call."""
    x = Rng(6).normal((10000, 4))
    names = ("a", "b", "c", "d")
    write_csv(tmp_path / "data.csv", x, list(names))
    den = build_denoiser(DenoiserConfig(arch="mlp", n_features=4, hidden=32), seed=1)
    den.train_t, den.scaler, den.feature_names = 1000, MinMaxScaler().fit(x), names
    save_checkpoint(tmp_path / "mlp.ckpt", den)

    def imputed(cores):
        monkeypatch.setattr(parallel, "_cores", lambda: cores)
        out = tmp_path / f"imputed-{cores}.csv"
        assert main(["impute", "--checkpoint", str(tmp_path / "mlp.ckpt"),
                     "--data", str(tmp_path / "data.csv"), "--mcar", "0.3",
                     "--T-sampling", "20", "--n-inferences", "1", "--out", str(out)]) == 0
        return out.read_bytes()

    assert imputed(1) == imputed(2)


def test_walks_per_batch_stacks_half_a_shard():
    grid_mlp = build_denoiser(DenoiserConfig(arch="mlp", n_features=4), seed=0)
    big = build_denoiser(DenoiserConfig(arch="transformer", n_features=10), seed=0)
    assert parallel.walks_per_batch(grid_mlp, 400) == 3  # 1200 rows of hidden 32
    assert parallel.walks_per_batch(big, 128) == 1  # 128 rows of (10 + 1) * 192 >= 2**15
    half = parallel.MIN_SHARD_ELEMENTS // 2
    for row_cost in (1, 7, 32, 100, 2112):
        for n_rows in (1, 2, 3, 8, 13, 37, 100, 400, 1000, 4096, 40000):
            k = parallel.walks_per_batch(_RowCost(row_cost), n_rows)
            assert (k == 1) == (n_rows * row_cost >= half)
            if k > 1:  # the fewest walks that reach half a shard, never more than a shard
                assert (k - 1) * n_rows * row_cost < half <= k * n_rows * row_cost
                assert k * n_rows * row_cost <= parallel.MIN_SHARD_ELEMENTS
