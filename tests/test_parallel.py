"""Row-sharded inference: same bits for any shard count, BLAS pin restored."""

import sys
import threading

import numpy as np
import pytest

from tabdiffuse import parallel
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


@pytest.mark.parametrize("n_rows", [7, 24, 129, 1000])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_sharded_eval_is_bitwise_the_unsharded_call(networks, arch, n_rows):
    den = networks[arch]
    x = Rng(n_rows).normal((n_rows, 10))
    t = np.full(n_rows, 37)
    with no_grad():
        expected = den(x, t).data
    for n_shards in (1, 2, 3):
        with parallel.sharded_eval(den, n_rows, n_shards) as evaluate:
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


@pytest.mark.parametrize("n_rows,n_shards", [(7, 3), (8, 2), (24, 3), (129, 2), (129, 3),
                                             (1000, 3), (1000, 64)])
def test_shard_bounds_cover_the_rows_on_8_row_boundaries(n_rows, n_shards):
    bounds = parallel.shard_bounds(n_rows, n_shards)
    assert bounds[0] == 0 and bounds[-1] == n_rows
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert all(b % parallel.ROW_ALIGN == 0 for b in bounds[1:-1])
    assert len(bounds) - 1 == min(n_shards, -(-n_rows // parallel.ROW_ALIGN))


def test_shard_count_follows_the_work_per_row(monkeypatch, blas):
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    big = build_denoiser(DenoiserConfig(arch="transformer", n_features=10), seed=0)
    grid_mlp = build_denoiser(DenoiserConfig(arch="mlp", n_features=4), seed=0)
    assert parallel.shard_count(big, 128) == 2  # (10 + 1) * 192 elements a row
    assert parallel.shard_count(big, 32) == 1  # 67584 elements: under 2 x 2**16
    assert parallel.shard_count(grid_mlp, 400) == 1
    monkeypatch.setattr(parallel, "_cores", lambda: 1)
    assert parallel.shard_count(big, 128) == 1


def _impute_big_transformer(table_rows=64, **opts):
    den = build_denoiser(DenoiserConfig(arch="transformer", n_features=10, blocks=1), seed=2)
    rng = Rng(5)
    table = MaskedTable(rng.uniform((table_rows, 10)), rng.uniform((table_rows, 10)) > 0.3)
    return den, table, SamplerOptions(t_sampling=20, tau=3, seed=9, **opts)


def test_blas_threads_restored_after_impute(monkeypatch, blas):
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den, table, opts = _impute_big_transformer()
    seen = []
    impute(den, table, opts, on_step=lambda level, x: seen.append(blas.get()))
    assert parallel.shard_count(den, 64) == 2
    assert set(seen[1:]) == {1}  # pinned from the first network evaluation on
    assert blas.get() == 2


def test_blas_threads_restored_after_a_shard_raises(monkeypatch, blas):
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den, table, opts = _impute_big_transformer()
    forward = type(den).forward

    def failing(self, x, t, training=False, rng=None):
        if x.shape[0] < 64 and threading.current_thread() is not threading.main_thread():
            raise NumericError("non-finite values produced by 'test'")
        return forward(self, x, t, training, rng)

    monkeypatch.setattr(type(den), "forward", failing)
    with pytest.raises(NumericError):
        impute(den, table, opts)
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


def test_missing_openblas_runs_one_shard_with_the_same_bytes(monkeypatch):
    assert parallel.find_openblas([]) is None
    assert parallel.find_openblas(["no-such-library.so"]) is None
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    den, table, opts = _impute_big_transformer()
    sharded = impute(den, table, opts)
    monkeypatch.setattr(parallel, "numpy_blas", lambda: None)
    assert parallel.shard_count(den, 64) == 1
    np.testing.assert_array_equal(impute(den, table, opts), sharded)
