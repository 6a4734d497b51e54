import tracemalloc

import numpy as np
import pytest

from tabdiffuse import training
from tabdiffuse.denoisers import DenoiserConfig, build_denoiser
from tabdiffuse.nn import BatchSizeError
from tabdiffuse.rng import Rng
from tabdiffuse.schedule import build_cosine_schedule
from tabdiffuse.tensor import no_grad
from tabdiffuse.training import (
    NoGradientStep,
    TrainingConfig,
    TrainingDiverged,
    q_sample,
    train,
)


def correlated_gaussian(n, rho=0.9, seed=0):
    rng = Rng(seed)
    z = rng.normal((n, 2))
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    x[:, 1] = rho * z[:, 0] + np.sqrt(1 - rho**2) * z[:, 1]
    x -= x.min(axis=0)
    x /= x.max(axis=0)
    return x


# -- q_sample ---------------------------------------------------------------


def test_q_sample_zero_noise():
    sched = build_cosine_schedule(100)
    x0 = np.ones((3, 2))
    t = np.array([1, 50, 100])
    out = q_sample(sched, x0, t, np.zeros_like(x0))
    expect = np.sqrt(sched.alpha_bar[t - 1])[:, None] * x0
    np.testing.assert_allclose(out, expect, atol=1e-15)


def test_q_sample_terminal_step_is_noise():
    sched = build_cosine_schedule(1000)
    x0 = np.full((4, 3), 0.5)
    eps = Rng(0).normal((4, 3))
    out = q_sample(sched, x0, np.full(4, 1000), eps)
    np.testing.assert_allclose(out, eps, atol=0.02)


def test_q_sample_variance_monte_carlo():
    sched = build_cosine_schedule(100)
    t = 40
    n = 100_000
    x0 = np.full((n, 1), 0.7)
    eps = Rng(1).normal((n, 1))
    out = q_sample(sched, x0, np.full(n, t), eps)
    abar = sched.alpha_bar_at(t)
    expect_var = 1.0 - abar
    sigma_var = expect_var * np.sqrt(2.0 / (n - 1))
    assert abs(out.var() - expect_var) <= 3 * sigma_var
    assert abs(out.mean() - np.sqrt(abar) * 0.7) <= 3 * np.sqrt(expect_var / n)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_q_sample_keeps_the_table_dtype(dtype):
    sched = build_cosine_schedule(100)
    x0 = Rng(2).uniform((6, 3))
    eps = Rng(3).normal((6, 3))
    t = np.array([1, 10, 25, 50, 75, 100])
    abar = sched.alpha_bar[t - 1][:, None]
    out = q_sample(sched, x0.astype(dtype), t, eps)
    assert out.dtype == dtype
    # float64 arithmetic, rounded once to the table's dtype
    x0_in = x0.astype(dtype).astype(np.float64)
    expect = (np.sqrt(abar) * x0_in + np.sqrt(1.0 - abar) * eps).astype(dtype)
    np.testing.assert_array_equal(out, expect)


def test_q_sample_range_check():
    sched = build_cosine_schedule(10)
    with pytest.raises(IndexError):
        q_sample(sched, np.ones((1, 1)), np.array([0]), np.zeros((1, 1)))
    with pytest.raises(IndexError):
        q_sample(sched, np.ones((1, 1)), np.array([11]), np.zeros((1, 1)))


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainingConfig(beta_l1=0.0)


# -- training loop --------------------------------------------------------------


def tiny_mlp(k=2, seed=0):
    cfg = DenoiserConfig(arch="mlp", n_features=k, hidden=16, blocks=2, ffn_dropout=0.1)
    return build_denoiser(cfg, seed=seed)


def test_training_loss_descends():
    data = correlated_gaussian(512, seed=3)
    den = tiny_mlp()
    cfg = TrainingConfig(epochs=8, batch_size=64, t_training=100, seed=0)
    history = train(den, data, cfg)
    assert len(history) == 8
    assert history[-1] < history[0]


def test_training_deterministic():
    data = correlated_gaussian(256, seed=4)
    cfg = TrainingConfig(epochs=2, batch_size=64, t_training=50, seed=7)
    h1 = train(tiny_mlp(seed=1), data, cfg)
    h2 = train(tiny_mlp(seed=1), data, cfg)
    assert h1 == h2


def test_training_does_not_mutate_data():
    data = correlated_gaussian(128, seed=5)
    before = data.copy()
    train(tiny_mlp(), data, TrainingConfig(epochs=1, batch_size=64, t_training=50))
    np.testing.assert_array_equal(data, before)


def test_per_row_time_steps_differ():
    data = correlated_gaussian(128, seed=6)
    seen = []
    train(
        tiny_mlp(),
        data,
        TrainingConfig(epochs=1, batch_size=64, t_training=1000),
        on_batch=lambda step, t, loss: seen.append(t.copy()),
    )
    assert any(len(np.unique(t)) > 1 for t in seen)


def test_short_final_batch_is_kept():
    data = correlated_gaussian(100, seed=7)
    counts = []
    train(
        tiny_mlp(),
        data,
        TrainingConfig(epochs=1, batch_size=64, t_training=50),
        on_batch=lambda step, t, loss: counts.append(len(t)),
    )
    assert counts == [64, 36]


def test_one_row_final_batch_rejected_before_training_only_for_batch_norm():
    data = correlated_gaussian(65, seed=7)
    cfg = TrainingConfig(epochs=1, batch_size=64, t_training=50)
    resnet = build_denoiser(DenoiserConfig(arch="resnet", n_features=2, hidden=8, blocks=1),
                            seed=0)
    steps = []
    with pytest.raises(BatchSizeError, match="1-row last batch"):
        train(resnet, data, cfg, on_batch=lambda step, t, loss: steps.append(step))
    assert steps == []  # raised before the first step, not at the last batch
    counts = []
    train(tiny_mlp(), data, cfg, on_batch=lambda step, t, loss: counts.append(len(t)))
    assert counts == [64, 1]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nan_loss_aborts_with_diagnostic():
    data = correlated_gaussian(64, seed=8)
    den = tiny_mlp()
    den.head.weight.data[...] = 1e308  # force an overflow in the first forward
    with pytest.raises(TrainingDiverged, match=r"step 0.*lr"):
        train(den, data, TrainingConfig(epochs=1, batch_size=64, t_training=50))


def test_data_size_validated():
    with pytest.raises(ValueError):
        train(tiny_mlp(), np.ones((10, 2)), TrainingConfig(batch_size=64))


def test_loss_trend_improves_across_five_seeds():
    # last-quartile epoch mean below first-quartile epoch mean, every seed
    data = correlated_gaussian(512, rho=0.95, seed=11)
    for seed in range(5):
        cfg = TrainingConfig(epochs=8, batch_size=64, t_training=100, seed=seed)
        history = train(tiny_mlp(seed=seed), data, cfg)
        q = len(history) // 4
        assert np.mean(history[-q:]) < np.mean(history[:q]), f"seed {seed}"


def test_float32_training_and_sampling_smoke():
    from tabdiffuse.sampling import MaskedTable, SamplerOptions, impute

    data = correlated_gaussian(128, seed=12).astype(np.float32)
    cfg32 = DenoiserConfig(arch="mlp", n_features=2, hidden=8, blocks=1, dtype="float32")
    den = build_denoiser(cfg32, seed=0)
    history = train(den, data, TrainingConfig(epochs=1, batch_size=64, t_training=30))
    assert np.isfinite(history[0])
    table = MaskedTable(data[:16], Rng(1).uniform((16, 2)) > 0.5)
    out = impute(den, [(table, 0)], SamplerOptions(t_sampling=10))[0]
    assert np.all(np.isfinite(out))


# -- no silent no-op steps -----------------------------------------------------------


def _snapshot(den):
    return {name: p.data.copy() for name, p in den.named_parameters()}


def test_threaded_impute_then_train_updates_every_weight():
    from concurrent.futures import ThreadPoolExecutor

    from tabdiffuse.sampling import MaskedTable, SamplerOptions, impute

    data = correlated_gaussian(128, seed=13)
    reader = tiny_mlp(seed=2)
    table = MaskedTable(data[:32], Rng(3).uniform((32, 2)) > 0.3)

    def run(i):
        return impute(reader, [(table, i)], SamplerOptions(t_sampling=20))

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(run, i) for i in range(8)]
        for f in futures:
            f.result(timeout=120)
    den = tiny_mlp(seed=4)
    before = _snapshot(den)
    train(den, data, TrainingConfig(epochs=1, batch_size=64, t_training=50))
    unchanged = [n for n, p in den.named_parameters() if np.array_equal(p.data, before[n])]
    assert unchanged == []


def test_step_without_any_gradient_raises():
    data = correlated_gaussian(64, seed=14)
    with no_grad(), pytest.raises(NoGradientStep, match="step 0"):
        train(tiny_mlp(), data, TrainingConfig(epochs=1, batch_size=64, t_training=50))


def test_disabled_tokenizer_alone_without_gradients_is_not_an_error():
    data = correlated_gaussian(128, seed=15)
    cfg = DenoiserConfig(arch="mlp", n_features=2, hidden=16, blocks=2, time_embedding=False)
    den = build_denoiser(cfg, seed=0)
    before = _snapshot(den)
    train(den, data, TrainingConfig(epochs=1, batch_size=64, t_training=50))
    unchanged = {n for n, p in den.named_parameters() if np.array_equal(p.data, before[n])}
    assert unchanged == {n for n in before if n.startswith("tokenizer.")}


# -- a training step holds one graph ----------------------------------------------------


def test_training_steps_hold_one_graph(monkeypatch):
    """backward() frees each step's graph, so no step builds its graph while
    the one before is alive: every step peaks like the first, and what is
    still allocated between steps is the optimizer's state, not a graph."""
    # the heap helper's one transient block would otherwise set the first peak
    monkeypatch.setattr(training, "keep_heap_mapped", lambda nbytes: None)
    den = build_denoiser(DenoiserConfig(arch="unet", n_features=10), seed=0)
    data = np.random.default_rng(0).uniform(size=(256, 10))
    peaks, held = [], []

    def on_batch(step, t, loss):
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        held.append(current)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        train(den, data, TrainingConfig(epochs=1, batch_size=64, seed=1), on_batch=on_batch)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    assert max(peaks[1:]) < 1.2 * peaks[0], [p / 2**20 for p in peaks]
    assert max(held) < 0.25 * peaks[0], [h / 2**20 for h in held]
