import numpy as np
import pytest

from tabdiffuse.denoisers import DenoiserConfig, build_denoiser
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
    out = impute(den, table, SamplerOptions(t_sampling=10, n_inferences=1))
    assert np.all(np.isfinite(out))


# -- no silent no-op steps -----------------------------------------------------------


def _snapshot(den):
    return {name: p.data.copy() for name, p in den.params.items()}


def test_threaded_impute_then_train_updates_every_weight():
    from concurrent.futures import ThreadPoolExecutor

    from tabdiffuse.sampling import MaskedTable, SamplerOptions, impute

    data = correlated_gaussian(128, seed=13)
    reader = tiny_mlp(seed=2)
    table = MaskedTable(data[:32], Rng(3).uniform((32, 2)) > 0.3)

    def run(i):
        return impute(reader, table, SamplerOptions(t_sampling=20, n_inferences=1, seed=i))

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(run, i) for i in range(8)]
        for f in futures:
            f.result(timeout=120)
    den = tiny_mlp(seed=4)
    before = _snapshot(den)
    train(den, data, TrainingConfig(epochs=1, batch_size=64, t_training=50))
    unchanged = [n for n, p in den.params.items() if np.array_equal(p.data, before[n])]
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
    unchanged = {n for n, p in den.params.items() if np.array_equal(p.data, before[n])}
    assert unchanged == {n for n in before if n.startswith("tokenizer.")}
