"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The synthetic benchmark model (criteria 5 and 6) is trained once
per session; every number here is deterministic given the frozen seeds.
"""

import math
import time

import numpy as np
import pytest

from conftest import ancestral_step, ancestral_walk, check_gradients
from tabdiffuse.baselines import baseline_impute
from tabdiffuse.bench import (
    MaskSpec,
    average_inferences,
    average_ranks,
    draw_masks,
    ensemble_eval,
    rank_table,
)
from tabdiffuse.cli import main
from tabdiffuse.data import MinMaxScaler, gen_mar_mask, gen_mcar_mask, write_csv
from tabdiffuse.denoisers import ARCHITECTURES, DenoiserConfig, build_denoiser
from tabdiffuse.metrics import accuracy, mse_missing, pearson_missing, rmse
from tabdiffuse.nn import (
    BatchNorm1d,
    GroupNorm,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    TimeStepTokenizer,
)
from tabdiffuse.optim import smooth_l1
from tabdiffuse.rng import Rng, derive_seed
from tabdiffuse.sampling import (
    MaskedTable,
    SamplerOptions,
    impute,
    impute_ddim_step,
)
from tabdiffuse.schedule import build_cosine_schedule, ddim_sigma, harmonization_plan, skip_seq
from tabdiffuse.tensor import Tensor, conv1d
from tabdiffuse.training import TrainingConfig, train

TINY_CONFIGS = {
    "mlp": DenoiserConfig(arch="mlp", n_features=3, hidden=5, blocks=2,
                          ffn_dropout=0.0, residual_dropout=0.0),
    "resnet": DenoiserConfig(arch="resnet", n_features=3, hidden=4, blocks=2,
                             ffn_dropout=0.0, residual_dropout=0.0),
    "transformer": DenoiserConfig(arch="transformer", n_features=3, embed_dim=8, heads=2,
                                  blocks=1, attention_dropout=0.0, ffn_dropout=0.0,
                                  residual_dropout=0.0),
    "unet": DenoiserConfig(arch="unet", n_features=8, unet_channels=(4, 8),
                           groupnorm_groups=2, heads=2, attention_dropout=0.0),
}


def _report(n: int, name: str) -> None:
    print(f"[ACCEPTANCE] criterion {n} ({name}): PASS")


def synthetic_table(n=5000, rho=0.95, seed=0):
    z = Rng(seed).normal((n, 2))
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    x[:, 1] = rho * z[:, 0] + math.sqrt(1 - rho**2) * z[:, 1]
    return x


@pytest.fixture(scope="session")
def benchmark_model():
    """The criterion-5 configuration: MLP, 3 blocks, T=1000, 20 epochs."""
    x = synthetic_table()
    train_x, test_x = x[:4000], x[4000:]
    scaler = MinMaxScaler().fit(train_x)
    train_s = scaler.transform(train_x)
    test_s = scaler.transform(test_x)
    den = build_denoiser(DenoiserConfig(arch="mlp", n_features=2, blocks=3), seed=0)
    t0 = time.perf_counter()
    history = train(den, train_s, TrainingConfig(epochs=20, batch_size=64,
                                                 t_training=1000, lr=1e-3, seed=0))
    train_seconds = time.perf_counter() - t0
    return dict(denoiser=den, train_s=train_s, test_s=test_s,
                history=history, train_seconds=train_seconds)


# -- criterion 1: gradient suite ------------------------------------------------


def test_criterion_1_gradient_suite_under_60s():
    t0 = time.perf_counter()

    lin = Linear(3, 4, Rng(0))
    x = Tensor(Rng(1).normal((5, 3)) * 0.7)
    check_gradients(lambda: (lin(x) ** 2.0).mean(), [lin.weight, lin.bias])

    bn = BatchNorm1d(3)
    xb = Tensor(Rng(2).normal((6, 3)) * 0.7)
    check_gradients(lambda: (bn(xb, training=True) ** 2.0).mean(), [bn.gamma, bn.beta])

    ln = LayerNorm(4)
    xl = Tensor(Rng(3).normal((5, 4)) * 0.7)
    check_gradients(lambda: (ln(xl) ** 2.0).mean(), [ln.gamma, ln.beta])

    gn = GroupNorm(4, 2)
    xg = Tensor(Rng(4).normal((2, 4, 5)) * 0.7)
    check_gradients(lambda: (gn(xg) ** 2.0).mean(), [gn.gamma, gn.beta])

    attn = MultiHeadSelfAttention(4, 2, attn_dropout=0.0, rng=Rng(5))
    xa = Tensor(Rng(6).normal((2, 3, 4)) * 0.7)
    check_gradients(lambda: (attn(xa) ** 2.0).mean(), [p for _, p in attn.named_parameters()])

    tok = TimeStepTokenizer(3, Rng(7))
    check_gradients(lambda: (tok(np.array([2, 9])) ** 2.0).mean(),
                    [p for _, p in tok.named_parameters()])

    cw = Tensor(Rng(8).normal((3, 2, 3)) * 0.5, requires_grad=True)
    cb = Tensor(Rng(9).normal((3,)) * 0.5, requires_grad=True)
    cx = Tensor(Rng(10).normal((2, 2, 6)) * 0.5)
    check_gradients(lambda: (conv1d(cx, cw, cb) ** 2.0).mean(), [cw, cb])

    for arch in ARCHITECTURES:
        cfg = TINY_CONFIGS[arch]
        den = build_denoiser(cfg, seed=13)
        xin = Rng(21).normal((4, cfg.n_features)) * 0.5
        t = np.array([1, 9, 25, 4])
        target = Rng(22).normal((4, cfg.n_features))
        training = arch == "resnet"  # exercise batch statistics

        def loss(_den=den, _x=xin, _t=t, _target=target, _training=training):
            return smooth_l1(_den(_x, _t, training=_training), Tensor(_target), beta=1.0)

        check_gradients(loss, [p for _, p in den.named_parameters()],
                        tol=1e-4, max_coords=48, seed=5)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    _report(1, f"gradient suite, {elapsed:.1f}s")


# -- criterion 2: sampler oracles ---------------------------------------------------


def test_criterion_2a_ddim_eta1_equals_ddpm_step():
    sched = build_cosine_schedule(500)
    x = Rng(0).normal((4, 3))
    eps_hat = Rng(1).normal((4, 3))
    noise = Rng(2).normal((4, 3))
    worst = 0.0
    for t in range(1, 501):
        lhs = impute_ddim_step(sched, x, t, t - 1, eps_hat, 1.0, noise)
        rhs = ancestral_step(sched, x, t, eps_hat, noise)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-10, f"max deviation {worst:.2e}"
    _report(2, f"(a) eta=1 step identity, max dev {worst:.1e}")


def test_criterion_2b_full_trajectories_agree():
    den = build_denoiser(DenoiserConfig(arch="mlp", n_features=2, hidden=8, blocks=2,
                                        ffn_dropout=0.0), seed=6)
    x = Rng(29).uniform((5, 2))
    m = Rng(30).uniform((5, 2)) > 0.5
    table = MaskedTable(x, m)
    T = 500
    # the default full plan (no tau, no eta) against the ancestral walk written out
    states = []
    impute(den, [(table, 11)], SamplerOptions(t_sampling=T, jump_length=1, jump_n_sample=2),
           on_step=lambda t, s: states.append(s.copy()))
    oracle = ancestral_walk(den, table, 11, T, jump_length=1, jump_n_sample=2)
    assert len(states) == len(oracle)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(states, oracle))
    assert worst <= 1e-8, f"trajectory deviation {worst:.2e}"
    _report(2, f"(b) full-trajectory agreement over {len(states)} steps, "
               f"max dev {worst:.1e}")


def reference_jump_plan(ddim_seq, jump_length, jump_n_sample):
    jumps = {}
    for j in range(0, len(ddim_seq) - jump_length, jump_n_sample):
        jumps[ddim_seq[j]] = jump_n_sample - 1
    t = len(ddim_seq)
    ts = []
    while t >= 1:
        t = t - 1
        ts.append(ddim_seq[t])
        if jumps.get(ddim_seq[t], 0) > 0:
            jumps[ddim_seq[t]] = jumps[ddim_seq[t]] - 1
            for _ in range(jump_length):
                t = t + 1
                ts.append(ddim_seq[t])
    ts.append(-1)
    return ts


def test_criterion_2c_plan_matches_reference_on_1000_cases():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        length = int(rng.integers(1, 60))
        stride = int(rng.integers(1, 9))
        jl = int(rng.integers(1, 7))
        jns = int(rng.integers(1, 7))
        seq = list(range(0, length * stride, stride))
        assert harmonization_plan(seq, jl, jns).ts == reference_jump_plan(seq, jl, jns)
    _report(2, "(c) retrace plan matches reference interpreter on 1000 cases")


def test_criterion_2d_skip_seq_fixtures():
    assert skip_seq(500, 10, "uniform") == [0, 50, 100, 150, 200, 250, 300, 350, 400, 450]
    assert skip_seq(500, 10, "quad") == [0, 4, 19, 44, 79, 123, 177, 241, 316, 400]
    _report(2, "(d) skip sequences match hand-traced fixtures")


# -- criterion 3: known-region exactness ----------------------------------------------


def test_criterion_3_known_region_exact_on_100_masks():
    den = build_denoiser(DenoiserConfig(arch="mlp", n_features=6, hidden=8, blocks=1), seed=3)
    x = Rng(50).uniform((40, 6))
    specs = [("mcar", p / 10.0) for p in range(1, 10)] + [("mar", c) for c in range(1, 5)]
    checked = 0
    for mech, p in specs:
        for s in range(8):
            mask_seed = derive_seed(99, checked)
            if mech == "mcar":
                mask = gen_mcar_mask(40, 6, p, mask_seed)
            else:
                mask = gen_mar_mask(40, 6, p, mask_seed)
            table = MaskedTable(x, mask)
            opts = SamplerOptions(t_sampling=25, jump_n_sample=2)
            out = impute(den, [(table, mask_seed)], opts)[0]
            np.testing.assert_array_equal(out[mask], x[mask])
            checked += 1
    assert checked >= 100
    _report(3, f"known-region exactness on {checked} (mask, seed) pairs")


# -- criterion 4: schedule invariants ---------------------------------------------------


def test_criterion_4_schedule_invariants():
    for T in (100, 500, 1000):
        s = build_cosine_schedule(T)
        assert np.all(s.beta > 0) and np.all(s.beta < 1)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[-1] <= 1e-3
        for t in range(1, T + 1):
            abar_t = s.alpha_bar_at(t)
            abar_prev = s.alpha_bar_at(t - 1)
            expect = math.sqrt((1.0 - abar_prev) / (1.0 - abar_t) * s.beta[t - 1])
            # the ancestral step's noise scale, the eta = 1 adjacent step's sigma
            assert abs(ddim_sigma(s, t, t - 1, 1.0) - expect) <= 1e-12
    _report(4, "cosine schedule invariants for T in {100, 500, 1000}")


# -- criterion 5: end-to-end synthetic benchmark ------------------------------------------


def test_criterion_5_beats_mean_imputation(benchmark_model):
    bm = benchmark_model
    assert bm["train_seconds"] < 300.0, f"training took {bm['train_seconds']:.0f}s"
    assert bm["history"][-1] < bm["history"][0]

    def diff_fn(walks):
        return (impute(bm["denoiser"], [(MaskedTable(x_obs, mask), derive_seed(seed, 0))],
                       SamplerOptions(t_sampling=500))[0] for x_obs, mask, seed in walks)

    def mean_fn(walks):
        return (baseline_impute("mean", x_obs, mask, bm["train_s"]) for x_obs, mask, _ in walks)

    masks = draw_masks(MaskSpec("mcar", p_random=0.3), *bm["test_s"].shape, n_mask_seeds=5,
                       base_seed=42)
    rows_d = ensemble_eval(diff_fn, "diffusion", bm["test_s"], "mcar-0.3", masks,
                           n_inferences=5)
    rows_m = ensemble_eval(mean_fn, "mean", bm["test_s"], "mcar-0.3", masks, n_inferences=1)
    wins = sum(rd.mse < rm.mse for rd, rm in zip(rows_d, rows_m))
    detail = ", ".join(f"seed {rd.mask_seed}: {rd.mse:.4f} vs {rm.mse:.4f}"
                       for rd, rm in zip(rows_d, rows_m))
    assert wins >= 4, f"only {wins}/5 wins ({detail})"
    _report(5, f"diffusion beats mean imputation on {wins}/5 mask seeds "
               f"(train {bm['train_seconds']:.1f}s)")


# -- criterion 6: retrace / skip-length sweeps --------------------------------------------


def _sweep_mse(bm, tau, jump_n_sample, mask_seed, eta, n_inferences=5):
    test_s = bm["test_s"]
    mask = gen_mcar_mask(*test_s.shape, 0.3, mask_seed)
    table = MaskedTable(np.where(mask, test_s, 0.0), mask)
    opts = SamplerOptions(t_sampling=500, tau=tau, jump_length=1,
                          jump_n_sample=jump_n_sample, eta=eta)
    walks = [(table, derive_seed(derive_seed(mask_seed, i), 0)) for i in range(n_inferences)]
    avg = average_inferences(iter(impute(bm["denoiser"], walks, opts)), n_inferences)
    d = test_s[~mask] - avg[~mask]
    return float(np.mean(d * d))


def test_criterion_6_sweeps_and_tau_ordering(benchmark_model, tmp_path):
    bm = benchmark_model
    # (a) sweep commands complete and emit tables in the settings-x-arch shape
    data_csv = tmp_path / "synthetic.csv"
    write_csv(data_csv, synthetic_table(800, seed=1), ["f1", "f2"])
    rc = main(["train", "--data", str(data_csv), "--arch", "mlp", "--epochs", "2",
               "--T", "60", "--blocks", "2", "--hidden", "8", "--seed", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    for preset, first_rows in (("tau-sweep", [f"tau={t}" for t in (10, 25, 50, 100, 250, 500)]),
                               ("harmonization", ["j=1", "j=5"])):
        out_dir = tmp_path / f"abl-{preset}"
        rc = main(["ablate", "--checkpoint", str(tmp_path / "run" / "checkpoint.ckpt"),
                   "--data", str(data_csv), "--preset", preset, "--T-sampling", "40",
                   "--n-mask-seeds", "1", "--n-inferences", "1", "--seed", "5",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        body = [l for l in (out_dir / "ablation.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert body[0] == "setting,mlp"
        assert [row.split(",")[0] for row in body[1:]] == first_rows

    # (b) skip-length quality ordering on the synthetic benchmark, all seeds;
    # eta=1 keeps per-step stochasticity so the ensemble average reflects the
    # refresh-frequency effect on this near-Gaussian table
    seeds = [derive_seed(7, s) for s in range(5)]
    coarse = [_sweep_mse(bm, 10, 5, ms, eta=1.0) for ms in seeds]
    fine = [_sweep_mse(bm, 250, 5, ms, eta=1.0) for ms in seeds]
    detail = ", ".join(f"{c:.4f}>{f:.4f}" for c, f in zip(coarse, fine))
    assert all(f < c for c, f in zip(coarse, fine)), f"ordering failed: {detail}"
    _report(6, f"sweeps emitted; MSE(tau=250) < MSE(tau=10) on 5/5 seeds ({detail})")


# -- criterion 7: metric fixtures -----------------------------------------------------------


def test_criterion_7_metric_fixtures():
    assert smooth_l1(Tensor(np.zeros(4)), Tensor(np.full(4, 0.5)), 1.0).item() == 0.125
    assert smooth_l1(Tensor(np.zeros(4)), Tensor(np.full(4, 2.0)), 1.0).item() == 1.5
    assert smooth_l1(Tensor(np.zeros(4)), Tensor(np.zeros(4)), 1.0).item() == 0.0

    m = np.zeros((1, 2), dtype=bool)
    assert mse_missing(np.zeros((1, 2)), np.array([[1.0, 0.0]]), m) == 0.5
    x = np.arange(8, dtype=float).reshape(2, 4)
    assert pearson_missing(x, x.copy(), np.zeros((2, 4), dtype=bool)) == 1.0
    assert pearson_missing(x, -x, np.zeros((2, 4), dtype=bool)) == pytest.approx(-1.0)

    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert rmse(y, y) == 0.0 and accuracy(y, y) == 1.0
    assert accuracy(y, np.array([1.0, 2.0, 0.0, 0.0])) == 0.5
    assert rmse(np.zeros(4), np.full(4, 2.0)) == 2.0

    sc = MinMaxScaler().fit(np.array([[0.0], [5.0], [10.0]]))
    np.testing.assert_allclose(sc.transform(np.array([[0.0], [5.0], [10.0]]))[:, 0],
                               [0.0, 0.5, 1.0])

    np.testing.assert_allclose(average_ranks(np.array([0.3, 0.1, 0.3])), [2.5, 1.0, 2.5])
    table = dict((m_, (mean, std)) for m_, mean, std in rank_table(
        {"s1": {"a": 0.1, "b": 0.5}, "s2": {"a": 0.2, "b": 0.9}}))
    assert table["a"] == (1.0, 0.0) and table["b"] == (2.0, 0.0)
    _report(7, "metric hand fixtures exact")


# -- criterion 8: byte-level determinism ------------------------------------------------------


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    # identical config means identical paths too; each command runs twice
    # into the same locations and every output must not change
    data_csv = tmp_path / "d.csv"
    write_csv(data_csv, synthetic_table(400, seed=2), ["f1", "f2"])
    run_dir = tmp_path / "run"
    train_args = ["train", "--data", str(data_csv), "--arch", "mlp", "--epochs", "1",
                  "--T", "40", "--blocks", "1", "--hidden", "8", "--seed", "9",
                  "--out", str(run_dir)]
    impute_args = ["impute", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--data", str(data_csv), "--mcar", "0.3", "--T-sampling", "30",
                   "--n-inferences", "2", "--seed", "4",
                   "--out", str(run_dir / "imputed.csv")]
    bench_args = ["benchmark", "--data", str(data_csv), "--methods", "mean,locf",
                  "--grid", "mcar=30", "--n-mask-seeds", "2", "--seed", "3",
                  "--out-dir", str(run_dir / "bench")]
    tracked = [
        run_dir / "checkpoint.ckpt",
        run_dir / "loss.csv",
        run_dir / "imputed.csv",
        run_dir / "bench" / "rows.csv",
        run_dir / "bench" / "ranks.csv",
        run_dir / "bench" / "summary.csv",
    ]
    snapshots = []
    for _ in range(2):
        for args in (train_args, impute_args, bench_args):
            assert main(args) == 0
        snapshots.append([p.read_bytes() for p in tracked])
    assert snapshots[0] == snapshots[1]
    _report(8, "rerun outputs byte-identical (checkpoint, loss, imputed, benchmark)")
