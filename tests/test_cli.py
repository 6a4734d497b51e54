import numpy as np
import pytest

from tabdiffuse.cli import main, parse_config
from tabdiffuse.data import load_csv, write_csv
from tabdiffuse.rng import Rng


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic 2-feature table plus a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    rng = Rng(0)
    z = rng.normal((400, 2))
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    x[:, 1] = 0.9 * z[:, 0] + np.sqrt(1 - 0.81) * z[:, 1]
    write_csv(root / "data.csv", x, ["f1", "f2"])
    rc = main([
        "train", "--data", str(root / "data.csv"), "--arch", "mlp",
        "--epochs", "2", "--batch-size", "64", "--T", "60", "--seed", "1",
        "--blocks", "2", "--hidden", "12", "--out", str(root / "run"),
    ])
    assert rc == 0
    return root


def test_train_outputs_exist(workdir):
    assert (workdir / "run" / "checkpoint.ckpt").exists()
    loss = (workdir / "run" / "loss.csv").read_text()
    assert loss.startswith("# tabdiffuse-version:")
    assert "config-sha256:" in loss
    assert "epoch,mean_loss" in loss
    assert (workdir / "run" / "run_config.txt").exists()


def test_missing_data_file_exit_2(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


def test_train_without_gradients_exit_4(workdir, tmp_path):
    from tabdiffuse.tensor import no_grad

    with no_grad():  # nothing is recorded, so no step would change a weight
        rc = main(["train", "--data", str(workdir / "data.csv"), "--arch", "mlp",
                   "--epochs", "1", "--T", "30", "--out", str(tmp_path / "o")])
    assert rc == 4


def test_train_seed_repetition_identical_bytes(workdir, tmp_path):
    for out in ("a", "b"):
        rc = main([
            "train", "--data", str(workdir / "data.csv"), "--arch", "mlp",
            "--epochs", "1", "--batch-size", "64", "--T", "30", "--seed", "7",
            "--blocks", "1", "--hidden", "8", "--out", str(tmp_path / out),
        ])
        assert rc == 0
    a = (tmp_path / "a" / "checkpoint.ckpt").read_bytes()
    b = (tmp_path / "b" / "checkpoint.ckpt").read_bytes()
    assert a == b


def test_impute_roundtrip_and_reproducible(workdir, tmp_path):
    args = [
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3",
        "--T-sampling", "40", "--n-inferences", "2", "--seed", "5",
    ]
    rc = main(args + ["--out", str(tmp_path / "i1.csv")])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "i2.csv")])
    assert rc == 0
    body1 = (tmp_path / "i1.csv").read_text().splitlines()[3:]
    body2 = (tmp_path / "i2.csv").read_text().splitlines()[3:]
    assert body1 == body2  # same seed, same bytes below the header
    assert (tmp_path / "i1.csv.config.txt").exists()
    out = load_csv(tmp_path / "i1.csv")
    assert out.features.shape == (400, 2)
    assert np.all(np.isfinite(out.features))


def test_impute_known_entries_pass_through(workdir, tmp_path):
    mask_path = tmp_path / "mask.csv"
    mask = Rng(3).uniform((400, 2)) > 0.4
    from tabdiffuse.data import write_mask_csv

    write_mask_csv(mask_path, mask, ["f1", "f2"])
    out_path = tmp_path / "imp.csv"
    rc = main([
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mask", str(mask_path),
        "--T-sampling", "30", "--n-inferences", "1", "--seed", "2",
        "--out", str(out_path),
    ])
    assert rc == 0
    original = load_csv(workdir / "data.csv").features
    imputed = load_csv(out_path).features
    np.testing.assert_array_equal(imputed[mask], original[mask])


def test_impute_rejects_tau_zero(workdir, tmp_path, capsys):
    rc = main([
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3", "--tau", "0",
        "--T-sampling", "30", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2
    assert "tau" in capsys.readouterr().err


def test_impute_requires_exactly_one_mask_source(workdir, tmp_path):
    rc = main([
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3", "--mar", "1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2
    rc = main([
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


def test_impute_logs_runtime_for_tau_and_dense(workdir, tmp_path, capsys):
    base = [
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3",
        "--T-sampling", "50", "--n-inferences", "1", "--seed", "1",
    ]
    assert main(base + ["--tau", "10", "--out", str(tmp_path / "fast.csv")]) == 0
    err_fast = capsys.readouterr().err
    assert main(base + ["--out", str(tmp_path / "dense.csv")]) == 0
    err_dense = capsys.readouterr().err
    assert "wall time" in err_fast and "plan steps: 10," in err_fast
    assert "wall time" in err_dense and "plan steps: 50," in err_dense


def test_benchmark_baselines_only(workdir, tmp_path):
    out_dir = tmp_path / "bench"
    rc = main([
        "benchmark", "--data", str(workdir / "data.csv"),
        "--grid", "mcar=30,50", "--n-mask-seeds", "2", "--seed", "3",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    header = [l for l in summary if not l.startswith("#")][0]
    assert header == "method,mcar-0.3,mcar-0.5"
    body = [l for l in summary if not l.startswith("#")][1:]
    assert len(body) == 7  # all seven baselines
    ranks = (out_dir / "ranks.csv").read_text().splitlines()
    rank_header = [l for l in ranks if not l.startswith("#")][0]
    assert rank_header == "method,mean,std"


def test_benchmark_deterministic_across_reruns(workdir, tmp_path):
    outs = []
    for name in ("b1", "b2"):
        out_dir = tmp_path / name
        rc = main([
            "benchmark", "--data", str(workdir / "data.csv"),
            "--methods", "mean,median", "--grid", "mcar=40",
            "--n-mask-seeds", "2", "--seed", "11", "--out-dir", str(out_dir),
        ])
        assert rc == 0
        outs.append((out_dir / "rows.csv").read_text())
    assert outs[0] == outs[1]


def test_benchmark_includes_diffusion_method(workdir, tmp_path):
    out_dir = tmp_path / "bench-diff"
    rc = main([
        "benchmark", "--data", str(workdir / "data.csv"),
        "--methods", "mean,diffusion-mlp",
        "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--grid", "mcar=30", "--n-mask-seeds", "1", "--n-inferences", "1",
        "--T-sampling", "25", "--seed", "2", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    rows = (out_dir / "rows.csv").read_text()
    assert "diffusion-mlp" in rows


def test_benchmark_missing_checkpoint_for_method(workdir, tmp_path, capsys):
    rc = main([
        "benchmark", "--data", str(workdir / "data.csv"),
        "--methods", "mean,diffusion-transformer", "--grid", "mcar=30",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "diffusion-transformer" in capsys.readouterr().err


def test_benchmark_mar_grid_skips_no_methods(workdir, tmp_path):
    out_dir = tmp_path / "mar"
    rc = main([
        "benchmark", "--data", str(workdir / "data.csv"),
        "--methods", "mean,locf", "--grid", "mar=1", "--n-mask-seeds", "2",
        "--seed", "4", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    body = [l for l in (out_dir / "summary.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert body[0] == "method,mar-1"


def test_ablate_tau_sweep_six_rows(workdir, tmp_path):
    out_dir = tmp_path / "abl"
    rc = main([
        "ablate", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--preset", "tau-sweep",
        "--T-sampling", "40", "--n-mask-seeds", "1", "--n-inferences", "1",
        "--seed", "5", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    body = [l for l in (out_dir / "ablation.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert body[0] == "setting,mlp"
    assert len(body) == 1 + 6
    assert body[1].startswith("tau=10,")


def test_ablate_harmonization_preset(workdir, tmp_path):
    out_dir = tmp_path / "ablj"
    rc = main([
        "ablate", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--preset", "harmonization",
        "--T-sampling", "25", "--n-mask-seeds", "1", "--n-inferences", "1",
        "--seed", "5", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    body = [l for l in (out_dir / "ablation.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert [row.split(",")[0] for row in body[1:]] == ["j=1", "j=5"]


def test_ablate_no_tst_requires_matching_checkpoint(workdir, tmp_path, capsys):
    rc = main([
        "ablate", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--preset", "no-tst",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "no-tst" in capsys.readouterr().err
    # a time-embedding checkpoint in the no-tst slot is a preset mismatch
    rc = main([
        "ablate", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--checkpoint-no-tst", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--preset", "no-tst",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 2


def test_ablate_no_tst_runs_with_disabled_tokenizer_model(workdir, tmp_path):
    rc = main([
        "train", "--data", str(workdir / "data.csv"), "--arch", "mlp",
        "--epochs", "1", "--batch-size", "64", "--T", "30", "--seed", "2",
        "--blocks", "1", "--hidden", "8", "--no-time-embedding",
        "--out", str(tmp_path / "nt"),
    ])
    assert rc == 0
    out_dir = tmp_path / "abl-nt"
    rc = main([
        "ablate", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--checkpoint-no-tst", str(tmp_path / "nt" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--preset", "no-tst",
        "--T-sampling", "20", "--n-mask-seeds", "1", "--n-inferences", "1",
        "--seed", "5", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    body = [l for l in (out_dir / "ablation.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert [row.split(",")[0] for row in body[1:]] == ["tst", "no-tst"]


def test_config_file_defaults_and_unknown_key(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[impute]\nmcar = 0.3\nT-sampling = 20\nn-inferences = 1\n")
    rc = main([
        "impute", "--config", str(cfg),
        "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--out", str(tmp_path / "c.csv"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "plan steps: 20, inferences: 1" in err  # config values took effect
    bad = tmp_path / "bad.cfg"
    bad.write_text("[impute]\nturbo = yes\n")
    rc = main([
        "impute", "--config", str(bad),
        "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3",
        "--out", str(tmp_path / "c2.csv"),
    ])
    assert rc == 2
    assert "turbo" in capsys.readouterr().err


def test_parse_config_format():
    sections = parse_config("# comment\n[train]\nepochs = 5\nseed = 2\n[impute]\ntau = 10\n")
    assert sections == {"train": {"epochs": "5", "seed": "2"}, "impute": {"tau": "10"}}
    with pytest.raises(Exception):
        parse_config("orphan = 1\n")


def test_train_checkpoint_every_writes_interval_files(workdir, tmp_path):
    rc = main([
        "train", "--data", str(workdir / "data.csv"), "--arch", "mlp",
        "--epochs", "4", "--batch-size", "64", "--T", "30", "--seed", "3",
        "--blocks", "1", "--hidden", "8", "--checkpoint-every", "2",
        "--out", str(tmp_path / "ce"),
    ])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "ce").glob("epoch_*.ckpt"))
    assert names == ["epoch_0002.ckpt", "epoch_0004.ckpt"]
    from tabdiffuse.checkpoint import load_checkpoint

    den, train_t, _, _, _ = load_checkpoint(tmp_path / "ce" / "epoch_0002.ckpt")
    assert train_t == 30


def test_benchmark_jobs_pool_matches_serial(workdir, tmp_path):
    outs = {}
    for jobs in ("1", "3"):
        out_dir = tmp_path / f"jobs{jobs}"
        rc = main([
            "benchmark", "--data", str(workdir / "data.csv"),
            "--methods", "mean,median,locf", "--grid", "mcar=30,60",
            "--n-mask-seeds", "2", "--seed", "8", "--jobs", jobs,
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        outs[jobs] = [
            l for l in (out_dir / "rows.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
    assert outs["1"] == outs["3"]


def test_report_text_files_carry_header(workdir, tmp_path):
    out_dir = tmp_path / "hdr"
    rc = main([
        "benchmark", "--data", str(workdir / "data.csv"), "--methods", "mean",
        "--grid", "mcar=40", "--n-mask-seeds", "1", "--seed", "1",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    for name in ("rows.csv", "summary.csv", "ranks.csv", "summary.txt"):
        text = (out_dir / name).read_text()
        assert text.startswith("# tabdiffuse-version:"), name
        assert "config-sha256:" in text.splitlines()[2]


def test_benchmark_emits_downstream_metric_with_target(workdir, tmp_path):
    # regression target that is a linear function of the features
    src = load_csv(workdir / "data.csv").features
    y = 2.0 * src[:, 0] - src[:, 1] + 0.5
    data = np.column_stack([src, y])
    labeled = tmp_path / "labeled.csv"
    write_csv(labeled, data, ["f1", "f2", "y"])
    out_dir = tmp_path / "down"
    rc = main([
        "benchmark", "--data", str(labeled), "--target", "y",
        "--methods", "mean,const0", "--grid", "mcar=40",
        "--n-mask-seeds", "2", "--seed", "6", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    body = [l for l in (out_dir / "downstream_rmse.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert body[0] == "method,mcar-0.4"
    assert [r.split(",")[0] for r in body[1:]] == ["complete", "mean", "const0"]
    vals = {r.split(",")[0]: float(r.split(",")[1]) for r in body[1:]}
    # degrading the features cannot beat the complete table on a linear target
    assert vals["complete"] <= vals["const0"]


def test_benchmark_raw_report_space_rescales_mse(workdir, tmp_path):
    # single-column table: raw-space MSE = span^2 * scaled-space MSE
    col = load_csv(workdir / "data.csv").features[:, :1]
    single = tmp_path / "one.csv"
    write_csv(single, col, ["f1"])
    mses = {}
    for space in ("scaled", "raw"):
        out_dir = tmp_path / space
        rc = main([
            "benchmark", "--data", str(single), "--methods", "mean",
            "--grid", "mcar=40", "--n-mask-seeds", "1", "--seed", "2",
            "--report-space", space, "--out-dir", str(out_dir),
        ])
        assert rc == 0
        body = [l for l in (out_dir / "rows.csv").read_text().splitlines()
                if not l.startswith("#")][1]
        mses[space] = float(body.split(",")[3])
    # reconstruct the training-split span the benchmark used
    from tabdiffuse.data import Dataset, split

    ds = Dataset(features=col, feature_names=("f1",))
    train_ds, _ = split(ds, fraction=0.8, seed=2)
    span = train_ds.features.max() - train_ds.features.min()
    assert mses["raw"] == pytest.approx(mses["scaled"] * span**2, rel=1e-4)


def test_benchmark_mar_marks_nocb_undefined(workdir, tmp_path):
    out_dir = tmp_path / "mar-nocb"
    rc = main([
        "benchmark", "--data", str(workdir / "data.csv"),
        "--methods", "mean,nocb", "--grid", "mar=1", "--n-mask-seeds", "2",
        "--seed", "4", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    body = [l for l in (out_dir / "summary.csv").read_text().splitlines()
            if not l.startswith("#")]
    cells = {r.split(",")[0]: r.split(",")[1] for r in body[1:]}
    assert cells["nocb"] == "/"
    assert cells["mean"] != "/"
    ranks = [l for l in (out_dir / "ranks.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert [r.split(",")[0] for r in ranks[1:]] == ["mean"]  # nocb unrankable


def test_config_file_unknown_section_rejected(workdir, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("[trian]\nepochs = 5\n")
    rc = main([
        "train", "--config", str(cfg), "--data", str(workdir / "data.csv"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "trian" in capsys.readouterr().err


def test_config_file_grid_string_for_benchmark(workdir, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[benchmark]\ngrid = mcar=30 mcar=60\nn-mask-seeds = 1\nmethods = mean\n")
    out_dir = tmp_path / "cfg-bench"
    rc = main([
        "benchmark", "--config", str(cfg), "--data", str(workdir / "data.csv"),
        "--seed", "2", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    body = [l for l in (out_dir / "summary.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert body[0] == "method,mcar-0.3,mcar-0.6"


# -- resolved config and config files -------------------------------------------------

# Resolved config text for canonical spellings; {work} and {out} stand for the
# fixture and output directories.
GOLDEN_CONFIGS = {
    "train": (
        ["train", "--data", "{work}/data.csv", "--epochs", "1", "--batch-size", "32",
         "--T", "30", "--seed", "7", "--blocks", "1", "--hidden", "8", "--out", "{out}/run"],
        "run/run_config.txt",
        ["[train]", "T = 30", "arch = mlp", "batch_size = 32", "beta_l1 = 1.0", "blocks = 1",
         "checkpoint_every = ", "data = {work}/data.csv", "dtype = float64",
         "embed_dim = 192", "epochs = 1", "heads = 8", "hidden = 8", "lr = 0.001",
         "seed = 7", "target = ", "time_embedding = True", "unet_channels = 16,32",
         "weight_decay = 1e-05"],
    ),
    "impute": (
        ["impute", "--checkpoint", "{work}/run/checkpoint.ckpt", "--data", "{work}/data.csv",
         "--mcar", "0.3", "--T-sampling", "20", "--tau", "5", "--n-inferences", "1",
         "--seed", "5", "--out", "{out}/imp.csv"],
        "imp.csv.config.txt",
        ["[impute]", "T_sampling = 20", "checkpoint = {work}/run/checkpoint.ckpt",
         "data = {work}/data.csv", "eta = 0.0", "jump_length = 1", "jump_n_sample = 1",
         "mar = ", "mask = ", "mcar = 0.3", "n_inferences = 1", "seed = 5",
         "skip_type = uniform", "target = ", "tau = 5"],
    ),
    "ablate": (
        ["ablate", "--checkpoint", "{work}/run/checkpoint.ckpt", "--data", "{work}/data.csv",
         "--preset", "harmonization", "--T-sampling", "10", "--n-mask-seeds", "1",
         "--n-inferences", "1", "--seed", "5", "--out-dir", "{out}/abl"],
        "abl/run_config.txt",
        ["[ablate]", "T_sampling = 10", "checkpoint = {work}/run/checkpoint.ckpt",
         "checkpoint_no_tst = ", "data = {work}/data.csv", "eta = 0.0", "jump_n_sample = 1",
         "mcar = 0.3", "n_inferences = 1", "n_mask_seeds = 1", "preset = harmonization",
         "seed = 5", "split_fraction = 0.8", "target = "],
    ),
    "benchmark": (
        ["benchmark", "--data", "{work}/data.csv", "--methods", "mean,diffusion-mlp",
         "--checkpoint", "{work}/run/checkpoint.ckpt", "--grid", "mcar=30", "mar=1",
         "--n-mask-seeds", "1", "--n-inferences", "1", "--T-sampling", "10", "--tau", "5",
         "--seed", "2", "--out-dir", "{out}/bench"],
        "bench/run_config.txt",
        ["[benchmark]", "T_sampling = 10", "checkpoints = {work}/run/checkpoint.ckpt",
         "data = {work}/data.csv", "eta = 0.0", "grid = mcar=30 mar=1", "jobs = 1",
         "jump_length = 1", "jump_n_sample = 1", "methods = mean,diffusion-mlp",
         "n_inferences = 1", "n_mask_seeds = 1", "report_space = scaled", "seed = 2",
         "split_fraction = 0.8", "target = ", "tau = 5"],
    ),
    "benchmark-defaults": (
        ["benchmark", "--data", "{work}/data.csv", "--grid", "mcar=40", "--n-mask-seeds", "1",
         "--out-dir", "{out}/bench2"],
        "bench2/run_config.txt",
        ["[benchmark]", "T_sampling = 500", "checkpoints = ", "data = {work}/data.csv",
         "eta = 0.0", "grid = mcar=40", "jobs = 1", "jump_length = 1", "jump_n_sample = 1",
         "methods = mean,median,mode,const0,const1,locf,nocb", "n_inferences = 5",
         "n_mask_seeds = 1", "report_space = scaled", "seed = 0", "split_fraction = 0.8",
         "target = ", "tau = "],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_resolved_config_text_is_pinned(workdir, tmp_path, name):
    argv, cfg_file, lines = GOLDEN_CONFIGS[name]
    assert main([a.format(work=workdir, out=tmp_path) for a in argv]) == 0
    text = (tmp_path / cfg_file).read_text()
    assert text == "\n".join(lines).format(work=workdir) + "\n"


def _stamp(path):
    return [l for l in path.read_text().splitlines() if l.startswith("# config-sha256:")][0]


def test_benchmark_stamp_covers_sampler_options(workdir, tmp_path):
    base = ["benchmark", "--data", str(workdir / "data.csv"), "--methods", "mean",
            "--grid", "mcar=40", "--n-mask-seeds", "1", "--tau", "10"]
    variants = {"default": [], "eta": ["--eta", "1"], "jump-length": ["--jump-length", "2"],
                "jump-n-sample": ["--jump-n-sample", "3"]}
    stamps = set()
    for name, extra in variants.items():
        assert main(base + extra + ["--out-dir", str(tmp_path / name)]) == 0
        stamps.add(_stamp(tmp_path / name / "rows.csv"))
    assert len(stamps) == len(variants)


@pytest.mark.parametrize("value,time_embedding", [("false", True), ("true", False)])
def test_config_file_switch_is_honoured(workdir, tmp_path, value, time_embedding):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"[train]\nno-time-embedding = {value}\n")
    rc = main([
        "train", "--config", str(cfg), "--data", str(workdir / "data.csv"),
        "--epochs", "1", "--T", "30", "--blocks", "1", "--hidden", "8",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 0
    from tabdiffuse.checkpoint import load_checkpoint

    den, _, _, _, _ = load_checkpoint(tmp_path / "run" / "checkpoint.ckpt")
    assert den.config.time_embedding is time_embedding


@pytest.mark.parametrize("command,config_text,flags,option", [
    ("train", "[train]\nepochs = abc\n", [], "epochs"),
    ("train", "[train]\nno-time-embedding = maybe\n", [], "no-time-embedding"),
    ("benchmark", "[benchmark]\nreport-space = RAW\n", [], "report-space"),
    ("train", None, ["--epochs", "abc"], "--epochs"),
    ("benchmark", None, ["--report-space", "RAW"], "--report-space"),
])
def test_malformed_values_exit_2_naming_the_option(workdir, tmp_path, capsys, command,
                                                   config_text, flags, option):
    argv = [command, "--data", str(workdir / "data.csv"), *flags]
    argv += ["--out", str(tmp_path / "o")] if command == "train" else [
        "--out-dir", str(tmp_path / "o")]
    if config_text is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert option in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_command_line_flags_win_over_config_file(workdir, tmp_path):
    ckpt = str(workdir / "run" / "checkpoint.ckpt")
    cfg = tmp_path / "bench.cfg"
    # the configured checkpoints do not exist: loading them would fail the run
    cfg.write_text("[benchmark]\nseed = 3\ncheckpoint = missing-a.ckpt;missing-b.ckpt\n"
                   "methods = mean\ngrid = mcar=40\nn-mask-seeds = 1\n")
    out_dir = tmp_path / "bench"
    rc = main([
        "benchmark", "--config", str(cfg), "--data", str(workdir / "data.csv"),
        "--seed", "0", "--checkpoint", ckpt, "--out-dir", str(out_dir),
    ])
    assert rc == 0
    text = (out_dir / "run_config.txt").read_text().splitlines()
    assert "seed = 0" in text  # a flag equal to its default still wins
    assert f"checkpoints = {ckpt}" in text
