import numpy as np
import pytest

from tabdiffuse.cli import _parse_grid, main, parse_config
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


def test_impute_reports_network_evaluations(workdir, tmp_path, capsys, monkeypatch):
    from tabdiffuse.denoisers import Denoiser

    calls = []
    forward = Denoiser.__call__

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Denoiser, "__call__", counted)
    # the sampler arguments of the benchmark's impute-transformer workload
    rc = main([
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3",
        "--T-sampling", "500", "--tau", "25", "--jump-n-sample", "2",
        "--n-inferences", "1", "--seed", "1", "--out", str(tmp_path / "n.csv"),
    ])
    assert rc == 0
    assert "inferences: 1, network evaluations: 37, wall time" in capsys.readouterr().err
    assert len(calls) == 37


def test_impute_reports_the_evaluations_of_stacked_walks(workdir, tmp_path, capsys,
                                                          monkeypatch):
    from tabdiffuse.denoisers import Denoiser

    calls = []
    forward = Denoiser.__call__

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Denoiser, "__call__", counted)
    rc = main([
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3", "--T-sampling", "30",
        "--n-inferences", "3", "--seed", "1", "--out", str(tmp_path / "n.csv"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    # hidden 12 on 400 rows: 7 walks make half a shard, so the 3 inferences are one batch
    assert "inferences: 3, network evaluations: 30, wall time" in err
    assert "walks per batch: 7," in err
    assert calls == [1200] * 30


def test_impute_known_entries_pass_through(workdir, tmp_path):
    mask_path = tmp_path / "mask.csv"
    mask = Rng(3).uniform((400, 2)) > 0.4
    write_csv(mask_path, mask.astype(int), ["f1", "f2"])
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
    assert main(base + ["--out", str(tmp_path / "full.csv")]) == 0
    err_full = capsys.readouterr().err
    assert "wall time" in err_fast and "plan steps: 10," in err_fast
    assert "wall time" in err_full and "plan steps: 50," in err_full


def test_impute_eta_applies_on_the_full_plan(workdir, tmp_path):
    # without --tau the walk takes every step; an unset --eta is 1 there (the
    # ancestral walk), and a given --eta applies
    base = [
        "impute", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(workdir / "data.csv"), "--mcar", "0.3",
        "--T-sampling", "40", "--n-inferences", "1", "--seed", "1",
    ]
    variants = {"default": [], "eta-0": ["--eta", "0"],
                "tau-T-eta-1": ["--tau", "40", "--eta", "1"]}
    bodies = {}
    for name, extra in variants.items():
        assert main(base + extra + ["--out", str(tmp_path / f"{name}.csv")]) == 0
        bodies[name] = (tmp_path / f"{name}.csv").read_text().splitlines()[3:]
    assert bodies["default"] == bodies["tau-T-eta-1"]
    assert bodies["eta-0"] != bodies["default"]


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


def test_utf8_bom_is_not_part_of_the_first_name(workdir, tmp_path, capsys):
    """Spreadsheet exports start a file with a UTF-8 byte-order mark; it reaches
    neither the first column's name nor the config file's first line."""
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + (workdir / "data.csv").read_bytes())
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf[impute]\nmcar = 0.3\nT-sampling = 20\nn-inferences = 1\n")
    rc = main([
        "impute", "--config", str(cfg), "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
        "--data", str(data), "--out", str(tmp_path / "o.csv"),
    ])
    assert rc == 0
    assert "plan steps: 20, inferences: 1" in capsys.readouterr().err
    assert load_csv(tmp_path / "o.csv").feature_names == ("f1", "f2")


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

    den = load_checkpoint(tmp_path / "ce" / "epoch_0002.ckpt")[0]
    assert den.train_t == 30


def test_train_prints_one_progress_line_per_epoch(workdir, tmp_path, capsys, monkeypatch):
    from tabdiffuse import cli

    argv = ["train", "--data", str(workdir / "data.csv"), "--epochs", "3", "--T", "30",
            "--blocks", "1", "--hidden", "8", "--out"]
    assert main(argv + [str(tmp_path / "shown")]) == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("[train] epoch ")]
    assert [l.split(":")[0] for l in lines] == [f"[train] epoch {e}/3" for e in (1, 2, 3)]
    body = (tmp_path / "shown" / "loss.csv").read_text().splitlines()[4:]  # stamp, header
    losses = [float(l.split(",")[1]) for l in body]
    assert [float(l.rsplit(" ", 1)[1]) for l in lines] == pytest.approx(losses, rel=1e-5)

    log = cli._log
    monkeypatch.setattr(cli, "_log", lambda msg: None if msg.startswith("[train] epoch ")
                        else log(msg))
    assert main(argv + [str(tmp_path / "quiet")]) == 0
    assert "[train] epoch " not in capsys.readouterr().err
    shown, quiet = ((tmp_path / d / "loss.csv").read_bytes() for d in ("shown", "quiet"))
    assert shown == quiet


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
    """Every report of the four commands opens with the package version, the
    run seed, and the hash of the config text the run wrote beside it."""
    from tabdiffuse import __version__
    from tabdiffuse.cli import config_hash

    x = load_csv(workdir / "data.csv").features
    write_csv(tmp_path / "labeled.csv", np.column_stack([x, x[:, 0] > 0]), ["f1", "f2", "y"])
    data, ckpt = str(workdir / "data.csv"), str(tmp_path / "run" / "checkpoint.ckpt")
    runs = [  # (argv, stamp file, reports)
        (["train", "--data", data, "--epochs", "1", "--T", "30", "--blocks", "1",
          "--hidden", "8", "--seed", "3", "--out", str(tmp_path / "run")],
         "run/run_config.txt", ["run/loss.csv"]),
        (["impute", "--checkpoint", ckpt, "--data", data, "--mcar", "0.3", "--T-sampling", "10",
          "--n-inferences", "1", "--seed", "4", "--out", str(tmp_path / "imp.csv")],
         "imp.csv.config.txt", ["imp.csv"]),
        (["benchmark", "--data", str(tmp_path / "labeled.csv"), "--target", "y",
          "--methods", "mean", "--grid", "mcar=40", "--n-mask-seeds", "1", "--seed", "1",
          "--out-dir", str(tmp_path / "bench")],
         "bench/run_config.txt", ["bench/rows.csv", "bench/summary.csv", "bench/ranks.csv",
                                  "bench/summary.txt", "bench/downstream_accuracy.csv"]),
        (["ablate", "--checkpoint", ckpt, "--data", data, "--preset", "harmonization",
          "--T-sampling", "10", "--n-mask-seeds", "1", "--n-inferences", "1", "--seed", "5",
          "--out-dir", str(tmp_path / "abl")],
         "abl/run_config.txt", ["abl/ablation.csv", "abl/ablation_per_seed.csv",
                                "abl/ablation.txt"]),
    ]
    written = {"labeled.csv", "run/checkpoint.ckpt"}
    for argv, stamp, reports in runs:
        assert main(argv) == 0
        header = [f"# tabdiffuse-version: {__version__}",
                  f"# seed: {argv[argv.index('--seed') + 1]}",
                  f"# config-sha256: {config_hash((tmp_path / stamp).read_text())}"]
        for name in reports:
            assert (tmp_path / name).read_text().splitlines()[:3] == header, name
        written |= {stamp, *reports}
    assert {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
            if p.is_file()} == written


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
    # a grid value >= 1 is a percent, one below 1 a fraction
    specs = _parse_grid(["mcar=1..21", "mcar=0.5"], n_features=2)
    assert [s.label for s in specs] == ["mcar-0.01", "mcar-0.11", "mcar-0.21", "mcar-0.5"]


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
         "data = {work}/data.csv", "eta = ", "jump_length = 1", "jump_n_sample = 1",
         "mar = ", "mask = ", "mcar = 0.3", "n_inferences = 1", "seed = 5",
         "skip_type = uniform", "target = ", "tau = 5"],
    ),
    "ablate": (
        ["ablate", "--checkpoint", "{work}/run/checkpoint.ckpt", "--data", "{work}/data.csv",
         "--preset", "harmonization", "--T-sampling", "10", "--n-mask-seeds", "1",
         "--n-inferences", "1", "--seed", "5", "--out-dir", "{out}/abl"],
        "abl/run_config.txt",
        ["[ablate]", "T_sampling = 10", "checkpoint = {work}/run/checkpoint.ckpt",
         "checkpoint_no_tst = ", "data = {work}/data.csv", "eta = ", "jump_n_sample = 1",
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
         "data = {work}/data.csv", "eta = ", "grid = mcar=30 mar=1", "jobs = 1",
         "jump_length = 1", "jump_n_sample = 1", "methods = mean,diffusion-mlp",
         "n_inferences = 1", "n_mask_seeds = 1", "report_space = scaled", "seed = 2",
         "split_fraction = 0.8", "target = ", "tau = 5"],
    ),
    "benchmark-defaults": (
        ["benchmark", "--data", "{work}/data.csv", "--grid", "mcar=40", "--n-mask-seeds", "1",
         "--out-dir", "{out}/bench2"],
        "bench2/run_config.txt",
        ["[benchmark]", "T_sampling = 500", "checkpoints = ", "data = {work}/data.csv",
         "eta = ", "grid = mcar=40", "jobs = 1", "jump_length = 1", "jump_n_sample = 1",
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
            "--grid", "mcar=40", "--n-mask-seeds", "1"]
    tau = ["--tau", "10"]
    variants = {"default": tau, "eta": [*tau, "--eta", "1"],
                "jump-length": [*tau, "--jump-length", "2"],
                "jump-n-sample": [*tau, "--jump-n-sample", "3"],
                "full-plan": [], "full-plan-eta": ["--eta", "0"]}
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

    den = load_checkpoint(tmp_path / "run" / "checkpoint.ckpt")[0]
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
                   "methods = mean,diffusion-mlp\ngrid = mcar=40\nn-mask-seeds = 1\n"
                   "n-inferences = 1\nT-sampling = 10\n")
    out_dir = tmp_path / "bench"
    rc = main([
        "benchmark", "--config", str(cfg), "--data", str(workdir / "data.csv"),
        "--seed", "0", "--checkpoint", ckpt, "--out-dir", str(out_dir),
    ])
    assert rc == 0
    text = (out_dir / "run_config.txt").read_text().splitlines()
    assert "seed = 0" in text  # a flag equal to its default still wins
    assert f"checkpoints = {ckpt}" in text


def _command_argv(command, workdir, tmp_path, data=None):
    """A small valid run of ``command`` on the module's checkpoint (and table)."""
    ckpt = str(workdir / "run" / "checkpoint.ckpt")
    data = str(data or workdir / "data.csv")
    if command == "impute":
        return ["impute", "--checkpoint", ckpt, "--data", data, "--mcar", "0.3",
                "--T-sampling", "10", "--n-inferences", "1", "--out", str(tmp_path / "o.csv")]
    if command == "benchmark":
        return ["benchmark", "--data", data, "--methods", "mean,diffusion-mlp",
                "--checkpoint", ckpt, "--grid", "mcar=30", "--n-mask-seeds", "1",
                "--n-inferences", "1", "--T-sampling", "10", "--out-dir", str(tmp_path / "o")]
    return ["ablate", "--checkpoint", ckpt, "--data", data, "--preset", "harmonization",
            "--T-sampling", "10", "--n-mask-seeds", "1", "--n-inferences", "1",
            "--out-dir", str(tmp_path / "o")]


@pytest.mark.parametrize("command,flag", [
    ("impute", "--n-inferences"),
    ("benchmark", "--n-inferences"),
    ("benchmark", "--n-mask-seeds"),
    ("ablate", "--n-inferences"),
    ("ablate", "--n-mask-seeds"),
])
def test_counts_below_one_exit_2(workdir, tmp_path, capsys, command, flag):
    argv = _command_argv(command, workdir, tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert ("mask seeds" if flag == "--n-mask-seeds" else "inferences") in err
    assert "must be >= 1, got 0" in err


@pytest.mark.parametrize("seed,rc", [("-1", 2), (str(1 << 64), 2), (str((1 << 64) - 1), 0)])
def test_seeds_outside_0_to_2_to_the_64_exit_2(workdir, tmp_path, capsys, seed, rc):
    """A seed outside [0, 2**64) would alias one inside (-1 would write the
    body of 2**64 - 1); it exits 2 naming --seed, given as a flag or in a
    config file, and writes nothing."""
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"[impute]\nseed = {seed}\n")
    argv = _command_argv("impute", workdir, tmp_path)
    for extra in (["--seed", seed], ["--config", str(cfg)]):
        assert main(argv + extra) == rc
        err = capsys.readouterr().err
        assert rc == 0 or f"--seed must lie in [0, 2**64), got {seed}" in err
    assert (tmp_path / "o.csv").exists() == (rc == 0)


@pytest.mark.parametrize("flags,message", [
    (["--seed", "abc"], "argument --seed: expected an integer in [0, 2**64), got 'abc'"),
    (["--arch", "unet", "--unet-channels", "a"],
     "argument --unet-channels: expected comma-separated integers such as 16,32, got 'a'"),
    (["--arch", "unet", "--unet-channels", "4,,8"],
     "argument --unet-channels: expected comma-separated integers such as 16,32, got '4,,8'"),
    (["--checkpoint-every", "x"], "argument --checkpoint-every: expected the number of epochs "
                                  "between checkpoints, an integer >= 1, got 'x'"),
], ids=["seed", "unet-channels-letter", "unet-channels-empty-entry", "checkpoint-every"])
def test_a_malformed_number_names_the_option_and_its_form(workdir, tmp_path, capsys, flags,
                                                          message):
    """argparse words a value its type function cannot parse after the
    function's name; these options say what they take instead, exit 2 and
    write nothing."""
    argv = ["train", "--data", str(workdir / "data.csv"), *flags, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "invalid" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def three_features(workdir):
    """A 3-feature table and a checkpoint trained on it without the time tokenizer."""
    root = workdir / "three"
    root.mkdir()
    x = Rng(7).uniform((120, 3))
    write_csv(root / "data.csv", x, ["a", "b", "c"])
    rc = main(["train", "--data", str(root / "data.csv"), "--arch", "mlp", "--epochs", "1",
               "--T", "30", "--blocks", "1", "--hidden", "8", "--no-time-embedding",
               "--out", str(root / "run")])
    assert rc == 0
    return root


@pytest.mark.parametrize("command", ["impute", "benchmark", "ablate"])
def test_checkpoint_feature_count_mismatch_exit_2(workdir, three_features, tmp_path, capsys,
                                                  command):
    argv = _command_argv(command, workdir, tmp_path, data=three_features / "data.csv")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data has 3 features" in err and "expects 2" in err
    assert "broadcast" not in err


def test_ablate_no_tst_checkpoint_feature_count_mismatch_exit_2(workdir, three_features,
                                                                tmp_path, capsys):
    argv = _command_argv("ablate", workdir, tmp_path)
    argv[argv.index("harmonization")] = "no-tst"
    argv += ["--checkpoint-no-tst", str(three_features / "run" / "checkpoint.ckpt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data has 2 features" in err and "expects 3" in err


@pytest.fixture(scope="module")
def misfit_tables(workdir):
    """Tables that load but do not fit the run: a target with a nan in the
    sixth data row (row 7 of the file), and the fixture's columns swapped;
    and a second copy of the fixture's MLP checkpoint."""
    x = load_csv(workdir / "data.csv").features
    y = x[:, 0].copy()
    y[5] = np.nan
    write_csv(workdir / "nan_target.csv", np.column_stack([x, y]), ["f1", "f2", "y"])
    write_csv(workdir / "swapped.csv", x[:, ::-1] * 100.0, ["f2", "f1"])
    (workdir / "copy.ckpt").write_bytes((workdir / "run" / "checkpoint.ckpt").read_bytes())
    return workdir


@pytest.mark.parametrize("flags,message", [
    (["benchmark", "--methods", "mean", "--jobs", "0"], "must be >= 1"),
    (["benchmark", "--methods", "mean", "--n-inferences", "0"], "must be >= 1"),
    (["benchmark", "--methods", "mean", "--n-mask-seeds", "-1"], "must be >= 1"),
    (["train", "--checkpoint-every", "0"], "must be >= 1"),
    (["benchmark", "--methods", "mean", "--grid", "mcar=30", "mcar=100"], "p_random"),
    (["benchmark", "--methods", "mean", "--grid", "mcar=30", "mar=2"], "masks all 2 feature"),
    (["train", "--batch-size", "401"], "need at least batch_size=401 rows"),
    (["train", "--arch", "resnet", "--batch-size", "133"], "1-row last batch"),
    (["benchmark", "--methods", "mean,diffusion-unet"], "no checkpoint provides it"),
    (["impute", "--checkpoint", "no/such.ckpt", "--mcar", "0.3"], "checkpoint not found"),
    (["benchmark", "--data", "{work}/nan_target.csv", "--target", "y", "--methods", "mean"],
     "non-finite target at row 7, column 'y'"),
    (["impute", "--data", "{work}/swapped.csv", "--checkpoint", "{work}/run/checkpoint.ckpt",
      "--mcar", "0.3"], "data feature 1 is 'f2', checkpoint"),
    # masks that hide no cell of the fixture's test split
    (["benchmark", "--methods", "mean", "--grid", "mcar=1", "--n-mask-seeds", "1",
      "--seed", "1"], "the mcar-0.01 mask of mask seed 0 hides no entry"),
    (["ablate", "--checkpoint", "{work}/run/checkpoint.ckpt", "--preset", "harmonization",
      "--mcar", "0.002", "--n-mask-seeds", "3"], "the mcar-0.002 mask of mask seed 1 hides no"),
    # zero-size networks
    (["train", "--arch", "transformer", "--heads", "0"], "heads must be >= 1"),
    (["train", "--arch", "transformer", "--embed-dim", "0"], "embed_dim must be >= 1"),
    (["train", "--arch", "unet", "--heads", "0"], "heads must be >= 1"),
    (["train", "--arch", "unet", "--unet-channels", "0,16"], "unet_channels entry must be >= 1"),
    (["train", "--arch", "mlp", "--hidden", "0"], "hidden must be >= 1"),
    (["train", "--arch", "resnet", "--hidden", "0"], "hidden must be >= 1"),
    # checkpoints that no method would score, and repeated report columns or rows
    (["benchmark", "--methods", "mean,diffusion-mlp", "--checkpoint", "{work}/run/checkpoint.ckpt",
      "--checkpoint", "{work}/copy.ckpt"], "checkpoint.ckpt and {work}/copy.ckpt both provide"),
    (["benchmark", "--methods", "mean", "--checkpoint", "{work}/run/checkpoint.ckpt"],
     "provides diffusion-mlp, which --methods does not list"),
    (["benchmark", "--methods", "mean", "--grid", "mcar=30", "mcar=0.3"],
     "grid setting 'mcar-0.3' is given more than once"),
    (["benchmark", "--methods", "mean,median,mean"], "method 'mean' is given more than once"),
    # training and sampler values outside their domain
    (["train", "--lr", "-0.001"], "lr must be finite and > 0"),
    (["train", "--lr", "0"], "lr must be finite and > 0"),
    (["train", "--weight-decay", "-1"], "weight_decay must be finite and >= 0"),
    (["train", "--weight-decay", "nan"], "weight_decay must be finite and >= 0"),
    (["train", "--beta-l1", "nan"], "beta_l1 must be finite and > 0"),
    (["train", "--beta-l1", "inf"], "beta_l1 must be finite and > 0"),
    (["impute", "--checkpoint", "{work}/run/checkpoint.ckpt", "--mcar", "0.3", "--tau", "5",
      "--eta", "nan"], "eta must be finite and >= 0"),
    (["impute", "--checkpoint", "{work}/run/checkpoint.ckpt", "--mcar", "0.3", "--eta", "nan"],
     "eta must be finite and >= 0"),
    # an eta that one step of the plan cannot take fails before the baselines run
    (["benchmark", "--methods", "mean,diffusion-mlp", "--checkpoint",
      "{work}/run/checkpoint.ckpt", "--eta", "1.5"], "eta=1.5 makes the direction term negative"),
    (["impute", "--checkpoint", "{work}/run/checkpoint.ckpt", "--mcar", "0.3", "--tau", "50",
      "--eta", "3"], "eta=3.0 makes the direction term negative"),
    # flags a run would otherwise drop or truncate without saying so
    (["ablate", "--checkpoint", "{work}/run/checkpoint.ckpt", "--preset", "harmonization",
      "--jump-n-sample", "3"], "--preset harmonization sets the retrace depth itself"),
    (["ablate", "--checkpoint", "{work}/run/checkpoint.ckpt", "--preset", "tau-sweep",
      "--jump-n-sample", "2"], "--preset tau-sweep sets the retrace depth itself"),
    (["benchmark", "--methods", "mean", "--grid", "mar=1.5"],
     "grid token 'mar=1.5': mar takes a whole number of columns"),
    (["benchmark", "--methods", "mean", "--grid", "mar=0.5..1"],
     "grid token 'mar=0.5..1' must look like"),
], ids=["jobs", "baseline-only-n-inferences", "n-mask-seeds", "checkpoint-every",
        "grid-mcar-100", "grid-mar-every-column", "fewer-rows-than-a-batch",
        "resnet-one-row-tail", "unknown-method", "missing-checkpoint", "non-finite-target",
        "feature-names-differ", "benchmark-mask-hides-nothing", "ablate-mask-hides-nothing",
        "transformer-heads-0", "transformer-embed-dim-0", "unet-heads-0", "unet-channel-0",
        "mlp-hidden-0", "resnet-hidden-0", "two-checkpoints-one-method",
        "checkpoint-not-in-methods", "grid-setting-twice", "method-twice", "lr-negative",
        "lr-0", "weight-decay-negative", "weight-decay-nan", "beta-l1-nan", "beta-l1-inf",
        "skip-step-eta-nan", "dense-eta-nan", "benchmark-eta-1.5", "skip-step-eta-3",
        "harmonization-jump-n-sample", "tau-sweep-jump-n-sample", "grid-mar-fraction",
        "grid-range-fraction"])
def test_count_flags_below_one_exit_2_before_writing(misfit_tables, tmp_path, capsys,
                                                     monkeypatch, flags, message):
    """Each of these exits 2 before any output is written: the run leaves no
    file or directory behind, and no imputer ran.  A --data in the flags
    replaces the fixture table."""
    from tabdiffuse import cli

    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    for name in ("impute", "baseline_impute"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    workdir = misfit_tables
    command, *rest = [f.format(work=workdir) for f in flags]
    out_flag = "--out-dir" if command in ("benchmark", "ablate") else "--out"
    assert main([command, "--data", str(workdir / "data.csv"), *rest,
                 out_flag, str(tmp_path / "o")]) == 2
    assert message.format(work=workdir) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert calls == []


def test_benchmark_jobs_2_with_a_sharded_transformer_matches_jobs_1(tmp_path, monkeypatch):
    from tabdiffuse import parallel
    from tabdiffuse.checkpoint import load_checkpoint

    if parallel.numpy_blas() is None:
        pytest.skip("numpy's OpenBLAS thread controls not found")
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    write_csv(tmp_path / "data.csv", Rng(3).normal((600, 4)), ["a", "b", "c", "d"])
    assert main(["train", "--data", str(tmp_path / "data.csv"), "--arch", "transformer",
                 "--embed-dim", "224", "--blocks", "1", "--epochs", "1", "--T", "30",
                 "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "checkpoint.ckpt"
    # 64-row shards carry 64 * (4 + 1) * 224 = 71680 elements: the 120-row test split is 2
    assert len(parallel.shard_bounds(load_checkpoint(ckpt)[0], 120)) - 1 == 2

    def bench_rows(name, jobs):
        out_dir = tmp_path / name
        assert main(["benchmark", "--data", str(tmp_path / "data.csv"),
                     "--methods", "mean,locf,diffusion-transformer", "--checkpoint", str(ckpt),
                     "--grid", "mcar=30,60", "--n-mask-seeds", "2", "--n-inferences", "1",
                     "--T-sampling", "30", "--tau", "4", "--jobs", jobs,
                     "--out-dir", str(out_dir)]) == 0
        return [[line for line in (out_dir / f).read_text().splitlines()
                 if not line.startswith("#")] for f in ("rows.csv", "summary.csv")]

    serial = bench_rows("jobs1", "1")
    assert bench_rows("jobs2", "2") == serial
    monkeypatch.setattr(parallel, "_cores", lambda: 1)
    assert bench_rows("one-thread", "2") == serial


def test_non_finite_cell_names_file_row_and_column(workdir, tmp_path, capsys):
    lines = (workdir / "data.csv").read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + ",nan"  # the third data row
    data = tmp_path / "nan.csv"
    data.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{data}: non-finite cell at row 4, column 'f2': 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
