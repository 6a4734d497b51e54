"""The three benchmark workloads: inputs, commands and output checks.

Each workload prepares its inputs from the workload seed (``setup``), then
issues one real ``tabdiffuse`` command per operation through
``tabdiffuse.cli.main(argv)`` and checks what the command wrote
(``check``).  The checks return the numbers the benchmark reports plus a
digest of the output values, so two operations of the same code and seed
can be compared value for value, never by the stamped header lines.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Correlation between columns i and j of every generated table is RHO**|i-j|.
RHO = 0.9


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's correctness checks."""


def gaussian_table(n_rows: int, n_cols: int, seed: int, stream: int) -> np.ndarray:
    """Correlated-Gaussian table; column j has mean j and scale 1 + j/4."""
    idx = np.arange(n_cols)
    cov = RHO ** np.abs(idx[:, None] - idx[None, :])
    chol = np.linalg.cholesky(cov)
    z = np.random.default_rng([seed, stream]).standard_normal((n_rows, n_cols))
    return (z @ chol.T) * (1.0 + idx / 4.0) + idx


def write_table(path: Path, values: np.ndarray) -> None:
    names = [f"f{j + 1}" for j in range(values.shape[1])]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and body cells of a CSV written by the CLI; '#' lines skipped."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise CheckFailed(f"{path.name}: empty")
    return rows[0], rows[1:]


def read_numeric(path: Path) -> np.ndarray:
    _, body = read_table(path)
    values = np.array([[float(c) for c in row] for row in body], dtype=np.float64)
    require(np.all(np.isfinite(values)), f"{path.name}: non-finite values")
    return values


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class OpResult:
    """What one checked operation reports."""

    items: float  # work done: table cells imputed, rows scored, or rows trained
    loss: float  # result-quality number (lower is better)
    digest: str  # of the output values; equal across runs of one seed


class Workload:
    """``setup`` writes the inputs into ``work`` and runs the set-up
    commands; an operation then reads them from there."""

    name = ""
    setup_files: tuple[str, ...] = ()  # set-up outputs that must be identical every time

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self, cli_main) -> None:
        raise NotImplementedError

    def setup_digest(self) -> str:
        h = hashlib.sha256()
        for name in self.setup_files:
            h.update((self.work / name).read_bytes())
        return h.hexdigest()

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> OpResult:
        raise NotImplementedError

    def _setup_command(self, cli_main, argv: list[str]) -> None:
        rc = cli_main(argv)
        if rc != 0:
            raise RuntimeError(f"setup command failed with exit code {rc}: {argv}")


class ImputeTransformer(Workload):
    """impute over a 1-epoch transformer: 37 network evaluations on 128x10."""

    name = "impute-transformer"
    rows, cols, mcar = 128, 10, 0.3
    setup_files = ("train.csv", "test.csv", "model/checkpoint.ckpt")

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.train_x = gaussian_table(self.rows, self.cols, self.seed, 0)
        self.test_x = gaussian_table(self.rows, self.cols, self.seed, 1)
        from tabdiffuse.cli import _MASK_STREAM
        from tabdiffuse.data import gen_mcar_mask
        from tabdiffuse.rng import derive_seed

        # the mask the CLI draws for --mcar; the known-cell check below
        # fails loudly if this ever stops matching
        self.mask = gen_mcar_mask(self.rows, self.cols, self.mcar,
                                  derive_seed(self.seed, _MASK_STREAM))
        lo, hi = self.train_x.min(axis=0), self.train_x.max(axis=0)
        self.scale = lambda x: (x - lo) / (hi - lo)

    def setup(self, cli_main) -> None:
        write_table(self.work / "train.csv", self.train_x)
        write_table(self.work / "test.csv", self.test_x)
        self._setup_command(cli_main, [
            "train", "--data", str(self.work / "train.csv"), "--arch", "transformer",
            "--epochs", "1", "--seed", str(self.seed), "--out", str(self.work / "model"),
        ])

    def argv(self, out: Path) -> list[str]:
        return [
            "impute", "--checkpoint", str(self.work / "model" / "checkpoint.ckpt"),
            "--data", str(self.work / "test.csv"), "--mcar", str(self.mcar),
            "--T-sampling", "500", "--tau", "25", "--jump-n-sample", "2",
            "--n-inferences", "1", "--seed", str(self.seed), "--out", str(out / "imputed.csv"),
        ]

    def check(self, out: Path) -> OpResult:
        imputed = read_numeric(out / "imputed.csv")
        require(imputed.shape == self.test_x.shape, f"imputed shape {imputed.shape}")
        require(np.array_equal(imputed[self.mask], self.test_x[self.mask]),
                "known cells differ from the input CSV")
        missing = ~self.mask
        d = self.scale(imputed)[missing] - self.scale(self.test_x)[missing]
        # items: every cell of the table.  The network denoises the whole
        # table each step, so the command's work does not depend on how
        # many cells the seed's mask leaves missing.
        return OpResult(items=float(imputed.size), loss=float(np.mean(d * d)),
                        digest=digest(imputed))


class GridMlp(Workload):
    """benchmark: 7 baselines + diffusion-mlp over mcar=30 and mar=2."""

    name = "grid-mlp"
    rows, cols = 2000, 4
    methods = "mean,median,mode,const0,const1,locf,nocb,diffusion-mlp"
    setup_files = ("data.csv", "model/checkpoint.ckpt")

    def setup(self, cli_main) -> None:
        write_table(self.work / "data.csv", gaussian_table(self.rows, self.cols, self.seed, 0))
        self._setup_command(cli_main, [
            "train", "--data", str(self.work / "data.csv"), "--arch", "mlp",
            "--epochs", "10", "--seed", str(self.seed), "--out", str(self.work / "model"),
        ])

    def argv(self, out: Path) -> list[str]:
        return [
            "benchmark", "--data", str(self.work / "data.csv"), "--methods", self.methods,
            "--checkpoint", str(self.work / "model" / "checkpoint.ckpt"),
            "--grid", "mcar=30", "mar=2", "--T-sampling", "100", "--n-mask-seeds", "5",
            "--n-inferences", "5", "--jobs", "1", "--seed", str(self.seed),
            "--out-dir", str(out),
        ]

    def check(self, out: Path) -> OpResult:
        header, rows = read_table(out / "rows.csv")
        require(header == ["method", "setting", "mask_seed", "mse", "pearson"],
                f"rows.csv header {header}")
        require(len(rows) > 0, "rows.csv has no rows")
        scores = np.array([[float(r[3]), float(r[4] or 0.0)] for r in rows])
        require(np.all(np.isfinite(scores)), "rows.csv: non-finite scores")
        header, summary = read_table(out / "summary.csv")
        by_method = {r[0]: r[1:] for r in summary}
        require(set(by_method) == set(self.methods.split(",")), "summary.csv methods")
        diffusion = np.array([float(v) for v in by_method["diffusion-mlp"]])
        mean_fill = np.array([float(v) for v in by_method["mean"]])
        require(np.all(np.isfinite(diffusion)) and np.all(np.isfinite(mean_fill)),
                "summary.csv: non-finite means")
        require(np.mean(diffusion) < np.mean(mean_fill),
                f"diffusion-mlp's mean MSE over the grid {np.mean(diffusion)} is not below "
                f"the mean baseline's {np.mean(mean_fill)}")
        body = "\n".join(",".join(r) for r in rows).encode()
        return OpResult(items=float(len(rows)), loss=float(np.mean(diffusion)),
                        digest=hashlib.sha256(body).hexdigest())


class TrainUnet(Workload):
    """train a U-Net for 3 epochs on 512x10 rows (24 AdamW steps)."""

    name = "train-unet"
    rows, cols, epochs = 512, 10, 3
    setup_files = ("data.csv",)

    def setup(self, cli_main) -> None:
        write_table(self.work / "data.csv", gaussian_table(self.rows, self.cols, self.seed, 0))

    def argv(self, out: Path) -> list[str]:
        return [
            "train", "--data", str(self.work / "data.csv"), "--arch", "unet",
            "--epochs", str(self.epochs), "--batch-size", "64", "--seed", str(self.seed),
            "--out", str(out),
        ]

    def check(self, out: Path) -> OpResult:
        from tabdiffuse.checkpoint import load_checkpoint
        from tabdiffuse.denoisers import build_denoiser

        losses = read_numeric(out / "loss.csv")
        require(losses.shape == (self.epochs, 2), f"loss.csv shape {losses.shape}")
        denoiser = load_checkpoint(out / "checkpoint.ckpt")[0]
        initial = dict(build_denoiser(denoiser.config, seed=self.seed).named_parameters())
        weights = []
        n_changed = 0
        for name, p in denoiser.named_parameters():
            require(np.all(np.isfinite(p.data)), f"non-finite weights in {name}")
            n_changed += not np.array_equal(p.data, initial[name].data)
            weights.append(p.data)
        require(n_changed == len(weights),
                f"only {n_changed} of {len(weights)} parameters moved from their initial values")
        return OpResult(items=float(self.rows * self.epochs), loss=float(losses[-1, 1]),
                        digest=digest(losses, *weights))


WORKLOADS = {w.name: w for w in (ImputeTransformer, GridMlp, TrainUnet)}

