#!/usr/bin/env python3
"""Run a fixed set of commands and print a manifest of every file they wrote.

The set covers each command's output paths: ``train`` for all four
architectures (one with ``--checkpoint-every``, one with
``--no-time-embedding``), a full-plan ``impute``, a skip-step ``impute`` with
retracing, float32 ``train`` runs of the U-Net, the ResNet (batch-norm
buffers) and the Transformer (feature tokens and CLS), a full-plan
``impute`` through that U-Net and a skip-step one through that Transformer,
an MLP trained on a 10000x4 table and an
``impute`` of that table (large enough that OpenBLAS rounds a row shard
differently from one call over all the rows, so a change to the shard cuts
shows), a ``benchmark`` with a binary ``--target``, ``--jobs 2``,
``--report-space raw`` and two diffusion methods over an MCAR and a MAR
setting, a ``benchmark`` with a regression ``--target``, and all three
``ablate`` presets.  It writes 64 files.  Each line of the manifest is
``<sha256>  <path relative to OUT>``, so two manifests diff line for line.

The first line records what the bytes depend on besides the code: numpy's
version, the kernel family its bundled OpenBLAS picked for this CPU, and the
SIMD targets numpy dispatches to on this host, for example
``# numpy 2.4.6; OpenBLAS core SkylakeX; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR``.
Output bytes repeat only where all three agree; two manifests from one host
have the same first line.

The commands run through whichever ``tabdiffuse`` is importable, so the same
script checks two versions of the package for byte-identical outputs:

    PYTHONPATH=<parent checkout>/src python3 scripts/output_set.py OUT > parent.txt
    rm -r OUT
    PYTHONPATH=src python3 scripts/output_set.py OUT > change.txt
    diff parent.txt change.txt

Both sides must use the same OUT: the data and checkpoint paths are part of
each command's resolved config, whose hash is stamped into every report.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

import numpy as np

ROWS, COLS, SEED = 240, 5, 3
LARGE_ROWS, LARGE_COLS = 10000, 4


def write_table(path: Path, values: np.ndarray, names: list[str]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([repr(float(v)) for v in row] for row in values)


def commands(out: Path) -> list[list[str]]:
    data, labeled, regression, large = (str(out / f"{name}.csv")
                                        for name in ("data", "labeled", "regression", "large"))

    def ckpt(name: str) -> str:
        return str(out / name / "checkpoint.ckpt")

    small = ["--epochs", "2", "--T", "100", "--seed", "1"]
    sampler = ["--T-sampling", "40", "--n-inferences", "2", "--seed", "2"]
    return [
        ["train", "--data", data, "--arch", "mlp", "--blocks", "2", "--hidden", "16",
         "--checkpoint-every", "1", *small, "--out", str(out / "mlp")],
        ["train", "--data", data, "--arch", "mlp", "--blocks", "2", "--hidden", "16",
         "--no-time-embedding", *small, "--out", str(out / "mlp-no-tst")],
        ["train", "--data", data, "--arch", "resnet", "--blocks", "2", "--hidden", "16",
         *small, "--out", str(out / "resnet")],
        ["train", "--data", data, "--arch", "transformer", "--blocks", "1", "--embed-dim", "16",
         "--heads", "2", *small, "--out", str(out / "transformer")],
        ["train", "--data", data, "--arch", "unet", "--unet-channels", "8,16", "--heads", "2",
         "--dtype", "float32", *small, "--out", str(out / "unet")],
        ["train", "--data", data, "--arch", "resnet", "--blocks", "2", "--hidden", "16",
         "--dtype", "float32", *small, "--out", str(out / "resnet-float32")],
        ["train", "--data", data, "--arch", "transformer", "--blocks", "1", "--embed-dim", "16",
         "--heads", "2", "--dtype", "float32", *small, "--out", str(out / "transformer-float32")],
        ["impute", "--checkpoint", ckpt("unet"), "--data", data, "--mcar", "0.3", *sampler,
         "--out", str(out / "impute-unet-float32.csv")],
        ["impute", "--checkpoint", ckpt("transformer-float32"), "--data", data, "--mcar", "0.3",
         "--tau", "10", *sampler, "--out", str(out / "impute-skip-float32.csv")],
        ["impute", "--checkpoint", ckpt("resnet"), "--data", data, "--mcar", "0.3", *sampler,
         "--out", str(out / "impute-dense.csv")],
        ["impute", "--checkpoint", ckpt("transformer"), "--data", data, "--mar", "2",
         "--tau", "10", "--jump-length", "2", "--jump-n-sample", "2", *sampler,
         "--out", str(out / "impute-skip.csv")],
        ["train", "--data", large, "--arch", "mlp", "--epochs", "1", "--T", "100",
         "--out", str(out / "mlp-large")],
        ["impute", "--checkpoint", ckpt("mlp-large"), "--data", large, "--mcar", "0.3",
         "--T-sampling", "20", "--n-inferences", "1", "--seed", "2",
         "--out", str(out / "impute-large.csv")],
        ["benchmark", "--data", labeled, "--target", "y",
         "--methods", "mean,median,mode,const0,const1,locf,nocb,diffusion-mlp,diffusion-unet",
         "--checkpoint", ckpt("mlp"), "--checkpoint", ckpt("unet"), "--grid", "mcar=30", "mar=1",
         "--n-mask-seeds", "2", "--jobs", "2", "--report-space", "raw", "--tau", "10",
         *sampler, "--out-dir", str(out / "benchmark")],
        ["benchmark", "--data", regression, "--target", "y", "--methods", "mean,diffusion-mlp",
         "--checkpoint", ckpt("mlp"), "--grid", "mcar=30", "--n-mask-seeds", "1", *sampler,
         "--out-dir", str(out / "benchmark-regression")],
        ["ablate", "--checkpoint", ckpt("mlp"), "--data", data, "--preset", "tau-sweep",
         *sampler, "--n-mask-seeds", "2", "--out-dir", str(out / "ablate-tau")],
        ["ablate", "--checkpoint", ckpt("mlp"), "--data", data, "--preset", "harmonization",
         *sampler, "--n-mask-seeds", "2", "--out-dir", str(out / "ablate-j")],
        ["ablate", "--checkpoint", ckpt("mlp"), "--checkpoint-no-tst", ckpt("mlp-no-tst"),
         "--data", data, "--preset", "no-tst", *sampler, "--n-mask-seeds", "2",
         "--out-dir", str(out / "ablate-no-tst")],
    ]


def environment() -> str:
    """The manifest's first line: numpy's version, OpenBLAS kernel and SIMD targets."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    from tabdiffuse.parallel import numpy_blas

    blas = numpy_blas()
    # a tabdiffuse from before BlasThreads.corename reads as unknown
    core = getattr(blas, "corename", lambda: None)() if blas is not None else None
    simd = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return (f"# numpy {np.__version__}; OpenBLAS core {core or 'unknown'}; "
            f"SIMD {' '.join(simd) or 'baseline only'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="empty or new directory for the outputs")
    args = ap.parse_args()
    try:
        import tabdiffuse
        from tabdiffuse.cli import main as cli
    except ImportError:
        print("tabdiffuse is not importable; set PYTHONPATH to a checkout's src", file=sys.stderr)
        return 2
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    print(f"tabdiffuse from {Path(tabdiffuse.__file__).parent}", file=sys.stderr)

    z = np.random.default_rng(SEED).standard_normal((ROWS, COLS + 1))
    x = np.cumsum(z[:, :COLS], axis=1)  # neighbouring columns correlate
    y = x[:, 0] + z[:, COLS]
    names = [f"f{j + 1}" for j in range(COLS)]
    write_table(out / "data.csv", x, names)
    large = np.random.default_rng(SEED + 1).standard_normal((LARGE_ROWS, LARGE_COLS))
    write_table(out / "large.csv", np.cumsum(large, axis=1), names[:LARGE_COLS])
    write_table(out / "labeled.csv", np.column_stack([x, y > 0]), names + ["y"])
    write_table(out / "regression.csv", np.column_stack([x, y]), names + ["y"])

    for argv in commands(out):
        rc = cli(argv)
        if rc != 0:
            print(f"exit {rc}: tabdiffuse {' '.join(argv)}", file=sys.stderr)
            return rc
    print(environment())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
