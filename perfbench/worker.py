"""One benchmark process, started by ``run.py``.

``--mode setup`` writes a workload's inputs and runs its set-up commands,
so that set-up time counts from process start, imports included.
``--mode time`` issues the workload's command on those inputs in a closed
loop until the time budget is spent; its peak RSS belongs to the commands
alone.  Each process writes its findings as JSON to ``--result``.

In ``--mode trace`` the loop alternates untraced and traced commands, then
measures the tensor-core micro numbers, writes the spans to ``--spans`` and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tabdiffuse.cli import main as cli_main  # noqa: E402

from workloads import WORKLOADS, CheckFailed  # noqa: E402


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_op(workload, op_dir: Path, run) -> dict:
    """Issue one command through ``run(argv)`` and check its outputs."""
    op_dir.mkdir(parents=True)
    gc.collect()
    t0 = time.perf_counter()
    rc = run(workload.argv(op_dir))
    seconds = time.perf_counter() - t0
    op = {"seconds": seconds, "ok": False, "error": None}
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        res = workload.check(op_dir)
        op.update(ok=True, items=res.items, loss=res.loss, digest=res.digest)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as err:
        op["error"] = f"{type(err).__name__}: {err}"
    shutil.rmtree(op_dir, ignore_errors=True)
    return op


def timed_loop(workload, budget: float) -> dict:
    ops = []
    begin = time.perf_counter()
    while True:
        ops.append(run_op(workload, workload.work / f"op{len(ops)}", cli_main))
        mean = sum(o["seconds"] for o in ops) / len(ops)
        if time.perf_counter() - begin + mean > budget:
            return {"ops": ops}


def traced_loop(workload, budget: float, spans_path: Path) -> dict:
    from micro import micro_metrics
    from tracing import RunSummary, Tracer, layer_metrics

    tracer = Tracer()
    runs: list[RunSummary] = []

    def traced(argv):
        tracer.install()
        try:
            rc, ids = tracer.call(f"{workload.name}-s{workload.seed}-op{len(ops)}",
                                  "cli.main", cli_main, argv)
        finally:
            tracer.uninstall()
        runs.append(RunSummary(tracer.spans, ids))
        return rc

    ops = []
    begin = time.perf_counter()
    while True:
        pair = (False, True) if len(ops) % 4 == 0 else (True, False)
        for is_traced in pair:
            op = run_op(workload, workload.work / f"op{len(ops)}",
                        traced if is_traced else cli_main)
            op["traced"] = is_traced
            ops.append(op)
        mean_pair = 2.0 * sum(o["seconds"] for o in ops) / len(ops)
        if time.perf_counter() - begin + mean_pair > budget:
            break

    layer, problems = layer_metrics(runs)
    traced_s = np.median([o["seconds"] for o in ops if o["traced"]])
    plain_s = np.median([o["seconds"] for o in ops if not o["traced"]])
    layer["trace.overhead_pct"] = (float(100.0 * (traced_s / plain_s - 1.0)), "pct")
    layer["trace.shims_missing"] = (len(tracer.missing), "count")
    layer.update(micro_metrics(workload.seed))
    tracer.write(spans_path)
    if tracer.missing:
        print(f"perfbench: shim targets not found: {tracer.missing}", file=sys.stderr)
    return {"ops": ops, "layer": layer, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--budget", type=float, default=0.0, help="seconds of commands")
    ap.add_argument("--work", type=Path, required=True,
                    help="directory of the set-up's inputs and the commands' outputs")
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    args.work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.work)
        if args.mode == "setup":
            workload.setup(cli_main)
            found = {"setup_end": time.perf_counter(), "setup_digest": workload.setup_digest()}
        elif args.mode == "trace":
            found = traced_loop(workload, args.budget, args.spans)
        else:
            found = timed_loop(workload, args.budget)
    except Exception:  # noqa: BLE001 - reported to run.py as a failed process
        traceback.print_exc()
        return 1
    found.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        blas_threads=blas_threads(),
    )
    args.result.write_text(json.dumps(found), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
