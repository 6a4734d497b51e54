#!/usr/bin/env python3
"""tabdiffuse benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload impute-transformer --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  With ``--trace 0`` it sets the
workload up from the seed in three or more processes, one after another
(set-up is timed from process start, imports included), then issues the workload's
command in a fresh process until ``--seconds`` are spent, and prints the
end-to-end metrics.  With ``--trace 1`` one set-up is followed by a process
that alternates untraced and traced commands, and it prints the per-layer
metrics.  Every command's outputs are checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A timed run starts at least MIN_SETUPS set-up processes, and more while
# their total time is below SETUP_FILL_S; setup_s is the median.
MIN_SETUPS, MAX_SETUPS, SETUP_FILL_S = 3, 15, 4.0
DEADLINE_S = 170.0  # a run must end within 180 s


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def environment(threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "src_lines": src_lines,
    }


def spawn(args, mode: str, work: Path, result: Path, deadline: float) -> dict:
    """Run one worker to completion; returns its findings plus ``t0``, the
    moment it was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--budget", str(args.seconds),
           "--work", str(work), "--result", str(result),
           "--spans", str(ROOT / ".perfbench" / "spans" /
                          f"{args.workload}-seed{args.seed}.jsonl")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=worker_env())
    try:
        proc.wait(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"t0": t0, "error": f"{mode} worker timed out"}
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave nothing running
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result.exists():
        return {"t0": t0, "error": f"{mode} worker exited with code {proc.returncode}"}
    found = json.loads(result.read_text(encoding="utf-8"))
    found["t0"] = t0
    return found


def setup_times(setups: list[dict]) -> list[float]:
    """Seconds from each set-up process's start to the end of its set-up."""
    return [s["setup_end"] - s["t0"] for s in setups if "error" not in s]


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tabdiffuse" / "cli.py").is_file():
        return fail(f"no tabdiffuse sources under {ROOT / 'src'}", 2)
    if not spec_path.is_file():
        return fail(f"{spec_path} not found", 2)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0:
        return fail("--seed must be >= 0", 2)

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = [spawn(args, "setup", work / "setup0", work / "setup0.json", deadline)]
        if "error" in setups[0]:
            return fail(f"set-up failed: {setups[0]['error']}", 1)
        while not args.trace and len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS or sum(setup_times(setups)) < SETUP_FILL_S
        ):
            i = len(setups)
            setups.append(spawn(args, "setup", work / f"setup{i}", work / f"setup{i}.json",
                                deadline))
        runner = spawn(args, "trace" if args.trace else "time", work / "setup0",
                       work / "runner.json", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: list[str] = []
    attempted = failed = 0
    for i, s in enumerate(setups):
        error = s.get("error")
        if error is None and s["setup_digest"] != setups[0]["setup_digest"]:
            error = f"set-up {i} wrote other inputs or checkpoint than set-up 0"
        if error is not None:
            attempted += 1
            failed += 1
            problems.append(error)
    if "error" in runner:
        return fail(runner["error"], 1)
    # a traced run's counts that differ between its commands fail the run
    problems += runner.get("problems", [])
    failed += len(runner.get("problems", []))
    reference = None
    for op in runner["ops"]:
        attempted += 1
        if op["ok"]:
            reference = reference or op["digest"]
            if op["digest"] != reference:
                op.update(ok=False, error="output values differ from the first command's")
        if not op["ok"]:
            failed += 1
            problems.append(op["error"])

    ok_ops = [op for op in runner["ops"] if op["ok"]]
    if not ok_ops:
        return fail(f"no command succeeded: {problems[:3]}", 1)
    result_error = median([op["loss"] for op in ok_ops])
    if args.trace:
        metrics = dict(runner["layer"], **{"quality.result_error": (result_error, "loss")})
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": (median(setup_times(setups)), "s"),
            "work_per_s": (median([op["items"] / op["seconds"] for op in ok_ops]), "items/s"),
            "peak_rss_mb": (runner["peak_rss_mb"], "MB"),
        }
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != units:
        return fail(f"metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(units))} "
                    f"or their units differ", 3)

    report = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(runner["blas_threads"]),
        "problems": problems,
        "setup_s": setup_times(setups),
        "result_error": result_error,
        "ops": runner["ops"],
        "result": report,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
