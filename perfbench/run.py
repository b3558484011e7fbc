"""Benchmark of clustermatch: enrolment, video recognition and large-store matching.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its `src/`.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, with --trace 1 with the per-layer metrics. `all` runs every workload,
each in its own process, prints each metric with its unit, and exits non-zero
if any op failed. See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("recognize-4k", "enroll-3k", "match-5k-store")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> int:
    """Cap every BLAS/OpenMP pool at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def run_one(args, nproc: int) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from measure import END_TO_END, PER_LAYER, run_workload
    from workloads import WORKLOADS

    print("env", json.dumps(environment(nproc)), flush=True)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print(f"setup_s samples: {', '.join(f'{t:.3f}' for t in result.setup_times)}")
    for i, op in enumerate(result.ops):
        status = "ok" if not op.problems else "FAILED: " + "; ".join(op.problems)
        print(f"op {i}: {op.wall:.3f} s{' traced' if op.traced else ''} {status}")
    print("output sha256:", json.dumps(result.ops[0].hashes))
    if result.absent:
        print("absent (not traced):", ", ".join(result.absent))
    spec = PER_LAYER if args.trace else END_TO_END
    untraced = sum(1 for op in result.ops if not op.traced)
    for name, (unit, better) in spec.items():
        note = f", n={untraced}" if name == "op_s_p50" else ""
        print(f"{name} = {result.metrics[name]:.6g} {unit} ({better} is better{note})")
    print(json.dumps(result.to_json(spec)), flush=True)
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and summarise; non-zero if any op failed."""
    failures = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {name}")
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            failures.append(name)
    if failures:
        print("failed:", ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clustermatch").is_dir():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'clustermatch'} is missing", file=sys.stderr)
        return 2
    nproc = pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
