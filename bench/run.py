"""Benchmark entry point: make a workload's inputs from a seed, run it,
check it and print its metrics.

    python3 bench/run.py --workload train-fb237 --seed 0 --seconds 20 --trace 0

Run from the repository root. The inputs are generated into
``.bench_data/<shape>-seed<seed>/`` (see ``generate.py``); the workload
then runs in a child process (``worker.py``) that imports the package
from ``src/`` with the BLAS thread count fixed here. With ``--trace 0``
the result carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones. The last line of stdout is the result object; the line
before it is the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import generate

# BLAS threads for the workload process. One thread keeps timings steady
# on a shared machine; it never exceeds the cores available.
BLAS_THREADS = 1
# Whole run, generation included, must end well inside three minutes.
TIME_LIMIT_S = 170


def _git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, threads: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(root),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "nproc": nproc}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(generate.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()

    bench = Path(__file__).resolve().parent
    root = bench.parent
    src = root / "src"
    if not (src / "catkg" / "__init__.py").is_file():
        print(f"error: no catkg package under {src}", file=sys.stderr)
        return 2

    contract = json.loads((root / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    if set(why) != set(generate.WORKLOADS):
        print("error: BENCHMARK.json and generate.WORKLOADS name different "
              "workloads", file=sys.stderr)
        return 2

    spec = generate.WORKLOADS[args.workload]
    data_dir = root / ".bench_data" / f"{spec['shape']}-seed{args.seed}"
    stats = generate.write_dataset(spec["shape"], args.seed, data_dir)
    (data_dir / f"{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "why": why[args.workload],
         "view": {s: spec[s] for s in generate.SPLITS}, "graph": stats},
        indent=1) + "\n")

    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, str(bench / "worker.py"),
           "--workload", args.workload, "--data-dir", str(data_dir),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S - (perf_counter() - start))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload exited with code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print("environment: " + json.dumps(environment(root, threads, nproc)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
