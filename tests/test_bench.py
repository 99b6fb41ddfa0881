"""Smoke test: the benchmark's worker still runs against this package.

One short traced train-umls run on a generated UMLS-shaped graph must end
``correct`` with a value for every per-layer metric, so a change to a
name the benchmark calls (``kg.load_triples``, ``kg.filtered_rank``,
``TripleStore.known_tails``, ...) fails here rather than in the benchmark.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_traced_train_umls_run_is_correct(tmp_path):
    spec = importlib.util.spec_from_file_location("generate",
                                                  BENCH / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.write_dataset("umls", 0, tmp_path)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "train-umls",
         "--data-dir", str(tmp_path), "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    missing = [name for name, metric in result["metrics"].items()
               if metric["value"] is None]
    assert not missing
