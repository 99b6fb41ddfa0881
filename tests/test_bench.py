"""Smoke test: the benchmark's worker still runs against this package.

Short train-umls runs on a generated UMLS-shaped graph must end
``correct``, with no failed operation. The traced run must give a value
for every per-layer metric, so a change to a name the benchmark calls
(``kg.load_triples``, ``kg.filtered_rank``, ``TripleStore.known_tails``,
...) fails here rather than in the benchmark. The untraced run must give
a value for every end-to-end metric that ``BENCHMARK.json`` declares.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def umls_dir(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("generate",
                                                  BENCH / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    data_dir = tmp_path_factory.mktemp("umls")
    generate.write_dataset("umls", 0, data_dir)
    return data_dir


def run_worker(data_dir, trace):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "train-umls",
         "--data-dir", str(data_dir), "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_train_umls_run_is_correct(umls_dir):
    metrics = run_worker(umls_dir, trace=1)
    missing = [name for name, metric in metrics.items()
               if metric["value"] is None]
    assert not missing


def test_untraced_run_gives_every_end_to_end_metric(umls_dir):
    metrics = run_worker(umls_dir, trace=0)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in contract["end_to_end"]]
    assert "peak_rss_mb" in declared
    for name in declared:
        assert metrics[name]["value"] > 0, name
