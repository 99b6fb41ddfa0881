"""Run one benchmark workload in this process and print its result.

``run.py`` starts this script after generating the inputs, with the BLAS
thread count already in the environment, so the process that runs the
workload is the one whose peak RSS is reported. The last line of stdout
is the result object; a detail file goes next to the inputs.

A session is what a user of the package does with a dataset: train
(``trainer.train``), save and reload the model (``save_model``,
``load_triples`` + ``KgModel`` + ``load_model``), then rank the test split
(``kg.evaluate``). Every call goes through the module or class attribute,
so a traced session sees the spans that ``spans.Tracer`` installs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from catkg import kg, trainer
from catkg.config import TrainConfig
from catkg.errors import CatkgError

import generate
import layers
import spans

# Metric names and units come from the benchmark's contract only.
CONTRACT = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}

MIN_SESSIONS = 2
EVAL_MIN_S = 0.5
SETUP_MIN_S = 0.25
RANK_SAMPLE = 32
LAYER_REPS = 5


class Stopped(Exception):
    """A CatkgError ended the run; its failed operations are counted."""


class Run:
    """One workload's inputs, model config, checks and failure counts."""

    def __init__(self, workload: str, data_dir: Path, seed: int):
        self.name = workload
        self.spec = generate.WORKLOADS[workload]
        self.data_dir = data_dir
        self.seed = seed
        self.paths = [data_dir / f"{s}.txt" for s in generate.SPLITS]
        self.cfg = TrainConfig(d=64, variant="cat", batch_size=512,
                               epochs=self.spec["epochs"], seed=seed)
        self.ckpt = data_dir / f"{workload}.catw"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.train_digest: str | None = None
        self.eval_metrics = None
        # (train triples/s, setup s, eval triples/s) of every session run.
        self.session_rows: list[tuple[float, float, float]] = []
        self.trained: dict[str, np.ndarray] = {}
        self.model = None

    def load(self) -> None:
        """Parse the generated files and cut the workload's view."""
        store = self.guard("load_triples", 0, kg.load_triples, *self.paths)
        shape = generate.SHAPES[self.spec["shape"]]
        self.check((store.n_entities, store.n_relations)
                   == (shape["entities"], shape["relations"]),
                   "vocabulary differs from the shape")
        self.view = dataclasses.replace(store, **{
            split: getattr(store, split)[:self.spec[split]]
            for split in generate.SPLITS})

    def check(self, ok: bool, what: str, ops: int = 0) -> None:
        """Record a failed output check; ``ops`` operations count as failed."""
        if not ok:
            self.problems.append(what)
            self.failed += ops
            print(f"check failed: {what}", file=sys.stderr)

    def guard(self, what: str, ops: int, fn, *args):
        """Call ``fn``; a CatkgError fails ``ops`` operations and stops the run.

        Train steps and test triples count as attempted before the call;
        a failed set-up call counts as one attempted operation of its own.
        """
        try:
            return fn(*args)
        except CatkgError as exc:
            if not ops:
                self.attempted += 1
            self.check(False, f"{what} raised {exc}", ops or 1)
            raise Stopped from exc

    # -- sessions ----------------------------------------------------------

    def sessions(self, seconds: float) -> dict[str, float]:
        """Repeat whole sessions for ``seconds``.

        Throughputs are all triples over all seconds of the sessions, so a
        shift in machine speed within the run is averaged, not voted on;
        set-up is the median over sessions.
        """
        rows = []
        deadline = perf_counter() + seconds
        try:
            while len(rows) < MIN_SESSIONS or perf_counter() < deadline:
                rows.append((*self.train(), self.setup(), *self.evaluate()))
        finally:
            self.session_rows.extend(
                (tn / ts, setup, en / es) for tn, ts, setup, en, es in rows)
        train_n, train_s, setup, eval_n, eval_s = zip(*rows)
        return {"train_triples_per_s": sum(train_n) / sum(train_s),
                "eval_triples_per_s": sum(eval_n) / sum(eval_s),
                "setup_s": statistics.median(setup)}

    def train(self) -> tuple[int, float]:
        """One train() call and a saved checkpoint; (triples, seconds)."""
        n = self.view.train.shape[0]
        steps = self.cfg.epochs * math.ceil(n / self.cfg.batch_size)
        self.attempted += steps
        start = perf_counter()
        result = self.guard("train", steps, trainer.train, self.view, self.cfg)
        seconds = perf_counter() - start
        self.check_trained(result, steps)
        self.guard("save_model", 0, trainer.save_model, self.ckpt,
                   result.model)
        self.trained = {k: p.data.copy()
                        for k, p in result.model.parameters().items()}
        return n * self.cfg.epochs, seconds

    def setup(self) -> float:
        """Parse the dataset, build the model, load the checkpoint.

        Repeated for SETUP_MIN_S, so small datasets give several samples;
        returns the median seconds of one set-up.
        """
        times = []
        while not times or sum(times) < SETUP_MIN_S:
            start = perf_counter()
            store = self.guard("load_triples", 0, kg.load_triples,
                               *self.paths)
            model = self.guard("KgModel", 0, kg.KgModel, store.n_entities,
                               store.n_relations, self.cfg)
            self.guard("load_model", 0, trainer.load_model, self.ckpt, model)
            times.append(perf_counter() - start)
        self.check(all(np.array_equal(p.data, self.trained[k])
                       for k, p in model.parameters().items()),
                   "reloaded parameters differ from the trained ones")
        self.model = model
        return statistics.median(times)

    def evaluate(self) -> tuple[int, float]:
        """Rank the test view, repeated for EVAL_MIN_S; (triples, seconds)."""
        n = self.view.test.shape[0]
        passes = 0
        start = perf_counter()
        while passes == 0 or perf_counter() - start < EVAL_MIN_S:
            self.attempted += n
            metrics = self.guard("evaluate", n, kg.evaluate, self.view,
                                 self.model, "test")
            passes += 1
            self.check(metrics.n_evaluated == n,
                       f"n_evaluated {metrics.n_evaluated} != {n}", n)
            self.check(math.isfinite(metrics.mrr), "non-finite test MRR", n)
            if self.eval_metrics is None:
                self.eval_metrics = metrics
            self.check(metrics == self.eval_metrics,
                       "repeated evaluate() differs", n)
        return n * passes, perf_counter() - start

    # -- output checks -----------------------------------------------------

    def check_trained(self, result, steps: int) -> None:
        losses = [r.train_loss for r in result.records]
        params = result.model.parameters()
        finite = (all(map(math.isfinite, losses))
                  and all(np.isfinite(p.data).all() for p in params.values()))
        self.check(finite, "non-finite epoch loss or parameter", steps)
        digest = hashlib.sha256(result.log_text().encode())
        for name in sorted(params):
            digest.update(name.encode())
            digest.update(params[name].data.tobytes())
        if self.train_digest is None:
            self.train_digest = digest.hexdigest()
        self.check(digest.hexdigest() == self.train_digest,
                   "repeated train() is not bitwise identical", steps)

    def check_ranks(self) -> None:
        """Exhaustive filtered rank from score_all_tails vs evaluate()."""
        test = self.view.test
        rng = np.random.default_rng([self.seed, 0x72616e6b])
        rows = test[rng.choice(test.shape[0], min(RANK_SAMPLE, test.shape[0]),
                               replace=False)]
        for row in rows:
            h, r, t = (int(v) for v in row)
            self.attempted += 1
            single = dataclasses.replace(self.view, test=row.reshape(1, 3))
            rank = round(1.0 / self.guard("evaluate", 1, kg.evaluate, single,
                                          self.model, "test").mrr)
            scores = self.guard("score_all_tails", 1, kg.score_all_tails,
                                self.model, h, r).tolist()
            known = self.view.known_tails(h, r)
            target = scores[t]
            brute = 1 + sum(1 for i, s in enumerate(scores)
                            if i != t and i not in known and s >= target)
            self.check(all(map(math.isfinite, scores)),
                       f"non-finite score for ({h}, {r})", 1)
            self.check(rank == brute,
                       f"rank of ({h}, {r}, {t}): evaluate {rank}, "
                       f"exhaustive {brute}", 1)

    # -- traced figures ----------------------------------------------------

    def layer_figures(self) -> dict[str, float]:
        model = kg.KgModel(self.view.n_entities, self.view.n_relations,
                           self.cfg)
        rng = np.random.default_rng([self.seed, 0x6c61796572])
        train = self.view.train
        batch = train[rng.choice(train.shape[0], self.cfg.batch_size,
                                 replace=train.shape[0] < self.cfg.batch_size)]
        figures = layers.layer_times(model, batch, self.cfg.label_smoothing,
                                     self.seed, LAYER_REPS)
        tails = [len(s) for s in self.view.filter_index.values()]
        figures.update({
            "kg.params": model.parameter_count(),
            "kg.filter_tails_mean": statistics.fmean(tails),
            "kg.filter_tails_max": max(tails),
        })
        return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(generate.WORKLOADS),
                        required=True)
    parser.add_argument("--data-dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    run = Run(args.workload, args.data_dir, args.seed)
    detail: dict = {"workload": args.workload, "seed": args.seed}
    values: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    stopped = False
    try:
        run.load()
        if args.trace:
            untraced = run.sessions(args.seconds / 2)
            with spans.Tracer() as tracer:
                traced = run.sessions(args.seconds / 2)
            tracer.write(args.data_dir / f"{args.workload}-trace.tsv")
            values = spans.summarize(tracer.spans)
            main_metric = run.spec["main"]
            values["trace.overhead_ratio"] = (traced[main_metric]
                                              / untraced[main_metric])
            values.update(run.layer_figures())
            values["kg.head_fwdbwd_share"] = (
                values["kg.head_fwdbwd_ms"] / values["trainer.step_ms.p50"])
            values["attention.block_fwdbwd_share"] = (
                values["attention.block_fwdbwd_ms"]
                / values["trainer.step_ms.p50"])
            detail.update(untraced=untraced, traced=traced)
        else:
            values = run.sessions(args.seconds)
        run.check_ranks()
    except Stopped:
        stopped = True  # counted as failed; what it left unmeasured is null
    if not args.trace:
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, math.nan))
        run.check(stopped or math.isfinite(value),
                  f"metric {name} has no value")
        metrics[name] = {"value": value if math.isfinite(value) else None,
                         "unit": unit}
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    detail.update(result, problems=run.problems, spec=run.spec,
                  sessions=run.session_rows)
    (args.data_dir / f"{args.workload}-result.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
