"""Command-line entry point.

Four subcommands share the flags ``--config``, ``--seed`` and ``--out-dir``;
all but ``bench``, which times every variant, also take ``--variant``:

* ``train``        — full training run: epoch log, best checkpoint, manifest.
* ``eval``         — filtered MRR / Hits@10 of a checkpoint on one split.
* ``bench``        — forward-pass wall-time and parameter counts per variant.
* ``route-export`` — per-triple routing weights of a trained mixture model.

Every run directory receives a ``manifest.json`` snapshot (config,
dataset checksums, seed, timings, metrics) sufficient to re-launch the
identical run. Errors exit with status 1 and a single line
``error: <category>: <message>`` on stderr; bad command lines exit 2,
and an interrupt (Ctrl-C or SIGTERM) exits 130 as
``error: interrupted: ...``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import sys
import time

import numpy as np

from . import __version__
from . import kg as kg_mod
from . import trainer as trainer_mod
from .attention import VARIANTS
from .config import TrainConfig, KEY_MAP, load_config, serialize_config
from .errors import CatkgError, PathError
from .kg import ROUTING_COLUMNS, KgModel, evaluate, load_triples
from .tensor import atomic_write, usable_cpus
from .trainer import export_routing, load_model, save_model, train

from pathlib import Path

# Fallback vocabulary sizes for `bench` without dataset files; these
# mirror the FB15k-237 benchmark so parameter counts are comparable.
BENCH_ENTITIES = 14541
BENCH_RELATIONS = 237


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line, machine-parsable, exit 2
        print(f"error: invalid-args: {message}", file=sys.stderr)
        raise SystemExit(2)


def _at_least(low: int):
    """An argparse type: an integer that is ``low`` or more."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


def _add_common(p: _Parser, variant: bool = True) -> None:
    p.add_argument("--config", required=True, help="dotted-key config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override train.seed from the config")
    if variant:
        p.add_argument("--variant", choices=VARIANTS, default=None,
                       help="override model.variant from the config")
    p.add_argument("--out-dir", default=None,
                   help="run directory (default: runs/<command>)")


def build_parser() -> _Parser:
    parser = _Parser(prog="catkg", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", help="train a model")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=kg_mod.SPLITS, default="test")

    p = sub.add_parser("bench", help="measure forward latency per variant")
    _add_common(p, variant=False)
    p.add_argument("--batch-size", type=_at_least(1), default=512)
    p.add_argument("--warmup", type=_at_least(0), default=50)
    p.add_argument("--iters", type=_at_least(1), default=100)

    p = sub.add_parser("route-export", help="dump routing weights")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=kg_mod.SPLITS, default="test")
    p.add_argument("--out", default=None,
                   help="output file (default: <out-dir>/routing.tsv)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"train": _cmd_train, "eval": _cmd_eval, "bench": _cmd_bench,
               "route-export": _cmd_route_export}[args.command]
    # SIGTERM ends a command as Ctrl-C does; the caller's handler returns.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        # Every non-finite value ends in a NumericsError, so numpy's
        # warnings would only come before the one error line.
        with np.errstate(all="ignore"):
            handler(args)
    except CatkgError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: path-error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out-of-memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"error: interrupted: {args.command} stopped before it finished",
              file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _load_cfg(args) -> TrainConfig:
    """The config file with the ``--seed`` and ``--variant`` overrides."""
    overrides = {key: value for key in ("seed", "variant")
                 if (value := getattr(args, key, None)) is not None}
    return dataclasses.replace(load_config(args.config), **overrides)


def _out_dir(args) -> Path:
    """The run directory, made now: each command calls this only once its
    inputs are checked, so a refused run leaves no directory behind."""
    out = Path(args.out_dir) if args.out_dir else Path("runs") / args.command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _data_paths(cfg: TrainConfig) -> dict[str, str]:
    return {split: getattr(cfg, f"{split}_path") for split in kg_mod.SPLITS}


def _require_data(cfg: TrainConfig) -> None:
    missing = [f"data.{split}_path"
               for split, path in _data_paths(cfg).items() if not path]
    if missing:
        raise PathError(f"config must set {', '.join(missing)}")


def _load_data(args) -> tuple[TrainConfig, kg_mod.TripleStore]:
    """Config and dataset of a train/eval/route-export run."""
    cfg = _load_cfg(args)
    _require_data(cfg)
    store = load_triples(cfg.train_path, cfg.valid_path, cfg.test_path)
    return cfg, store


def _load_trained(args) -> tuple[TrainConfig, kg_mod.TripleStore, KgModel]:
    """:func:`_load_data` plus the model in ``args.checkpoint``."""
    cfg, store = _load_data(args)
    model = KgModel(store.n_entities, store.n_relations, cfg)
    return cfg, store, load_model(args.checkpoint, model)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# The settings of BLAS's own thread pool, recorded in each manifest as set
# (or null): the bits of a GEMM may depend on them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _write_manifest(out_dir: Path, command: str, cfg: TrainConfig,
                    timings: dict, metrics: dict, artifacts: dict) -> None:
    manifest = {
        "command": command,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "build": {"package": "catkg", "version": __version__,
                  "python": platform.python_version(),
                  "numpy": np.__version__,
                  "blas_threads": {var: os.environ.get(var)
                                   for var in BLAS_THREAD_VARS},
                  "usable_cpus": usable_cpus()},
        "seed": cfg.seed,
        "config": {key: getattr(cfg, field) for key, field in KEY_MAP.items()},
        "datasets": {split: {"path": path, "sha256": _sha256(path)}
                     for split, path in _data_paths(cfg).items() if path},
        "timings_sec": timings,
        "metrics": metrics,
        "artifacts": artifacts,
    }
    with atomic_write(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> None:
    t0 = time.perf_counter()
    cfg, store = _load_data(args)
    t_load = time.perf_counter() - t0
    # Checked before the run directory is made, so a refused run leaves
    # none.
    for split in kg_mod.SPLITS:
        store.nonempty(split, "train with")

    out_dir = _out_dir(args)
    log_path = out_dir / "epochs.log"
    t0 = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log_stream:
        result = train(store, cfg, log_stream=log_stream)
    t_train = time.perf_counter() - t0

    checkpoint = out_dir / "model.catw"
    save_model(checkpoint, result.model)
    with atomic_write(out_dir / "config.txt", "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))

    # The returned model is the best epoch's, whose validation is on record.
    valid_metrics = result.records[result.best_epoch - 1].valid
    t0 = time.perf_counter()
    test_metrics = evaluate(store, result.model, "test")
    t_eval = time.perf_counter() - t0

    for line in valid_metrics.lines("valid", cfg.seed):
        print(line)
    for line in test_metrics.lines("test", cfg.seed):
        print(line)
    print(f"best_epoch={result.best_epoch} "
          f"checkpoint={checkpoint} epoch_log={log_path}")

    _write_manifest(
        out_dir, "train", cfg,
        timings={"load": t_load, "train": t_train, "final_eval": t_eval},
        metrics={"best_epoch": result.best_epoch,
                 "valid": {"mrr": valid_metrics.mrr,
                           "hits_at_10": valid_metrics.hits_at_10},
                 "test": {"mrr": test_metrics.mrr,
                          "hits_at_10": test_metrics.hits_at_10}},
        artifacts={"checkpoint": str(checkpoint),
                   "epoch_log": str(log_path),
                   "config": str(out_dir / "config.txt")})


def _cmd_eval(args) -> None:
    cfg, store, model = _load_trained(args)
    t0 = time.perf_counter()
    metrics = evaluate(store, model, args.split)
    t_eval = time.perf_counter() - t0
    out_dir = _out_dir(args)

    lines = metrics.lines(args.split, cfg.seed)
    for line in lines:
        print(line)
    with atomic_write(out_dir / "metrics.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    _write_manifest(
        out_dir, "eval", cfg,
        timings={"eval": t_eval},
        metrics={args.split: {"mrr": metrics.mrr,
                              "hits_at_10": metrics.hits_at_10,
                              "n_evaluated": metrics.n_evaluated}},
        artifacts={"checkpoint": str(args.checkpoint),
                   "metrics": str(out_dir / "metrics.txt")})


def _cmd_bench(args) -> None:
    cfg = _load_cfg(args)
    if cfg.train_path:
        _require_data(cfg)
        store = load_triples(cfg.train_path, cfg.valid_path, cfg.test_path)
        n_entities, n_relations = store.n_entities, store.n_relations
    else:
        n_entities, n_relations = BENCH_ENTITIES, BENCH_RELATIONS

    rng = np.random.default_rng(cfg.seed)
    heads = rng.integers(0, n_entities, size=args.batch_size)
    rels = rng.integers(0, n_relations, size=args.batch_size)

    report = []
    stats: dict[str, dict] = {}
    for variant in VARIANTS:
        model = KgModel(n_entities, n_relations,
                        dataclasses.replace(cfg, variant=variant))
        for _ in range(args.warmup):
            model.score(heads, rels, training=False)
        samples = np.empty(args.iters)
        for i in range(args.iters):
            t0 = time.perf_counter()
            model.score(heads, rels, training=False)
            samples[i] = time.perf_counter() - t0
        stats[variant] = {"params": model.parameter_count(),
                          "mean_ms": float(samples.mean() * 1e3),
                          "std_ms": float(samples.std() * 1e3)}
        report.append(
            f"variant={variant} params={stats[variant]['params']} "
            f"mean_ms={stats[variant]['mean_ms']:.3f} "
            f"std_ms={stats[variant]['std_ms']:.3f} "
            f"batch={args.batch_size} iters={args.iters}")

    fixed_sum = sum(stats[v]["mean_ms"]
                    for v in ("euclidean", "hyperbolic", "spherical"))
    report.append(f"cat_vs_sum_of_fixed={stats['cat']['mean_ms'] / fixed_sum:.4f}")
    report.append("param_overhead_cat_vs_euclidean="
                  f"{stats['cat']['params'] / stats['euclidean']['params']:.4f}")

    text = "\n".join(report)
    print(text)
    out_dir = _out_dir(args)
    with atomic_write(out_dir / "bench.txt", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

    _write_manifest(
        out_dir, "bench", cfg,
        timings={"per_variant_ms": {v: s["mean_ms"] for v, s in stats.items()}},
        metrics={"stats": stats,
                 "n_entities": n_entities, "n_relations": n_relations},
        artifacts={"report": str(out_dir / "bench.txt")})


def _cmd_route_export(args) -> None:
    cfg, store, model = _load_trained(args)
    out_dir = _out_dir(args)
    out_path = Path(args.out) if args.out else out_dir / "routing.tsv"
    t0 = time.perf_counter()
    means = export_routing(model, store, args.split, out_path)
    t_export = time.perf_counter() - t0

    for key, value in zip(ROUTING_COLUMNS, means):
        print(f"split={args.split} mean_{key}={float(value)!r}")
    print(f"routing_table={out_path}")

    _write_manifest(
        out_dir, "route-export", cfg,
        timings={"export": t_export},
        metrics={"mean_alpha": {key: float(value) for key, value
                                in zip(ROUTING_COLUMNS, means)}},
        artifacts={"checkpoint": str(args.checkpoint),
                   "routing_table": str(out_path)})


if __name__ == "__main__":
    sys.exit(main())
