"""Optimization loop: AdamW, plateau LR schedule, entropy-weight annealing.

One :func:`train` call runs a fixed number of epochs of shuffled
mini-batches, validates after every epoch, anneals the entropy weight,
reduces the learning rate on validation-MRR plateaus, and returns the
parameters from the best validation epoch. Everything is seeded; two
runs with the same config produce bit-identical epoch logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .errors import (IncompatibilityError, NumericsError,
                     UnsupportedVariantError)
from .kg import (EVAL_BATCH, ROUTING_COLUMNS, KgModel, Metrics, TripleStore,
                 evaluate, routing_entropy, smoothed_ce_loss, total_loss)
from .tensor import Tensor


# Values per block of AdamW's update: 256 KiB of float64, so the six
# arrays a block touches (parameter, gradient, both moments, two scratch
# arrays) stay within a 2 MiB L2.
ADAMW_BLOCK_ELEMENTS = 2 ** 15

# The protocol's fixed constants: AdamW's moment decays and epsilon, the
# plateau scheduler's lr factor, the entropy weight's decay and floor.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
PLATEAU_FACTOR = 0.5
LAMBDA_ENT_DECAY = 0.95
LAMBDA_ENT_MIN = 0.001


class AdamW:
    """Adaptive moments with bias correction and decoupled weight decay.

    The moments decay by :data:`BETA1` and :data:`BETA2`, and
    :data:`ADAM_EPS` guards the denominator. The weight decay multiplies
    parameters by ``(1 - lr * weight_decay)`` separately from (and before)
    the gradient step, so it is applied even when gradients are zero. A
    parameter whose gradient is ``None`` is updated as if its gradient
    were zero. A non-finite gradient rejects the whole step before any
    parameter is touched. Each step runs the update over leading-axis row
    blocks of about :data:`ADAMW_BLOCK_ELEMENTS` values, views of the
    parameter, its gradient and moments in any memory order, in two
    scratch arrays of one block each. Each parameter's rows are updated
    over the row parts of ``tensor.in_halves`` (two for FB15k-237's entity
    table), each part in its own scratch pair; the update is elementwise,
    so its bits do not depend on the split.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericsError(
                    f"non-finite gradient for parameter {name!r}; step rejected")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        # A block holds whole rows, so a row wider than a block widens it.
        width = max([ADAMW_BLOCK_ELEMENTS] + [math.prod(p.data.shape[1:])
                                              for p in self.params.values()])
        # A scratch pair for each row part of tensor.in_halves: the part
        # starting at row 0 takes the first.
        scratch = np.empty((2, 2, width))
        for name, p in self.params.items():
            # atleast_1d views a 0-d array; basic slices below are views.
            data, m, v = (np.atleast_1d(t) for t in
                          (p.data, self._m[name], self._v[name]))
            grad = None if p.grad is None else np.atleast_1d(p.grad)
            rows = max(1, ADAMW_BLOCK_ELEMENTS
                       // max(math.prod(data.shape[1:]), 1))

            def blocks(part: slice) -> None:
                pair = scratch[1 if part.start else 0]
                for start in range(part.start, part.stop, rows):
                    block = slice(start, min(start + rows, part.stop))
                    self._update(data[block], None if grad is None
                                 else grad[block], m[block], v[block],
                                 pair, bc1, bc2)

            T.in_halves(blocks, data.shape[0], data.size)

    def _update(self, p, g, m, v, scratch, bc1, bc2) -> None:
        """One block of the update, in place in ``p``, ``m`` and ``v``."""
        a, b = (buf[:p.size].reshape(p.shape) for buf in scratch)
        # At weight_decay = 0 this multiplies by exactly 1.0.
        p *= 1.0 - self.lr * self.weight_decay
        # m += (1-β1)·g and v += ((1-β2)·g)·g; a zero gradient adds 0.
        m *= BETA1
        v *= BETA2
        if g is not None:
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v += a
        # p -= (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, bc1, out=b)
        b *= self.lr
        b /= a
        p -= b


class PlateauScheduler:
    """Scale the optimizer lr by :data:`PLATEAU_FACTOR` when the monitored
    metric (higher is better) fails to improve for ``patience``
    consecutive epochs; the stale counter resets after each reduction."""

    def __init__(self, optimizer: AdamW, patience: int = 10):
        self.optimizer = optimizer
        self.patience = patience
        self.best = -math.inf
        self.stale = 0

    def step(self, metric: float) -> bool:
        """Record one epoch's metric; returns True if lr was reduced."""
        if metric > self.best:
            self.best = metric
            self.stale = 0
            return False
        self.stale += 1
        if self.stale >= self.patience:
            self.optimizer.lr *= PLATEAU_FACTOR
            self.stale = 0
            return True
        return False


def anneal_lambda(lam: float) -> float:
    """One annealing step of the entropy weight:
    ``max(LAMBDA_ENT_MIN, lam * LAMBDA_ENT_DECAY)``."""
    return max(LAMBDA_ENT_MIN, lam * LAMBDA_ENT_DECAY)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    valid: Metrics
    lr: float
    lambda_ent: float

    def line(self) -> str:
        """One log line; floats use repr so equality means bit equality."""
        parts = [f"epoch={self.epoch}",
                 f"train_loss={self.train_loss!r}",
                 f"valid_mrr={self.valid.mrr!r}",
                 f"valid_hits10={self.valid.hits_at_10!r}",
                 f"lr={self.lr!r}",
                 f"lambda={self.lambda_ent!r}"]
        if self.valid.mean_alpha is not None:
            parts += (f"{key}={value!r}" for key, value
                      in zip(ROUTING_COLUMNS, self.valid.mean_alpha))
        return " ".join(parts)


@dataclass
class TrainResult:
    model: KgModel
    records: list[EpochRecord]
    best_epoch: int

    @property
    def best_valid_mrr(self) -> float:
        return self.records[self.best_epoch - 1].valid.mrr

    def log_text(self) -> str:
        return "\n".join(r.line() for r in self.records) + "\n"


def train(store: TripleStore, cfg: TrainConfig,
          log_stream=None) -> TrainResult:
    """Run the full training protocol and return the best-epoch model.

    ``lr`` and ``lambda`` in each epoch record are the values in effect
    during that epoch's optimizer steps; the scheduler and annealer run
    after validation. The returned model carries the parameters of the
    epoch with the highest validation MRR. Fixed-geometry variants use
    the identical loop with the entropy weight pinned to zero. An empty
    train or valid split is rejected before the first step.

    The run allocates one (rows, n_entities) array, with rows the larger
    of the batch (at most the train split) and ``min(EVAL_BATCH,
    len(valid))``: each step's logits, the loss's gradient written over
    them, and every validation's scores share it.
    """
    for split in ("train", "valid"):
        store.nonempty(split, "train with")
    model = KgModel(store.n_entities, store.n_relations, cfg)
    params = model.parameters()
    opt = AdamW(params, cfg.lr, cfg.weight_decay)
    sched = PlateauScheduler(opt, cfg.plateau_patience)
    is_cat = cfg.variant == "cat"
    lam = cfg.lambda_ent_init if is_cat else 0.0

    # KgModel consumes the first three derived seeds for its tables/block.
    seeds = T.derive_seeds(cfg.seed, 5)
    shuffle_rng = np.random.default_rng(seeds[3])
    dropout_rng = np.random.default_rng(seeds[4])

    triples = store.train
    n_train = triples.shape[0]
    records: list[EpochRecord] = []
    best_epoch = 0
    best_state: dict[str, np.ndarray] = {}
    # A step's backward reads the gradient the loss wrote over its logits
    # before the next step or validation writes here.
    scores_buf = np.empty((max(min(cfg.batch_size, n_train),
                               min(EVAL_BATCH, store.valid.shape[0])),
                           store.n_entities))

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, n_train, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            with T.Tape() as tape:
                logits, alpha = model.score(triples[idx, 0], triples[idx, 1],
                                            training=True, rng=dropout_rng,
                                            out=scores_buf[:idx.size])
                loss = smoothed_ce_loss(logits, triples[idx, 2],
                                        cfg.label_smoothing, out=logits.data)
                if is_cat:
                    loss = total_loss(loss, routing_entropy(alpha), lam)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericsError(
                    f"non-finite training loss ({loss_value}) at epoch "
                    f"{epoch}, batch {batch_no}")
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
            loss_sum += loss_value * idx.size

        try:
            valid_metrics = evaluate(store, model, "valid", out=scores_buf)
        except NumericsError as exc:
            raise NumericsError(
                f"{exc} at epoch {epoch} (validation)") from exc
        record = EpochRecord(epoch, loss_sum / n_train, valid_metrics, opt.lr,
                             lam)
        records.append(record)
        if log_stream is not None:
            log_stream.write(record.line() + "\n")
            log_stream.flush()

        if valid_metrics.mrr > sched.best:
            best_epoch = epoch
            best_state = {k: p.data.copy() for k, p in params.items()}
        sched.step(valid_metrics.mrr)
        if is_cat:
            lam = anneal_lambda(lam)

    for name, data in best_state.items():
        params[name].data[...] = data
    return TrainResult(model, records, best_epoch)


# ---------------------------------------------------------------------------
# Checkpoints and routing export
# ---------------------------------------------------------------------------

def save_model(path, model: KgModel) -> None:
    T.save_checkpoint(path, model.parameters())


def load_model(path, model: KgModel) -> KgModel:
    """Fill ``model``'s parameters from a checkpoint, validating shapes.

    Every name and shape is checked before any parameter is written, so
    a refused checkpoint leaves ``model`` as it was.
    """
    stored = T.load_checkpoint(path)
    params = model.parameters()
    missing = sorted(set(params) - set(stored))
    unexpected = sorted(set(stored) - set(params))
    if missing or unexpected:
        def brief(names):
            return ", ".join(names[:3]) + (", ..." if len(names) > 3 else "")
        detail = "; ".join(
            f"{label} {len(names)} ({brief(names)})"
            for label, names in (("missing", missing), ("unexpected", unexpected))
            if names)
        raise IncompatibilityError(
            f"checkpoint does not match the {model.variant!r} variant: {detail}")
    for name, p in params.items():
        if stored[name].shape != p.data.shape:
            raise IncompatibilityError(
                f"checkpoint tensor {name!r} has shape {stored[name].shape}, "
                f"model expects {p.data.shape} (vocabulary or dims differ)")
    for name, p in params.items():
        p.data[...] = stored[name]
    return model


def export_routing(model: KgModel, store: TripleStore, split: str,
                   out_path) -> np.ndarray:
    """Write per-triple routing weights for a split as TAB-delimited text.

    Columns: head, relation, alpha_e, alpha_h, alpha_s (original string
    identifiers, weights in full precision). Per-geometry means are
    appended as '#'-prefixed trailer lines and returned. A non-finite
    weight raises :class:`NumericsError`, naming its query, before the
    table replaces any file.
    """
    if model.variant != "cat":
        raise UnsupportedVariantError(
            f"routing export needs the 'cat' variant, got {model.variant!r}")
    triples = store.nonempty(split, "export routing of")
    entity_names = {i: s for s, i in store.entity_index.items()}
    relation_names = {i: s for s, i in store.relation_index.items()}
    alpha_sum = np.zeros(3)
    with T.atomic_write(out_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(("head", "relation") + ROUTING_COLUMNS) + "\n")
        for start in range(0, triples.shape[0], EVAL_BATCH):
            batch = triples[start:start + EVAL_BATCH]
            _, alpha = model.query(batch[:, 0], batch[:, 1])
            weights = alpha.data.reshape(-1, 3)
            finite = np.isfinite(weights).all(axis=1)
            if not finite.all():
                h, r, _ = batch[finite.argmin()].tolist()
                raise NumericsError(f"non-finite routing weights for query"
                                    f" ({h}, {r}) on the {split!r} split")
            alpha_sum += weights.sum(axis=0)
            for (h, r, _), w in zip(batch, weights):
                fh.write(f"{entity_names[int(h)]}\t{relation_names[int(r)]}\t"
                         f"{float(w[0])!r}\t{float(w[1])!r}\t{float(w[2])!r}\n")
        means = alpha_sum / triples.shape[0]
        for key, value in zip(ROUTING_COLUMNS, means):
            fh.write(f"# mean {key} {float(value)!r}\n")
    return means
