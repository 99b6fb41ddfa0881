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
from .errors import IncompatibilityError, NumericsError, UnsupportedVariantError
from .kg import (KgModel, TripleStore, evaluate, routing_entropy,
                 smoothed_ce_loss, total_loss)
from .tensor import Tensor


# Values per block of AdamW's update: 256 KiB of float64, so the six
# arrays a block touches (parameter, gradient, both moments, two scratch
# arrays) stay within a 2 MiB L2.
ADAMW_BLOCK_ELEMENTS = 2 ** 15


class AdamW:
    """Adaptive moments with bias correction and decoupled weight decay.

    The decay multiplies parameters by ``(1 - lr * weight_decay)``
    separately from (and before) the gradient step, so it is applied even
    when gradients are zero. A parameter whose gradient is ``None`` is
    updated as if its gradient were zero. A non-finite gradient rejects
    the whole step before any parameter is touched. Each step runs the
    update over leading-axis row blocks of about
    :data:`ADAMW_BLOCK_ELEMENTS` values, views of the parameter, its
    gradient and moments in any memory order, in two scratch arrays of
    one block each.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 weight_decay: float = 0.0, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        # A block holds whole rows, so a row wider than a block widens it.
        width = max([ADAMW_BLOCK_ELEMENTS] + [math.prod(p.data.shape[1:])
                                              for p in self.params.values()])
        scratch = np.empty((2, width))
        for name, p in self.params.items():
            # atleast_1d views a 0-d array; basic slices below are views.
            data, m, v = (np.atleast_1d(t) for t in
                          (p.data, self._m[name], self._v[name]))
            grad = None if p.grad is None else np.atleast_1d(p.grad)
            rows = max(1, ADAMW_BLOCK_ELEMENTS
                       // max(math.prod(data.shape[1:]), 1))
            for start in range(0, data.shape[0], rows):
                block = slice(start, start + rows)
                self._update(data[block], None if grad is None
                             else grad[block], m[block], v[block],
                             scratch, bc1, bc2)

    def _update(self, p, g, m, v, scratch, bc1, bc2) -> None:
        """One block of the update, in place in ``p``, ``m`` and ``v``."""
        a, b = (buf[:p.size].reshape(p.shape) for buf in scratch)
        if self.weight_decay:
            p *= 1.0 - self.lr * self.weight_decay
        # m += (1-β1)·g and v += ((1-β2)·g)·g; a zero gradient adds 0.
        m *= self.beta1
        v *= self.beta2
        if g is not None:
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
        # p -= (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, bc1, out=b)
        b *= self.lr
        b /= a
        p -= b


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total_sq = 0.0
    for p in params.values():
        if p.grad is not None:
            # einsum's own loop: no squared temporary, no BLAS threads.
            g = p.grad.ravel(order="K")
            total_sq += float(np.einsum("i,i->", g, g))
    total = math.sqrt(total_sq)
    if total > max_norm > 0:
        scale = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return total


class PlateauScheduler:
    """Halve (by ``factor``) the optimizer lr when the monitored metric
    (higher is better) fails to improve for ``patience`` consecutive
    epochs; the stale counter resets after each reduction."""

    def __init__(self, optimizer: AdamW, factor: float = 0.5,
                 patience: int = 10):
        self.optimizer = optimizer
        self.factor = factor
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
            self.optimizer.lr *= self.factor
            self.stale = 0
            return True
        return False


def anneal_lambda(lam: float, decay: float = 0.95,
                  floor: float = 0.001) -> float:
    """One annealing step of the entropy weight: max(floor, lam * decay)."""
    return max(floor, lam * decay)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    valid_mrr: float
    valid_hits10: float
    lr: float
    lambda_ent: float
    mean_alpha: tuple[float, float, float] | None

    def line(self) -> str:
        """One log line; floats use repr so equality means bit equality."""
        parts = [f"epoch={self.epoch}",
                 f"train_loss={self.train_loss!r}",
                 f"valid_mrr={self.valid_mrr!r}",
                 f"valid_hits10={self.valid_hits10!r}",
                 f"lr={self.lr!r}",
                 f"lambda={self.lambda_ent!r}"]
        if self.mean_alpha is not None:
            for key, value in zip(("alpha_e", "alpha_h", "alpha_s"),
                                  self.mean_alpha):
                parts.append(f"{key}={value!r}")
        return " ".join(parts)


@dataclass
class TrainResult:
    model: KgModel
    records: list[EpochRecord]
    best_epoch: int
    best_valid_mrr: float

    def log_text(self) -> str:
        return "\n".join(r.line() for r in self.records) + "\n"


def train(store: TripleStore, cfg: TrainConfig,
          log_stream=None) -> TrainResult:
    """Run the full training protocol and return the best-epoch model.

    ``lr`` and ``lambda`` in each epoch record are the values in effect
    during that epoch's optimizer steps; the scheduler and annealer run
    after validation. The returned model carries the parameters of the
    epoch with the highest validation MRR. Fixed-geometry variants use
    the identical loop with the entropy weight pinned to zero.
    """
    model = KgModel(store.n_entities, store.n_relations, cfg)
    params = model.parameters()
    opt = AdamW(params, cfg.lr, cfg.weight_decay, cfg.beta1, cfg.beta2,
                cfg.adam_eps)
    sched = PlateauScheduler(opt, cfg.plateau_factor, cfg.plateau_patience)
    is_cat = cfg.variant == "cat"
    lam = cfg.lambda_ent_init if is_cat else 0.0

    # KgModel consumes the first three derived seeds for its tables/block.
    seeds = T.derive_seeds(cfg.seed, 5)
    shuffle_rng = np.random.default_rng(seeds[3])
    dropout_rng = np.random.default_rng(seeds[4])

    triples = store.train
    n_train = triples.shape[0]
    records: list[EpochRecord] = []
    best_mrr = -math.inf
    best_epoch = 0
    best_state: dict[str, np.ndarray] = {}
    # Every step writes its logits and the loss's gradient here; the
    # previous step's tape, the only reader, has been consumed by then.
    logits_buf = np.empty((min(cfg.batch_size, n_train), store.n_entities))
    grad_buf = np.empty_like(logits_buf)

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, n_train, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            with T.Tape() as tape:
                logits, alpha = model.score(triples[idx, 0], triples[idx, 1],
                                            training=True, rng=dropout_rng,
                                            out=logits_buf[:idx.size])
                loss = smoothed_ce_loss(logits, triples[idx, 2],
                                        cfg.label_smoothing,
                                        out=grad_buf[:idx.size])
                if is_cat:
                    loss = total_loss(loss, routing_entropy(alpha), lam,
                                      cfg.entropy_sign)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericsError(
                    f"non-finite training loss ({loss_value}) at epoch "
                    f"{epoch}, batch {batch_no}")
            opt.zero_grad()
            tape.backward(loss)
            if cfg.grad_clip > 0:
                clip_gradients(params, cfg.grad_clip)
            opt.step()
            loss_sum += loss_value * idx.size

        lr_used = opt.lr
        try:
            valid_metrics = evaluate(store, model, "valid")
        except NumericsError as exc:
            raise NumericsError(
                f"{exc} at epoch {epoch} (validation)") from exc
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n_train,
            valid_mrr=valid_metrics.mrr,
            valid_hits10=valid_metrics.hits_at_10,
            lr=lr_used,
            lambda_ent=lam,
            mean_alpha=valid_metrics.mean_alpha,
        )
        records.append(record)
        if log_stream is not None:
            log_stream.write(record.line() + "\n")
            log_stream.flush()

        if valid_metrics.mrr > best_mrr:
            best_mrr = valid_metrics.mrr
            best_epoch = epoch
            best_state = {k: p.data.copy() for k, p in params.items()}
        sched.step(valid_metrics.mrr)
        if is_cat:
            lam = anneal_lambda(lam, cfg.lambda_ent_decay, cfg.lambda_ent_min)

    for name, data in best_state.items():
        params[name].data[...] = data
    return TrainResult(model, records, best_epoch, best_mrr)


# ---------------------------------------------------------------------------
# Checkpoints and routing export
# ---------------------------------------------------------------------------

def save_model(path, model: KgModel) -> None:
    T.save_checkpoint(path, model.parameters())


def load_model(path, model: KgModel) -> KgModel:
    """Fill ``model``'s parameters from a checkpoint, validating shapes."""
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
        p.data[...] = stored[name]
    return model


def export_routing(model: KgModel, store: TripleStore, split: str,
                   out_path) -> np.ndarray:
    """Write per-triple routing weights for a split as TAB-delimited text.

    Columns: head, relation, alpha_e, alpha_h, alpha_s (original string
    identifiers, weights in full precision). Per-geometry means are
    appended as '#'-prefixed trailer lines and returned.
    """
    if model.variant != "cat":
        raise UnsupportedVariantError(
            f"routing export needs the 'cat' variant, got {model.variant!r}")
    triples = store.split(split)
    entity_names = {i: s for s, i in store.entity_index.items()}
    relation_names = {i: s for s, i in store.relation_index.items()}
    alpha_sum = np.zeros(3)
    # Only alpha is read; the logits of every batch land in one buffer.
    buf = np.empty((min(1024, triples.shape[0]), store.n_entities))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("head\trelation\talpha_e\talpha_h\talpha_s\n")
        for start in range(0, triples.shape[0], 1024):
            batch = triples[start:start + 1024]
            _, alpha = model.score(batch[:, 0], batch[:, 1], training=False,
                                   out=buf[:batch.shape[0]])
            weights = alpha.data.reshape(-1, 3)
            alpha_sum += weights.sum(axis=0)
            for (h, r, _), w in zip(batch, weights):
                fh.write(f"{entity_names[int(h)]}\t{relation_names[int(r)]}\t"
                         f"{float(w[0])!r}\t{float(w[1])!r}\t{float(w[2])!r}\n")
        means = alpha_sum / triples.shape[0]
        for key, value in zip(("alpha_e", "alpha_h", "alpha_s"), means):
            fh.write(f"# mean {key} {float(value)!r}\n")
    return means
