"""Knowledge-graph link prediction: data, model, losses, and ranking.

Triples are (head, relation, tail). The model embeds head and relation,
composes them as ``Drop(h + r)``, runs the result through the attention
block as a single-token sequence, and scores the output against every
entity embedding by dot product. Evaluation uses the filtered ranking
protocol: when ranking the true tail of (h, r, t), every other tail t'
known to complete (h, r, ·) in any split is masked out first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import build_block, parameter_count
from .config import TrainConfig
from .errors import (ConfigError, IndexLookupError, NumericsError, ParseError,
                     PathError, ShapeError)
from .tensor import Tensor

LN3 = float(np.log(3.0))

SPLITS = ("train", "valid", "test")


@dataclass
class TripleStore:
    """Integer-indexed triples plus the tail filter for ranked evaluation."""

    entity_index: dict[str, int]
    relation_index: dict[str, int]
    train: np.ndarray  # (n, 3) int64 rows of (h, r, t)
    valid: np.ndarray
    test: np.ndarray
    filter_index: dict[tuple[int, int], set[int]] = field(repr=False)

    @property
    def n_entities(self) -> int:
        return len(self.entity_index)

    @property
    def n_relations(self) -> int:
        return len(self.relation_index)

    def split(self, name: str) -> np.ndarray:
        if name not in SPLITS:
            raise ConfigError(f"unknown split {name!r}; choose from {SPLITS}")
        return getattr(self, name)

    def known_tails(self, h: int, r: int) -> set[int]:
        return self.filter_index.get((h, r), set())


def _parse_file(path, entity_index, relation_index, filter_index):
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise PathError(f"cannot read dataset file: {exc}") from exc
    triples = []
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                parts = line.rstrip("\r\n").split("\t")
                if len(parts) != 3 or not all(parts):
                    raise ParseError(f"{path}:{lineno}: expected"
                                     f" 'head<TAB>relation<TAB>tail'")
                head, rel, tail = parts
                h = entity_index.setdefault(head, len(entity_index))
                r = relation_index.setdefault(rel, len(relation_index))
                t = entity_index.setdefault(tail, len(entity_index))
                triples.append((h, r, t))
                filter_index.setdefault((h, r), set()).add(t)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{_undecodable_line(path)}: line is not"
                             f" valid UTF-8") from exc
    return np.array(triples, dtype=np.int64).reshape(-1, 3)


def _undecodable_line(path) -> int:
    """Number of the first line of ``path`` that is not UTF-8 (0 if none).

    Text mode decodes a file in chunks, ahead of the line being parsed, so
    its error does not say which line held the bad bytes.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # the same line breaks as text mode
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return 0


def load_triples(train_path, valid_path, test_path) -> TripleStore:
    """Read the three split files (TAB-separated, one triple per line).

    Vocabularies are assigned in first-appearance order across
    train, valid, test — entities seen only in valid/test still enter
    the vocabulary. The filter index covers all three splits.
    """
    entity_index: dict[str, int] = {}
    relation_index: dict[str, int] = {}
    filter_index: dict[tuple[int, int], set[int]] = {}
    splits = [_parse_file(p, entity_index, relation_index, filter_index)
              for p in (train_path, valid_path, test_path)]
    return TripleStore(entity_index, relation_index, *splits,
                       filter_index=filter_index)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def compose(h_vec: Tensor, r_vec: Tensor, p: float, training: bool,
            rng=None) -> Tensor:
    """Composite query representation: dropout(h + r).

    In eval mode this is exactly the elementwise sum.
    """
    if h_vec.shape != r_vec.shape:
        raise ShapeError(
            f"entity/relation dims disagree: {h_vec.shape} vs {r_vec.shape}")
    return T.dropout(h_vec + r_vec, p, training=training, rng=rng)


class KgModel:
    """Embeddings + one attention block + dot-product scoring head."""

    def __init__(self, n_entities: int, n_relations: int, cfg: TrainConfig):
        if n_entities < 2:
            raise ConfigError(
                f"need at least 2 entities to rank against, got {n_entities}")
        seed_e, seed_r, seed_b = T.derive_seeds(cfg.seed, 3)
        self.entity_emb = T.xavier_uniform((n_entities, cfg.d), seed_e)
        self.entity_emb.requires_grad = True
        self.relation_emb = T.xavier_uniform((n_relations, cfg.d), seed_r)
        self.relation_emb.requires_grad = True
        self.block = build_block(cfg.variant, cfg.d, heads=cfg.heads,
                                 ff_multiplier=cfg.ff_multiplier,
                                 activation=cfg.activation,
                                 curvature=cfg.curvature, seed=seed_b)
        self.variant = cfg.variant
        self.dropout_p = cfg.dropout
        self.dropout_sites = cfg.sites()

    def parameters(self) -> dict[str, Tensor]:
        params = {"entity_emb": self.entity_emb,
                  "relation_emb": self.relation_emb}
        for name, p in self.block.parameters().items():
            params[f"block.{name}"] = p
        return params

    def parameter_count(self) -> int:
        return parameter_count(self)

    def score(self, heads: np.ndarray, relations: np.ndarray,
              training: bool = False, rng=None, out: np.ndarray | None = None):
        """Logits over all tails for a batch of (h, r) queries.

        Returns ``(logits, alpha)`` with logits (B, n_entities) and alpha
        (B, 1, 3) routing weights (None for fixed-geometry variants).
        With ``out``, a C-contiguous float64 (B, n_entities) array, the
        logits are written into it and ``logits.data`` is ``out``; the
        caller may reuse it once the logits have been read, since no
        backward reads it. Without ``out`` a new array is allocated.
        """
        heads = np.atleast_1d(T.index_array(heads, "head"))
        relations = np.atleast_1d(T.index_array(relations, "relation"))
        if relations.size and (relations.min() < 0
                               or relations.max() >= self.relation_emb.shape[0]):
            raise IndexLookupError(
                f"relation index out of bounds for vocabulary of "
                f"{self.relation_emb.shape[0]}")
        h = T.embedding(self.entity_emb, heads)
        r = T.embedding(self.relation_emb, relations)
        p, sites = self.dropout_p, self.dropout_sites
        if training:
            if "entity" in sites:
                h = T.dropout(h, p, training=True, rng=rng)
            if "relation" in sites:
                r = T.dropout(r, p, training=True, rng=rng)
        x = compose(h, r, p if "composite" in sites else 0.0, training, rng)
        batch = x.shape[0]
        tokens = x.reshape(batch, 1, x.shape[-1])
        y, alpha = self.block.forward(tokens)
        query = y.reshape(batch, y.shape[-1])
        return T.inner(query, self.entity_emb, out=out), alpha


def score_all_tails(model: KgModel, h: int, r: int) -> np.ndarray:
    """Eval-mode logits over every candidate tail for one (h, r) query."""
    logits, _ = model.score(np.array([h]), np.array([r]), training=False)
    return logits.data[0]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def smoothed_ce_loss(logits: Tensor, targets, epsilon: float = 0.1) -> Tensor:
    """Label-smoothed cross-entropy, averaged over the batch.

    The target row puts 1 - epsilon on the true tail and spreads epsilon
    uniformly over the other ``n - 1`` entities. ``logits`` is (B, n) with
    B >= 1 and ``targets`` holds exactly one class index per row.
    """
    if not 0 <= epsilon < 1:
        raise ConfigError(f"label smoothing must be in [0, 1), got {epsilon}")
    logits = T.as_tensor(logits)
    targets = np.atleast_1d(T.index_array(targets, "target"))
    if (logits.ndim != 2 or logits.shape[0] == 0
            or targets.shape != logits.shape[:1]):
        raise ShapeError(f"smoothed_ce_loss needs (B, n) logits with B >= 1"
                         f" and B targets, got {logits.shape} and"
                         f" {targets.shape}")
    n = logits.shape[-1]
    if n < 2:
        raise ConfigError(
            "label smoothing needs at least 2 classes to spread mass over")
    if targets.min() < 0 or targets.max() >= n:
        raise IndexLookupError(f"target index out of bounds for {n} classes")
    # The target row y is `off` everywhere plus `on` at the true tail, and
    # log p = x - shift with shift = max + log z, so sum(y * log p) needs
    # only x[t], sum(x) and shift: no (B, n) log-probability array.
    off = epsilon / (n - 1)
    on = 1.0 - epsilon - off
    batch = targets.size
    rows = np.arange(batch)
    x = logits.data
    top = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, top)
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    shift = (top + np.log(z))[:, 0]
    loss = -(on * (x[rows, targets] - shift)
             + off * (x.sum(axis=-1) - n * shift)).mean()
    out = Tensor(loss, logits.requires_grad)

    def backward_fn(g):
        # y sums to 1, so d(loss)/d(logits) = (softmax - y) / B; written
        # into e (the tape runs this once), never into the logits.
        scale = g / batch
        grad = np.multiply(e, scale / z, out=e)
        grad -= off * scale
        grad[rows, targets] -= on * scale
        return (grad,)

    T._record(out, (logits,), backward_fn)
    return out


def routing_entropy(alpha: Tensor) -> Tensor:
    """Mean per-token Shannon entropy of the routing weights (nats).

    The 1e-300 shift makes 0 * log 0 evaluate to an exact 0 without
    perturbing any representable nonzero weight.
    """
    plogp = alpha * T.log(alpha + 1e-300)
    return -T.reduce_sum(plogp, axis=-1).mean()


def total_loss(ce: Tensor, entropy: Tensor, lambda_ent: float,
               sign: str = "subtract") -> Tensor:
    """Combine the two objectives; the default rewards entropy.

    ``subtract`` (default) lowers the loss for high-entropy routing;
    ``add`` penalizes it instead, for replicating the opposite
    convention.
    """
    if lambda_ent < 0:
        raise ConfigError(f"lambda_ent must be >= 0, got {lambda_ent}")
    if sign == "subtract":
        return ce - lambda_ent * entropy
    if sign == "add":
        return ce + lambda_ent * entropy
    raise ConfigError(f"entropy_sign must be 'subtract' or 'add', got {sign!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    mrr: float
    hits_at_10: float
    n_evaluated: int

    def lines(self, split: str, seed: int) -> list[str]:
        """Key-value text form, one metric per line."""
        return [
            f"split={split} seed={seed} metric=mrr value={self.mrr!r}",
            f"split={split} seed={seed} metric=hits_at_10 value={self.hits_at_10!r}",
            f"split={split} seed={seed} metric=n_evaluated value={self.n_evaluated}",
        ]


def filtered_rank(scores: np.ndarray, t: int, known_tails) -> int:
    """Pessimistic filtered rank of tail ``t`` under ``scores``.

    Known alternative tails are skipped; entities tying with t count as
    ranked above it, so rank = 1 + |{i != t, i not known : s_i >= s_t}|.
    It is counted over the whole row minus the known set (t, if known,
    is added back), which is exact for finite scores; :func:`evaluate`
    rejects any others.
    """
    target = scores[t]
    known = np.fromiter(known_tails, dtype=np.int64, count=len(known_tails))
    return int(np.count_nonzero(scores >= target)
               - np.count_nonzero(scores[known] >= target)
               + (t in known_tails))


def evaluate(store: TripleStore, model: KgModel, split: str,
             batch_size: int = 1024, collect_alpha: bool = False):
    """Filtered MRR / Hits@10 over a split, in eval mode.

    With ``collect_alpha`` the return value is ``(metrics, mean_alpha)``
    where mean_alpha is the per-geometry routing average over all
    evaluated tokens (None for fixed-geometry variants).
    """
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise ConfigError(f"cannot evaluate an empty {split!r} split")
    recip_sum = 0.0
    hits = 0
    alpha_sum = np.zeros(3)
    alpha_seen = False
    buf = np.empty((min(batch_size, triples.shape[0]), store.n_entities))
    for start in range(0, triples.shape[0], batch_size):
        batch = triples[start:start + batch_size]
        logits, alpha = model.score(batch[:, 0], batch[:, 1], training=False,
                                    out=buf[:batch.shape[0]])
        scores = logits.data
        if collect_alpha and alpha is not None:
            alpha_sum += alpha.data.reshape(-1, 3).sum(axis=0)
            alpha_seen = True
        for row, (h, r, t) in zip(scores, batch.tolist()):
            # Checked row by row, while the row is in cache.
            if not np.isfinite(row).all():
                raise NumericsError(f"non-finite scores for query ({h}, {r})"
                                    f" on the {split!r} split")
            rank = filtered_rank(row, t, store.known_tails(h, r))
            recip_sum += 1.0 / rank
            hits += rank <= 10
    n = int(triples.shape[0])
    metrics = Metrics(mrr=recip_sum / n, hits_at_10=hits / n, n_evaluated=n)
    if collect_alpha:
        return metrics, (alpha_sum / n if alpha_seen else None)
    return metrics
