"""Knowledge-graph link prediction: data, model, losses, and ranking.

Triples are (head, relation, tail). The model embeds head and relation,
composes them as ``Drop(h + r)``, runs the result through the attention
block as a single-token sequence, and scores the output against every
entity embedding by dot product. Evaluation uses the filtered ranking
protocol: when ranking the true tail of (h, r, t), every other tail t'
known to complete (h, r, ·) in any split is masked out first.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import Module, build_block, parameter_count
from .config import TrainConfig
from .errors import (ConfigError, IncompatibilityError, IndexLookupError,
                     NumericsError, ParseError, PathError, ShapeError)
from .tensor import Tensor

LN3 = float(np.log(3.0))

# Values per row block of smoothed_ce_loss's single pass: 768 KiB of
# float64, so a block of the logits and of its gradient share a 2 MiB L2
# (six rows of 14,541 entities), and a (512, 135) batch is one block.
CE_BLOCK_ELEMENTS = 3 * 2 ** 15

SPLITS = ("train", "valid", "test")


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """An ascending array of non-negative ints without its repeats.

    At FB15k-237 size a sort and this mask are about 40 times faster than
    ``np.unique``, which hashes the values first.
    """
    return ascending[np.diff(ascending, prepend=-1) != 0]


class FilterIndex(Mapping):
    """Known tails of every (head, relation) pair, over all three splits.

    Every known triple is one code ``(h·R + r)·E + t`` in a sorted array
    without repeats, so the tails of (h, r) are the run of codes in
    ``[(h·R + r)·E, (h·R + r + 1)·E)`` and ``tails = codes % E`` holds
    them in ascending order. As a read-only mapping it takes (h, r) to
    that sorted int64 array; pairs with no known tail are absent.
    """

    def __init__(self, triples: np.ndarray, n_entities: int,
                 n_relations: int):
        if n_relations * n_entities ** 2 > np.iinfo(np.int64).max:
            raise IncompatibilityError(
                f"{n_entities} entities and {n_relations} relations are too"
                f" many for the filter index: entities² · relations must"
                f" stay below 2^63")
        self.n_entities = n_entities
        self.n_relations = n_relations
        h, r, t = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
        self.codes = _distinct(np.sort((h * n_relations + r) * n_entities
                                       + t))
        self.tails = self.codes % n_entities
        self.codes.flags.writeable = False
        self.tails.flags.writeable = False

    def spans(self, heads, relations):
        """``(lo, hi)`` with ``tails[lo:hi]`` the known tails of each pair.

        Heads and relations must lie inside the vocabularies.
        """
        keys = (np.asarray(heads, dtype=np.int64) * self.n_relations
                + relations) * self.n_entities
        return (self.codes.searchsorted(keys),
                self.codes.searchsorted(keys + self.n_entities))

    def known_tails(self, h: int, r: int) -> np.ndarray:
        """Sorted known tails of (h, r); empty for an unknown pair."""
        if not (0 <= h < self.n_entities and 0 <= r < self.n_relations):
            return self.tails[:0]
        lo, hi = self.spans(h, r)
        return self.tails[lo:hi]

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        tails = self.known_tails(*key)
        if not tails.size:
            raise KeyError(key)
        return tails

    def _pairs(self) -> np.ndarray:
        """The ``h·R + r`` of every pair with a known tail, ascending."""
        return _distinct(self.codes // self.n_entities)

    def __iter__(self):
        return (divmod(pair, self.n_relations)
                for pair in self._pairs().tolist())

    def __len__(self) -> int:
        return self._pairs().size


@dataclass
class TripleStore:
    """Integer-indexed triples plus the tail filter for ranked evaluation."""

    entity_index: dict[str, int]
    relation_index: dict[str, int]
    train: np.ndarray  # (n, 3) int64 rows of (h, r, t)
    valid: np.ndarray
    test: np.ndarray
    filter_index: FilterIndex = field(repr=False)

    @classmethod
    def from_splits(cls, entity_index: dict[str, int],
                    relation_index: dict[str, int], train: np.ndarray,
                    valid: np.ndarray, test: np.ndarray) -> "TripleStore":
        """A store whose filter index covers the three splits."""
        index = FilterIndex(np.concatenate([train, valid, test]),
                            len(entity_index), len(relation_index))
        return cls(entity_index, relation_index, train, valid, test,
                   filter_index=index)

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

    def known_tails(self, h: int, r: int) -> np.ndarray:
        return self.filter_index.known_tails(h, r)


def _first_malformed_line(data: bytes) -> int:
    """Number of the first line that is not three non-empty TAB-separated
    fields (0 if every line is).

    ``data`` is UTF-8 with LF line breaks only. A TAB or LF byte never
    occurs inside a multi-byte UTF-8 sequence, so bytes can be counted.
    """
    if not data:
        return 0
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if raw[-1] != ord("\n"):
        ends = np.append(ends, raw.size)
    tabs = np.flatnonzero(raw == ord("\t"))
    counts = np.diff(np.searchsorted(tabs, ends), prepend=0)
    miscounted = np.flatnonzero(counts != 2)
    first = int(miscounted[0]) if miscounted.size else ends.size
    # The lines before `first` hold two TABs each, the first 2·first TABs.
    first_tab, second_tab = tabs[:2 * first].reshape(-1, 2).T
    starts = np.concatenate(([0], ends[:-1] + 1))[:first]
    empty = np.flatnonzero((first_tab == starts)
                           | (second_tab == first_tab + 1)
                           | (ends[:first] == second_tab + 1))
    if empty.size:
        first = int(empty[0])
    return first + 1 if first < ends.size else 0


def _add_names(index: dict[str, int], names: list[str]) -> None:
    """Give each name not yet in ``index`` the next id, by first appearance."""
    new = [name for name in dict.fromkeys(names) if name not in index]
    index.update(zip(new, range(len(index), len(index) + len(new))))


def _read_split(path, entity_index: dict[str, int],
                relation_index: dict[str, int]) -> np.ndarray:
    """One split file as (n, 3) int64 rows, growing both vocabularies.

    The file is read whole. CRLF and a lone CR end a line as LF does, as
    in text mode. An undecodable byte is reported before any malformed
    line of the same file.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PathError(f"cannot read dataset file: {exc}") from exc
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: line is not valid UTF-8") from exc
    lineno = _first_malformed_line(data)
    if lineno:
        raise ParseError(f"{path}:{lineno}: expected"
                         f" 'head<TAB>relation<TAB>tail'")
    del data  # each copy of a split freed early keeps the peak down
    if not text:
        return np.empty((0, 3), dtype=np.int64)
    fields = text.replace("\n", "\t").split("\t")
    if text.endswith("\n"):
        fields.pop()
    del text
    relations = fields[1::3]
    del fields[1::3]  # fields is now head, tail, head, tail, ...
    _add_names(entity_index, fields)
    _add_names(relation_index, relations)
    triples = np.empty((len(relations), 3), dtype=np.int64)
    ids = np.fromiter(map(entity_index.__getitem__, fields), dtype=np.int64,
                      count=len(fields))
    triples[:, 0] = ids[0::2]
    triples[:, 2] = ids[1::2]
    triples[:, 1] = np.fromiter(map(relation_index.__getitem__, relations),
                                dtype=np.int64, count=len(relations))
    return triples


def load_triples(train_path, valid_path, test_path) -> TripleStore:
    """Read the three split files (TAB-separated, one triple per line).

    Vocabularies are assigned in first-appearance order across
    train, valid, test — head before tail within a line — so entities
    seen only in valid/test still enter the vocabulary. The filter index
    covers all three splits.
    """
    entity_index: dict[str, int] = {}
    relation_index: dict[str, int] = {}
    splits = [_read_split(p, entity_index, relation_index)
              for p in (train_path, valid_path, test_path)]
    return TripleStore.from_splits(entity_index, relation_index, *splits)


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


class KgModel(Module):
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

def smoothed_ce_loss(logits: Tensor, targets, epsilon: float = 0.1,
                     out: np.ndarray | None = None) -> Tensor:
    """Label-smoothed cross-entropy, averaged over the batch.

    The target row puts 1 - epsilon on the true tail and spreads epsilon
    uniformly over the other ``n - 1`` entities. ``logits`` is (B, n) with
    B >= 1 and ``targets`` holds exactly one class index per row.
    One pass over row blocks of about :data:`CE_BLOCK_ELEMENTS` values
    computes the loss and, when the logits need a gradient, the gradient
    for a unit upstream gradient. It is written into ``out``, a
    C-contiguous float64 (B, n) array apart from the logits, which holds
    it from the forward onward; the caller may reuse ``out`` only after
    the tape's backward has run. Without ``out`` a new array is allocated.
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
    T.check_out(out, logits.shape, "smoothed_ce_loss")
    if out is not None and np.may_share_memory(out, logits.data):
        raise ShapeError("smoothed_ce_loss needs an out buffer apart from"
                         " the logits")
    # The target row y is `off` everywhere plus `on` at the true tail, and
    # log p = x - shift with shift = max + log z, so sum(y * log p) needs
    # only x[t], sum(x) and shift: no (B, n) log-probability array.
    off = epsilon / (n - 1)
    on = 1.0 - epsilon - off
    batch = targets.size
    rows = np.arange(batch)
    x = logits.data
    grad = np.empty(x.shape) if out is None else out
    inv_batch = 1.0 / batch
    shift = np.empty(batch)
    x_sum = np.empty(batch)
    # Every reduction runs over whole rows, so blocking leaves the sums,
    # and so the loss and the gradient, bitwise unchanged.
    step = max(1, CE_BLOCK_ELEMENTS // n)
    for start in range(0, batch, step):
        block = slice(start, start + step)
        xb = x[block]
        e = grad[block]
        top = xb.max(axis=-1, keepdims=True)
        np.subtract(xb, top, out=e)
        np.exp(e, out=e)
        z = e.sum(axis=-1, keepdims=True)
        shift[block] = (top + np.log(z))[:, 0]
        xb.sum(axis=-1, out=x_sum[block])
        if logits.requires_grad:
            # y sums to 1, so d(loss)/d(logits) = (softmax - y) / B.
            e *= inv_batch / z
            e -= off * inv_batch
    loss = -(on * (x[rows, targets] - shift)
             + off * (x_sum - n * shift)).mean()
    if logits.requires_grad:
        grad[rows, targets] -= on * inv_batch
    result = Tensor(loss, logits.requires_grad)

    def backward_fn(g):
        # The tape runs this once; a training step's g is exactly 1.
        if g != 1.0:
            np.multiply(grad, g, out=grad)
        return (grad,)

    T._record(result, (logits,), backward_fn)
    return result


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
    # Per-geometry routing average over the evaluated tokens; None for
    # fixed-geometry variants, which do not route. Summed batch by batch,
    # so its last bits depend on the batch size: == compares the ranking
    # metrics only.
    mean_alpha: tuple[float, float, float] | None = field(default=None,
                                                          compare=False)

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
    rejects any others. ``known_tails`` is a set or a sorted int64 array
    without repeats, as :class:`FilterIndex` holds.
    """
    if isinstance(known_tails, np.ndarray):
        known = known_tails
    else:
        known = np.sort(np.fromiter(known_tails, dtype=np.int64,
                                    count=len(known_tails)))
    target = scores[t]
    at = known.searchsorted(t)
    return int(np.count_nonzero(scores >= target)
               - np.count_nonzero(scores[known] >= target)
               + (at < known.size and known[at] == t))


def evaluate(store: TripleStore, model: KgModel, split: str,
             batch_size: int = 1024) -> Metrics:
    """Filtered MRR / Hits@10 and mean routing weights over a split.

    Runs in eval mode, ``batch_size`` queries per forward.
    """
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise ConfigError(f"cannot evaluate an empty {split!r} split")
    recip_sum = 0.0
    hits = 0
    alpha_sum = np.zeros(3)
    alpha_seen = False
    index = store.filter_index
    buf = np.empty((min(batch_size, triples.shape[0]), store.n_entities))
    for start in range(0, triples.shape[0], batch_size):
        batch = triples[start:start + batch_size]
        lo, hi = index.spans(batch[:, 0], batch[:, 1])
        logits, alpha = model.score(batch[:, 0], batch[:, 1], training=False,
                                    out=buf[:batch.shape[0]])
        scores = logits.data
        if alpha is not None:
            alpha_sum += alpha.data.reshape(-1, 3).sum(axis=0)
            alpha_seen = True
        for row, (h, r, t), first, end in zip(scores, batch.tolist(),
                                              lo.tolist(), hi.tolist()):
            # Checked row by row, while the row is in cache.
            if not np.isfinite(row).all():
                raise NumericsError(f"non-finite scores for query ({h}, {r})"
                                    f" on the {split!r} split")
            rank = filtered_rank(row, t, index.tails[first:end])
            recip_sum += 1.0 / rank
            hits += rank <= 10
    n = int(triples.shape[0])
    mean_alpha = (tuple(float(a) for a in alpha_sum / n) if alpha_seen
                  else None)
    return Metrics(mrr=recip_sum / n, hits_at_10=hits / n, n_evaluated=n,
                   mean_alpha=mean_alpha)
