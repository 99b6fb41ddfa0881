"""Knowledge-graph link prediction: data, model, losses, and ranking.

Triples are (head, relation, tail). The model embeds head and relation,
composes them as ``Drop(Drop(h) + Drop(r))`` (dropout acts in training
only), runs the result through the attention block as a single-token
sequence, and scores the output against every entity embedding by dot
product. Evaluation uses the filtered ranking protocol: when ranking the
true tail of (h, r, t), every other tail t' known to complete (h, r, ·)
in any split is masked out first.
"""

from __future__ import annotations

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
# float64 (six rows of 14,541 entities). Training writes the gradient over
# the logits, so a block is read and rewritten while it stays in a 2 MiB
# L2; a (512, 135) batch is one block.
CE_BLOCK_ELEMENTS = 3 * 2 ** 15

SPLITS = ("train", "valid", "test")

# Queries per forward pass of every eval-mode walk of a split. Alpha is
# summed batch by batch, so evaluate and export_routing agree bitwise on
# its means because both slice by this one size.
EVAL_BATCH = 1024


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """An ascending array of non-negative ints without its repeats.

    At FB15k-237 size a sort and this mask are about 40 times faster than
    ``np.unique``, which hashes the values first.
    """
    return ascending[np.diff(ascending, prepend=-1) != 0]


class FilterIndex:
    """Known tails of every (head, relation) pair, over all three splits.

    Every known triple is one code ``(h·R + r)·E + t`` in a sorted array
    without repeats, so the tails of (h, r) are the run of codes in
    ``[(h·R + r)·E, (h·R + r + 1)·E)`` and ``tails = codes % E`` holds
    them in ascending order.
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

    def values(self):
        """The known tails of each pair that has any, in ascending pair
        order; nothing for an empty index."""
        ends = (np.flatnonzero(np.diff(self.codes // self.n_entities,
                                       append=-1)) + 1).tolist()
        return (self.tails[lo:hi] for lo, hi in zip([0] + ends, ends))


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

    def nonempty(self, split: str, doing: str) -> np.ndarray:
        """The rows of ``split``; :class:`ConfigError` ``cannot <doing> an
        empty '<split>' split`` if it has none."""
        triples = self.split(split)
        if triples.shape[0] == 0:
            raise ConfigError(f"cannot {doing} an empty {split!r} split")
        return triples

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
    """Give each name not yet in ``index`` the next id, by first appearance.

    The index keeps a fresh copy of each new name, not the split's own
    string. The copies are made while the split's strings still fill
    their memory pools, so they share few pools with them, and freeing
    the split's strings hands whole arenas back: at FB15k-237 size the
    ~14.5k first occurrences, spread over every arena, kept about 40 MiB
    of the parser's heap resident.
    """
    new = [name.encode().decode() for name in dict.fromkeys(names)
           if name not in index]
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
                                 ff_multiplier=cfg.ff_multiplier, seed=seed_b)
        self.variant = cfg.variant
        self.dropout_p = cfg.dropout

    def parameter_count(self) -> int:
        return parameter_count(self)

    def query(self, heads: np.ndarray, relations: np.ndarray,
              training: bool = False, rng=None):
        """Query vectors for a batch of (h, r) pairs, before the head.

        ``heads`` and ``relations`` are 1-D and of one length B (a scalar
        counts as B = 1); anything else raises :class:`ShapeError`.
        Returns ``(query, alpha)`` with query (B, d) and alpha (B, 1, 3)
        routing weights (None for fixed-geometry variants).

        In eval mode with no :class:`~catkg.tensor.Tape` active on the
        calling thread, the block runs over the row parts of
        ``tensor.in_halves`` for the (B, n_entities) scores this query
        feeds, and both results are constants. Each row gets the bits it
        gets in one forward over all B rows.
        """
        heads = np.atleast_1d(T.index_array(heads, "head"))
        relations = np.atleast_1d(T.index_array(relations, "relation"))
        if heads.ndim != 1 or heads.shape != relations.shape:
            raise ShapeError(f"heads and relations must be 1-D and of one "
                             f"length, got {heads.shape}, {relations.shape}")
        # Both gathers run whole, so a bad index raises as on one path.
        h = T.embedding(self.entity_emb, heads)
        r = T.embedding(self.relation_emb, relations)
        if training or T.recording():
            # Drop(Drop(h) + Drop(r)), drawing entity, relation, composite.
            p = self.dropout_p if training else 0.0
            h = T.dropout(h, p, rng)
            r = T.dropout(r, p, rng)
            return self._block(T.dropout(h + r, p, rng))
        b, (n, d) = heads.shape[0], self.entity_emb.shape
        query = np.empty((b, d))
        alpha = None if self.variant != "cat" else np.empty((b, 1, 3))

        def rows_forward(rows: slice) -> None:
            y, a = self._block(Tensor(h.data[rows] + r.data[rows]))
            query[rows] = y.data
            if alpha is not None:
                alpha[rows] = a.data

        T.in_halves(rows_forward, b, b * n)
        return Tensor(query), None if alpha is None else Tensor(alpha)

    def _block(self, x: Tensor) -> tuple[Tensor, Tensor | None]:
        """The block over (B, d) inputs as B one-token sequences."""
        y, alpha = self.block.forward(x.reshape(x.shape[0], 1, x.shape[-1]))
        return y.reshape(x.shape[0], y.shape[-1]), alpha

    def score(self, heads: np.ndarray, relations: np.ndarray,
              training: bool = False, rng=None, out: np.ndarray | None = None):
        """Logits over all tails for a batch of (h, r) queries.

        Returns ``(logits, alpha)`` with logits (B, n_entities) and alpha
        as :meth:`query` gives it: an untaped eval-mode query and the head
        run over the row parts of ``tensor.in_halves``, and a taped query
        stays whole, so every gradient flows. With ``out``, a C-contiguous
        float64 (B, n_entities) array, the logits are written into it and
        ``logits.data`` is ``out``; the caller may reuse it once the
        logits have been read, since no backward reads it. Without
        ``out`` a new array is allocated.
        """
        query, alpha = self.query(heads, relations, training, rng)
        return T.inner(query, self.entity_emb, out=out), alpha


def score_all_tails(model: KgModel, h: int, r: int) -> np.ndarray:
    """Eval-mode logits over every candidate tail for one (h, r) query."""
    logits, _ = model.score(np.array([h]), np.array([r]), training=False)
    return logits.data[0]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def smoothed_ce_loss(logits: Tensor, targets, epsilon: float = 0.1,
                     in_place: bool = False) -> Tensor:
    """Label-smoothed cross-entropy, averaged over the batch.

    The target row puts 1 - epsilon on the true tail and spreads epsilon
    uniformly over the other ``n - 1`` entities. ``logits`` is (B, n) with
    B >= 1 and ``targets`` holds exactly one class index per row.
    One pass over row blocks of about :data:`CE_BLOCK_ELEMENTS` values
    computes the loss and, when the logits need a gradient, the gradient
    for a unit upstream gradient; it runs over the row parts of
    ``tensor.in_halves``, and the loss is summed afterwards in the
    caller. The gradient is written into a new (B, n) array, or with
    ``in_place`` over the logits' own array, which then holds it from the
    forward onward: nothing may read the logits' values after this call,
    and their array may be reused only after the tape's backward has run.
    Either way the loss and the gradient have the same bits.
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
    x = logits.data
    # The target row y is `off` everywhere plus `on` at the true tail, and
    # log p = x - shift with shift = max + log z, so sum(y * log p) needs
    # only x[t], sum(x) and shift: no (B, n) log-probability array.
    off = epsilon / (n - 1)
    on = 1.0 - epsilon - off
    batch = targets.size
    rows = np.arange(batch)
    # Read before the pass, which may overwrite the logits.
    x_target = x[rows, targets]
    grad = x if in_place else np.empty(x.shape)
    inv_batch = 1.0 / batch
    shift = np.empty(batch)
    x_sum = np.empty(batch)
    # Every reduction runs over whole rows, so blocking and the two halves
    # leave the sums, and so the loss and the gradient, bitwise unchanged.
    step = max(1, CE_BLOCK_ELEMENTS // n)

    def row_blocks(part: slice) -> None:
        for start in range(part.start, part.stop, step):
            block = slice(start, min(start + step, part.stop))
            xb = x[block]
            e = grad[block]
            # e may be these very rows: both reductions come first.
            top = xb.max(axis=-1, keepdims=True)
            xb.sum(axis=-1, out=x_sum[block])
            np.subtract(xb, top, out=e)
            np.exp(e, out=e)
            z = e.sum(axis=-1, keepdims=True)
            shift[block] = (top + np.log(z))[:, 0]
            if logits.requires_grad:
                # y sums to 1, so d(loss)/d(logits) = (softmax - y) / B.
                e *= inv_batch / z
                e -= off * inv_batch

    T.in_halves(row_blocks, batch, x.size)
    loss = -(on * (x_target - shift) + off * (x_sum - n * shift)).mean()
    if logits.requires_grad:
        grad[rows, targets] -= on * inv_batch

    def backward_fn(g):
        # The tape runs this once; a training step's g is exactly 1.
        if g != 1.0:
            np.multiply(grad, g, out=grad)
        return (grad,)

    return T.node(loss, (logits,), backward_fn)


def routing_entropy(alpha: Tensor) -> Tensor:
    """Mean per-token Shannon entropy of the routing weights (nats).

    The 1e-300 shift makes 0 * log 0 evaluate to an exact 0 without
    perturbing any representable nonzero weight.
    """
    plogp = alpha * T.log(alpha + 1e-300)
    return -T.reduce_sum(plogp, axis=-1).mean()


def total_loss(ce: Tensor, entropy: Tensor, lambda_ent: float) -> Tensor:
    """``ce - lambda_ent * entropy``: high-entropy routing lowers the loss."""
    if not 0 <= lambda_ent < np.inf:
        raise ConfigError(f"lambda_ent must be in [0, inf), got {lambda_ent}")
    return ce - lambda_ent * entropy


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# The per-geometry routing weights, in the router's output order.
ROUTING_COLUMNS = ("alpha_e", "alpha_h", "alpha_s")


@dataclass(frozen=True)
class Metrics:
    mrr: float
    hits_at_10: float
    n_evaluated: int
    # Per-geometry routing average over the evaluated tokens; None for
    # fixed-geometry variants, which do not route.
    mean_alpha: tuple[float, float, float] | None = None

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


def _first_nonfinite_row(scores: np.ndarray, flags: np.ndarray) -> int:
    """Index of the first row of ``scores`` with a non-finite value, or -1.

    ``flags`` is a bool (k, n) block that :func:`np.isfinite` fills with
    k rows of the (B, n) ``scores`` at a time, so the scan allocates no
    (B, n) temporary.
    """
    step = flags.shape[0]
    for start in range(0, scores.shape[0], step):
        block = flags[:scores.shape[0] - start]
        np.isfinite(scores[start:start + step], out=block)
        if not block.all():
            return start + int(block.all(axis=1).argmin())
    return -1


# Rows per block of the finiteness scan. Sixteen FB15k-237 score rows and
# their flags take 2.09 MB, within one 2 MiB L2; 64 rows scanned no faster.
CHECK_BLOCK_ROWS = 16


def eval_rows(n_triples: int, n_entities: int) -> int:
    """Rows of the score buffer that :func:`evaluate` needs for a split of
    ``n_triples`` ≥ 1 triples: the largest ``tensor.row_parts`` part of
    its :data:`EVAL_BATCH` batches (512 of FB15k-237's 1,024)."""
    batches = {min(EVAL_BATCH, n_triples), (n_triples - 1) % EVAL_BATCH + 1}
    return max(part.stop - part.start for rows in batches
               for part in T.row_parts(rows, rows * n_entities))


def evaluate(store: TripleStore, model: KgModel, split: str,
             out: np.ndarray | None = None) -> Metrics:
    """Filtered MRR / Hits@10 and mean routing weights over a split.

    Runs in eval mode over :data:`EVAL_BATCH` queries at a time. Each
    batch is scored and ranked in its ``tensor.row_parts``, one part after
    the other (from ``tensor.BESIDE_FROM`` scores, 512 and the rest of
    FB15k-237's 1,024 rows), and each part's query forward and head run
    over the row parts of ``tensor.in_halves`` (:meth:`KgModel.query`,
    ``tensor.inner``). A part's scores are ranked row by row and checked
    for finiteness in one scan, which :func:`tensor.beside` runs beside
    the ranking on the helper thread or after it in the caller's. Every
    row keeps the bits of one forward over the whole batch, and the
    routing weights are summed once per batch, so the metrics do not
    depend on the parts. A part counts only once it is all finite; else
    :class:`NumericsError` names its first non-finite query.

    With ``out``, each part's scores are written into its leading rows,
    which ``tensor.inner`` checks are a C-contiguous float64 array of
    ``n_entities`` columns (else :class:`ShapeError`); without it a new
    array of :func:`eval_rows` rows is allocated. The metrics do not
    depend on which.
    """
    triples = store.nonempty(split, "evaluate")
    recip_sum = 0.0
    hits = 0
    alpha_sum = np.zeros(3)
    index = store.filter_index
    width = store.n_entities
    rows = eval_rows(triples.shape[0], width)
    if out is None:
        out = np.empty((rows, width))
    flags = np.empty((min(CHECK_BLOCK_ROWS, rows), width), dtype=bool)
    for start in range(0, triples.shape[0], EVAL_BATCH):
        batch = triples[start:start + EVAL_BATCH]
        alphas = np.empty((batch.shape[0], 3))
        for part in T.row_parts(batch.shape[0], batch.shape[0] * width):
            queries = batch[part]
            lo, hi = index.spans(queries[:, 0], queries[:, 1])
            logits, alpha = model.score(queries[:, 0], queries[:, 1],
                                        training=False,
                                        out=out[:queries.shape[0]])
            scores = logits.data
            if alpha is not None:
                alphas[part] = alpha.data.reshape(-1, 3)

            def rank_rows():
                return [filtered_rank(row, t, index.tails[first:end])
                        for row, t, first, end in zip(
                            scores, queries[:, 2].tolist(), lo.tolist(),
                            hi.tolist())]

            def check():
                return _first_nonfinite_row(scores, flags)

            ranks, bad = T.beside(rank_rows, check, scores.size)
            if bad >= 0:
                h, r, _ = queries[bad].tolist()
                raise NumericsError(f"non-finite scores for query ({h}, {r})"
                                    f" on the {split!r} split")
            # Every rank of an all-finite part is at least 1. The sums run
            # in row order, so the metrics keep the bits of one pass over
            # the rows.
            for rank in ranks:
                recip_sum += 1.0 / rank
                hits += rank <= 10
        if alpha is not None:
            alpha_sum += alphas.sum(axis=0)
    n = int(triples.shape[0])
    # A model routes every batch or none, so the last batch tells.
    mean_alpha = (None if alpha is None
                  else tuple(float(a) for a in alpha_sum / n))
    return Metrics(mrr=recip_sum / n, hits_at_10=hits / n, n_evaluated=n,
                   mean_alpha=mean_alpha)
