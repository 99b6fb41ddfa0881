"""Triple loading, the scoring model, losses, and filtered ranked metrics.

Ranking uses a separate brute-force enumeration as its oracle; losses
are checked against hand-evaluated closed forms (uniform logits give
exactly ln n for any smoothing level, since the target row sums to 1).
"""

import itertools
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from catkg import kg as kg_mod
from catkg import manifolds as M
from catkg import tensor as T
from catkg.config import TrainConfig
from catkg.errors import (ConfigError, IncompatibilityError, IndexLookupError,
                          NumericsError, ParseError, PathError, ShapeError)
from catkg.kg import (LN3, FilterIndex, KgModel, Metrics, evaluate,
                      filtered_rank, load_triples, routing_entropy,
                      score_all_tails, smoothed_ce_loss, total_loss)
from catkg.tensor import Tensor, grad_check
from catkg.trainer import export_routing

from conftest import (build_toy_store, record_beside, use_cpus,
                      write_store_files)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def unblocked_smoothed_ce(x, targets, epsilon):
    """The loss and its gradient for a unit upstream gradient, in the
    whole-array passes smoothed_ce_loss made before it walked row blocks.
    """
    n = x.shape[-1]
    off = epsilon / (n - 1)
    on = 1.0 - epsilon - off
    batch = targets.size
    rows = np.arange(batch)
    top = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, top)
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    shift = (top + np.log(z))[:, 0]
    loss = -(on * (x[rows, targets] - shift)
             + off * (x.sum(axis=-1) - n * shift)).mean()
    scale = np.ones(()) / batch
    grad = np.multiply(e, scale / z, out=e)
    grad -= off * scale
    grad[rows, targets] -= on * scale
    return loss, grad


def make_dataset(tmp_path, train, valid=None, test=None):
    files = {}
    for name, lines in (("train", train), ("valid", valid or train[:1]),
                        ("test", test or train[:1])):
        p = tmp_path / f"{name}.txt"
        write_lines(p, lines)
        files[name] = str(p)
    return files


class TestLoadTriples:
    def test_counts_and_vocab_order(self, tmp_path):
        files = make_dataset(
            tmp_path,
            train=["a\tlikes\tb", "b\tlikes\tc", "a\tknows\tc"],
            valid=["c\tlikes\ta"],
            test=["d\tknows\ta"])
        store = load_triples(files["train"], files["valid"], files["test"])
        # first-appearance order across train, then valid, then test
        assert store.entity_index == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert store.relation_index == {"likes": 0, "knows": 1}
        assert store.train.shape == (3, 3)
        assert store.train.dtype == np.int64
        assert store.valid.shape == (1, 3)
        assert store.test.shape == (1, 3)
        assert store.n_entities == 4 and store.n_relations == 2

    def test_new_names_are_kept_as_copies(self):
        index = {"a": 0}
        names = ["bb", "a", "cc", "bb", "dd", "cc"]
        kg_mod._add_names(index, names)
        # Ids follow first appearance, and the keys equal the names.
        assert list(index.items()) == [("a", 0), ("bb", 1), ("cc", 2),
                                       ("dd", 3)]
        kept = {key: key for key in index}
        assert all(kept[name] is not name for name in names[2:])

    def test_rows_are_index_triples(self, tmp_path):
        files = make_dataset(tmp_path, train=["x\tr\ty", "y\tr\tx"])
        store = load_triples(files["train"], files["valid"], files["test"])
        assert store.train.tolist() == [[0, 0, 1], [1, 0, 0]]

    def test_filter_index_spans_all_splits(self, tmp_path):
        files = make_dataset(tmp_path,
                             train=["a\tr\tb"],
                             valid=["a\tr\tc"],
                             test=["a\tr\td"])
        store = load_triples(files["train"], files["valid"], files["test"])
        assert store.known_tails(0, 0).tolist() == [1, 2, 3]
        assert store.known_tails(5, 5).tolist() == []

    def test_duplicate_triples_collapse_in_filter(self, tmp_path):
        files = make_dataset(tmp_path, train=["a\tr\tb", "a\tr\tb"])
        store = load_triples(files["train"], files["valid"], files["test"])
        assert store.train.shape == (2, 3)  # rows kept as written
        assert store.known_tails(0, 0).tolist() == [1]

    def test_entities_only_in_valid_or_test_enter_vocab(self, tmp_path):
        files = make_dataset(tmp_path, train=["a\tr\tb"],
                             valid=["ghost\tr\ta"])
        store = load_triples(files["train"], files["valid"], files["test"])
        assert "ghost" in store.entity_index

    @pytest.mark.parametrize("bad,lineno", [
        ("a\tr", 2), ("a\tr\tb\tc", 2), ("a\t\tb", 2), ("", 2),
    ])
    def test_malformed_line_reports_position(self, tmp_path, bad, lineno):
        p = tmp_path / "train.txt"
        write_lines(p, ["a\tr\tb", bad, "b\tr\ta"])
        ok = tmp_path / "ok.txt"
        write_lines(ok, ["a\tr\tb"])
        with pytest.raises(ParseError) as info:
            load_triples(str(p), str(ok), str(ok))
        assert f"{p}:{lineno}" in str(info.value)

    @pytest.mark.parametrize("content,lineno", [
        (b"a\tr\tb\nb\tr\t\xff\n", 2),
        (b"a\tr\tb\r\nb\tr\ta\r\n\xe2\x82\tr\tb\r\n", 3),
        # a bad byte past the first 8 KiB text-mode chunk
        (b"a\tr\tb\n" * 3000 + b"b\tr\t\xc3(\n", 3001),
        # an undecodable file is rejected at its bad byte, even when a
        # malformed line comes first
        (b"a\tr\tb\na\tr\n" + b"a\tr\tb\n" * 3000 + b"b\tr\t\xc3(\n",
         3003),
        (b"a\tr\tb\na\tr\n\xe2\x82", 3),
    ], ids=["lf", "crlf", "past-first-chunk", "after-a-malformed-line",
            "truncated-at-end"])
    def test_invalid_utf8_reports_position(self, tmp_path, content, lineno):
        p = tmp_path / "train.txt"
        p.write_bytes(content)
        ok = tmp_path / "ok.txt"
        write_lines(ok, ["a\tr\tb"])
        with pytest.raises(ParseError) as info:
            load_triples(str(ok), str(ok), str(p))
        assert f"{p}:{lineno}:" in str(info.value)

    def test_missing_file_is_a_path_error(self, tmp_path):
        ok = tmp_path / "ok.txt"
        write_lines(ok, ["a\tr\tb"])
        with pytest.raises(PathError):
            load_triples(str(tmp_path / "nope.txt"), str(ok), str(ok))

    def test_empty_split_loads_as_zero_rows(self, tmp_path):
        files = make_dataset(tmp_path, train=["a\tr\tb"])
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        store = load_triples(files["train"], str(tmp_path / "empty.txt"),
                             files["test"])
        assert store.valid.shape == (0, 3)

    def test_crlf_lines_accepted(self, tmp_path):
        p = tmp_path / "train.txt"
        p.write_bytes(b"a\tr\tb\r\nb\tr\ta\r\n")
        store = load_triples(str(p), str(p), str(p))
        assert store.train.shape == (2, 3)

    def test_loading_is_deterministic(self, tmp_path):
        store = build_toy_store(n_entities=12, n_train=30)
        paths = write_store_files(store, tmp_path)
        s1 = load_triples(paths["train"], paths["valid"], paths["test"])
        s2 = load_triples(paths["train"], paths["valid"], paths["test"])
        assert s1.entity_index == s2.entity_index
        assert np.array_equal(s1.train, s2.train)

    def test_split_accessor_validates_name(self, toy_store):
        with pytest.raises(ConfigError):
            toy_store.split("dev")


def _reference_parse_file(path, entity_index, relation_index, filter_index):
    """The line-by-line parser that the whole-file loader replaced."""
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
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # the same line breaks as text mode
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return 0


def _reference_load(paths):
    """The old loader, plus the one rule the whole-file loader changed.

    Text mode decoded ahead of the parser in 8 KiB chunks, so a malformed
    line was reported before an undecodable byte only when the byte lay in
    a later chunk. The loader now reports the undecodable byte first.
    """
    entity_index, relation_index, filter_index = {}, {}, {}
    splits = []
    for path in paths:
        lineno = _undecodable_line(path)
        if lineno:
            raise ParseError(f"{path}:{lineno}: line is not valid UTF-8")
        splits.append(_reference_parse_file(path, entity_index,
                                            relation_index, filter_index))
    return entity_index, relation_index, splits, filter_index


_fields = st.lists(st.sampled_from(
    [b"a", b"b", b"c", b"a b", "é".encode(), "名前".encode(), b"/m/0x"]),
    min_size=3, max_size=3)
_good_line = _fields.map(b"\t".join)
# A bad line has a field too many or too few, or one field empty or cut
# from a multi-byte sequence.
_bad_line = st.one_of(
    _fields.flatmap(
        lambda f: st.sampled_from([f[:0], f[:1], f[:2], f + f[:1]])),
    st.tuples(_fields, st.integers(0, 2),
              st.sampled_from([b"", b"\xff", b"\xc3", b"\xe2\x82"])).map(
        lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),
).map(b"\t".join)
_breaks = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def _split_files(draw):
    """Bytes of one split: lines with mixed breaks, maybe a BOM, maybe a
    final break, maybe 1,400 valid lines (8.4 KB) between two groups.
    One file in four may hold bad lines, so most examples load."""
    line = (st.one_of(_good_line, _bad_line) if draw(st.integers(0, 3)) == 0
            else _good_line)
    lines = [text + draw(_breaks)
             for text in draw(st.lists(line, max_size=6))]
    if draw(st.booleans()):
        lines.insert(len(lines) // 2, (b"a\tr\tb" + draw(_breaks)) * 1400)
    data = b"".join(lines)
    if lines and draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if draw(st.booleans()):
        data = "\ufeff".encode() + data
    return data


_OK = b"a\tr\tb\n"
_PAST_8K = b"c\tr\td\n" * 1400


class TestLoaderMatchesLineByLine:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_split_files(), _split_files(), _split_files())
    @example(b"a\tr\tb\r\nb\tr\tc\r\n", b"a\tr\tc\rc\tr\tb\r", _OK)
    @example(b"a\tr\tb\nb\tr\tc", b"\xef\xbb\xbfa\tr\tb\n", b"")
    @example(_OK + _OK + "é\tr\t名前\n".encode(), _OK, _OK)
    @example(_OK + b"\n", _OK, _OK)
    @example(_OK, b"\ta\tb\n", _OK)
    @example(_OK, b"a\t\tb\n", _OK)
    @example(_OK, b"a\tb\t\n", _OK)
    @example(_OK + b"b\tr\t\xff\n" + _PAST_8K, _OK, _OK)
    @example(_OK, _PAST_8K + b"b\tr\t\xc3(\n", _OK)
    @example(_OK, b"a\tr\n" + _PAST_8K + b"\xe2\x82", _OK)
    def test_same_store_or_same_error(self, train, valid, test):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, data in (("train", train), ("valid", valid),
                               ("test", test)):
                path = Path(tmp) / f"{name}.txt"
                path.write_bytes(data)
                paths.append(str(path))
            try:
                expected = _reference_load(paths)
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    load_triples(*paths)
                assert str(info.value) == str(exc)
                return
            store = load_triples(*paths)
        entity_index, relation_index, splits, filter_index = expected
        assert list(store.entity_index.items()) == list(entity_index.items())
        assert (list(store.relation_index.items())
                == list(relation_index.items()))
        for name, rows in zip(("train", "valid", "test"), splits):
            got = store.split(name)
            assert got.dtype == np.int64 and np.array_equal(got, rows)
        # Equal triple counts rule out extra triples; the per-pair lists,
        # in ascending (h, r) order, give the same tails to the same pairs.
        index = store.filter_index
        assert index.codes.size == sum(len(t) for t in filter_index.values())
        assert ([tails.tolist() for tails in index.values()]
                == [sorted(filter_index[key]) for key in sorted(filter_index)])
        for (h, r), tails in filter_index.items():
            assert store.known_tails(h, r).tolist() == sorted(tails)


class TestFilterIndex:
    def test_pairs_tails_and_values(self):
        index = FilterIndex(np.array([[0, 0, 2], [0, 0, 1], [1, 1, 0],
                                      [0, 0, 2]]), 3, 2)
        known = {(h, r): index.known_tails(h, r).tolist()
                 for h in range(3) for r in range(2)}
        assert known == {(0, 0): [1, 2], (0, 1): [], (1, 0): [],
                         (1, 1): [0], (2, 0): [], (2, 1): []}
        assert index.tails.tolist() == [1, 2, 0]
        assert [tails.tolist() for tails in index.values()] == [[1, 2], [0]]
        # (0, 2) would alias the codes of (1, 0) if relations were not
        # checked against the vocabulary.
        for h, r in ((3, 0), (0, 2), (-1, 0)):
            assert index.known_tails(h, r).tolist() == []
        for tails in (index.tails, index.known_tails(0, 0),
                      next(index.values())):
            with pytest.raises(ValueError):
                tails[0] = 5
        assert list(FilterIndex(np.empty((0, 3)), 3, 2).values()) == []

    def test_spans_delimit_each_pairs_tails(self):
        store = build_toy_store(n_entities=9, n_relations=3, n_train=60)
        index = store.filter_index
        heads, relations = store.test[:, 0], store.test[:, 1]
        lo, hi = index.spans(heads, relations)
        triples = np.concatenate([store.train, store.valid, store.test])
        for h, r, a, b in zip(heads, relations, lo, hi):
            assert np.array_equal(index.tails[a:b], index.known_tails(h, r))
            pair = (triples[:, 0] == h) & (triples[:, 1] == r)
            assert index.tails[a:b].tolist() == sorted(set(triples[pair, 2]))

    def test_codes_that_would_overflow_int64_are_refused(self):
        # 2^63 - 1 = 49 · (2^63 - 1) / 49: with 7 entities, this many
        # relations put the last code at exactly 2^63 - 2.
        relations = np.iinfo(np.int64).max // 49
        index = FilterIndex(np.array([[6, relations - 1, 6]]), 7, relations)
        assert index.known_tails(6, relations - 1).tolist() == [6]
        for n_entities, n_relations in ((7, relations + 1), (2 ** 32, 2)):
            with pytest.raises(IncompatibilityError):
                FilterIndex(np.empty((0, 3)), n_entities, n_relations)


class TestCompose:
    """The composition step of ``KgModel.query``: Drop(Drop(h) + Drop(r))."""

    @staticmethod
    def model(dropout):
        # A fixed variant: the identity block routes nothing.
        model = KgModel(6, 3, TrainConfig(d=16, heads=2, seed=4,
                                          dropout=dropout,
                                          variant="euclidean"))
        model.block = _IdentityBlock()
        return model

    def test_eval_mode_is_exact_sum(self):
        model = self.model(0.9)
        heads, rels = np.array([0, 5, 2, 2]), np.array([1, 0, 2, 1])
        query, _ = model.query(heads, rels, training=False,
                               rng=np.random.default_rng(0))
        assert np.array_equal(query.data, model.entity_emb.data[heads]
                              + model.relation_emb.data[rels])

    def test_training_dropout_needs_a_generator(self):
        heads, rels = np.array([0, 5]), np.array([1, 0])
        with pytest.raises(ConfigError, match="needs a numpy Generator"):
            self.model(0.3).query(heads, rels, training=True)
        # Nothing to draw: dropout 0 or eval mode.
        for model, training in ((self.model(0.0), True),
                                (self.model(0.3), False)):
            query, _ = model.query(heads, rels, training=training)
            assert np.array_equal(query.data, model.entity_emb.data[heads]
                                  + model.relation_emb.data[rels])

    def test_an_integer_seed_is_refused(self):
        # Re-seeded at each of the three draws, a seed would give the
        # entity, relation and composite the same mask.
        with pytest.raises(ConfigError, match="needs a numpy Generator, got 5"):
            self.model(0.3).query(np.array([0, 5]), np.array([1, 0]),
                                  training=True, rng=5)

    def test_shape_mismatch_rejected(self):
        model = self.model(0.0)
        with pytest.raises(ShapeError):
            model.query(np.array([0, 1]), np.array([0, 1, 2]), training=True)

    def test_training_dropout_is_unbiased(self):
        model = self.model(0.4)
        model.entity_emb.data[...] = 2.0
        model.relation_emb.data[...] = 1.0
        rows = 16_000  # one independent draw of all three masks per row
        query, _ = model.query(np.zeros(rows, dtype=np.int64),
                               np.zeros(rows, dtype=np.int64), training=True,
                               rng=np.random.default_rng(1))
        mean = query.data.mean(axis=0)
        # Each entry has std ~3.4, so the pooled estimate is ~4.5 sigma
        # tight and each column's ~16 sigma.
        assert_allclose(mean.mean(), 3.0, rtol=0.01)
        assert_allclose(mean, 3.0, rtol=0.15)


# Every subset of the three dropout sites, as the written-out query
# below spells it.
SITE_SUBSETS = [",".join(subset) for k in range(4) for subset in
                itertools.combinations(("entity", "relation", "composite"), k)]
ALL_SITES = "entity,relation,composite"


class TestQueryDropoutSites:
    """``query`` drops entity, relation, then composite, from one rng; a
    query written out to drop at fewer sites is not the one it computes."""

    P = 0.3
    HEADS = np.array([0, 5, 9, 5, 11])
    RELS = np.array([1, 3, 0, 1, 2])

    def model(self):
        return KgModel(12, 4, TrainConfig(d=8, heads=2, seed=3,
                                          dropout=self.P))

    def reference(self, model, sites, rng, p=P):
        """The query written out from T.embedding and T.dropout, dropping
        at rate ``p`` at each of ``sites`` in the model's order."""
        h = T.embedding(model.entity_emb, self.HEADS)
        r = T.embedding(model.relation_emb, self.RELS)
        if "entity" in sites:
            h = T.dropout(h, p, rng=rng)
        if "relation" in sites:
            r = T.dropout(r, p, rng=rng)
        x = h + r
        if "composite" in sites:
            x = T.dropout(x, p, rng=rng)
        y, alpha = model.block.forward(x.reshape(5, 1, 8))
        return y.reshape(5, 8), alpha

    @pytest.mark.parametrize("sites", SITE_SUBSETS)
    def test_training_matches_the_written_out_query(self, sites):
        # Only the query dropping at all three sites is the model's.
        model = self.model()
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        query, alpha = model.query(self.HEADS, self.RELS, training=True,
                                   rng=rng)
        want, want_alpha = self.reference(model, sites.split(","), ref_rng)
        every = sites == ALL_SITES
        assert np.array_equal(query.data, want.data) == every
        assert np.array_equal(alpha.data, want_alpha.data) == every
        assert (rng.random() == ref_rng.random()) == every  # as many draws

    @pytest.mark.parametrize("sites", SITE_SUBSETS)
    def test_eval_mode_draws_nothing(self, sites):
        # Eval mode is the written-out query at rate 0, and a rate-0 site
        # draws nothing, whichever sites it passes through.
        model = self.model()
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        query, _ = model.query(self.HEADS, self.RELS, training=False, rng=rng)
        assert rng.bit_generator.state == state
        want, _ = self.reference(model, sites.split(","), rng, p=0.0)
        assert rng.bit_generator.state == state
        assert np.array_equal(query.data, want.data)

    @pytest.mark.parametrize("heads,rels", [
        ([[0, 1]], [[0, 1]]),          # 2-D pair of one shape
        ([[0], [1]], [0, 1]),          # 2-D heads
        ([0, 1], 1),                   # a scalar is a batch of one
        ([0, 1, 2], [0, 1]),
    ])
    def test_index_pair_must_be_1d_of_one_length(self, heads, rels):
        model = self.model()
        with pytest.raises(ShapeError, match="1-D and of one length"):
            model.query(np.array(heads), np.array(rels))
        with pytest.raises(ShapeError, match="1-D and of one length"):
            model.score(np.array(heads), np.array(rels), training=True,
                        rng=np.random.default_rng(0))


class _IdentityBlock:
    """Pass-through block: isolates the embedding/scoring arithmetic. It
    returns no routing weights, so it stands in for a fixed variant's."""

    def forward(self, x):
        return x, None

    def parameters(self):
        return {}


class TestModelScoring:
    def setup_method(self):
        self.cfg = TrainConfig(d=8, heads=2, seed=3, dropout=0.0)

    def test_needs_two_entities(self):
        with pytest.raises(ConfigError):
            KgModel(1, 1, self.cfg)

    def test_logit_shapes_and_alpha(self):
        model = KgModel(10, 3, self.cfg)
        logits, alpha = model.score(np.array([0, 1]), np.array([0, 2]))
        assert logits.shape == (2, 10)
        assert alpha.shape == (2, 1, 3)

    def test_fixed_variant_has_no_alpha(self):
        cfg = TrainConfig(d=8, heads=2, seed=3, variant="euclidean")
        model = KgModel(10, 3, cfg)
        _, alpha = model.score(np.array([0]), np.array([0]))
        assert alpha is None

    def test_identity_block_reduces_to_embedding_dot(self):
        model = KgModel(12, 4, TrainConfig(d=8, heads=2, seed=3, dropout=0.0,
                                           variant="euclidean"))
        model.block = _IdentityBlock()
        E = model.entity_emb.data
        R = model.relation_emb.data
        logits, _ = model.score(np.array([3, 7]), np.array([1, 2]))
        expected = (E[[3, 7]] + R[[1, 2]]) @ E.T
        assert_allclose(logits.data, expected, rtol=0, atol=1e-12)

    def test_score_matches_step_by_step_transcription(self):
        model = KgModel(12, 4, self.cfg)
        heads = np.array([0, 5, 9])
        rels = np.array([1, 3, 0])
        x = model.entity_emb.data[heads] + model.relation_emb.data[rels]
        y, alpha = model.block.forward(Tensor(x.reshape(3, 1, 8)))
        expected = y.data.reshape(3, 8) @ model.entity_emb.data.T
        logits, _ = model.score(heads, rels)
        assert_allclose(logits.data, expected, rtol=0, atol=1e-12)

    def test_score_is_the_head_over_the_query(self):
        model = KgModel(12, 4, self.cfg)
        heads, rels = np.array([0, 5, 9]), np.array([1, 3, 0])
        query, alpha = model.query(heads, rels)
        logits, score_alpha = model.score(heads, rels)
        assert query.shape == (3, 8)
        assert np.array_equal(logits.data,
                              T.inner(query, model.entity_emb).data)
        assert np.array_equal(alpha.data, score_alpha.data)

    def test_score_all_tails_is_one_row(self):
        model = KgModel(12, 4, self.cfg)
        row = score_all_tails(model, 2, 1)
        logits, _ = model.score(np.array([2]), np.array([1]))
        assert np.array_equal(row, logits.data[0])

    def test_out_of_range_indices(self):
        model = KgModel(10, 3, self.cfg)
        with pytest.raises(IndexLookupError):
            model.score(np.array([0]), np.array([3]))
        with pytest.raises(IndexLookupError):
            model.score(np.array([10]), np.array([0]))

    def test_each_bound_names_its_table_head_first(self):
        model = KgModel(10, 3, self.cfg)
        for heads, rels, rows in (([0], [-1], 3), ([10], [0], 10),
                                  ([10], [3], 10)):
            with pytest.raises(IndexLookupError,
                               match=f"table with {rows} rows"):
                model.score(np.array(heads), np.array(rels))

    def test_eval_scoring_is_deterministic(self):
        model = KgModel(10, 3, self.cfg)
        a, _ = model.score(np.array([1]), np.array([1]))
        b, _ = model.score(np.array([1]), np.array([1]))
        assert np.array_equal(a.data, b.data)

    def test_cat_training_step_tape_stays_small(self):
        # One fused node per affine map, layer norm, GELU and norm, and one
        # closed form per branch for the lone token: 49 nodes. The general
        # attention path takes 178, and chains of primitives took 262.
        cfg = TrainConfig(d=8, heads=2, seed=3)
        model = KgModel(12, 4, cfg)
        with T.Tape() as tape:
            logits, alpha = model.score(np.array([0, 5, 9]),
                                        np.array([1, 3, 0]), training=True,
                                        rng=np.random.default_rng(0))
            ce = smoothed_ce_loss(logits, [2, 4, 6])
            loss = total_loss(ce, routing_entropy(alpha), 0.01)
        assert len(tape) <= 60
        tape.backward(loss)
        assert np.isfinite(model.entity_emb.grad).all()
        # Only the projections a lone token's softmax cancels get no gradient.
        idle = {name for name, p in model.parameters().items()
                if p.grad is None}
        assert idle == {f"block.{branch}.{proj}.{kind}"
                        for branch, proj in (("euclidean", "wq"),
                                             ("euclidean", "wk"),
                                             ("hyperbolic", "wq"))
                        for kind in ("weight", "bias")}

    def test_leaf_gradients_share_no_memory(self):
        model = KgModel(12, 4, TrainConfig(d=8, heads=2, seed=3))
        logits_buf = np.empty((4, 12))
        with T.Tape() as tape:
            logits, alpha = model.score(np.array([0, 5, 9, 5]),
                                        np.array([1, 3, 0, 2]), training=True,
                                        rng=np.random.default_rng(0),
                                        out=logits_buf)
            ce = smoothed_ce_loss(logits, [2, 4, 6, 11], in_place=True)
            loss = total_loss(ce, routing_entropy(alpha), 0.01)
        tape.backward(loss)
        grads = [p.grad for p in model.parameters().values()
                 if p.grad is not None]
        for i, g in enumerate(grads):
            assert not np.shares_memory(g, logits_buf)
            assert not any(np.shares_memory(g, h) for h in grads[i + 1:])

    def _training_step(self, model, out=None, clobber=False):
        """Logits and every parameter gradient of one seeded `cat` step.

        With ``clobber`` the logits buffer is filled with NaN between the
        forward pass and the backward pass.
        """
        for p in model.parameters().values():
            p.grad = None
        with T.Tape() as tape:
            logits, alpha = model.score(np.array([0, 5, 9, 5]),
                                        np.array([1, 3, 0, 2]), training=True,
                                        rng=np.random.default_rng(0), out=out)
            ce = smoothed_ce_loss(logits, [2, 4, 6, 11])
            loss = total_loss(ce, routing_entropy(alpha), 0.01)
        value = logits.data.copy()
        if clobber:
            out.fill(np.nan)
        tape.backward(loss)
        return logits, value, {k: p.grad
                               for k, p in model.parameters().items()}

    def test_score_into_a_buffer_matches_a_new_array(self):
        model = KgModel(12, 4, TrainConfig(d=8, heads=2, seed=3))
        _, ref_value, ref_grads = self._training_step(model)
        buf = np.empty((4, 12))
        logits, value, grads = self._training_step(model, out=buf)
        assert np.shares_memory(logits.data, buf)
        assert np.array_equal(value, ref_value)
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), name

    def test_backward_never_reads_the_logits_buffer(self):
        model = KgModel(12, 4, TrainConfig(d=8, heads=2, seed=3))
        _, _, ref_grads = self._training_step(model)
        _, _, grads = self._training_step(model, out=np.empty((4, 12)),
                                          clobber=True)
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), name

    @pytest.mark.parametrize("buf", [
        np.empty((2, 9)),              # vocabulary of another model
        np.empty((3, 10)),             # batch of another size
        np.empty((2, 10), np.float32),
        np.empty((2, 10), order="F"),
        np.empty((2, 20))[:, ::2],
    ])
    def test_bad_out_buffer_is_rejected(self, buf):
        model = KgModel(10, 3, self.cfg)
        with pytest.raises(ShapeError):
            model.score(np.array([0, 1]), np.array([0, 2]), out=buf)

    def test_non_integer_indices_are_rejected(self):
        model = KgModel(10, 3, self.cfg)
        with pytest.raises(IndexLookupError):
            model.score(np.array([1.9]), np.array([0]))
        with pytest.raises(IndexLookupError):
            model.score(np.array([1]), np.array([0.5]))
        ref, _ = model.score([1, 2], [0, 2])
        narrow, _ = model.score(np.array([1, 2], np.int32),
                                np.array([0, 2], np.int32))
        assert np.array_equal(narrow.data, ref.data)

    def test_parameter_count_adds_up(self):
        model = KgModel(10, 3, self.cfg)
        from catkg.attention import parameter_count as block_count
        assert model.parameter_count() == (10 * 8 + 3 * 8
                                           + block_count(model.block))


class _RowCountingBlock:
    """Wraps a block and records the rows of every forward it runs."""

    def __init__(self, block):
        self.block, self.rows = block, []

    def forward(self, x):
        self.rows.append(x.shape[0])
        return self.block.forward(x)


class TestEvalQueryHalves:
    """An untaped eval-mode query whose scores reach tensor.BESIDE_FROM
    runs its block over the two row parts of tensor.in_halves, the second
    beside the first, and gives each row the bits of one forward over the
    whole batch."""

    # At d = 32 the rows of a 37-row batch split as [0, 19) and the rest
    # get other bits than in one forward, in every variant.
    N_ENTITIES, N_RELATIONS = 40, 5

    def model(self, variant="cat"):
        return KgModel(self.N_ENTITIES, self.N_RELATIONS,
                       TrainConfig(d=32, heads=2, seed=6, variant=variant))

    def batch(self, b):
        rng = np.random.default_rng(b)
        return (rng.integers(0, self.N_ENTITIES, b),
                rng.integers(0, self.N_RELATIONS, b))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("b", [37, 64])
    @pytest.mark.parametrize("variant", ["cat", "euclidean", "hyperbolic",
                                         "spherical"])
    def test_halves_give_the_bits_of_the_whole_batch(self, monkeypatch,
                                                     variant, b, cpus):
        model = self.model(variant)
        heads, rels = self.batch(b)
        use_cpus(monkeypatch, cpus)
        with monkeypatch.context() as m:
            m.setattr(T, "BESIDE_FROM", math.inf)
            want, want_alpha = model.query(heads, rels)
        monkeypatch.setattr(T, "BESIDE_FROM", 1)
        sizes = record_beside(monkeypatch)
        query, alpha = model.query(heads, rels)
        logits, score_alpha = model.score(heads, rels)
        # The head splits its own rows, so it is compared on one rule.
        head = T.inner(want, model.entity_emb)
        # query, then score's query and its head, then the reference head.
        assert sizes == [b * self.N_ENTITIES] * 4
        assert query.requires_grad is False
        assert np.array_equal(query.data, want.data)
        assert np.array_equal(logits.data, head.data)
        for got in (alpha, score_alpha):
            if want_alpha is None:
                assert got is None and variant != "cat"
            else:
                assert np.array_equal(got.data, want_alpha.data)

    @pytest.mark.parametrize("b,rows", [
        (1, [1]), (17, [17]), (18, [16, 2]), (33, [33]), (37, [32, 5]),
        (64, [32, 32]), (1010, [512, 498])])
    def test_the_first_half_is_whole_tiles(self, monkeypatch, b, rows):
        # A row keeps its bits where its GEMM tile keeps its place, and a
        # one-row half would run as a GEMV, so such a batch stays whole.
        # On one CPU the halves run in turn, so their order shows.
        model = self.model()
        model.block = _RowCountingBlock(model.block)
        use_cpus(monkeypatch, 1)
        monkeypatch.setattr(T, "BESIDE_FROM", 1)
        model.query(*self.batch(b))
        assert model.block.rows == rows

    def test_training_mode_stays_whole(self, monkeypatch):
        model = self.model()
        model.block = _RowCountingBlock(model.block)
        monkeypatch.setattr(T, "BESIDE_FROM", 1)
        model.query(*self.batch(64), training=True,
                    rng=np.random.default_rng(0))
        assert model.block.rows == [64]

    def tape_grads(self, monkeypatch, threshold):
        """Every parameter gradient of a taped eval-mode score and loss,
        with tensor.BESIDE_FROM at ``threshold``. The head splits 64 rows
        into halves of 32, which keep the bits of the whole GEMM."""
        model = self.model()
        heads, rels = self.batch(64)
        with monkeypatch.context() as m:
            use_cpus(m, 2)
            m.setattr(T, "BESIDE_FROM", threshold)
            with T.Tape() as tape:
                logits, alpha = model.score(heads, rels)
                loss = total_loss(smoothed_ce_loss(logits, heads),
                                  routing_entropy(alpha), 0.01)
            tape.backward(loss)
        return {name: p.grad for name, p in model.parameters().items()}

    def test_a_taped_eval_forward_stays_whole(self, monkeypatch):
        split = self.tape_grads(monkeypatch, 1)
        whole = self.tape_grads(monkeypatch, math.inf)
        assert split["relation_emb"] is not None
        assert split["block.router.lin2.weight"] is not None
        assert split.keys() == whole.keys()
        for name, g in split.items():
            assert (g is None) == (whole[name] is None), name
            assert g is None or np.array_equal(g, whole[name]), name

    def test_route_export_writes_the_same_bytes(self, monkeypatch,
                                                tmp_path):
        store = build_toy_store(n_entities=self.N_ENTITIES,
                                n_relations=self.N_RELATIONS, n_train=200,
                                n_test=37)
        model = self.model()
        written = []
        for threshold in (1, math.inf):
            with monkeypatch.context() as m:
                m.setattr(T, "BESIDE_FROM", threshold)
                sizes = record_beside(m)
                path = tmp_path / f"routing-{threshold}.tsv"
                export_routing(model, store, "test", path)
            written.append(path.read_bytes())
            assert sizes == ([37 * self.N_ENTITIES] if threshold == 1
                             else [])
        assert written[0] == written[1]


def _affine(name, d_in, d_out):
    return [(f"{name}.weight", (d_in, d_out)), (f"{name}.bias", (d_out,))]


# Every tensor of each branch at d=64 (4 heads, feed-forward width 128),
# in the order checkpoints store them.
_BRANCHES = {
    "euclidean": (_affine("wq", 64, 64) + _affine("wk", 64, 64)
                  + _affine("wv", 64, 64) + _affine("wo", 64, 64)
                  + [("ln1.gamma", (64,)), ("ln1.beta", (64,)),
                     ("ln2.gamma", (64,)), ("ln2.beta", (64,))]
                  + _affine("ff.lin1", 64, 128) + _affine("ff.lin2", 128, 64)),
    "hyperbolic": (_affine("wq", 64, 64) + _affine("wv", 64, 64)
                   + _affine("ff.lin1", 64, 128)
                   + _affine("ff.lin2", 128, 64)),
    "spherical": _affine("ff.lin1", 65, 128) + _affine("ff.lin2", 128, 64),
    "router": _affine("lin1", 64, 64) + _affine("lin2", 64, 3),
}


class TestParameterInventory:
    """Names, order and shapes of every variant at the FB15k-237 size.

    They are the optimizer's state keys and the checkpoint's tensor
    names: a renamed attribute or a stray tensor attribute fails here.
    """

    @pytest.mark.parametrize("variant,parts,n_tensors,n_values", [
        ("cat", ("euclidean", "hyperbolic", "spherical", "router"),
         34, 1_025_219),
        ("euclidean", ("euclidean",), 18, 979_264),
        ("hyperbolic", ("hyperbolic",), 10, 970_688),
        ("spherical", ("spherical",), 6, 962_496),
    ])
    def test_ordered_names_and_shapes(self, variant, parts, n_tensors,
                                      n_values):
        model = KgModel(14541, 237, TrainConfig(d=64, variant=variant))
        expected = [("entity_emb", (14541, 64)), ("relation_emb", (237, 64))]
        for part in parts:
            expected += [(f"block.{part}.{name}", shape)
                         for name, shape in _BRANCHES[part]]
        params = model.parameters()
        assert [(k, p.shape) for k, p in params.items()] == expected
        assert len(params) == n_tensors
        assert model.parameter_count() == n_values
        assert all(p.requires_grad for p in params.values())

    def test_checkpoint_names_and_shapes_are_pinned(self):
        # load_model matches CATW tensors by name, so a constructor that
        # renames or reshapes a tensor breaks every saved checkpoint.
        def pairs(variant):
            model = KgModel(10, 3, TrainConfig(d=8, heads=2, variant=variant))
            return sorted((k, p.shape) for k, p in model.parameters().items())

        cat = pairs("cat")
        assert cat == [
            ("block.euclidean.ff.lin1.bias", (16,)),
            ("block.euclidean.ff.lin1.weight", (8, 16)),
            ("block.euclidean.ff.lin2.bias", (8,)),
            ("block.euclidean.ff.lin2.weight", (16, 8)),
            ("block.euclidean.ln1.beta", (8,)),
            ("block.euclidean.ln1.gamma", (8,)),
            ("block.euclidean.ln2.beta", (8,)),
            ("block.euclidean.ln2.gamma", (8,)),
            ("block.euclidean.wk.bias", (8,)),
            ("block.euclidean.wk.weight", (8, 8)),
            ("block.euclidean.wo.bias", (8,)),
            ("block.euclidean.wo.weight", (8, 8)),
            ("block.euclidean.wq.bias", (8,)),
            ("block.euclidean.wq.weight", (8, 8)),
            ("block.euclidean.wv.bias", (8,)),
            ("block.euclidean.wv.weight", (8, 8)),
            ("block.hyperbolic.ff.lin1.bias", (16,)),
            ("block.hyperbolic.ff.lin1.weight", (8, 16)),
            ("block.hyperbolic.ff.lin2.bias", (8,)),
            ("block.hyperbolic.ff.lin2.weight", (16, 8)),
            ("block.hyperbolic.wq.bias", (8,)),
            ("block.hyperbolic.wq.weight", (8, 8)),
            ("block.hyperbolic.wv.bias", (8,)),
            ("block.hyperbolic.wv.weight", (8, 8)),
            ("block.router.lin1.bias", (8,)),
            ("block.router.lin1.weight", (8, 8)),
            ("block.router.lin2.bias", (3,)),
            ("block.router.lin2.weight", (8, 3)),
            ("block.spherical.ff.lin1.bias", (16,)),
            ("block.spherical.ff.lin1.weight", (9, 16)),
            ("block.spherical.ff.lin2.bias", (8,)),
            ("block.spherical.ff.lin2.weight", (16, 8)),
            ("entity_emb", (10, 8)),
            ("relation_emb", (3, 8)),
        ]
        tables = [("entity_emb", (10, 8)), ("relation_emb", (3, 8))]
        for variant in ("euclidean", "hyperbolic", "spherical"):
            branch = [pair for pair in cat
                      if pair[0].startswith(f"block.{variant}.")]
            assert pairs(variant) == branch + tables

    @pytest.mark.parametrize("variant", ["cat", "hyperbolic"])
    def test_ball_has_the_one_model_curvature(self, variant):
        # No checkpoint tensor records c, so no config key may set it.
        model = KgModel(10, 3, TrainConfig(d=8, heads=2, variant=variant))
        ball = model.block.hyperbolic
        assert ball.c == 1.0
        assert ball.r_max == math.atanh(1.0 - M.BOUNDARY_EPS)


class TestSmoothedCE:
    def test_uniform_logits_cost_ln_n_at_any_smoothing(self):
        # The target row always sums to 1, so constant log-probs of -ln n
        # integrate to exactly ln n.
        for eps in (0.0, 0.1, 0.3):
            loss = smoothed_ce_loss(Tensor(np.zeros((2, 4))), [1, 3],
                                    epsilon=eps)
            assert abs(float(loss.data) - math.log(4)) < 1e-14

    def test_zero_smoothing_is_plain_nll(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(7, size=5)
        loss = smoothed_ce_loss(Tensor(logits), targets, epsilon=0.0)
        logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True))
                               .sum(-1, keepdims=True)) - logits.max(
                                   -1, keepdims=True)
        expected = -logp[np.arange(5), targets].mean()
        assert_allclose(float(loss.data), expected, rtol=1e-12)

    def test_hand_computed_smoothed_value(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        z = np.log(np.exp(logits).sum())
        logp = logits[0] - z
        expected = -(0.9 * logp[0] + 0.05 * logp[1] + 0.05 * logp[2])
        loss = smoothed_ce_loss(Tensor(logits), [0], epsilon=0.1)
        assert_allclose(float(loss.data), expected, rtol=1e-12)

    def test_batch_average(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(6, size=4)
        whole = float(smoothed_ce_loss(Tensor(logits), targets).data)
        singles = [float(smoothed_ce_loss(Tensor(logits[i:i + 1]),
                                          targets[i:i + 1]).data)
                   for i in range(4)]
        assert_allclose(whole, np.mean(singles), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            smoothed_ce_loss(Tensor(np.zeros((1, 4))), [0], epsilon=1.0)
        with pytest.raises(ConfigError):
            smoothed_ce_loss(Tensor(np.zeros((1, 4))), [0], epsilon=-0.1)
        with pytest.raises(ConfigError):
            smoothed_ce_loss(Tensor(np.zeros((1, 1))), [0])
        with pytest.raises(IndexLookupError):
            smoothed_ce_loss(Tensor(np.zeros((1, 4))), [4])

    @pytest.mark.parametrize("shape, targets", [
        ((2, 4), [1]),           # fewer targets than rows
        ((2, 4), [1, 2, 3]),     # more targets than rows
        ((2, 4), [[1], [2]]),    # one column of targets, not a vector
        ((4,), [1]),             # logits without a batch axis
        ((1, 2, 4), [1]),        # logits with an extra axis
        ((0, 4), []),            # no rows at all
    ])
    def test_logits_and_targets_must_pair_up(self, shape, targets):
        with pytest.raises(ShapeError):
            smoothed_ce_loss(Tensor(np.zeros(shape)), targets)

    def test_non_integer_targets_are_rejected(self):
        # A cast would truncate [1.9, 0.5] to [1, 0] and return that loss.
        logits = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        with pytest.raises(IndexLookupError, match="integers"):
            smoothed_ce_loss(logits, [1.9, 0.5])
        ref = smoothed_ce_loss(logits, [1, 0])
        narrow = smoothed_ce_loss(logits, np.array([1, 0], np.int32))
        assert float(narrow.data) == float(ref.data)

    def test_large_logits_match_the_dense_target_formula(self):
        # With 1000 classes and logits of scale 50, sum(x) - n * shift
        # cancels heavily; the value must still match the dense form.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 1000)) * 50.0
        targets = rng.integers(1000, size=6)
        shifted = x - x.max(-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
        y = np.full(x.shape, 0.1 / 999)
        y[np.arange(6), targets] = 0.9
        expected = -(y * logp).sum(-1).mean()
        loss = float(smoothed_ce_loss(Tensor(x), targets, 0.1).data)
        assert abs(loss - expected) <= 1e-12 * abs(expected)

    def test_logits_are_left_untouched(self):
        x = np.random.default_rng(3).normal(size=(3, 5))
        logits = Tensor(x.copy(), requires_grad=True)
        with T.Tape() as tape:
            loss = smoothed_ce_loss(logits, [0, 2, 4])
        tape.backward(loss)
        assert np.array_equal(logits.data, x)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("batch, n, budget", [
        (4, 7, None),       # one block
        (12, 9, 27),        # three rows per block
        (8, 14541, None),   # the module's budget: blocks of 6 and 2 rows
        (37, 7085, None),   # two row halves of several blocks each
    ])
    def test_logits_as_buffer_match_a_separate_buffer(self, monkeypatch, eps,
                                                      batch, n, budget):
        if budget is not None:
            monkeypatch.setattr(kg_mod, "CE_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(batch + n)
        x = rng.normal(size=(batch, n)) * 30.0
        targets = rng.integers(n, size=batch)
        results = []
        for in_place in (False, True):
            logits = Tensor(x.copy(), requires_grad=True)
            with T.Tape() as tape:
                loss = smoothed_ce_loss(logits, targets, eps,
                                        in_place=in_place)
            tape.backward(loss)
            results.append((loss.data, logits.grad))
        (loss, grad), (in_place_loss, in_place_grad) = results
        assert in_place_loss == loss
        assert np.array_equal(in_place_grad, grad)

    def test_logits_as_buffer_without_gradient_give_the_value(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(7, 9)) * 3.0
        targets = rng.integers(9, size=7)
        ref = smoothed_ce_loss(Tensor(x), targets, 0.1)
        logits = Tensor(x.copy())
        assert smoothed_ce_loss(logits, targets, 0.1,
                                in_place=True).data == ref.data

    def test_gradient(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        err = grad_check(lambda t: smoothed_ce_loss(t, [0, 2, 4],
                                                    epsilon=0.1), [logits])
        assert err < 1e-6

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_matches_the_dense_target_formula(self, eps):
        # Reference: build the (B, n) target and take -mean(sum(y * logp));
        # its gradient is (softmax - y) / B.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 5)) * 3.0
        targets = np.array([0, 3, 3, 4])
        shifted = x - x.max(-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
        y = np.full(x.shape, eps / 4)
        y[np.arange(4), targets] = 1.0 - eps
        logits = Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            loss = smoothed_ce_loss(logits, targets, epsilon=eps)
        assert len(tape) == 1
        tape.backward(loss)
        assert abs(float(loss.data) + (y * logp).sum(-1).mean()) < 1e-12
        assert np.abs(logits.grad - (np.exp(logp) - y) / 4).max() < 1e-12
        err = grad_check(lambda t: smoothed_ce_loss(t, targets, epsilon=eps),
                         [Tensor(x)])
        assert err < 1e-6


    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("batch, n, budget", [
        (5, 9, 9),          # one row per block
        (12, 9, 27),        # three rows per block
        (7, 9, 27),         # a last block of one row
        (3, 40, 16),        # rows wider than the whole budget
        (8, 14541, None),   # the module's budget: blocks of 6 and 2 rows
    ])
    def test_blocks_match_the_whole_array_passes(self, monkeypatch, eps,
                                                 batch, n, budget):
        if budget is not None:
            monkeypatch.setattr(kg_mod, "CE_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(batch * n)
        x = rng.normal(size=(batch, n)) * 30.0
        targets = rng.integers(n, size=batch)
        ref_loss, ref_grad = unblocked_smoothed_ce(x, targets, eps)
        for in_place in (False, True):
            logits = Tensor(x.copy(), requires_grad=True)
            with T.Tape() as tape:
                loss = smoothed_ce_loss(logits, targets, eps,
                                        in_place=in_place)
            assert len(tape) == 1
            tape.backward(loss)
            assert loss.data == ref_loss
            assert np.array_equal(logits.grad, ref_grad)

    # B·n reaches tensor.BESIDE_FROM. The whole pass's CE blocks (13 and
    # 192 rows) put rows [13, 26) and [192, 384) across the halves' border.
    @pytest.mark.parametrize("batch, n", [(37, 7085), (512, 512)],
                             ids=["odd_b", "b512"])
    @pytest.mark.parametrize("cpus, split", [(1, True), (2, True),
                                             (2, False)],
                             ids=["one_cpu", "two_cpus", "whole"])
    def test_halves_match_the_whole_array_passes(self, monkeypatch, batch, n,
                                                 cpus, split):
        assert batch * n >= T.BESIDE_FROM
        use_cpus(monkeypatch, cpus)
        if not split:
            monkeypatch.setattr(T, "BESIDE_FROM", batch * n + 1)
        sizes = record_beside(monkeypatch)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(batch, n)) * 30.0
        targets = rng.integers(n, size=batch)
        ref_loss, ref_grad = unblocked_smoothed_ce(x, targets, 0.1)
        for in_place in (False, True):
            sizes.clear()
            logits = Tensor(x.copy(), requires_grad=True)
            with T.Tape() as tape:
                loss = smoothed_ce_loss(logits, targets, 0.1,
                                        in_place=in_place)
            tape.backward(loss)
            assert sizes == ([batch * n] if split else [])
            assert loss.data == ref_loss
            assert np.array_equal(logits.grad, ref_grad)

    def test_upstream_gradient_scales_the_unit_gradient(self, monkeypatch):
        monkeypatch.setattr(kg_mod, "CE_BLOCK_ELEMENTS", 18)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 9)) * 3.0
        targets = rng.integers(9, size=5)
        grads = []
        for weight in (None, 2.5):
            logits = Tensor(x, requires_grad=True)
            with T.Tape() as tape:
                ce = smoothed_ce_loss(logits, targets, 0.1)
                loss = ce if weight is None else weight * ce
            tape.backward(loss)
            grads.append(logits.grad)
        unit, scaled = grads
        assert_allclose(scaled, 2.5 * unit, rtol=1e-15, atol=0)
        err = grad_check(lambda t: 2.5 * smoothed_ce_loss(t, targets, 0.1),
                         [Tensor(x)])
        assert err < 1e-6

    def test_logits_without_gradient_give_the_value(self, monkeypatch):
        monkeypatch.setattr(kg_mod, "CE_BLOCK_ELEMENTS", 18)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(7, 9)) * 3.0
        targets = rng.integers(9, size=7)
        ref_loss, _ = unblocked_smoothed_ce(x, targets, 0.1)
        for in_place in (False, True):
            with T.Tape() as tape:
                loss = smoothed_ce_loss(Tensor(x.copy()), targets, 0.1,
                                        in_place=in_place)
            assert loss.data == ref_loss
            assert not loss.requires_grad and len(tape) == 0

    def test_allocates_less_than_a_block(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(64, 20000))
        targets = rng.integers(20000, size=64)
        for in_place in (False, True):
            logits = Tensor(x.copy(), requires_grad=True)
            # A new gradient array is one allocation of the logits' size.
            budget = 0 if in_place else x.nbytes
            tracemalloc.start()
            try:
                with T.Tape() as tape:
                    # Recorded as made on the tape, the logits are no leaf,
                    # so the backward copies their gradient nowhere.
                    tape.record(logits, (), lambda g: ())
                    loss = smoothed_ce_loss(logits, targets, 0.1,
                                            in_place=in_place)
                tape.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < budget + kg_mod.CE_BLOCK_ELEMENTS * 8 + 64 * 1024


class TestRoutingEntropy:
    def test_uniform_routing_is_ln3(self):
        alpha = Tensor(np.full((5, 1, 3), 1.0 / 3.0))
        assert abs(float(routing_entropy(alpha).data) - LN3) < 5e-16

    def test_one_hot_routing_is_exactly_zero(self):
        alpha = np.zeros((4, 1, 3))
        alpha[..., 2] = 1.0
        assert float(routing_entropy(Tensor(alpha)).data) == 0.0

    def test_mean_over_tokens(self):
        rows = np.zeros((2, 1, 3))
        rows[0] = 1.0 / 3.0
        rows[1, 0, 0] = 1.0
        assert_allclose(float(routing_entropy(Tensor(rows)).data), LN3 / 2,
                        rtol=0, atol=1e-15)

    def test_bounds_on_random_simplex_points(self):
        rng = np.random.default_rng(5)
        raw = rng.exponential(size=(500, 1, 3))
        alpha = raw / raw.sum(-1, keepdims=True)
        h = float(routing_entropy(Tensor(alpha)).data)
        assert 0.0 <= h <= LN3 + 1e-15
        per_row = -(alpha * np.log(alpha)).sum(-1)
        assert (per_row >= 0).all() and (per_row <= LN3 + 1e-15).all()

    def test_gradient_on_interior_points(self):
        rng = np.random.default_rng(6)
        raw = rng.exponential(size=(4, 1, 3)) + 0.2
        alpha = Tensor(raw / raw.sum(-1, keepdims=True), requires_grad=True)
        assert grad_check(routing_entropy, [alpha]) < 1e-6


class TestTotalLoss:
    def test_subtract_rewards_entropy(self):
        ce = Tensor(np.array(2.0))
        out = total_loss(ce, Tensor(np.array(LN3)), 0.01)
        assert_allclose(float(out.data), 2.0 - 0.01 * LN3, rtol=1e-15)

    def test_uniform_vs_one_hot_gap_is_lambda_ln3(self):
        ce = Tensor(np.array(1.5))
        uniform = routing_entropy(Tensor(np.full((1, 1, 3), 1 / 3)))
        onehot = routing_entropy(Tensor(np.eye(3)[0].reshape(1, 1, 3)))
        gap = (float(total_loss(ce, onehot, 0.01).data)
               - float(total_loss(ce, uniform, 0.01).data))
        assert_allclose(gap, 0.01 * LN3, rtol=1e-12)

    def test_zero_lambda_is_ce_exactly(self):
        ce = Tensor(np.array(1.25))
        out = total_loss(ce, Tensor(np.array(0.7)), 0.0)
        assert float(out.data) == 1.25

    def test_validation(self):
        ce, h = Tensor(np.array(1.0)), Tensor(np.array(0.5))
        for lam in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                total_loss(ce, h, lam)


def brute_force_rank(scores, t, known_tails):
    """Literal enumeration of the filtered-rank definition."""
    rank = 1
    for i, s in enumerate(scores):
        if i == t or (i in known_tails and i != t):
            continue
        if s >= scores[t]:
            rank += 1
    return rank


class TestFilteredRank:
    def test_hand_case_with_filtering(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0])
        # entity 0 outranks t=2 but is a known tail, so it is skipped
        assert filtered_rank(scores, 2, {0, 2}) == 2
        assert filtered_rank(scores, 2, set()) == 3

    def test_best_score_ranks_first(self):
        assert filtered_rank(np.array([0.0, 9.0, 1.0]), 1, set()) == 1

    def test_ties_count_against_the_target(self):
        assert filtered_rank(np.array([1.0, 1.0, 1.0]), 0, set()) == 3

    def test_target_never_masks_itself(self):
        scores = np.array([1.0, 2.0, 3.0])
        assert filtered_rank(scores, 2, {2}) == 1

    def test_filtering_never_hurts(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            scores = rng.normal(size=n)
            t = int(rng.integers(n))
            known = set(map(int, rng.integers(n, size=rng.integers(0, n))))
            known.add(t)
            assert (filtered_rank(scores, t, known)
                    <= filtered_rank(scores, t, {t}))

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            scores = rng.normal(size=n)
            if rng.random() < 0.3:  # force ties sometimes
                scores = np.round(scores)
            t = int(rng.integers(n))
            known = set(map(int, rng.integers(n, size=rng.integers(0, n + 1))))
            known.add(t)
            assert filtered_rank(scores, t, known) == brute_force_rank(
                scores, t, known)


class _FixedScoreModel:
    """Duck-typed stand-in returning pre-set score rows: ``rows[i]`` for
    the (head, relation) pair of ``triples[i]``, however many rows each
    score call asks for. Triples of one pair must have equal rows."""

    def __init__(self, rows, triples):
        rows = np.asarray(rows, dtype=np.float64)
        assert len(rows) == len(triples)
        self.rows = {}
        for row, (h, r, _) in zip(rows, np.asarray(triples).tolist()):
            kept = self.rows.setdefault((h, r), row)
            assert np.array_equal(kept, row, equal_nan=True)

    def score(self, heads, relations, training=False, rng=None, out=None):
        pairs = zip(np.asarray(heads).tolist(), np.asarray(relations).tolist())
        return Tensor(np.array([self.rows[pair] for pair in pairs])), None


# Where evaluate's finiteness scan runs, as (CPUs the process may use,
# tensor.BESIDE_FROM or None for the package's value, whether the scan
# runs on the helper thread).
CHECK_PATHS = {"helper": (2, 1, True), "below": (2, None, False),
               "one_cpu": (1, 1, False)}


class TestEvaluate:
    def check_on(self, monkeypatch, cpus, threshold=None):
        """Let the process use ``cpus`` CPUs and, unless None, set
        tensor.BESIDE_FROM to ``threshold``. The returned list gets the
        name of the thread that ran each batch's finiteness scan."""
        use_cpus(monkeypatch, cpus)
        if threshold is not None:
            monkeypatch.setattr(T, "BESIDE_FROM", threshold)
        ran_on = []
        scan = kg_mod._first_nonfinite_row

        def spy(scores, flags):
            ran_on.append(threading.current_thread().name)
            return scan(scores, flags)

        monkeypatch.setattr(kg_mod, "_first_nonfinite_row", spy)
        return ran_on

    @staticmethod
    def assert_ran_on(ran_on, helper):
        caller = threading.current_thread().name
        assert ran_on
        assert all(name.startswith("catkg-helper") if helper
                   else name == caller for name in ran_on)

    def test_check_threshold_sits_between_the_umls_and_fb_batches(self):
        # UMLS's largest split against FB15k-237's valid view and test
        # batch; evaluate's scan runs beside from tensor.BESIDE_FROM scores.
        assert (661 * 135 < T.BESIDE_FROM
                <= 256 * 14541 <= kg_mod.EVAL_BATCH * 14541)

    def test_mrr_and_hits_arithmetic(self):
        # ranks engineered to be 1, 2, 4 -> MRR = (1 + 1/2 + 1/4)/3 = 7/12
        store = build_toy_store(n_entities=4, n_relations=1, n_train=3,
                                n_test=1, n_valid=1)
        store.train = np.array([[0, 0, 0], [1, 0, 1], [2, 0, 2]])
        store.filter_index = FilterIndex(np.empty((0, 3)), 4, 1)
        rows = np.array([
            [9.0, 1.0, 1.0, 1.0],   # t=0 ranks 1
            [9.0, 5.0, 1.0, 1.0],   # t=1 ranks 2
            [9.0, 8.0, 5.0, 7.0],   # t=2 ranks 4
        ])
        metrics = evaluate(store, _FixedScoreModel(rows, store.train),
                           "train")
        assert_allclose(metrics.mrr, 7.0 / 12.0, rtol=1e-15)
        assert metrics.hits_at_10 == 1.0
        assert metrics.n_evaluated == 3

    @pytest.mark.parametrize("row", [0, 1])
    def test_non_finite_scores_raise(self, monkeypatch, row):
        # Row 0 puts the NaN on the target's own score with no known tails,
        # which ranks it 0; row 1 puts it on a competitor, which a
        # comparison would quietly rank below the target.
        store = build_toy_store(n_entities=4, n_relations=1, n_train=3,
                                n_test=1, n_valid=1)
        store.train = np.array([[0, 0, 0], [1, 0, 1]])
        store.filter_index = FilterIndex(np.empty((0, 3)), 4, 1)
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        rows[row, 2 * row] = np.nan
        for cpus, threshold, helper in CHECK_PATHS.values():
            with monkeypatch.context() as m:
                ran_on = self.check_on(m, cpus, threshold)
                with pytest.raises(NumericsError,
                                   match=rf"query \({row}, 0\)"):
                    evaluate(store, _FixedScoreModel(rows, store.train),
                             "train")
            self.assert_ran_on(ran_on, helper)

    @pytest.mark.parametrize("path", sorted(CHECK_PATHS))
    def test_the_first_non_finite_query_is_named(self, monkeypatch, path):
        # One batch of eight: a NaN competitor in row 3 and an inf target
        # in row 5. The whole batch is ranked before the scan's verdict.
        cpus, threshold, helper = CHECK_PATHS[path]
        ran_on = self.check_on(monkeypatch, cpus, threshold)
        store = build_toy_store(n_entities=8, n_relations=2)
        store.test = np.array([[i, 1, (i + 1) % 8] for i in range(8)])
        store.filter_index = FilterIndex(store.test, 8, 2)
        rows = np.tile(np.arange(8.0), (8, 1))
        rows[3, 0] = np.nan
        rows[5, 6] = np.inf
        with pytest.raises(NumericsError,
                           match=r"query \(3, 1\) on the 'test' split"):
            evaluate(store, _FixedScoreModel(rows, store.test), "test")
        self.assert_ran_on(ran_on, helper)

    def test_empty_split_rejected(self, toy_store):
        toy_store.valid = np.zeros((0, 3), dtype=np.int64)
        with pytest.raises(ConfigError):
            evaluate(toy_store, None, "valid")

    def test_unknown_split_rejected(self, toy_store):
        with pytest.raises(ConfigError):
            evaluate(toy_store, None, "dev")

    def test_mean_alpha_for_mixture(self, toy_store):
        cfg = TrainConfig(d=8, heads=2, seed=1)
        model = KgModel(toy_store.n_entities, toy_store.n_relations, cfg)
        mean_alpha = evaluate(toy_store, model, "test").mean_alpha
        assert len(mean_alpha) == 3
        assert all(type(a) is float and a >= 0 for a in mean_alpha)
        assert_allclose(sum(mean_alpha), 1.0, rtol=0, atol=1e-12)

    def test_mean_alpha_none_for_fixed_variant(self, toy_store):
        cfg = TrainConfig(d=8, heads=2, seed=1, variant="spherical")
        model = KgModel(toy_store.n_entities, toy_store.n_relations, cfg)
        assert evaluate(toy_store, model, "test").mean_alpha is None

    def test_evaluation_is_deterministic(self, toy_store):
        cfg = TrainConfig(d=8, heads=2, seed=2)
        model = KgModel(toy_store.n_entities, toy_store.n_relations, cfg)
        a = evaluate(toy_store, model, "valid")
        b = evaluate(toy_store, model, "valid")
        assert a == b

    @staticmethod
    def ranking(metrics):
        """The fields that do not depend on the batch size: the last bits
        of ``mean_alpha`` do."""
        return metrics.mrr, metrics.hits_at_10, metrics.n_evaluated

    def test_batching_does_not_change_metrics(self, toy_store, monkeypatch):
        cfg = TrainConfig(d=8, heads=2, seed=2)
        model = KgModel(toy_store.n_entities, toy_store.n_relations, cfg)
        whole = evaluate(toy_store, model, "train")
        monkeypatch.setattr(kg_mod, "EVAL_BATCH", 7)
        tiny = evaluate(toy_store, model, "train")
        assert self.ranking(tiny) == self.ranking(whole)

    def test_batches_share_one_logits_buffer(self, monkeypatch):
        # Five triples in batches of two end in a one-row slice.
        store = build_toy_store(n_entities=12, n_train=20, n_test=5)
        model = KgModel(12, store.n_relations, TrainConfig(d=8, heads=2,
                                                           seed=2))
        whole = evaluate(store, model, "test")
        seen = []
        score = model.score

        def spy(heads, relations, training=False, rng=None, out=None):
            seen.append(out)
            return score(heads, relations, training, rng, out)

        model.score = spy
        monkeypatch.setattr(kg_mod, "EVAL_BATCH", 2)
        assert (self.ranking(evaluate(store, model, "test"))
                == self.ranking(whole))
        assert [buf.shape for buf in seen] == [(2, 12), (2, 12), (1, 12)]
        assert all(np.shares_memory(buf, seen[0]) for buf in seen)

    def test_out_buffer_gives_the_same_metrics(self, monkeypatch):
        # Five triples in batches of two: each batch scores into the
        # leading rows of a buffer longer than a batch.
        store = build_toy_store(n_entities=12, n_train=20, n_test=5)
        model = KgModel(12, store.n_relations, TrainConfig(d=8, heads=2,
                                                           seed=2))
        monkeypatch.setattr(kg_mod, "EVAL_BATCH", 2)
        whole = evaluate(store, model, "test")
        buf = np.full((3, 12), np.nan)
        seen = []
        score = model.score

        def spy(heads, relations, training=False, rng=None, out=None):
            seen.append(out)
            return score(heads, relations, training, rng, out)

        model.score = spy
        assert evaluate(store, model, "test", out=buf) == whole
        assert [out.shape for out in seen] == [(2, 12), (2, 12), (1, 12)]
        assert all(np.shares_memory(out, buf[:2]) for out in seen)

    @pytest.mark.parametrize("buf", [
        np.empty((2, 12)),             # too few rows for a batch of three
        np.empty((3, 11)),             # another number of entities
        np.empty((3, 12), np.float32),
        np.empty((3, 12), order="F"),
        np.empty((3, 24))[:, ::2],
        np.empty(36),                  # no row axis
        [[0.0] * 12] * 3,              # not an array
    ], ids=["rows", "columns", "dtype", "fortran", "strided", "flat", "list"])
    def test_bad_out_buffer_is_rejected(self, buf):
        store = build_toy_store(n_entities=12, n_train=20, n_test=3)
        model = KgModel(12, store.n_relations, TrainConfig(d=8, heads=2,
                                                           seed=2))
        with pytest.raises(ShapeError):
            evaluate(store, model, "test", out=buf)

    def test_every_check_path_gives_equal_metrics(self, monkeypatch):
        # 960 test rows of 1,100 scores reach the package's threshold, so
        # the model's head runs two row blocks on one CPU or two alike.
        store = build_toy_store(n_entities=1100, n_train=1000, n_test=960)
        assert 960 * 1100 >= T.BESIDE_FROM
        model = KgModel(1100, store.n_relations, TrainConfig(d=8, heads=2,
                                                             seed=4))
        got = []
        for cpus, helper in [(2, True), (1, False)]:
            with monkeypatch.context() as m:
                ran_on = self.check_on(m, cpus)
                got.append(evaluate(store, model, "test"))
            self.assert_ran_on(ran_on, helper)
        assert got[0].mean_alpha is not None
        assert got[0] == got[1]
        # A threshold above the batch also keeps the head whole, so the
        # below-threshold path gets the same scores through a fixed model.
        rows = model.score(store.test[:, 0], store.test[:, 1],
                           training=False)[0].data
        fixed = []
        for cpus, threshold, helper in [(2, None, True), (1, None, False),
                                        (2, math.inf, False)]:
            with monkeypatch.context() as m:
                ran_on = self.check_on(m, cpus, threshold)
                fixed.append(evaluate(store,
                                      _FixedScoreModel(rows, store.test),
                                      "test"))
            self.assert_ran_on(ran_on, helper)
        assert fixed[0] == fixed[1] == fixed[2]
        assert self.ranking(fixed[0]) == self.ranking(got[0])

    @staticmethod
    def whole_batch_metrics(store, model, split):
        """The metrics of one score call per EVAL_BATCH batch, every row
        ranked with filtered_rank and the routing summed per batch."""
        triples = store.split(split)
        recip_sum, hits, alpha_sum = 0.0, 0, np.zeros(3)
        for start in range(0, triples.shape[0], kg_mod.EVAL_BATCH):
            batch = triples[start:start + kg_mod.EVAL_BATCH]
            logits, alpha = model.score(batch[:, 0], batch[:, 1])
            alpha_sum += alpha.data.reshape(-1, 3).sum(axis=0)
            for row, (h, r, t) in zip(logits.data, batch.tolist()):
                rank = filtered_rank(row, t, store.known_tails(h, r))
                recip_sum += 1.0 / rank
                hits += rank <= 10
        n = triples.shape[0]
        return Metrics(recip_sum / n, hits / n, n,
                       tuple(float(a) for a in alpha_sum / n))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_row_parts_give_the_whole_batch_metrics(self, monkeypatch, cpus,
                                                    with_out):
        # 1,100 test rows of 40 scores stay below the package's threshold,
        # so the reference scores each batch whole. Patched low, a batch of
        # 1,024 rows is scored in parts of 512 and the last, of 76 rows,
        # in parts of 48 and 28.
        store = build_toy_store(n_entities=40, n_train=1200, n_test=1100)
        assert kg_mod.EVAL_BATCH * 40 < T.BESIDE_FROM
        model = KgModel(40, store.n_relations, TrainConfig(d=8, heads=2,
                                                           seed=5))
        want = self.whole_batch_metrics(store, model, "test")
        assert want.mean_alpha is not None
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(T, "BESIDE_FROM", 1)
        buf = np.empty((kg_mod.eval_rows(1100, 40), 40)) if with_out else None
        assert kg_mod.eval_rows(1100, 40) == 512
        seen = []
        score = model.score

        def spy(heads, relations, training=False, rng=None, out=None):
            seen.append(out)
            return score(heads, relations, training, rng, out)

        model.score = spy
        assert evaluate(store, model, "test", out=buf) == want
        assert [out.shape[0] for out in seen] == [512, 512, 48, 28]
        assert all(np.shares_memory(out, seen[0]) for out in seen)
        if with_out:
            assert np.shares_memory(seen[0], buf)

    def test_a_last_batch_below_the_threshold_is_one_part(self):
        # 1,024 rows of 256 scores reach the package's threshold and the
        # last batch's 900 rows do not: the default buffer holds that
        # whole batch, more rows than a full batch's first part.
        assert 1024 * 256 >= T.BESIDE_FROM > 900 * 256
        assert kg_mod.eval_rows(1024, 256) == 512
        assert kg_mod.eval_rows(1024 + 900, 256) == 900
        store = build_toy_store(n_entities=256, n_train=10, n_test=1924)
        model = KgModel(256, store.n_relations, TrainConfig(d=8, heads=2,
                                                           seed=5))
        seen = []
        score = model.score

        def spy(heads, relations, training=False, rng=None, out=None):
            seen.append(out.shape[0])
            return score(heads, relations, training, rng, out)

        model.score = spy
        assert evaluate(store, model, "test").n_evaluated == 1924
        assert seen == [512, 512, 900]

    def test_eval_rows_at_the_paper_sizes(self):
        # FB15k-237's valid and test splits, and UMLS's, whose batches
        # stay below the package's threshold.
        assert kg_mod.eval_rows(17535, 14541) == 512
        assert kg_mod.eval_rows(20466, 14541) == 512
        assert kg_mod.eval_rows(652, 135) == 652
        assert kg_mod.eval_rows(661, 135) == 661
        assert kg_mod.eval_rows(1, 14541) == 1

    def test_peak_is_one_first_part_of_scores(self):
        # 256 test rows of 8,192 scores reach the package's threshold: the
        # default buffer holds the first part's 128 rows, 8 MiB, and the
        # rest of evaluate's allocations stay within 1 MiB.
        store = build_toy_store(n_entities=8192, n_train=10, n_test=256)
        model = KgModel(8192, store.n_relations, TrainConfig(d=8, heads=2,
                                                             seed=4))
        part = kg_mod.eval_rows(256, 8192) * 8192 * 8
        assert part == 128 * 8192 * 8
        evaluate(store, model, "test")
        tracemalloc.start()
        try:
            evaluate(store, model, "test")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert part < peak < part + 2 ** 20

    def test_untrained_model_ranks_like_chance(self):
        # With random embeddings the true tail is an arbitrary entity, so
        # MRR should sit near the uniform-rank expectation H_n / n.
        store = build_toy_store(n_entities=30, n_train=300)
        cfg = TrainConfig(d=16, heads=2, seed=0)
        model = KgModel(store.n_entities, store.n_relations, cfg)
        metrics = evaluate(store, model, "train")
        n = store.n_entities
        baseline = sum(1.0 / k for k in range(1, n + 1)) / n
        assert abs(metrics.mrr - baseline) < 0.05

    def test_metrics_lines_format(self):
        m = Metrics(mrr=0.5, hits_at_10=0.75, n_evaluated=8)
        lines = m.lines("valid", seed=3)
        assert lines[0] == "split=valid seed=3 metric=mrr value=0.5"
        assert lines[1] == "split=valid seed=3 metric=hits_at_10 value=0.75"
        assert lines[2] == "split=valid seed=3 metric=n_evaluated value=8"


# Trains a UMLS-shaped graph (135 entities, 46 relations, 5,216 / 652 / 661
# triples) for one epoch with the default config, validation included,
# evaluates its test split, and prints the names of the live threads; then
# evaluates once more with tensor.BESIDE_FROM at 1 and prints them again.
# The process claims two CPUs, so only the sizes keep the helper away.
UMLS_EVALUATE = """
import os, threading
os.sched_getaffinity = lambda pid: {0, 1}
import numpy as np
from catkg import kg, tensor, trainer
from catkg.config import TrainConfig
rng = np.random.default_rng(5)
triples = np.unique(rng.integers(0, [135, 46, 135], size=(7000, 3)), axis=0)
rng.shuffle(triples)
store = kg.TripleStore.from_splits(
    {f"e{i}": i for i in range(135)}, {f"r{i}": i for i in range(46)},
    triples[:5216], triples[5216:5868], triples[5868:6529])
result = trainer.train(store, TrainConfig(epochs=1, seed=1))
kg.evaluate(store, result.model, "test")
print(" ".join(t.name for t in threading.enumerate()))
tensor.BESIDE_FROM = 1
kg.evaluate(store, result.model, "test")
print(" ".join(t.name for t in threading.enumerate()))
"""


def test_umls_sized_runs_start_no_helper_thread():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", UMLS_EVALUATE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    umls, forced = (line.split() for line in proc.stdout.splitlines())
    assert not [name for name in umls if name.startswith("catkg-")]
    assert [name for name in forced if name.startswith("catkg-helper")]


# Parses the three split files named on the command line and prints how
# much the resident set grew, in MiB, and the store's array bytes.
PARSE_GROWTH = """
import os, sys
from catkg import kg

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = resident()
store = kg.load_triples(*sys.argv[1:])
arrays = sum(a.nbytes for a in (store.train, store.valid, store.test,
                                store.filter_index.codes,
                                store.filter_index.tails))
print((resident() - before) / 2 ** 20, arrays / 2 ** 20, store.n_entities)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_parsing_leaves_the_heap_to_the_store(tmp_path):
    # 300,000 lines over 15,000 Zipf-distributed entities, so first
    # occurrences spread over the whole file. A vocabulary that kept the
    # split's own strings held each of their memory arenas: the resident
    # set grew by about 71 MiB more than the store's arrays, where the
    # copies leave about 19 (Python 3.11, glibc).
    rng = np.random.default_rng(3)
    weights = 1.0 / np.arange(1, 15001)
    heads, tails = rng.choice(15000, size=(2, 300000),
                              p=weights / weights.sum())
    relations = rng.integers(0, 237, 300000)
    entities = [f"/m/0{i:x}" for i in range(2 ** 20, 2 ** 20 + 15000)]
    lines = "".join(f"{entities[h]}\t/r/{r}/kind\t{entities[t]}\n"
                    for h, r, t in zip(heads.tolist(), relations.tolist(),
                                       tails.tolist()))
    train = tmp_path / "train.txt"
    train.write_text(lines, encoding="utf-8")
    small = tmp_path / "small.txt"
    small.write_text(lines[:lines.index("\n") + 1], encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PARSE_GROWTH, str(train),
                           str(small), str(small)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    growth, arrays, n_entities = proc.stdout.split()
    assert int(n_entities) > 14000
    assert float(growth) < float(arrays) + 36
