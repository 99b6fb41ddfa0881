"""Optimizer, schedules, the training loop, and model/routing artifacts.

The AdamW update rule is pinned against hand-derived single-step values;
the plateau scheduler against an epoch-by-epoch trace; the entropy
reward against its observable effect (a router-only step raises routing
entropy). Loop-level tests run a real toy graph end to end.
"""

import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catkg import tensor as T
from catkg import trainer as trainer_mod
from catkg.config import TrainConfig
from catkg.errors import (ConfigError, IncompatibilityError, NumericsError,
                          UnsupportedVariantError)
from catkg.kg import KgModel, Metrics, evaluate, routing_entropy, total_loss
from catkg.tensor import Tape, Tensor
from catkg.trainer import (ADAM_EPS, BETA1, BETA2, LAMBDA_ENT_DECAY,
                           LAMBDA_ENT_MIN, AdamW, EpochRecord,
                           PlateauScheduler, anneal_lambda, export_routing,
                           load_model, save_model, train)

from conftest import build_toy_store, record_beside, use_cpus


def record_out_buffers(monkeypatch):
    """Route KgModel.score through a spy; returns its (training, out) log."""
    seen = []
    score = KgModel.score

    def spy(self, heads, relations, training=False, rng=None, out=None):
        seen.append((training, out))
        return score(self, heads, relations, training, rng, out)

    monkeypatch.setattr(KgModel, "score", spy)
    return seen


def whole_array_update(p, g, m, v, step, lr, wd):
    """One AdamW update of a whole parameter, in place in p, m and v, as
    AdamW.step ran it before it walked blocks."""
    bc1 = 1.0 - BETA1 ** step
    bc2 = 1.0 - BETA2 ** step
    a, b = np.empty(p.shape), np.empty(p.shape)
    if wd:
        p *= 1.0 - lr * wd
    m *= BETA1
    v *= BETA2
    if g is not None:
        np.multiply(g, 1.0 - BETA1, out=a)
        m += a
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, bc1, out=b)
    b *= lr
    b /= a
    p -= b


def small_cfg(**kw):
    base = dict(d=16, heads=2, seed=5, lr=0.01, epochs=8, batch_size=64,
                dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def store():
    return build_toy_store(n_entities=20, n_train=60, n_valid=10, n_test=5)


def count_steps(monkeypatch) -> list:
    """One entry per :meth:`AdamW.step` call from here on."""
    calls = []
    step = AdamW.step

    def counted(self):
        calls.append(self.step_count)
        step(self)

    monkeypatch.setattr(AdamW, "step", counted)
    return calls


class TestAdamW:
    def test_no_gradient_means_no_motion_without_decay(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_decay_shrinks_even_with_zero_gradient(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step()
        assert_allclose(p.data, [1.0 * (1 - 0.1 * 0.5)], rtol=1e-15)

    def test_first_step_is_normalized_gradient(self):
        # Bias correction makes m-hat = g and v-hat = g^2 on step one, so
        # the move is lr * g / (|g| + eps) regardless of the magnitude.
        p = Tensor(np.array([5.0]), requires_grad=True)
        p.grad = np.array([0.04])
        opt = AdamW({"p": p}, lr=0.1)
        opt.step()
        assert_allclose(p.data, [5.0 - 0.1 * 0.04 / (0.04 + 1e-8)],
                        rtol=1e-12)

    def test_zero_grad_clears(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1)
        AdamW({"p": p}, lr=0.1).zero_grad()
        assert p.grad is None

    def test_non_finite_gradient_rejects_whole_step(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        a.grad = np.array([0.5])
        b.grad = np.array([np.nan])
        opt = AdamW({"a": a, "bad": b}, lr=0.1, weight_decay=0.5)
        with pytest.raises(NumericsError) as info:
            opt.step()
        assert "bad" in str(info.value)
        # atomic: neither parameter moved, no step was counted
        assert np.array_equal(a.data, [1.0])
        assert np.array_equal(b.data, [2.0])
        assert opt.step_count == 0

    def test_update_is_bitwise_the_allocating_formula(self):
        # The update as written with fresh temporaries; a None gradient
        # counts as zeros.
        lr, wd = 0.01, 0.1
        rng = np.random.default_rng(7)
        shapes = {"table": (30, 4), "w": (4, 4), "b": (4,), "s": ()}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in shapes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = AdamW(params, lr, wd)
        for step in range(1, 7):
            bc1, bc2 = 1.0 - BETA1 ** step, 1.0 - BETA2 ** step
            for i, (k, p) in enumerate(params.items()):
                p.grad = (None if (i + step) % 3 == 0
                          else rng.normal(size=shapes[k]) * 10.0 ** -step)
                g = np.zeros(shapes[k]) if p.grad is None else p.grad
                ref[k] *= 1.0 - lr * wd
                ref_m[k] = ref_m[k] * BETA1 + (1.0 - BETA1) * g
                ref_v[k] = ref_v[k] * BETA2 + (1.0 - BETA2) * g * g
                ref[k] = ref[k] - lr * (ref_m[k] / bc1) / (
                    np.sqrt(ref_v[k] / bc2) + ADAM_EPS)
            opt.step()
            for k, p in params.items():
                assert np.array_equal(p.data, ref[k]), (step, k)
                assert np.array_equal(opt._m[k], ref_m[k]), (step, k)
                assert np.array_equal(opt._v[k], ref_v[k]), (step, k)

    @pytest.mark.parametrize("wd", [0.0, 0.1])
    def test_blocks_match_the_whole_array_update(self, wd):
        lr = 0.01
        rng = np.random.default_rng(17)
        shapes = {"table": (700, 64),   # two blocks of 512 and 188 rows
                  "wide": (3, 40000),   # a row wider than a block
                  "long": (70000,),     # three blocks of one axis
                  "w": (4, 4), "idle": (5,), "s": ()}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in shapes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = AdamW(params, lr, wd)
        for step in range(1, 6):
            for k, p in params.items():
                p.grad = (None if k == "idle" or (k == "w" and step == 3)
                          else rng.normal(size=shapes[k]))
                whole_array_update(ref[k], p.grad, ref_m[k], ref_v[k], step,
                                   lr, wd)
            opt.step()
            for k, p in params.items():
                assert np.array_equal(p.data, ref[k]), (step, k)
                assert np.array_equal(opt._m[k], ref_m[k]), (step, k)
                assert np.array_equal(opt._v[k], ref_v[k]), (step, k)

    @pytest.mark.parametrize("cpus, split", [(1, True), (2, True),
                                             (2, False)],
                             ids=["one_cpu", "two_cpus", "whole"])
    def test_halves_match_the_whole_array_update(self, monkeypatch, cpus,
                                                 split):
        # Two parameters reach tensor.BESIDE_FROM entries. The table's
        # halves are 2,049 and 2,048 rows, so its whole pass's block of
        # rows [2048, 2560) crosses the border.
        lr, wd = 0.01, 0.1
        shapes = {"table": (4097, 64), "long": (300_001,), "w": (4, 4)}
        big = [k for k, s in shapes.items() if math.prod(s) >= T.BESIDE_FROM]
        assert big == ["table", "long"]
        use_cpus(monkeypatch, cpus)
        if not split:
            monkeypatch.setattr(T, "BESIDE_FROM", 300_002)
        sizes = record_beside(monkeypatch)
        rng = np.random.default_rng(23)
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in shapes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = AdamW(params, lr, wd)
        for step in range(1, 4):
            for k, p in params.items():
                p.grad = (None if k == "table" and step == 2
                          else rng.normal(size=shapes[k]))
                whole_array_update(ref[k], p.grad, ref_m[k], ref_v[k], step,
                                   lr, wd)
            opt.step()
            for k, p in params.items():
                assert np.array_equal(p.data, ref[k]), (step, k)
                assert np.array_equal(opt._m[k], ref_m[k]), (step, k)
                assert np.array_equal(opt._v[k], ref_v[k]), (step, k)
        assert sizes == ([4097 * 64, 300_001] * 3 if split else [])

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_parameter_is_updated_in_place(self, layout):
        rng = np.random.default_rng(4)
        start = rng.normal(size=(300, 130))
        if layout == "fortran":
            data = np.asfortranarray(start)
        else:
            data = np.zeros((300, 260))[:, ::2]
            data[...] = start
        odd = Tensor(data, requires_grad=True)
        plain = Tensor(start.copy(), requires_grad=True)
        opts = [AdamW({"p": t}, lr=0.1, weight_decay=0.1)
                for t in (odd, plain)]
        for _ in range(3):
            g = rng.normal(size=start.shape)
            odd.grad, plain.grad = np.asfortranarray(g), g
            for opt in opts:
                opt.step()
        assert odd.data is data
        assert not np.array_equal(data, start)
        assert np.array_equal(data, plain.data)

    def test_step_allocates_under_a_quarter_of_the_parameter(self):
        rng = np.random.default_rng(5)
        p = Tensor(rng.normal(size=(14541, 64)), requires_grad=True)
        p.grad = rng.normal(size=p.shape)
        opt = AdamW({"entity_emb": p}, lr=1e-3, weight_decay=0.01)
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes / 4

    def test_quadratic_bowl_converges(self):
        x = Tensor(np.array([8.0]), requires_grad=True)
        opt = AdamW({"x": x}, lr=0.1)
        for _ in range(2000):
            opt.zero_grad()
            with Tape() as tape:
                loss = ((x - 3.0) * (x - 3.0)).sum()
            tape.backward(loss)
            opt.step()
            if abs(float(x.data[0]) - 3.0) < 1e-4:
                break
        assert abs(float(x.data[0]) - 3.0) < 1e-4


class TestPlateauScheduler:
    def test_flat_metric_reduces_on_schedule(self):
        opt = AdamW({}, lr=0.001)
        sched = PlateauScheduler(opt, patience=10)
        reduced_at = [epoch for epoch in range(1, 22)
                      if sched.step(0.5)]
        # epoch 1 sets the best; 10 stale epochs trip at 11, then at 21
        assert reduced_at == [11, 21]
        assert opt.lr == 0.001 * 0.5 * 0.5
        assert_allclose(opt.lr, 0.00025, rtol=1e-12)

    def test_improving_metric_never_reduces(self):
        opt = AdamW({}, lr=0.001)
        sched = PlateauScheduler(opt, patience=3)
        assert not any(sched.step(m) for m in np.linspace(0.1, 0.9, 30))
        assert opt.lr == 0.001

    def test_improvement_resets_the_stale_counter(self):
        opt = AdamW({}, lr=1.0)
        sched = PlateauScheduler(opt, patience=3)
        for metric in (0.5, 0.4, 0.4, 0.6, 0.4, 0.4):
            assert not sched.step(metric)
        assert sched.step(0.4)  # third stale epoch after the 0.6 best

    def test_matching_the_best_counts_as_stale(self):
        opt = AdamW({}, lr=1.0)
        sched = PlateauScheduler(opt, patience=2)
        sched.step(0.5)
        assert not sched.step(0.5)
        assert sched.step(0.5)  # strict > means two equal epochs trip it


class TestAnnealLambda:
    def test_matches_closed_form_for_200_steps(self):
        lam = 0.01
        for k in range(1, 201):
            lam = anneal_lambda(lam)
            assert abs(lam - max(0.001, 0.01 * 0.95 ** k)) < 1e-15

    def test_floor_is_absorbing(self):
        lam = 0.0011
        seen = []
        for _ in range(10):
            lam = anneal_lambda(lam)
            seen.append(lam)
        assert seen[1:] == [0.001] * 9

    def test_never_increases(self):
        lam, prev = 0.01, 0.01
        for _ in range(300):
            lam = anneal_lambda(lam)
            assert lam <= prev
            prev = lam


class TestEpochRecordFormat:
    def test_line_uses_reprs_and_optional_alpha(self):
        rec = EpochRecord(epoch=3, train_loss=1.5,
                          valid=Metrics(0.25, 0.5, 40, (0.2, 0.3, 0.5)),
                          lr=0.001, lambda_ent=0.0095)
        assert rec.line() == ("epoch=3 train_loss=1.5 valid_mrr=0.25"
                              " valid_hits10=0.5 lr=0.001 lambda=0.0095"
                              " alpha_e=0.2 alpha_h=0.3 alpha_s=0.5")

    def test_alpha_fields_absent_for_fixed_variants(self):
        rec = EpochRecord(epoch=1, train_loss=1.0, valid=Metrics(0.1, 0.2, 40),
                          lr=0.01, lambda_ent=0.0)
        assert rec.line() == ("epoch=1 train_loss=1.0 valid_mrr=0.1"
                              " valid_hits10=0.2 lr=0.01 lambda=0.0")


class TestTrainLoop:
    def test_loss_decreases_on_toy_graph(self, store):
        result = train(store, small_cfg(epochs=15))
        assert result.records[-1].train_loss < result.records[0].train_loss

    def test_record_bookkeeping(self, store):
        cfg = small_cfg(epochs=6)
        result = train(store, cfg)
        assert [r.epoch for r in result.records] == list(range(1, 7))
        assert result.records[0].lr == cfg.lr
        assert result.best_valid_mrr == max(r.valid.mrr for r in result.records)
        assert (result.records[result.best_epoch - 1].valid.mrr
                == result.best_valid_mrr)
        assert all(r.valid.n_evaluated == store.valid.shape[0]
                   for r in result.records)

    def test_lambda_column_follows_the_annealing_recurrence(self, store):
        cfg = small_cfg(epochs=10)
        result = train(store, cfg)
        for k, rec in enumerate(result.records):
            expected = max(LAMBDA_ENT_MIN,
                           cfg.lambda_ent_init * LAMBDA_ENT_DECAY ** k)
            assert abs(rec.lambda_ent - expected) < 1e-15

    def test_fixed_variant_pins_lambda_to_zero(self, store):
        result = train(store, small_cfg(variant="euclidean", epochs=3))
        assert all(r.lambda_ent == 0.0 for r in result.records)
        assert all(r.valid.mean_alpha is None for r in result.records)

    def test_mixture_records_alpha_means(self, store):
        result = train(store, small_cfg(epochs=3))
        for rec in result.records:
            assert len(rec.valid.mean_alpha) == 3
            assert abs(sum(rec.valid.mean_alpha) - 1.0) < 1e-12

    def test_best_epoch_parameters_are_restored(self, store):
        result = train(store, small_cfg(epochs=12))
        metrics = evaluate(store, result.model, "valid")
        assert metrics == result.records[result.best_epoch - 1].valid
        assert (metrics.mean_alpha
                == result.records[result.best_epoch - 1].valid.mean_alpha)

    def test_two_runs_produce_bit_identical_logs(self, store):
        cfg = small_cfg(epochs=6, dropout=0.2)
        assert train(store, cfg).log_text() == train(store, cfg).log_text()

    def test_one_token_model_ignores_the_head_count(self, store):
        # One token per query: the Euclidean branch's closed form
        # wo(wv(x)) never splits heads, so model.heads changes no bit.
        runs = [train(store, small_cfg(d=8, heads=heads, epochs=3))
                for heads in (1, 2, 4, 8)]
        for run in runs[1:]:
            assert run.log_text() == runs[0].log_text()
            for name, p in runs[0].model.parameters().items():
                assert (run.model.parameters()[name].data.tobytes()
                        == p.data.tobytes()), name

    def test_seed_changes_the_run(self, store):
        a = train(store, small_cfg(epochs=3))
        b = train(store, small_cfg(epochs=3, seed=6))
        assert a.log_text() != b.log_text()

    def test_log_stream_receives_the_same_lines(self, store):
        stream = io.StringIO()
        result = train(store, small_cfg(epochs=4), log_stream=stream)
        assert stream.getvalue() == result.log_text()

    def test_every_step_writes_one_logits_buffer(self, store, monkeypatch):
        seen = record_out_buffers(monkeypatch)
        train(store, small_cfg(epochs=2, batch_size=25))
        steps = [out for training, out in seen if training]
        assert [out.shape[0] for out in steps] == [25, 25, 10] * 2
        assert all(np.shares_memory(out, steps[0]) for out in steps)

    def test_validation_scores_into_the_training_buffer(self, store,
                                                        monkeypatch):
        # Ten valid triples: each validation ranks in the leading rows of
        # the array the steps score into, so one array serves the run.
        seen = record_out_buffers(monkeypatch)
        train(store, small_cfg(epochs=2, batch_size=25))
        steps = [out for training, out in seen if training]
        valid = [out for training, out in seen if not training]
        assert [out.shape[0] for out in valid] == [10, 10]
        assert all(np.shares_memory(out, steps[0]) for out in valid)
        assert all(out.base is steps[0].base for out in steps + valid)

    @pytest.mark.parametrize("batch,rows", [(64, 304), (400, 400)])
    def test_buffer_rows_follow_the_rule(self, monkeypatch, batch, rows):
        # 600 valid rows of 600 scores reach the package's threshold, so
        # validation scores in parts of 304 and 296 rows: the buffer holds
        # the larger of a step's batch and that first part.
        store = build_toy_store(n_entities=600, n_train=600, n_valid=600,
                                n_test=1)
        assert 600 * 600 >= T.BESIDE_FROM
        seen = record_out_buffers(monkeypatch)
        train(store, small_cfg(d=8, epochs=1, batch_size=batch))
        assert all(out.base.shape == (rows, 600) for _, out in seen)
        assert ([out.shape[0] for training, out in seen if not training]
                == [304, 296])

    def test_holds_one_scores_array(self):
        # 256 train and valid triples over 8,192 entities: one (256, n)
        # array is 16 MiB, and the parameters, moments and gradients of a
        # d = 8 model add about 3 MiB more. Separate arrays for the
        # logits, the loss gradient and validation's scores would hold
        # three times B·n.
        batch, n = 256, 8192
        store = build_toy_store(n_entities=n, n_train=batch, n_valid=batch,
                                n_test=1)
        cfg = small_cfg(d=8, epochs=1, batch_size=batch)
        tracemalloc.start()
        try:
            result = train(store, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params = sum(p.data.nbytes
                     for p in result.model.parameters().values())
        assert peak - params < 2 * batch * n * 8

    def test_loss_buffer_is_reused_only_after_backward(self, store,
                                                       monkeypatch):
        # The loss's exponentials become the logits gradient, so the buffer
        # holds live data until backward has run; poisoning it right after
        # backward must leave the run unchanged.
        cfg = small_cfg(epochs=2, batch_size=25)
        plain = train(store, cfg)
        seen = []
        loss = trainer_mod.smoothed_ce_loss

        def spy(logits, targets, epsilon, in_place=False):
            assert in_place is True
            seen.append(logits.data)
            return loss(logits, targets, epsilon, in_place=in_place)

        backward = Tape.backward

        def poisoned(self, root):
            backward(self, root)
            seen[-1].fill(np.nan)

        monkeypatch.setattr(trainer_mod, "smoothed_ce_loss", spy)
        monkeypatch.setattr(Tape, "backward", poisoned)
        result = train(store, cfg)
        assert [x.shape[0] for x in seen] == [25, 25, 10] * 2
        assert seen[0].base is not None
        assert all(x.base is seen[0].base for x in seen)
        assert result.log_text() == plain.log_text()
        params = result.model.parameters()
        for name, p in plain.model.parameters().items():
            assert np.array_equal(p.data, params[name].data), name

    def test_step_counter_sees_every_step(self, store, monkeypatch):
        steps = count_steps(monkeypatch)
        train(store, small_cfg(epochs=2, batch_size=25))
        assert steps == [0, 1, 2, 3, 4, 5]

    def test_invalid_config_never_reaches_a_step(self, store, monkeypatch):
        steps = count_steps(monkeypatch)
        with pytest.raises(ConfigError) as info:
            train(store, TrainConfig(lr=-1.0))
        assert str(info.value) == "train.lr must be positive, got -1.0"
        assert steps == []

    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_empty_split_raises_before_any_step(self, store, split,
                                                monkeypatch):
        setattr(store, split, np.zeros((0, 3), dtype=np.int64))
        steps = count_steps(monkeypatch)
        with pytest.raises(ConfigError) as info:
            train(store, small_cfg())
        assert str(info.value) == f"cannot train with an empty {split!r} split"
        assert steps == []

    def test_divergence_raises_with_location(self, store):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericsError) as info:
                train(store, small_cfg(lr=1e30, epochs=3, batch_size=32))
        assert "epoch" in str(info.value)

    def test_entropy_reward_steers_the_router_toward_uniform(self, store):
        # Isolate the entropy term: with CE frozen at 0 and the subtract
        # convention, optimizing total_loss on the router alone must raise
        # the mean routing entropy.
        cfg = small_cfg(seed=1)
        model = KgModel(store.n_entities, store.n_relations, cfg)
        router = {f"router.{k}": v
                  for k, v in model.block.router.parameters().items()}
        opt = AdamW(router, lr=0.05)
        heads, rels = store.train[:, 0], store.train[:, 1]

        def entropy_now():
            _, alpha = model.score(heads, rels)
            return float(routing_entropy(alpha).data)

        before = entropy_now()
        for _ in range(3):
            opt.zero_grad()
            with Tape() as tape:
                _, alpha = model.score(heads, rels)
                loss = total_loss(Tensor(np.array(0.0)),
                                  routing_entropy(alpha), 0.1)
            tape.backward(loss)
            opt.step()
        assert entropy_now() > before


# Trains a seeded toy graph whose head (B=512, d=8, 4,096 entities) and
# validation walk run inner's two row blocks, then writes model.catw and
# epochs.log to argv[1]. With argv[2] == "one" it first pins itself to
# one CPU. Prints the CPUs it ran on.
TWO_BLOCK_TRAIN = """
import os, sys
import numpy as np
from catkg import trainer
from catkg.config import TrainConfig
from catkg.kg import TripleStore
out, cpus = sys.argv[1], sys.argv[2]
if cpus == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
n, rng = 4096, np.random.default_rng(8)
triples = np.unique(rng.integers(0, [n, 3, n], size=(1400, 3)), axis=0)
rng.shuffle(triples)
store = TripleStore.from_splits(
    {f"e{i}": i for i in range(n)}, {f"r{i}": i for i in range(3)},
    triples[:1200], triples[:600], triples[1200:1300])
result = trainer.train(store, TrainConfig(d=8, heads=2, batch_size=512,
                                          epochs=2, seed=3))
trainer.save_model(os.path.join(out, "model.catw"), result.model)
with open(os.path.join(out, "epochs.log"), "w", encoding="utf-8") as fh:
    fh.write(result.log_text())
print(len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_cpu_and_two_train_the_same_bytes(tmp_path):
    assert 512 * 4096 >= T.BESIDE_FROM
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    ran_on = {}
    for cpus in ("all", "one"):
        (tmp_path / cpus).mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", TWO_BLOCK_TRAIN, str(tmp_path / cpus),
             cpus], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        ran_on[cpus] = int(proc.stdout)
    assert ran_on["one"] == 1
    assert ran_on["all"] == len(os.sched_getaffinity(0))
    for name in ("model.catw", "epochs.log"):
        assert ((tmp_path / "all" / name).read_bytes()
                == (tmp_path / "one" / name).read_bytes())


class TestModelCheckpointIO:
    def test_roundtrip_restores_every_parameter(self, store, tmp_path):
        cfg = small_cfg(epochs=2)
        result = train(store, cfg)
        path = tmp_path / "model.catw"
        save_model(path, result.model)
        fresh = KgModel(store.n_entities, store.n_relations,
                        small_cfg(seed=99))
        load_model(path, fresh)
        for name, p in result.model.parameters().items():
            assert np.array_equal(fresh.parameters()[name].data, p.data), name
        assert (evaluate(store, fresh, "valid")
                == evaluate(store, result.model, "valid"))

    def test_variant_mismatch_is_incompatible(self, store, tmp_path):
        cat = KgModel(store.n_entities, store.n_relations, small_cfg())
        path = tmp_path / "cat.catw"
        save_model(path, cat)
        euclid = KgModel(store.n_entities, store.n_relations,
                         small_cfg(variant="euclidean"))
        with pytest.raises(IncompatibilityError) as info:
            load_model(path, euclid)
        assert "missing" in str(info.value) or "unexpected" in str(info.value)

    def test_vocabulary_mismatch_is_incompatible(self, store, tmp_path):
        model = KgModel(store.n_entities, store.n_relations, small_cfg())
        path = tmp_path / "model.catw"
        save_model(path, model)
        bigger = KgModel(store.n_entities + 5, store.n_relations, small_cfg())
        with pytest.raises(IncompatibilityError) as info:
            load_model(path, bigger)
        assert "entity_emb" in str(info.value)

    def test_refused_load_leaves_every_parameter_as_it_was(self, store,
                                                           tmp_path):
        # entity_emb comes first and matches; relation_emb does not.
        path = tmp_path / "model.catw"
        save_model(path, KgModel(store.n_entities, store.n_relations + 1,
                                 small_cfg(seed=99)))
        model = KgModel(store.n_entities, store.n_relations, small_cfg())
        before = {name: p.data.tobytes()
                  for name, p in model.parameters().items()}
        with pytest.raises(IncompatibilityError) as info:
            load_model(path, model)
        assert "relation_emb" in str(info.value)
        assert {name: p.data.tobytes()
                for name, p in model.parameters().items()} == before


class TestExportRouting:
    def test_rejects_fixed_variants(self, store, tmp_path):
        model = KgModel(store.n_entities, store.n_relations,
                        small_cfg(variant="hyperbolic"))
        with pytest.raises(UnsupportedVariantError):
            export_routing(model, store, "test", tmp_path / "r.tsv")

    def test_empty_split_rejected_before_writing(self, store, tmp_path):
        store.test = np.zeros((0, 3), dtype=np.int64)
        model = KgModel(store.n_entities, store.n_relations, small_cfg())
        out = tmp_path / "r.tsv"
        with pytest.raises(ConfigError):
            export_routing(model, store, "test", out)
        assert not out.exists()

    def test_table_layout_and_row_simplex(self, store, tmp_path):
        model = KgModel(store.n_entities, store.n_relations, small_cfg())
        out = tmp_path / "routing.tsv"
        means = export_routing(model, store, "test", out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "head\trelation\talpha_e\talpha_h\talpha_s"
        body = [l for l in lines[1:] if not l.startswith("#")]
        trailer = [l for l in lines[1:] if l.startswith("#")]
        assert len(body) == store.test.shape[0]
        assert len(trailer) == 3
        parsed = []
        for line, (h, r, _) in zip(body, store.test):
            cols = line.split("\t")
            assert cols[0] == f"e{h}" and cols[1] == f"r{r}"
            weights = np.array([float(c) for c in cols[2:]])
            assert abs(weights.sum() - 1.0) < 1e-12
            parsed.append(weights)
        assert_allclose(np.mean(parsed, axis=0), means, rtol=0, atol=1e-15)

    def test_trailer_lines_carry_the_returned_means(self, store, tmp_path):
        model = KgModel(store.n_entities, store.n_relations, small_cfg())
        out = tmp_path / "routing.tsv"
        means = export_routing(model, store, "valid", out)
        trailer = [l for l in out.read_text(encoding="utf-8").splitlines()
                   if l.startswith("#")]
        for line, key, value in zip(trailer, ("alpha_e", "alpha_h", "alpha_s"),
                                    means):
            assert line == f"# mean {key} {float(value)!r}"

    def test_forced_one_hot_rows_are_exact(self, store, tmp_path):
        model = KgModel(store.n_entities, store.n_relations, small_cfg())
        model.block.router.force_one_hot(1)
        out = tmp_path / "routing.tsv"
        means = export_routing(model, store, "test", out)
        assert np.array_equal(means, [0.0, 1.0, 0.0])
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            if not line.startswith("#"):
                assert line.endswith("0.0\t1.0\t0.0")

    def test_non_finite_weights_raise_and_leave_no_file(self, store,
                                                        tmp_path):
        # Finite parameters that overflow: every query on relation r routes
        # NaN weights, and the first of them in the split is named.
        model = KgModel(store.n_entities, store.n_relations, small_cfg())
        r = int(store.test[-1, 1])
        h = next(h for h, rel, _ in store.test.tolist() if rel == r)
        model.relation_emb.data[r] = 1e308
        model.block.router.lin2.bias.data[:2] = 1e308
        out = tmp_path / "routing.tsv"
        with np.errstate(all="ignore"), pytest.raises(
                NumericsError, match=rf"query \({h}, {r}\) on the 'test'"):
            export_routing(model, store, "test", out)
        assert list(tmp_path.iterdir()) == []

    def test_never_computes_logits(self, tmp_path, monkeypatch):
        big = build_toy_store(n_entities=40, n_relations=2, n_train=10,
                              n_test=1100)
        model = KgModel(big.n_entities, big.n_relations, small_cfg())
        batches = []
        query = KgModel.query

        def spy(self, heads, relations, *args, **kwargs):
            batches.append(len(heads))
            return query(self, heads, relations, *args, **kwargs)

        def no_head(*args, **kwargs):
            raise AssertionError("the scoring head ran")

        monkeypatch.setattr(KgModel, "query", spy)
        monkeypatch.setattr(T, "inner", no_head)
        with pytest.raises(AssertionError, match="scoring head"):  # control
            model.score(big.test[:1, 0], big.test[:1, 1])
        batches.clear()
        export_routing(model, big, "test", tmp_path / "r.tsv")
        assert batches == [1024, 76]

    def test_failed_export_leaves_the_previous_file(self, tmp_path,
                                                    monkeypatch):
        big = build_toy_store(n_entities=40, n_relations=2, n_train=10,
                              n_test=1100)
        model = KgModel(big.n_entities, big.n_relations, small_cfg())
        out = tmp_path / "routing.tsv"
        export_routing(model, big, "test", out)
        before = out.read_bytes()
        calls = []
        query = KgModel.query

        def second_batch_fails(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # after 1,024 rows went to the file
                raise RuntimeError("killed mid-write")
            return query(self, *args, **kwargs)

        monkeypatch.setattr(KgModel, "query", second_batch_fails)
        with pytest.raises(RuntimeError, match="mid-write"):
            export_routing(model, big, "test", out)
        assert len(calls) == 2
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["routing.tsv"]

    def test_export_and_evaluate_walk_the_same_batches(self, tmp_path,
                                                       monkeypatch):
        # 1,100 rows: two batches, so a different batch size on either
        # side would move the last bits of the means apart.
        big = build_toy_store(n_entities=40, n_relations=2, n_train=10,
                              n_test=1100)
        model = KgModel(big.n_entities, big.n_relations, small_cfg())
        calls = []
        query, score = KgModel.query, KgModel.score

        def query_spy(self, heads, relations, *args, **kwargs):
            calls.append(("query", len(heads)))
            return query(self, heads, relations, *args, **kwargs)

        def score_spy(self, heads, relations, *args, **kwargs):
            calls.append(("score", len(heads)))
            return score(self, heads, relations, *args, **kwargs)

        monkeypatch.setattr(KgModel, "query", query_spy)
        monkeypatch.setattr(KgModel, "score", score_spy)
        metrics = evaluate(big, model, "test")
        assert calls == [("score", 1024), ("query", 1024),
                         ("score", 76), ("query", 76)]
        calls.clear()
        means = export_routing(model, big, "test", tmp_path / "r.tsv")
        assert calls == [("query", 1024), ("query", 76)]
        assert tuple(float(m) for m in means) == metrics.mean_alpha

    def test_means_match_best_epoch_record_exactly(self, store, tmp_path):
        # Two bookkeeping paths to the same number: the per-epoch record of
        # the best epoch (written during training) and a fresh export from
        # the restored model must agree bitwise on the valid split.
        result = train(store, small_cfg(epochs=10))
        means = export_routing(result.model, store, "valid",
                               tmp_path / "r.tsv")
        assert tuple(float(m) for m in means) == \
            result.records[result.best_epoch - 1].valid.mean_alpha
