"""Tensor core: forward values, tape gradients, and the checkpoint format."""

import math
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf as np_erf

from catkg import tensor as T
from catkg.errors import (ConfigError, IndexLookupError, NumericsError,
                          ParseError, ShapeError)
from catkg.tensor import Tape, Tensor


def numeric_grad(fn, x, step=1e-6):
    """Independent central-difference gradient of a scalar fn of one array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = fn(x)
        flat[i] = orig - step
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * step)
    return grad


def tape_grad(fn, x):
    t = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        out = fn(t)
    tape.backward(out)
    return t.grad


class TestForwardValues:
    def test_matmul_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        out = T.matmul(Tensor(np.eye(3)), Tensor(x))
        assert_allclose(out.data, x)

    def test_matmul_hand_expansion(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert_allclose(out.data, [[3.0], [7.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((1, 3, 4), (2, 4, 5)),     # numpy would broadcast the batch axis
        ((2, 3, 4), (5, 2, 4, 6)),  # 3-D @ 4-D
    ])
    def test_matmul_rejects_unequal_batch_dimensions(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_softmax_symmetry_and_stability(self):
        assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
        big = T.softmax(Tensor([1000.0, 1000.0]))
        assert_allclose(big.data, [0.5, 0.5])
        assert np.isfinite(big.data).all()

    def test_softmax_forced_exponentials(self):
        out = T.softmax(Tensor(np.log([1.0, 2.0, 3.0])))
        assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = T.softmax(Tensor(rng.normal(size=(7, 11)) * 50), axis=-1)
        assert np.abs(out.data.sum(-1) - 1).max() < 1e-12
        assert (out.data >= 0).all()

    def test_layer_norm_constant_row_is_zero(self):
        g, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = T.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
        assert_allclose(out.data, np.zeros((1, 4)))

    def test_layer_norm_already_normalized(self):
        g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out = T.layer_norm(Tensor([[1.0, -1.0]]), g, b)
        assert_allclose(out.data, np.array([[1.0, -1.0]]) / np.sqrt(1 + 1e-5),
                        rtol=1e-15)


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.arange(6.0))
        assert T.dropout(x, 0.0) is x

    def test_a_draw_needs_a_seed_or_a_generator(self):
        x = Tensor(np.ones(8))
        with pytest.raises(ConfigError, match="needs a seed or a Generator"):
            T.dropout(x, 0.5)
        seeded = T.dropout(x, 0.5, rng=9)
        drawn = T.dropout(x, 0.5, rng=np.random.default_rng(9))
        assert np.array_equal(seeded.data, drawn.data)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            T.dropout(Tensor(np.ones(3)), 1.0)

    def test_survivor_fraction(self):
        x = Tensor(np.ones(100_000))
        out = T.dropout(x, 0.2, rng=123)
        survivors = np.count_nonzero(out.data) / x.size
        assert abs(survivors - 0.8) < 0.01
        # inverted scaling: survivors are 1/(1-p)
        assert_allclose(out.data[out.data != 0], 1.0 / 0.8)


class TestXavierUniform:
    def test_single_value_bound(self):
        t = T.xavier_uniform((1, 1), seed=5)
        assert abs(t.data[0, 0]) <= math.sqrt(3.0)

    def test_sample_mean_near_zero(self):
        t = T.xavier_uniform((64, 64), seed=7)
        bound = math.sqrt(6.0 / 128)
        assert abs(t.data.mean()) < 0.02
        assert np.abs(t.data).max() <= bound

    def test_deterministic(self):
        a = T.xavier_uniform((8, 4), seed=42)
        b = T.xavier_uniform((8, 4), seed=42)
        assert np.array_equal(a.data, b.data)

    def test_zero_dim_rejected(self):
        with pytest.raises(ShapeError):
            T.xavier_uniform((0, 4), seed=0)


class TestBackward:
    def test_sum_gives_ones(self):
        g = tape_grad(lambda x: x.sum(), np.arange(12.0).reshape(3, 4))
        assert_allclose(g, np.ones((3, 4)))

    def test_quadratic_gives_x(self):
        x = np.arange(5.0)
        g = tape_grad(lambda t: (t * t * 0.5).sum(), x)
        assert_allclose(g, x)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_matmul_grad_vs_independent_fd(self):
        rng = np.random.default_rng(3)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        b_const = Tensor(b0)
        analytic = tape_grad(lambda a: T.matmul(a, b_const).sum(), a0)
        numeric = numeric_grad(
            lambda a: float((a @ b0).sum()), a0)
        assert np.abs(analytic - numeric).max() < 1e-6
        # and the closed form: ones @ b^T
        assert_allclose(analytic, np.ones((3, 2)) @ b0.T, atol=1e-12)

    def test_shared_weight_grad_is_the_per_sample_sum(self):
        rng = np.random.default_rng(13)
        a0, w0 = rng.normal(size=(6, 2, 4)), rng.normal(size=(4, 5))
        probe = rng.normal(size=(6, 2, 5))
        a = Tensor(a0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        with Tape() as tape:
            loss = (T.matmul(a, w) * probe).sum()
        tape.backward(loss)
        per_sample = sum(a0[i].T @ probe[i] for i in range(6))
        assert np.abs(w.grad - per_sample).max() < 1e-12
        assert np.abs(a.grad - probe @ w0.T).max() < 1e-12

    def test_layer_norm_grad_vs_independent_fd(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(4, 8))
        g, b = Tensor(np.ones(8)), Tensor(np.zeros(8))

        def np_layer_norm(x):
            m = x.mean(-1, keepdims=True)
            v = ((x - m) ** 2).mean(-1, keepdims=True)
            return float((np.sin((x - m) / np.sqrt(v + 1e-5))).sum())

        analytic = tape_grad(
            lambda t: T.sin(T.layer_norm(t, g, b)).sum(), x0)
        numeric = numeric_grad(np_layer_norm, x0)
        assert np.abs(analytic - numeric).max() < 1e-6

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(6,))

        def loss1(t):
            return (T.tanh(t) * t).sum()

        def loss2(t):
            return T.exp(t * 0.3).sum()

        g1 = tape_grad(loss1, x0)
        g2 = tape_grad(loss2, x0)
        g_mix = tape_grad(lambda t: loss1(t) * 2.0 + loss2(t) * (-0.7), x0)
        assert np.abs(g_mix - (2.0 * g1 - 0.7 * g2)).max() < 1e-10

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            y = (x * x + x * 3.0).sum()
        tape.backward(y)
        assert_allclose(x.grad, [7.0])

    def test_leaf_gradients_never_alias(self):
        # add hands one array to both of a and b, and c, used twice, gets
        # the sum the tape allocated; no two leaves share memory.
        a, b, c = (Tensor(np.ones(3), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            y = (a + b + c * 2.0 + c).sum()
        tape.backward(y)
        grads = (a.grad, b.grad, c.grad)
        assert not any(np.shares_memory(g, h)
                       for i, g in enumerate(grads) for h in grads[i + 1:])
        assert_allclose(np.stack(grads), [[1.0] * 3, [1.0] * 3, [3.0] * 3])

    def test_tape_consumed(self):
        x = Tensor(np.ones(1), requires_grad=True)
        with Tape() as tape:
            y = x * 1.0
        tape.backward(y)
        with pytest.raises(RuntimeError):
            tape.backward(y)

    def test_no_recording_outside_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 5.0  # no active tape
        with Tape() as tape:
            z = (x * 2.0).sum()
        assert len(tape) > 0
        tape.backward(z)
        assert_allclose(x.grad, [2.0, 2.0, 2.0])
        assert y.grad is None

    def test_loss_built_outside_tape_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
        loss = y.sum()  # reduction after the tape closed
        with pytest.raises(RuntimeError):
            tape.backward(loss)


class TestGradCheck:
    def test_sum_is_exact(self):
        err = T.grad_check(lambda x: x.sum(), [Tensor(np.arange(4.0))])
        assert err < 1e-10

    def test_smooth_composite_passes(self):
        err = T.grad_check(lambda x: (T.tanh(x) + x * 0.37).sum(),
                           [Tensor(np.array([0.3, -0.9]))])
        assert err < 1e-8

    def test_clip_interior_gradient(self):
        err = T.grad_check(lambda x: T.clip(x, -10.0, 10.0).sum(),
                           [Tensor(np.array([0.5]))])
        assert err < 1e-8

    def test_non_finite_reported_not_raised(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            err = T.grad_check(lambda x: T.log(x).sum(),
                               [Tensor(np.array([-1.0]))])
        assert err == math.inf

    def test_each_primitive_passes(self):
        rng = np.random.default_rng(6)
        cases = [
            (lambda x: (x * x).mean(), rng.normal(size=(3, 3))),
            (lambda x: (x / 3.0 + 2.0 * x).sum(), rng.normal(size=(4,))),
            (lambda x: T.exp(x).sum(), rng.normal(size=(3,))),
            (lambda x: T.log(x).sum(), rng.uniform(0.5, 2.0, size=(3,))),
            (lambda x: T.sqrt(x).sum(), rng.uniform(0.5, 2.0, size=(3,))),
            (lambda x: T.tanh(x).sum(), rng.normal(size=(3,))),
            (lambda x: T.arctanh(x).sum(), rng.uniform(-0.8, 0.8, size=(3,))),
            (lambda x: T.sin(x).sum(), rng.normal(size=(3,))),
            (lambda x: T.cos(x).sum(), rng.normal(size=(3,))),
            (lambda x: T.arccos(x).sum(), rng.uniform(-0.8, 0.8, size=(3,))),
            (lambda x: T.gelu(x).sum(), rng.normal(size=(5,))),
            # fused ops; weight, bias, gamma and beta are slices of x
            (lambda x: T.tanh(T.affine(x, x, T.narrow(x, 0, 1, 1).reshape(3)))
             .sum(), rng.normal(size=(3, 3))),
            (lambda x: T.sin(T.layer_norm(
                x, T.narrow(x, 0, 0, 1).reshape(4),
                T.narrow(x, 0, 1, 1).reshape(4))).sum(),
             rng.normal(size=(3, 4))),
            (lambda x: T.sin(T.norm(x, 1e-32)).sum(), rng.normal(size=(3, 4))),
            (lambda x: T.sin(T.norm(x, 1e-32, keepdims=False)).sum(),
             rng.normal(size=(4,))),
            (lambda x: T.softmax(x).sum(), rng.normal(size=(2, 4))),
            # 1-D matmul: row @ matrix, matrix @ column, vector @ vector
            (lambda x: T.tanh(T.narrow(x, 0, 0, 1).reshape(3) @ x).sum(),
             rng.normal(size=(3, 3))),
            (lambda x: T.tanh(x @ T.narrow(x, 1, 0, 1).reshape(3)).sum(),
             rng.normal(size=(3, 3))),
            (lambda x: x @ x, rng.normal(size=(4,))),
            (lambda x: T.narrow(x, 1, 1, 2).sum(), rng.normal(size=(3, 4))),
            (lambda x: x.reshape(6).sum(), rng.normal(size=(2, 3))),
            (lambda x: x.swapaxes(0, 1).sum(), rng.normal(size=(2, 3))),
            (lambda x: T.concat(x, x, axis=0).sum(), rng.normal(size=(2, 2))),
        ]
        for fn, x in cases:
            assert T.grad_check(fn, [Tensor(x)]) < 1e-6


# The taped chains the fused ops replaced, kept as their references.

def chain_affine(x, w, b):
    return T.matmul(x, w) + b


def chain_layer_norm(x, gamma, beta, eps=1e-5):
    m = T.mean(x, axis=-1, keepdims=True)
    centered = x - m
    var = T.mean(centered * centered, axis=-1, keepdims=True)
    return centered / T.sqrt(var + eps) * gamma + beta


def chain_gelu(x):
    def d_erf(u, y):
        return 2.0 / math.sqrt(math.pi) * np.exp(-u * u)

    erf = T._elementwise(x * (1.0 / math.sqrt(2.0)), np_erf, d_erf)
    return x * 0.5 * (1.0 + erf)


def chain_norm(x, floor_sq, keepdims=True):
    return T.sqrt(T.reduce_sum(x * x, axis=-1, keepdims=keepdims) + floor_sq)


FUSED = {
    # name: (fused op, taped chain, parameter shapes given the input's d)
    "affine": (T.affine, chain_affine, lambda d: [(d, 5), (5,)]),
    "layer_norm": (T.layer_norm, chain_layer_norm, lambda d: [(d,), (d,)]),
    "gelu": (T.gelu, chain_gelu, lambda d: []),
    "norm": (lambda x: T.norm(x, 1e-32), lambda x: chain_norm(x, 1e-32),
             lambda d: []),
    "norm_dropped": (lambda x: T.norm(x, 1e-32, keepdims=False),
                     lambda x: chain_norm(x, 1e-32, keepdims=False),
                     lambda d: []),
}


def run_op(op, arrays, probe_seed):
    """Value of ``op`` and the gradients of ``sum(op(...) * probe)``."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*tensors)
        probe = np.random.default_rng(probe_seed).normal(size=out.shape)
        loss = (out * probe).sum()
    nodes = len(tape)
    tape.backward(loss)
    return out.data, [t.grad for t in tensors], nodes


class TestFusedOps:
    @pytest.mark.parametrize("name", sorted(FUSED))
    @pytest.mark.parametrize("shape", [(5, 1, 6), (6,)])
    def test_matches_the_taped_chain(self, name, shape):
        fused, chain, param_shapes = FUSED[name]
        rng = np.random.default_rng(17)
        arrays = [rng.normal(size=shape) * 2.0]
        arrays += [rng.normal(size=s) for s in param_shapes(shape[-1])]
        value, grads, nodes = run_op(fused, arrays, 3)
        ref_value, ref_grads, _ = run_op(chain, arrays, 3)
        assert nodes == 3  # the op, then the probe product and its sum
        if name == "affine" and len(shape) > 2:
            # numpy's stacked matmul rounds differently from the single
            # GEMM over all leading axes; that GEMM is the 2-D chain.
            flat = [arrays[0].reshape(-1, shape[-1])] + arrays[1:]
            assert_allclose(value, ref_value, rtol=0, atol=1e-13)
            ref_value = chain_affine(*map(Tensor, flat)).data.reshape(
                value.shape)
        assert np.array_equal(value, ref_value)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() < 1e-10

    def test_affine_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            T.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))),
                     Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):
            T.affine(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))),
                     Tensor(np.zeros(4)))


class TestEmbedding:
    def test_gather_and_scatter(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with Tape() as tape:
            rows = T.embedding(table, [1, 1, 3])
            loss = rows.sum()
        tape.backward(loss)
        assert_allclose(rows.data, [table.data[1], table.data[1], table.data[3]])
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        assert_allclose(table.grad, expected)

    def test_out_of_bounds(self):
        with pytest.raises(IndexLookupError):
            T.embedding(Tensor(np.ones((4, 3))), [4])

    @pytest.mark.parametrize("bad", [[1.0], np.array([1.9, 0.5]),
                                     np.array([True]), ["1"]])
    def test_non_integer_indices_are_rejected(self, bad):
        # A cast would truncate 1.9 to row 1 without a word.
        with pytest.raises(IndexLookupError, match="integers"):
            T.embedding(Tensor(np.ones((4, 3))), bad)

    @pytest.mark.parametrize("good", [[1, 3], np.array([1, 3], np.int32),
                                      np.array([1, 3], np.uint8)])
    def test_integer_indices_of_any_width_are_accepted(self, good):
        rows = T.embedding(Tensor(np.arange(12.0).reshape(4, 3)), good)
        assert rows.data[:, 0].tolist() == [3.0, 9.0]

    def test_empty_index_list_is_accepted(self):
        assert T.embedding(Tensor(np.ones((4, 3))), []).shape == (0, 3)


class TestInner:
    """``q @ tableᵀ`` as one tape node, optionally into a caller's buffer."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.q = rng.normal(size=(4, 3))
        self.table = rng.normal(size=(6, 3))

    def test_matches_the_taped_matmul_bitwise(self):
        value, grads, nodes = run_op(T.inner, [self.q, self.table], 5)
        ref_value, ref_grads, ref_nodes = run_op(
            lambda q, t: q @ t.swapaxes(0, 1), [self.q, self.table], 5)
        assert (nodes, ref_nodes) == (3, 4)
        assert np.array_equal(value, ref_value)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    def test_writes_into_the_out_buffer(self):
        buf = np.full((4, 6), np.nan)
        y = T.inner(Tensor(self.q), Tensor(self.table), out=buf)
        assert y.data is buf
        assert np.array_equal(buf, self.q @ self.table.T)

    def test_gradient(self):
        q, table = Tensor(self.q), Tensor(self.table)
        assert T.grad_check(lambda x: T.tanh(T.inner(x, table)).sum(),
                            [Tensor(self.q)]) < 1e-6
        assert T.grad_check(lambda x: T.tanh(T.inner(q, x)).sum(),
                            [Tensor(self.table)]) < 1e-6

    @pytest.mark.parametrize("make_out", [
        lambda: np.empty((4, 5)),                  # wrong shape
        lambda: np.empty((3, 6)),                  # wrong batch
        lambda: np.empty((4, 6), np.float32),      # wrong dtype
        lambda: np.empty((4, 6), order="F"),       # wrong layout
        lambda: np.empty((4, 12))[:, ::2],         # strided view
        lambda: [[0.0] * 6] * 4,                   # not an array
    ])
    def test_bad_out_buffers_are_rejected(self, make_out):
        with pytest.raises(ShapeError):
            T.inner(Tensor(self.q), Tensor(self.table), out=make_out())

    def test_operand_shapes_are_checked(self):
        with pytest.raises(ShapeError):
            T.inner(Tensor(self.q), Tensor(self.table.T))
        with pytest.raises(ShapeError):
            T.inner(Tensor(self.q[0]), Tensor(self.table))


def inner_value_and_grads(q, table):
    """``inner``'s value and its two gradients under a fixed upstream."""
    g = np.cos(np.arange(q.shape[0] * table.shape[0], dtype=np.float64)
               ).reshape(q.shape[0], table.shape[0])
    qt, tt = Tensor(q, requires_grad=True), Tensor(table, requires_grad=True)
    with Tape() as tape:
        y = T.inner(qt, tt)
        loss = (y * g).sum()
    tape.backward(loss)
    return y.data, qt.grad, tt.grad, g


class TestInnerRowBlocks:
    """From INNER_SPLIT_MULADDS, ``inner`` runs two fixed row blocks."""

    # B·d·n is just above the threshold. With an odd table the two halves'
    # forward differs in its last bits from the whole GEMM, so a path that
    # skipped the partition would show.
    SPLIT = (64, 64, 4097)

    def operands(self, b, d, n, seed=4):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(b, d)), rng.normal(size=(n, d))

    def cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(T.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)

    def test_the_threshold_sits_between_the_umls_and_fb_heads(self):
        assert 512 * 64 * 135 < T.INNER_SPLIT_MULADDS <= 512 * 64 * 14541
        assert math.prod(self.SPLIT) >= T.INNER_SPLIT_MULADDS

    def test_helper_thread_and_in_turn_give_equal_bits(self, monkeypatch):
        q, table = self.operands(*self.SPLIT)
        self.cpus(monkeypatch, 2)
        on_helper = inner_value_and_grads(q, table)
        assert any(t.name.startswith("catkg-gemm")
                   for t in threading.enumerate())
        self.cpus(monkeypatch, 1)
        in_turn = inner_value_and_grads(q, table)
        for a, b in zip(on_helper, in_turn):
            assert np.array_equal(a, b)

    def test_the_blocks_are_the_two_row_halves(self, monkeypatch):
        # Each block is the GEMM of its rows alone, whichever CPU ran it.
        b, d, n = self.SPLIT
        q, table = self.operands(b + 1, d, n)
        self.cpus(monkeypatch, 2)
        y, gq, gt, g = inner_value_and_grads(q, table)
        half = (b + 2) // 2
        assert np.array_equal(y[:half], q[:half] @ table.T)
        assert np.array_equal(y[half:], q[half:] @ table.T)
        assert np.array_equal(gq[:half], g[:half] @ table)
        assert np.array_equal(gq[half:], g[half:] @ table)
        assert np.array_equal(gt, (q.T @ g).T)

    @pytest.mark.parametrize("shape", [(63, 64, 4096), (1, 64, 300_000)],
                             ids=["below", "one_row"])
    def test_below_the_threshold_it_is_one_whole_gemm(self, shape):
        q, table = self.operands(*shape)
        y, gq, gt, g = inner_value_and_grads(q, table)
        assert np.array_equal(y, np.matmul(q, table.T))
        assert np.array_equal(gq, g @ table)
        assert np.array_equal(gt, (q.T @ g).T)

    def test_split_writes_into_the_out_buffer(self):
        q, table = self.operands(*self.SPLIT)
        buf = np.full((q.shape[0], table.shape[0]), np.nan)
        y = T.inner(Tensor(q), Tensor(table), out=buf)
        assert y.data is buf
        assert np.array_equal(buf, T.inner(Tensor(q), Tensor(table)).data)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_gradient(self, monkeypatch, cpus):
        monkeypatch.setattr(T, "INNER_SPLIT_MULADDS", 1)
        self.cpus(monkeypatch, cpus)
        q, table = self.operands(5, 3, 6)
        assert T.grad_check(lambda a, b: T.tanh(T.inner(a, b)).sum(),
                            [Tensor(q), Tensor(table)]) <= 1e-4

    def test_threads_sharing_the_helper_get_their_own_bits(self, monkeypatch):
        # More callers than CPUs queue their second blocks on one helper.
        self.cpus(monkeypatch, 2)
        cases = [self.operands(*self.SPLIT, seed=s) for s in range(6)]
        want = [T.inner(q, t).data for q, t in cases]
        got = [None] * len(cases)

        def run(i):
            for _ in range(3):
                got[i] = T.inner(*cases[i]).data

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_its_own_helper(self):
        # The parent's helper thread does not exist in a child, so a task
        # submitted to it there would never run. The child is killed by
        # its alarm if it hangs, and the test fails instead of waiting.
        script = """
import os, signal, sys
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}
from catkg import tensor as T
rng = np.random.default_rng(0)
q, table = rng.normal(size=(64, 64)), rng.normal(size=(4096, 64))
want = T.inner(q, table).data
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if np.array_equal(T.inner(q, table).data, want) else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        tensors = {
            "scalarish": Tensor(np.array(3.5)),
            "emb": Tensor(rng.normal(size=(7, 3))),
            "w": rng.normal(size=(2, 2, 2)),
        }
        path = tmp_path / "model.catw"
        T.save_checkpoint(path, tensors)
        back = T.load_checkpoint(path)
        assert set(back) == set(tensors)
        for name, original in tensors.items():
            data = original.data if isinstance(original, Tensor) else original
            assert np.array_equal(back[name], data)
            assert back[name].dtype == np.float64

    def test_header_layout(self, tmp_path):
        path = tmp_path / "one.catw"
        T.save_checkpoint(path, {"x": np.zeros(2)})
        raw = path.read_bytes()
        assert raw[:4] == b"CATW"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 1  # count
        assert int.from_bytes(raw[12:16], "little") == 1  # name length
        assert raw[16:17] == b"x"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.catw"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(ParseError):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.catw"
        w = np.ones((3, 2))
        w[1, 0] = bad
        T.save_checkpoint(path, {"ok": np.zeros(2), "emb": w})
        with pytest.raises(NumericsError, match="'emb'"):
            T.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "trunc.catw"
        T.save_checkpoint(path, {"w": np.ones((4, 4))})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match=r"trunc\.catw: .*truncated"):
            T.load_checkpoint(path)

    def test_repeated_name_is_rejected(self, tmp_path):
        path = tmp_path / "twice.catw"
        T.save_checkpoint(path, {"w": np.ones(2)})
        record = path.read_bytes()[12:]
        path.write_bytes(b"CATW" + struct.pack("<II", 1, 2) + record + record)
        with pytest.raises(ParseError, match=r"twice\.catw: .*'w' appears"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\0", bytes(8), b"CATW"])
    def test_bytes_after_the_last_tensor_are_rejected(self, tmp_path, extra):
        path = tmp_path / "tail.catw"
        T.save_checkpoint(path, {"w": np.ones(2), "b": np.zeros(3)})
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ParseError,
                           match=rf"tail\.catw: {len(extra)} bytes after"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [
        {"w": np.zeros(3), "\ud800": np.ones(2)},    # name is not encodable
        {"w": np.zeros(3), "s": np.array(["x"])},    # values are not numbers
    ])
    def test_failed_save_leaves_the_previous_file(self, tmp_path, bad):
        path = tmp_path / "model.catw"
        T.save_checkpoint(path, {"old": np.arange(4.0)})
        before = path.read_bytes()
        with pytest.raises((UnicodeEncodeError, ValueError)):
            T.save_checkpoint(path, bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.catw"]

    def test_first_save_that_fails_leaves_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            T.save_checkpoint(tmp_path / "m.catw", {"\ud800": np.ones(2)})
        assert list(tmp_path.iterdir()) == []


class TestCheckpointHeaders:
    """Crafted headers whose declared sizes the file cannot back."""

    @staticmethod
    def write(path, name: bytes, extents):
        path.write_bytes(
            b"CATW" + struct.pack("<II", 1, 1)
            + struct.pack("<I", len(name)) + name
            + struct.pack("<I", len(extents))
            + struct.pack(f"<{len(extents)}Q", *extents) + bytes(64))

    @pytest.mark.parametrize("extents", [
        (2 ** 29, 2 ** 28),  # 2^60 bytes: would exhaust memory
        (2 ** 62, 4),        # the int64 product of the extents wraps
        (2 ** 63, 0),        # no bytes, but no valid numpy shape either
    ])
    def test_extents_the_file_cannot_hold(self, tmp_path, extents):
        path = tmp_path / "huge.catw"
        self.write(path, b"w", extents)
        with pytest.raises(ParseError):
            T.load_checkpoint(path)

    def test_name_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "name.catw"
        self.write(path, b"\xff\xfe", (2,))
        with pytest.raises(ParseError):
            T.load_checkpoint(path)

    def test_rank_larger_than_the_file(self, tmp_path):
        path = tmp_path / "rank.catw"
        path.write_bytes(b"CATW" + struct.pack("<III", 1, 1, 1) + b"w"
                         + struct.pack("<I", 2 ** 31))
        with pytest.raises(ParseError):
            T.load_checkpoint(path)


class TestDeterminism:
    def test_identical_forward_values(self):
        def run():
            rng = np.random.default_rng(21)
            x = Tensor(rng.normal(size=(4, 6)))
            w = T.xavier_uniform((6, 5), seed=3)
            return T.softmax(T.gelu(T.matmul(x, w)), axis=-1).data

        assert np.array_equal(run(), run())
