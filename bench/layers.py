"""Each layer alone, forward plus backward, on one fixed seeded batch.

Every layer comes from the package's public constructors (``KgModel``
builds the tables and the block through ``build_block``; ``AdamW`` is the
trainer's optimizer), so no model code is copied here. A layer's output
is reduced to a scalar by a dot product with fixed weights before the
tape runs backward.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from catkg import manifolds as M
from catkg import tensor as T
from catkg.kg import KgModel, smoothed_ce_loss
from catkg.trainer import AdamW
from catkg.tensor import Tensor


def _fwdbwd_ms(forward, leaves, rng, reps: int) -> float:
    """Median ms of ``forward()`` plus backward, after one warm-up call."""
    weights = None
    times = []
    for _ in range(reps + 1):
        for leaf in leaves:
            leaf.grad = None
        start = perf_counter()
        with T.Tape() as tape:
            out = forward()
            if out.size == 1:
                loss = out
            else:
                if weights is None:
                    weights = rng.standard_normal(out.shape)
                loss = T.reduce_sum(out * weights)
        tape.backward(loss)
        times.append((perf_counter() - start) * 1e3)
        for leaf in leaves:
            if leaf.grad is None or not np.isfinite(leaf.grad).all():
                raise ArithmeticError("layer gradient missing or non-finite")
    return statistics.median(times[1:])


def layer_times(model: KgModel, batch: np.ndarray, label_smoothing: float,
                seed: int, reps: int) -> dict[str, float]:
    """Forward+backward ms of each layer at the model's vocabulary.

    ``batch`` holds (head, relation, tail) rows; its size is the batch size.
    """
    rng = np.random.default_rng(seed)
    heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    n, d = batch.shape[0], model.entity_emb.shape[1]
    composed = (model.entity_emb.data[heads]
                + model.relation_emb.data[rels]).reshape(n, 1, d)
    x = Tensor(composed, requires_grad=True)
    block = model.block
    c = block.hyperbolic.c
    pad = Tensor(np.zeros((n, 1, 1)))

    def ball():
        p = M.project_ball(M.exp0(x, c), c)
        dist = M.poincare_distance(p.reshape(n, 1, 1, d),
                                   p.reshape(n, 1, 1, d), c)
        weights = T.softmax(-dist, axis=-1).reshape(n, 1, 1, 1)
        moved = M.mobius_scalar_mul(weights, p.reshape(n, 1, 1, d), c)
        return M.log0(moved.sum(axis=2), c)

    def sphere():
        p = M.sphere_project(M.sphere_exp_mu(T.concat(x, pad, axis=-1)))
        return M.sphere_log_mu(M.sphere_chart_clamp(p))

    query = Tensor(composed.reshape(n, d), requires_grad=True)
    table = model.entity_emb

    def head():
        logits = query @ table.swapaxes(0, 1)
        return smoothed_ce_loss(logits, tails, label_smoothing)

    out = {
        "tensor.embedding_fwdbwd_ms": _fwdbwd_ms(
            lambda: T.embedding(table, heads), [table], rng, reps),
        "attention.block_fwdbwd_ms": _fwdbwd_ms(
            lambda: block.forward(x)[0], [x], rng, reps),
        "attention.euclidean_fwdbwd_ms": _fwdbwd_ms(
            lambda: block.euclidean(x), [x], rng, reps),
        "attention.hyperbolic_fwdbwd_ms": _fwdbwd_ms(
            lambda: block.hyperbolic(x), [x], rng, reps),
        "attention.spherical_fwdbwd_ms": _fwdbwd_ms(
            lambda: block.spherical(x), [x], rng, reps),
        "attention.router_fwdbwd_ms": _fwdbwd_ms(
            lambda: block.router(x), [x], rng, reps),
        "manifolds.ball_fwdbwd_ms": _fwdbwd_ms(ball, [x], rng, reps),
        "manifolds.sphere_fwdbwd_ms": _fwdbwd_ms(sphere, [x], rng, reps),
        "kg.head_fwdbwd_ms": _fwdbwd_ms(head, [query, table], rng, reps),
    }
    params = model.parameters()
    opt = AdamW(params, 1e-3, weight_decay=1e-3)
    grads = {k: rng.standard_normal(p.shape) * 1e-3 for k, p in params.items()}
    times = []
    for _ in range(reps + 1):
        for k, p in params.items():
            p.grad = grads[k]
        start = perf_counter()
        opt.step()
        times.append((perf_counter() - start) * 1e3)
    out["trainer.adamw_alone_ms"] = statistics.median(times[1:])
    return out
