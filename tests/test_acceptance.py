"""End-to-end verification gate: one test per release criterion.

Each test pins the tolerances the package commits to — gradient accuracy,
geometric identities, routing degeneracy, schedule arithmetic, ranking
correctness against exhaustive enumeration, trainability of all four
variants, parameter budget, and bitwise reproducibility. Run with -v to
get one pass/fail line per criterion.
"""

import math
import os
import time

import numpy as np
import pytest

from catkg import manifolds as M
from catkg import tensor as T
from catkg.attention import (CatBlock, EuclideanBranch, HyperbolicBranch,
                             SphericalBranch)
from catkg.config import TrainConfig
from catkg.kg import (KgModel, LN3, evaluate, filtered_rank, load_triples,
                      routing_entropy, score_all_tails, smoothed_ce_loss,
                      total_loss)
from catkg.tensor import Tensor
from catkg.trainer import anneal_lambda, train

from conftest import build_toy_store

FULL_DATA_ENV = "CATKG_FB15K237_DIR"


def _ball(rng, shape, radius=0.85):
    x = rng.normal(size=shape)
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    r = rng.uniform(0.05, radius, size=shape[:-1] + (1,))
    return x * r


def _sphere(rng, shape):
    """Points away from both the pole band and the antipodal cap."""
    v = rng.normal(size=shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    v *= rng.uniform(0.1, 2.8, size=shape[:-1] + (1,))
    v[..., -1] = 0.0
    return M.sphere_exp_mu(v).data


def _closure_check(forward, x, params, probe):
    """grad_check over an input plus module parameters.

    The parameters enter the graph through the module, not the closure
    arguments; grad_check perturbs their .data in place and reads the
    tape gradient off each tensor, so passing them alongside x checks
    the full parameter path.
    """

    def fn(*_):
        return T.reduce_sum(forward(x) * probe)

    return T.grad_check(fn, [x, *params])


def test_every_differentiable_component_passes_gradient_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {}

    # --- manifold maps, 20 random instances each (batched rows) ---
    xb = Tensor(_ball(rng, (20, 5)), requires_grad=True)
    yb = Tensor(_ball(rng, (20, 5)), requires_grad=True)
    rr = Tensor(rng.uniform(0.2, 1.8, size=(20, 1)), requires_grad=True)
    vb = Tensor(rng.normal(size=(20, 5)) * 0.7, requires_grad=True)
    # project_ball has a kink at the boundary radius; keep the finite
    # differences clear of it on both sides
    direction = rng.normal(size=(20, 5))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    radii = np.where(rng.random((20, 1)) < 0.5,
                     rng.uniform(0.2, 0.8, (20, 1)),
                     rng.uniform(1.2, 2.0, (20, 1)))
    proj_pts = Tensor(direction * radii, requires_grad=True)
    vs = rng.normal(size=(20, 6))
    vs[:, -1] = 0.0  # tangents at the pole have no polar component
    vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
    vs = Tensor(vs * rng.uniform(0.1, 2.5, size=(20, 1)), requires_grad=True)
    xs = Tensor(_sphere(rng, (20, 6)), requires_grad=True)

    worst["mobius_add"] = T.grad_check(
        lambda a, b: T.reduce_sum(M.mobius_add(a, b, 1.0)), [xb, yb])
    worst["mobius_scalar_mul"] = T.grad_check(
        lambda r, a: T.reduce_sum(M.mobius_scalar_mul(r, a, 1.0)), [rr, xb])
    worst["exp0"] = T.grad_check(
        lambda v: T.reduce_sum(M.exp0(v, 1.0)), [vb])
    worst["log0"] = T.grad_check(
        lambda a: T.reduce_sum(M.log0(a, 1.0)), [xb])
    worst["project_ball"] = T.grad_check(
        lambda a: T.reduce_sum(M.project_ball(a, 1.0)), [proj_pts])
    worst["poincare_distance"] = T.grad_check(
        lambda a, b: T.reduce_sum(M.poincare_distance(a, b, 1.0)), [xb, yb])
    worst["sphere_exp_mu"] = T.grad_check(
        lambda v: T.reduce_sum(M.sphere_exp_mu(v)), [vs])
    worst["sphere_log_mu"] = T.grad_check(
        lambda a: T.reduce_sum(M.sphere_log_mu(a)), [xs])
    worst["sphere_project"] = T.grad_check(
        lambda a: T.reduce_sum(M.sphere_project(a)), [xs])
    worst["sphere_chart_clamp"] = T.grad_check(
        lambda a: T.reduce_sum(M.sphere_chart_clamp(a)), [xs])

    # --- branches and the routed block, 20 instances each with a
    # rotating pair of parameter tensors per instance ---
    d = 6
    components = {
        "euclidean_branch": EuclideanBranch(d, 2, 2, seed=7),
        "hyperbolic_branch": HyperbolicBranch(d, 1.0, 2, seed=8),
        "spherical_branch": SphericalBranch(d, 2, seed=9),
    }
    block = CatBlock(d, 2, 2, 1.0, seed=10)
    forwards = {name: mod for name, mod in components.items()}
    forwards["cat_block"] = lambda t: block.forward(t)[0]
    param_sets = {name: sorted(mod.parameters().items())
                  for name, mod in components.items()}
    param_sets["cat_block"] = sorted(block.parameters().items())

    for name, forward in forwards.items():
        params = param_sets[name]
        err = 0.0
        for k in range(20):
            x = Tensor(rng.normal(size=(1, 3, d)) * 0.5, requires_grad=True)
            probe = Tensor(rng.normal(size=(1, 3, d)))
            chosen = [params[k % len(params)][1],
                      params[(3 * k + 1) % len(params)][1]]
            err = max(err, _closure_check(forward, x, chosen, probe))
        worst[name] = err

    # --- both loss terms, 20 rows each, plus their combination ---
    logits = Tensor(rng.normal(size=(20, 9)), requires_grad=True)
    targets = rng.integers(0, 9, size=20)
    worst["smoothed_ce"] = T.grad_check(
        lambda L: smoothed_ce_loss(L, targets, 0.1), [logits])
    raw = rng.uniform(0.05, 1.0, size=(20, 4, 3))
    alpha = Tensor(raw / raw.sum(-1, keepdims=True), requires_grad=True)
    worst["routing_entropy"] = T.grad_check(routing_entropy, [alpha])
    worst["total_loss"] = T.grad_check(
        lambda L, a: total_loss(smoothed_ce_loss(L, targets, 0.1),
                                routing_entropy(a), 0.01),
        [logits, alpha])

    elapsed = time.perf_counter() - started
    for name, err in worst.items():
        assert err <= 1e-4, f"{name}: gradient error {err:.3e} > 1e-4"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    print(f"gradient suite: PASS (worst {max(worst.values()):.3e} over "
          f"{len(worst)} components, {elapsed:.1f}s)")


def test_manifold_identities_hold_at_pinned_tolerances():
    rng = np.random.default_rng(102)

    # exp/log roundtrips on both manifolds
    for c in (1.0, 0.5, 2.0):
        v = rng.normal(size=(200, 5))
        v = v / np.linalg.norm(v, axis=-1, keepdims=True) \
            * rng.uniform(0.05, 2.5, size=(200, 1))
        back = M.log0(M.exp0(v, c), c).data
        assert np.abs(back - v).max() <= 1e-8
        x = _ball(rng, (200, 5)) / math.sqrt(c)
        again = M.exp0(M.log0(x, c), c).data
        assert np.abs(again - x).max() <= 1e-8
    vs = rng.normal(size=(200, 6))
    vs[:, -1] = 0.0  # tangents at the pole have no polar component
    vs = vs / np.linalg.norm(vs, axis=-1, keepdims=True) \
        * rng.uniform(0.05, 2.9, size=(200, 1))
    assert np.abs(M.sphere_log_mu(M.sphere_exp_mu(vs)).data - vs).max() <= 1e-8

    # Mobius identity and left inverse
    x = _ball(rng, (1000, 4))
    assert np.abs(M.mobius_add(np.zeros_like(x), x, 1.0).data - x).max() \
        <= 1e-10
    assert np.abs(M.mobius_add(-x, x, 1.0).data).max() <= 1e-10

    # distance symmetry and triangle inequality on 1000 random triples
    a, b, c3 = (_ball(rng, (1000, 4)) for _ in range(3))
    dab = M.poincare_distance(a, b, 1.0).data
    dba = M.poincare_distance(b, a, 1.0).data
    assert np.abs(dab - dba).max() <= 1e-12
    dac = M.poincare_distance(a, c3, 1.0).data
    dcb = M.poincare_distance(c3, b, 1.0).data
    violation = (dab - dac - dcb).max()
    assert violation <= 1e-10, f"triangle violated by {violation:.3e}"

    # every sphere output is unit-norm
    tangents = rng.normal(size=(1000, 6))
    tangents[:, -1] = 0.0
    pts = M.sphere_exp_mu(tangents).data
    assert np.abs(np.linalg.norm(pts, axis=-1) - 1.0).max() <= 1e-9
    proj = M.sphere_project(rng.normal(size=(1000, 6)) * 3.0).data
    assert np.abs(np.linalg.norm(proj, axis=-1) - 1.0).max() <= 1e-9
    print("manifold identities: PASS (roundtrip<=1e-8, inverse<=1e-10, "
          "symmetry<=1e-12, triangle<=1e-10 on 1000 triples, sphere<=1e-9)")


def test_one_hot_routing_collapses_to_fixed_branches():
    rng = np.random.default_rng(103)
    block = CatBlock(8, 2, 2, 1.0, seed=21)
    x = Tensor(rng.normal(size=(100, 4, 8)) * 0.5)
    worst = 0.0
    for i, name in enumerate(CatBlock.branch_names):
        block.router.force_one_hot(i)
        mixed, alpha = block.forward(x)
        expected = np.zeros(3)
        expected[i] = 1.0
        assert np.array_equal(alpha.data.reshape(-1, 3),
                              np.tile(expected, (400, 1)))
        direct = getattr(block, name)(x).data
        worst = max(worst, np.abs(mixed.data - direct).max())
    assert worst <= 1e-12
    print(f"mixture degeneracy: PASS (max |mixed - branch| = {worst:.1e} "
          f"over 100 inputs x 3 branches)")


def test_entropy_endpoints_and_annealing_schedule():
    rng = np.random.default_rng(104)
    raw = rng.uniform(1e-6, 1.0, size=(500, 3))
    for row in raw / raw.sum(-1, keepdims=True):
        h = float(routing_entropy(Tensor(row.reshape(1, 1, 3))).data)
        assert 0.0 <= h <= LN3 + 1e-15
    uniform = float(routing_entropy(Tensor(np.full((1, 1, 3), 1 / 3))).data)
    # three p*log(p) terms summed land one ulp below the directly
    # rounded log(3); that is the closest attainable float
    assert abs(uniform - LN3) <= 2.3e-16
    one_hot = float(routing_entropy(
        Tensor(np.array([[[0.0, 1.0, 0.0]]]))).data)
    assert one_hot == 0.0

    lam, worst = 0.01, 0.0
    for k in range(1, 201):
        lam = anneal_lambda(lam)
        worst = max(worst, abs(lam - max(0.001, 0.01 * 0.95 ** k)))
    assert worst <= 1e-15
    print(f"entropy/schedule: PASS (uniform within one ulp of ln3, one-hot "
          f"exact 0, lambda drift {worst:.1e} over 200 steps)")


def _brute_rank(scores, t, known):
    rank = 1
    for i, s in enumerate(scores):
        if i != t and i not in known and s >= scores[t]:
            rank += 1
    return rank


def test_filtered_ranking_matches_exhaustive_enumeration():
    rng = np.random.default_rng(105)

    # 500 randomized score/filter configurations, ties forced on half
    ranks_mod, ranks_ref = [], []
    for _ in range(500):
        n = int(rng.integers(2, 11))
        scores = rng.normal(size=n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        t = int(rng.integers(n))
        known = {int(i)
                 for i in rng.integers(0, n, size=int(rng.integers(0, n + 1)))}
        ranks_mod.append(filtered_rank(scores, t, known))
        ranks_ref.append(_brute_rank(scores, t, known))
    assert ranks_mod == ranks_ref
    mrr_mod = sum(1.0 / r for r in ranks_mod) / len(ranks_mod)
    mrr_ref = sum(1.0 / r for r in ranks_ref) / len(ranks_ref)
    hits_mod = sum(r <= 10 for r in ranks_mod) / len(ranks_mod)
    hits_ref = sum(r <= 10 for r in ranks_ref) / len(ranks_ref)
    assert mrr_mod == mrr_ref and hits_mod == hits_ref

    # the evaluation loop agrees with a literal re-derivation, bitwise
    for seed in range(5):
        store = build_toy_store(n_entities=8, n_relations=3, n_train=40,
                                n_valid=12, n_test=12, seed=seed)
        model = KgModel(store.n_entities, store.n_relations,
                        TrainConfig(d=8, heads=2, seed=seed))
        metrics = evaluate(store, model, "test")
        recip, hits = 0.0, 0
        triples = store.split("test")
        for h, r, t in triples:
            scores = score_all_tails(model, int(h), int(r))
            rank = _brute_rank(scores, int(t),
                               set(store.known_tails(int(h), int(r))))
            recip += 1.0 / rank
            hits += rank <= 10
        n = triples.shape[0]
        assert metrics.mrr == recip / n
        assert metrics.hits_at_10 == hits / n
    print("filtered ranking: PASS (500 configs exact, 5 model evaluations "
          "bitwise equal to enumeration)")


def test_every_variant_memorizes_a_toy_graph():
    started = time.perf_counter()
    store = build_toy_store(n_entities=40, n_relations=4, n_train=180,
                            n_valid=30, n_test=10, seed=3)
    reached = {}
    for variant in ("cat", "euclidean", "hyperbolic", "spherical"):
        cfg = TrainConfig(d=32, heads=4, variant=variant, lr=0.01,
                          dropout=0.0, epochs=80, batch_size=512, seed=0)
        result = train(store, cfg)
        reached[variant] = evaluate(store, result.model, "train").mrr
    elapsed = time.perf_counter() - started
    for variant, mrr in reached.items():
        assert mrr >= 0.9, f"{variant} train MRR {mrr:.4f} < 0.9"
    assert elapsed < 300.0, f"memorization took {elapsed:.1f}s"
    summary = ", ".join(f"{v}={m:.3f}" for v, m in reached.items())
    print(f"memorization: PASS ({summary}, {elapsed:.1f}s)")


def test_routing_overhead_stays_within_band():
    # benchmark-scale vocabulary: 14541 entities, 237 relations, d=64
    euclid = KgModel(14541, 237, TrainConfig(d=64, variant="euclidean"))
    routed = KgModel(14541, 237, TrainConfig(d=64, variant="cat"))
    base = euclid.parameter_count()
    full = routed.parameter_count()
    assert base == 979_264
    ratio = full / base
    assert 1.03 <= ratio <= 1.08, f"overhead ratio {ratio:.4f} outside band"
    print(f"parameter budget: PASS (euclidean={base}, cat={full}, "
          f"overhead={100 * (ratio - 1):.2f}%)")


@pytest.mark.skipif(
    FULL_DATA_ENV not in os.environ,
    reason=f"hours-scale full-data run; set {FULL_DATA_ENV} to a directory "
           "containing train.txt/valid.txt/test.txt to enable. Asserts only "
           "the ordering (routed mixture >= every fixed variant); absolute "
           "targets MRR ~0.29 / Hits@10 ~0.47 are informational.")
def test_full_data_ordering_replication():
    data = os.environ[FULL_DATA_ENV]
    store = load_triples(os.path.join(data, "train.txt"),
                         os.path.join(data, "valid.txt"),
                         os.path.join(data, "test.txt"))
    results = {}
    for variant in ("euclidean", "hyperbolic", "spherical", "cat"):
        cfg = TrainConfig(d=64, variant=variant, epochs=200, seed=0)
        trained = train(store, cfg)
        metrics = evaluate(store, trained.model, "test")
        results[variant] = metrics
        print(f"{variant}: test mrr={metrics.mrr:.4f} "
              f"hits@10={metrics.hits_at_10:.4f}")
    for variant in ("euclidean", "hyperbolic", "spherical"):
        assert results["cat"].mrr >= results[variant].mrr
    print("full-data ordering: PASS")


def test_identical_configs_reproduce_bitwise():
    store = build_toy_store(n_entities=20, n_relations=3, n_train=60,
                            n_valid=10, n_test=5, seed=11)
    cfg = TrainConfig(d=16, heads=2, epochs=6, dropout=0.2, seed=3)
    first = train(store, cfg)
    second = train(store, cfg)
    assert first.log_text() == second.log_text()
    assert first.best_valid_mrr == second.best_valid_mrr
    for name, p in first.model.parameters().items():
        assert np.array_equal(p.data, second.model.parameters()[name].data)
    m1 = evaluate(store, first.model, "test")
    m2 = evaluate(store, second.model, "test")
    assert (m1.mrr, m1.hits_at_10) == (m2.mrr, m2.hits_at_10)
    print("determinism: PASS (logs, parameters and metrics bit-identical)")
