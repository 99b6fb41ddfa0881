"""Attention branches, the routing MLP, and the mixture block.

The Euclidean branch is checked against a from-scratch numpy
re-derivation of scaled dot-product attention; the hyperbolic and
spherical branches against step-by-step evaluation through the manifold
maps; the mixture against forced routing distributions where the output
is an exact convex combination.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from catkg import attention as A
from catkg import manifolds as M
from catkg import tensor as T
from catkg.attention import (CatBlock, EuclideanBranch, FeedForward,
                             HyperbolicBranch, Linear, Module, Router,
                             SingleGeometryBlock, SphericalBranch, build_block,
                             parameter_count)
from catkg.errors import ConfigError
from catkg.tensor import Tape, Tensor


def tokens(rng, batch=2, n=5, d=8, scale=0.5):
    return rng.normal(size=(batch, n, d)) * scale


def make_cat(d=8, seed=11):
    return CatBlock(d, heads=2, ff_multiplier=2, curvature=1.0, seed=seed)


class TestLinearAndCounts:
    def test_linear_is_affine(self):
        lin = Linear(3, 2, seed=0)
        x = np.array([[1.0, 0.0, -2.0]])
        assert_allclose(lin(Tensor(x)).data,
                        x @ lin.weight.data + lin.bias.data)

    def test_bias_starts_at_zero_weight_from_init(self):
        lin = Linear(4, 4, seed=1)
        assert np.all(lin.bias.data == 0.0)
        assert np.abs(lin.weight.data).max() > 0

    def test_parameter_count_linear(self):
        assert parameter_count(Linear(3, 4, seed=0)) == 3 * 4 + 4

    def test_parameter_count_euclidean_closed_form(self):
        d, heads, mult = 8, 2, 2
        branch = EuclideanBranch(d, heads, mult, seed=0)
        projections = 4 * (d * d + d)
        norms = 2 * 2 * d
        ff = (d * mult * d + mult * d) + (mult * d * d + d)
        assert parameter_count(branch) == projections + norms + ff

    def test_parameter_names_are_prefixed(self):
        branch = EuclideanBranch(8, 2, 2, seed=0)
        names = set(branch.parameters())
        assert {"wq.weight", "wq.bias", "ln1.gamma", "ff.lin1.weight",
                "ff.lin2.bias"} <= names


class TestModule:
    def test_parameters_follow_assignment_order(self):
        class Leaf(Module):
            def __init__(self):
                self.scale = 2.0
                self.b = Tensor(np.zeros(2))
                self.act = T.gelu
                self.a = Tensor(np.zeros(3))
                self.shape = (2, 3)

        class Outer(Module):
            def __init__(self):
                self.name = "outer"
                self.z = Tensor(np.zeros(1))
                self.inner = Leaf()
                # Containers are not walked, whatever they hold.
                self.table = {"w": Tensor(np.zeros(1))}
                self.layers = [Linear(2, 2, seed=0)]
                self.y = Tensor(np.zeros(4))

        outer = Outer()
        params = outer.parameters()
        assert list(params) == ["z", "inner.b", "inner.a", "y"]
        assert params["inner.a"] is outer.inner.a
        assert params["y"] is outer.y

    def test_router_is_a_feed_forward_to_three_logits(self):
        router = Router(8, seed=16)
        ff = FeedForward(8, 8, 3, seed=16)
        assert list(router.parameters()) == list(ff.parameters())
        for name, p in router.parameters().items():
            assert np.array_equal(p.data, ff.parameters()[name].data)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8)))
        assert np.array_equal(router(x).data,
                              T.softmax(ff(x), axis=-1).data)


class TestEuclideanBranch:
    def test_rejects_bad_head_split(self):
        with pytest.raises(ConfigError):
            EuclideanBranch(5, 2, 2, seed=0)
        with pytest.raises(ConfigError):
            EuclideanBranch(8, 0, 2, seed=0)

    def test_single_head_matches_numpy_rederivation(self):
        rng = np.random.default_rng(0)
        branch = EuclideanBranch(4, 1, 2, seed=5)
        x = rng.normal(size=(3, 2, 4))

        q = x @ branch.wq.weight.data + branch.wq.bias.data
        k = x @ branch.wk.weight.data + branch.wk.bias.data
        v = x @ branch.wv.weight.data + branch.wv.bias.data
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(4.0)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        weights = e / e.sum(-1, keepdims=True)
        expected = (weights @ v) @ branch.wo.weight.data + branch.wo.bias.data

        attended, w = branch.attend(Tensor(x))
        assert_allclose(attended.data, expected, rtol=0, atol=1e-10)
        assert_allclose(w.data[:, 0], weights, rtol=0, atol=1e-10)

    def test_weights_are_row_stochastic(self):
        rng = np.random.default_rng(1)
        branch = EuclideanBranch(8, 4, 2, seed=2)
        _, w = branch.attend(Tensor(tokens(rng, d=8) * 3))
        assert w.shape == (2, 4, 5, 5)
        assert np.abs(w.data.sum(-1) - 1.0).max() < 1e-9
        assert (w.data >= 0).all()

    def test_single_token_attends_to_itself(self):
        rng = np.random.default_rng(2)
        branch = EuclideanBranch(8, 2, 2, seed=3)
        _, w = branch.attend(Tensor(tokens(rng, n=1)))
        assert np.all(w.data == 1.0)

    def test_output_shape_preserved(self):
        rng = np.random.default_rng(3)
        branch = EuclideanBranch(8, 2, 2, seed=4)
        assert branch(Tensor(tokens(rng))).shape == (2, 5, 8)


class TestHyperbolicBranch:
    def test_weights_are_row_stochastic(self):
        rng = np.random.default_rng(4)
        branch = HyperbolicBranch(8, 1.0, 2, seed=5)
        w = branch.attend(Tensor(tokens(rng)))
        assert w.shape == (2, 5, 5)
        assert np.abs(w.data.sum(-1) - 1.0).max() < 1e-9
        assert (w.data >= 0).all()

    def test_self_distance_dominates_each_row(self):
        # d(q_i, q_i) = 0 is the smallest distance in its row, so the
        # diagonal carries the largest weight.
        rng = np.random.default_rng(5)
        branch = HyperbolicBranch(8, 1.0, 2, seed=6)
        w = branch.attend(Tensor(tokens(rng))).data
        diag = np.diagonal(w, axis1=-2, axis2=-1)
        assert np.all(diag >= w.max(-1) - 1e-12)

    def test_matches_step_by_step_manifold_evaluation(self):
        rng = np.random.default_rng(6)
        branch = HyperbolicBranch(6, 1.0, 2, seed=7)
        x = tokens(rng, batch=2, n=3, d=6)
        c = branch.c

        q = M.project_ball(M.exp0(branch.wq(Tensor(x)), c), c).data
        dist = np.empty((2, 3, 3))
        for b in range(2):
            for i in range(3):
                for j in range(3):
                    dist[b, i, j] = float(
                        M.poincare_distance(q[b, i], q[b, j], c).data)
        e = np.exp(-dist - (-dist).max(-1, keepdims=True))
        weights = e / e.sum(-1, keepdims=True)

        v = M.project_ball(M.exp0(branch.wv(Tensor(x)), c), c).data
        mixed = np.empty((2, 3, 6))
        for b in range(2):
            for i in range(3):
                acc = np.zeros(6)
                for j in range(3):
                    acc += M.mobius_scalar_mul(
                        float(weights[b, i, j]), v[b, j], c).data
                mixed[b, i] = M.project_ball(acc, c).data
        expected = branch.ff(M.log0(Tensor(mixed), c)).data

        assert_allclose(branch(Tensor(x)).data, expected, rtol=0, atol=1e-10)

    def test_single_token_skips_mixing(self):
        rng = np.random.default_rng(7)
        branch = HyperbolicBranch(8, 1.0, 2, seed=8)
        x = tokens(rng, n=1)
        assert np.all(branch.attend(Tensor(x)).data == 1.0)
        v = M.project_ball(M.exp0(branch.wv(Tensor(x)), branch.c), branch.c)
        expected = branch.ff(M.log0(M.project_ball(v, branch.c), branch.c))
        assert_allclose(branch(Tensor(x)).data, expected.data,
                        rtol=0, atol=1e-12)

    def test_output_shape_preserved(self):
        rng = np.random.default_rng(8)
        branch = HyperbolicBranch(8, 1.0, 2, seed=9)
        assert branch(Tensor(tokens(rng))).shape == (2, 5, 8)


class TestSphericalBranch:
    def test_lift_closed_form(self):
        rng = np.random.default_rng(9)
        branch = SphericalBranch(4, 2, seed=10)
        x = rng.normal(size=(1, 1, 4))
        n = np.linalg.norm(x[0, 0])
        expected = np.concatenate([np.sin(n) / n * x[0, 0], [np.cos(n)]])
        assert_allclose(branch.lift(Tensor(x)).data[0, 0], expected,
                        rtol=0, atol=1e-14)

    def test_lifted_points_are_unit_norm(self):
        rng = np.random.default_rng(10)
        branch = SphericalBranch(8, 2, seed=11)
        pts, w = branch.attend(Tensor(tokens(rng)))
        assert np.abs(np.linalg.norm(pts.data, axis=-1) - 1.0).max() < 1e-9
        assert np.abs(w.data.sum(-1) - 1.0).max() < 1e-9

    def test_gram_entries_are_cosines(self):
        # Pairwise scores before the softmax are inner products of unit
        # vectors, hence bounded by 1 in magnitude.
        rng = np.random.default_rng(11)
        branch = SphericalBranch(8, 2, seed=12)
        pts, _ = branch.attend(Tensor(tokens(rng)))
        gram = pts.data @ pts.data.swapaxes(-1, -2)
        assert np.abs(gram).max() <= 1.0 + 1e-12
        assert_allclose(np.diagonal(gram, axis1=-2, axis2=-1), 1.0,
                        rtol=0, atol=1e-12)

    def test_identical_tokens_pool_to_the_same_point(self):
        branch = SphericalBranch(6, 2, seed=13)
        row = np.full((1, 4, 6), 0.3)
        pts, w = branch.attend(Tensor(row))
        assert_allclose(w.data, 0.25, rtol=0, atol=1e-12)
        pooled = M.sphere_project(w @ pts).data
        assert_allclose(pooled, pts.data, rtol=0, atol=1e-12)

    def test_single_token_reduces_to_ff_of_lifted_tangent(self):
        rng = np.random.default_rng(12)
        branch = SphericalBranch(8, 2, seed=14)
        x = tokens(rng, n=1)
        pad = np.zeros(x.shape[:-1] + (1,))
        expected = branch.ff(Tensor(np.concatenate([x, pad], axis=-1))).data
        assert_allclose(branch(Tensor(x)).data, expected, rtol=0, atol=1e-10)

    def test_output_width_drops_back_to_d(self):
        rng = np.random.default_rng(13)
        branch = SphericalBranch(8, 2, seed=15)
        assert branch(Tensor(tokens(rng))).shape == (2, 5, 8)

    def test_tokens_with_norm_near_pi_stay_finite(self):
        # A lone token of norm pi lifts to the pole's antipode, which the
        # log map alone rejects; the chart retraction must absorb it so
        # training on drifting embeddings cannot crash mid-epoch.
        rng = np.random.default_rng(40)
        branch = SphericalBranch(8, 2, seed=41)
        direction = rng.normal(size=(1, 1, 8))
        direction /= np.linalg.norm(direction)
        for norm in (np.pi - 3e-4, np.pi, np.pi + 3e-4):
            out = branch(Tensor(direction * norm)).data
            assert np.all(np.isfinite(out))


# Token norms around every edge of the one-token closed forms: the log
# map's clamp at arccos(1 - COS_CLAMP) ≈ 4.47e-4, the chart clamp at
# π ± 1.4e-3, the antipode π itself and the folds beyond it.
EDGE_NORMS = (1e-5, 1e-4, 4.4e-4, 4.5e-4, 0.5, 3.0, np.pi - 1.5e-3,
              np.pi - 1e-3, np.pi, np.pi + 1e-3, 4.0, 7.0, 10.0)


def general_euclidean(branch, x):
    attended, _ = branch.attend(x)
    h = branch.ln1(x + attended)
    return branch.ln2(h + branch.ff(h))


def general_hyperbolic(branch, x):
    batch, n, d = x.shape
    weights = branch.attend(x)
    v = M.project_ball(M.exp0(branch.wv(x), branch.c), branch.c)
    scaled = M.mobius_scalar_mul(weights.reshape(batch, n, n, 1),
                                 v.reshape(batch, 1, n, d), branch.c)
    mixed = M.project_ball(scaled.sum(axis=2), branch.c)
    return branch.ff(M.log0(mixed, branch.c))


def general_spherical(branch, x):
    points, weights = branch.attend(x)
    pooled = M.sphere_project(weights @ points)
    return branch.ff(M.sphere_log_mu(M.sphere_chart_clamp(pooled)))


def unit_rows(n, d, seed):
    rows = np.random.default_rng(seed).normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


class TestOneTokenClosedForms:
    """Each branch's one-token path against its general path at N = 1.

    The general path is written out here (``attend`` plus the map chain),
    so the comparison does not go through the branch's own dispatch.
    """

    @staticmethod
    def _forward_backward(branch, forward, x, probe):
        params = branch.parameters()
        for p in params.values():
            p.grad = None
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = forward(t)
            loss = (out * Tensor(probe)).sum()
        tape.backward(loss)
        return out.data, t.grad, {k: p.grad for k, p in params.items()}

    def _both(self, branch, general, x):
        probe = np.random.default_rng(50).normal(size=x.shape)
        return (self._forward_backward(branch, branch, x, probe),
                self._forward_backward(
                    branch, lambda t: general(branch, t), x, probe))

    @pytest.mark.parametrize("d,heads,batch", [(8, 2, 13), (64, 4, 128)])
    def test_euclidean_is_bitwise_the_general_path(self, d, heads, batch):
        branch = EuclideanBranch(d, heads, 2, seed=51)
        x = np.random.default_rng(52).normal(size=(batch, 1, d))
        (y, gx, grads), (y0, gx0, grads0) = self._both(
            branch, general_euclidean, x)
        assert np.array_equal(y, y0)
        assert np.array_equal(gx, gx0)
        for name, g in grads.items():
            if name.startswith(("wq.", "wk.")):
                # The general path gives them an exact zero.
                assert g is None and not grads0[name].any(), name
            else:
                assert np.array_equal(g, grads0[name]), name

    def test_hyperbolic_is_a_radial_clip(self):
        branch = HyperbolicBranch(8, 1.0, 2, seed=53)
        # |wv(x)| takes each edge norm, then straddles r_max; wv's bias
        # starts at zero, so |wv(x)| scales with the row.
        target = np.array(EDGE_NORMS + (branch.r_max * (1 - 1e-6),
                                        branch.r_max * (1 + 1e-6)))
        rows = unit_rows(target.size, 8, seed=54)
        scale = target / np.linalg.norm(branch.wv(Tensor(rows)).data, axis=-1)
        x = (rows * scale[:, None]).reshape(-1, 1, 8)
        reached = np.linalg.norm(branch.wv(Tensor(x)).data[:, 0], axis=-1)
        assert reached[-2] < branch.r_max < reached[-1]
        (y, gx, grads), (y0, gx0, grads0) = self._both(
            branch, general_hyperbolic, x)
        assert_allclose(y, y0, rtol=0, atol=1e-10)
        assert_allclose(gx, gx0, rtol=0, atol=1e-8)
        for name, g in grads.items():
            if name.startswith("wq."):
                assert g is None and not grads0[name].any(), name
            else:
                assert_allclose(g, grads0[name], rtol=0, atol=1e-8,
                                err_msg=name)

    def test_spherical_is_a_radial_fold(self):
        branch = SphericalBranch(8, 2, seed=55)
        norms = np.array(EDGE_NORMS)
        units = unit_rows(norms.size, 8, seed=56)
        x = (units * norms[:, None]).reshape(-1, 1, 8)
        (y, gx, grads), (y0, gx0, grads0) = self._both(
            branch, general_spherical, x)
        assert_allclose(y, y0, rtol=0, atol=1e-10)
        for name, g in grads.items():
            assert_allclose(g, grads0[name], rtol=0, atol=1e-8, err_msg=name)
        gx, gx0 = gx[:, 0], gx0[:, 0]
        radial = (gx * units).sum(axis=-1, keepdims=True)
        radial0 = (gx0 * units).sum(axis=-1, keepdims=True)
        assert_allclose(gx - radial * units, gx0 - radial0 * units,
                        rtol=0, atol=1e-8)
        # At |x| = π exactly the general path's chart clamp rescales a
        # tangential part of ~1e-16 by ~1e13, so its slope along x is
        # rounding (seen as ±k/(2π) for small integers k). The closed form
        # gives the slope the clamp has on both sides of π: zero.
        at_pi = norms == np.pi
        assert_allclose(radial[~at_pi], radial0[~at_pi], rtol=0, atol=1e-8)
        assert np.abs(radial[at_pi]).max() < 1e-12
        clamped = np.abs(norms - np.pi) < 1.4e-3
        assert np.abs(radial0[clamped & ~at_pi]).max() < 1e-8

    def test_general_path_still_serves_sequences(self):
        rng = np.random.default_rng(57)
        x = Tensor(tokens(rng, n=3))
        for branch, general in (
                (EuclideanBranch(8, 2, 2, seed=58), general_euclidean),
                (HyperbolicBranch(8, 1.0, 2, seed=59),
                 general_hyperbolic),
                (SphericalBranch(8, 2, seed=60), general_spherical)):
            assert np.array_equal(branch(x).data, general(branch, x).data)


class TestRouter:
    def test_zero_input_routes_uniformly(self):
        router = Router(8, seed=16)
        alpha = router(Tensor(np.zeros((1, 4, 8)))).data
        assert np.all(alpha == 1.0 / 3.0)

    def test_outputs_lie_on_simplex(self):
        rng = np.random.default_rng(14)
        router = Router(8, seed=17)
        alpha = router(Tensor(tokens(rng) * 10)).data
        assert alpha.shape == (2, 5, 3)
        assert np.abs(alpha.sum(-1) - 1.0).max() < 1e-12
        assert (alpha >= 0).all()

    @pytest.mark.parametrize("branch", [0, 1, 2])
    def test_forced_routing_is_exactly_one_hot(self, branch):
        rng = np.random.default_rng(15)
        router = Router(8, seed=18)
        router.force_one_hot(branch)
        alpha = router(Tensor(tokens(rng) * 5)).data
        expected = np.zeros(3)
        expected[branch] = 1.0
        assert np.array_equal(alpha, np.broadcast_to(expected, alpha.shape))


class TestCatBlock:
    def test_shapes(self):
        rng = np.random.default_rng(16)
        block = make_cat()
        out, alpha = block.forward(Tensor(tokens(rng)))
        assert out.shape == (2, 5, 8)
        assert alpha.shape == (2, 5, 3)

    @pytest.mark.parametrize("idx,name",
                             [(0, "euclidean"), (1, "hyperbolic"),
                              (2, "spherical")])
    def test_one_hot_routing_collapses_to_single_branch(self, idx, name):
        rng = np.random.default_rng(17)
        block = make_cat(seed=19)
        block.router.force_one_hot(idx)
        x = Tensor(tokens(rng))
        mixed, _ = block.forward(x)
        assert np.array_equal(mixed.data, getattr(block, name)(x).data)

    def test_uniform_routing_averages_branches(self):
        rng = np.random.default_rng(18)
        block = make_cat(seed=20)
        block.router.lin2.weight.data[:] = 0.0
        block.router.lin2.bias.data[:] = 0.0
        x = Tensor(tokens(rng))
        mixed, alpha = block.forward(x)
        assert np.all(alpha.data == 1.0 / 3.0)
        mean = (block.euclidean(x).data + block.hyperbolic(x).data
                + block.spherical(x).data) / 3.0
        assert_allclose(mixed.data, mean, rtol=0, atol=1e-14)

    def test_mixture_stays_in_branch_convex_hull(self):
        rng = np.random.default_rng(19)
        block = make_cat(seed=21)
        x = Tensor(tokens(rng))
        mixed, _ = block.forward(x)
        stack = np.stack([block.euclidean(x).data, block.hyperbolic(x).data,
                          block.spherical(x).data])
        assert np.all(mixed.data <= stack.max(0) + 1e-12)
        assert np.all(mixed.data >= stack.min(0) - 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(20)
        block = make_cat(seed=22)
        x = tokens(rng)
        perm = rng.permutation(x.shape[1])
        out, alpha = block.forward(Tensor(x))
        out_p, alpha_p = block.forward(Tensor(x[:, perm]))
        assert_allclose(out_p.data, out.data[:, perm], rtol=0, atol=1e-12)
        assert_allclose(alpha_p.data, alpha.data[:, perm],
                        rtol=0, atol=1e-12)

    def test_gradient_reaches_every_component(self):
        # A random probe avoids the degenerate all-ones loss: summing a
        # layer-norm output over the feature axis is constant to first
        # order, which would hide real gradient paths.
        rng = np.random.default_rng(21)
        block = make_cat(seed=23)
        x = Tensor(tokens(rng, batch=1, n=3), requires_grad=True)
        probe = Tensor(rng.normal(size=(1, 3, 8)))
        with Tape() as tape:
            out, _ = block.forward(x)
            loss = (out * probe).sum()
        tape.backward(loss)
        assert np.abs(x.grad).max() > 0
        for name, p in block.parameters().items():
            assert p.grad is not None, name
            if name == "euclidean.wk.bias":
                # A shared key offset shifts every score in a softmax row
                # equally, so its gradient vanishes identically.
                assert np.abs(p.grad).max() < 1e-12
            else:
                assert np.abs(p.grad).max() > 1e-12, name

    def test_parameter_namespaces_cover_all_branches(self):
        block = make_cat()
        names = set(block.parameters())
        for prefix in ("euclidean.", "hyperbolic.", "spherical.", "router."):
            assert any(n.startswith(prefix) for n in names)


class TestBuildBlock:
    def test_cat_variant(self):
        block = build_block("cat", 8, heads=2, ff_multiplier=2, seed=0)
        assert isinstance(block, CatBlock)

    @pytest.mark.parametrize("variant,cls",
                             [("euclidean", EuclideanBranch),
                              ("hyperbolic", HyperbolicBranch),
                              ("spherical", SphericalBranch)])
    def test_fixed_variants(self, variant, cls):
        block = build_block(variant, 8, heads=2, ff_multiplier=2, seed=0)
        assert isinstance(block, SingleGeometryBlock)
        assert isinstance(getattr(block, variant), cls)
        assert all(n.startswith(variant + ".") for n in block.parameters())

    def test_fixed_variant_forward_matches_branch(self):
        rng = np.random.default_rng(22)
        block = build_block("euclidean", 8, heads=2, ff_multiplier=2, seed=1)
        x = Tensor(tokens(rng))
        out, alpha = block.forward(x)
        assert alpha is None
        assert np.array_equal(out.data, block.euclidean(x).data)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            build_block("toroidal", 8, heads=2, ff_multiplier=2, seed=0)

    def test_cat_router_overhead_is_small(self):
        d = 8
        cat = build_block("cat", d, heads=2, ff_multiplier=2, seed=0)
        total = parameter_count(cat)
        parts = sum(parameter_count(getattr(cat, n))
                    for n in ("euclidean", "hyperbolic", "spherical"))
        router = parameter_count(cat.router)
        assert total == parts + router
        assert router == (d * d + d) + (d * 3 + 3)


class TestGradCheckBranches:
    """Full-branch analytic/numeric agreement on small instances."""

    def _check(self, fn, x):
        probe = np.random.default_rng(99).normal(size=x.shape)

        def loss(t):
            return (fn(t) * Tensor(probe)).sum()

        t = Tensor(x, requires_grad=True)
        err = T.grad_check(loss, [t])
        assert err < 1e-5

    def test_euclidean(self):
        rng = np.random.default_rng(23)
        self._check(EuclideanBranch(6, 2, 2, seed=3),
                    tokens(rng, batch=1, n=3, d=6))

    def test_hyperbolic(self):
        rng = np.random.default_rng(24)
        self._check(HyperbolicBranch(6, 1.0, 2, seed=4),
                    tokens(rng, batch=1, n=3, d=6))

    def test_spherical(self):
        rng = np.random.default_rng(25)
        self._check(SphericalBranch(6, 2, seed=5),
                    tokens(rng, batch=1, n=3, d=6))

    def test_full_mixture(self):
        rng = np.random.default_rng(26)
        block = make_cat(d=6, seed=6)
        self._check(lambda t: block.forward(t)[0],
                    tokens(rng, batch=1, n=3, d=6))
