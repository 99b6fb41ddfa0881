"""Geometry-specific attention branches and the routed mixture block.

Input is a batch of token sequences X with shape (B, N, d). Three
branches each map X to a (B, N, d) output:

* ``EuclideanBranch`` — post-norm transformer layer: multi-head scaled
  dot-product attention with residual + layer norm, then a feed-forward
  with residual + layer norm.
* ``HyperbolicBranch`` — queries/values mapped onto a Poincaré ball;
  attention weights are a row softmax of negative pairwise geodesic
  distances between queries; values are aggregated by Möbius scalar
  multiplication, summed in the ambient space, projected back into the
  ball, and log-mapped to the tangent space for a feed-forward.
* ``SphericalBranch`` — tokens lifted to [X; 0], exp-mapped onto the
  unit sphere at the north pole; attention is a row softmax of the
  cosine-similarity Gram matrix; the convex combination is renormalized
  to the sphere and log-mapped back for a feed-forward.

``CatBlock`` runs all three plus a small routing MLP producing per-token
simplex weights alpha (B, N, 3), and returns the convex mixture
``alpha_E * Y_E + alpha_H * Y_H + alpha_S * Y_S`` along with alpha.
No branch uses positional information, so everything here is
permutation-equivariant over tokens.

A sequence of one token (N = 1, which is what ``KgModel`` feeds) has
every attention softmax equal to 1, and each branch takes its closed
form instead of the general path:

* Euclidean: ``ln2(h + ff(h))`` with ``h = ln1(x + wo(wv(x)))``, bitwise
  the general path's output; ``wq`` and ``wk`` get no gradient.
* Hyperbolic: ``ff(radial_clip(wv(x), r_max))``, ``r_max =
  artanh(1 - BOUNDARY_EPS)/sqrt(c)``: exp0, the ball projection and log0
  of one value only cap its norm. ``wq`` gets no gradient.
* Spherical: ``ff(sphere_fold(x))``, the lift, chart clamp and log map of
  one token as one radial map (see :func:`manifolds.sphere_fold`).
"""

from __future__ import annotations

import math

import numpy as np

from . import manifolds as M
from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

VARIANTS = ("cat", "euclidean", "hyperbolic", "spherical")


class Module:
    """A layer whose parameters are its attributes.

    :meth:`parameters` walks the instance attributes in assignment order:
    a :class:`Tensor` is a parameter named by its attribute, and a
    ``Module`` adds its own parameters under ``<attr>.``. Anything else
    (activation functions, numbers, names, containers) is skipped.
    """

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                params[attr] = value
            elif isinstance(value, Module):
                for name, p in value.parameters().items():
                    params[f"{attr}.{name}"] = p
        return params


class Linear(Module):
    """Affine map over the last axis: y = x W + b."""

    def __init__(self, d_in: int, d_out: int, seed: int):
        self.weight = T.xavier_uniform((d_in, d_out), seed)
        self.weight.requires_grad = True
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class FeedForward(Module):
    """Two affine maps around one smooth nonlinearity."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int,
                 activation: str, seed: int):
        s1, s2 = T.derive_seeds(seed, 2)
        self.lin1 = Linear(d_in, d_hidden, s1)
        self.lin2 = Linear(d_hidden, d_out, s2)
        self.act = T.activation(activation)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.act(self.lin1(x)))


class EuclideanBranch(Module):
    """Multi-head dot-product attention layer with post-norm residuals."""

    def __init__(self, d: int, heads: int, ff_multiplier: int,
                 activation: str, seed: int):
        if heads < 1 or d % heads != 0:
            raise ConfigError(
                f"model dim {d} is not divisible by head count {heads}")
        self.d = d
        self.heads = heads
        self.d_head = d // heads
        sq, sk, sv, so, sf = T.derive_seeds(seed, 5)
        self.wq = Linear(d, d, sq)
        self.wk = Linear(d, d, sk)
        self.wv = Linear(d, d, sv)
        self.wo = Linear(d, d, so)
        self.ln1 = LayerNorm(d)
        self.ln2 = LayerNorm(d)
        self.ff = FeedForward(d, ff_multiplier * d, d, activation, sf)

    def _split_heads(self, x: Tensor, batch: int, n: int) -> Tensor:
        return x.reshape(batch, n, self.heads, self.d_head).swapaxes(1, 2)

    def attend(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Attention sublayer output and the (B, H, N, N) weight matrix."""
        batch, n, _ = x.shape
        q = self._split_heads(self.wq(x), batch, n)
        k = self._split_heads(self.wk(x), batch, n)
        v = self._split_heads(self.wv(x), batch, n)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.d_head))
        weights = T.softmax(scores, axis=-1)
        context = (weights @ v).swapaxes(1, 2).reshape(batch, n, self.d)
        return self.wo(context), weights

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-2] == 1:
            # A lone token's softmax is exactly 1, so the context is v
            # itself: bitwise the same output, without wq, wk and the scores.
            attended = self.wo(self.wv(x))
        else:
            attended, _ = self.attend(x)
        h = self.ln1(x + attended)
        return self.ln2(h + self.ff(h))


class HyperbolicBranch(Module):
    """Attention by geodesic proximity on a Poincaré ball.

    Distances are taken between the mapped queries only (there is no
    separate key projection), and aggregation scales each mapped value by
    its weight along the geodesic from the origin before an ambient sum.
    """

    def __init__(self, d: int, curvature: float, ff_multiplier: int,
                 activation: str, seed: int):
        self.c = M.check_curvature(curvature)
        # Longest tangent vector exp0 maps inside the projected ball.
        self.r_max = math.atanh(1.0 - M.BOUNDARY_EPS) / math.sqrt(self.c)
        sq, sv, sf = T.derive_seeds(seed, 3)
        self.wq = Linear(d, d, sq)
        self.wv = Linear(d, d, sv)
        self.ff = FeedForward(d, ff_multiplier * d, d, activation, sf)

    def attend(self, x: Tensor) -> Tensor:
        """Row-stochastic (B, N, N) weights from pairwise ball distances."""
        batch, n, d = x.shape
        q = M.project_ball(M.exp0(self.wq(x), self.c), self.c)
        qi = q.reshape(batch, n, 1, d)
        qj = q.reshape(batch, 1, n, d)
        dist = M.poincare_distance(qi, qj, self.c)
        return T.softmax(-dist, axis=-1)

    def __call__(self, x: Tensor) -> Tensor:
        batch, n, d = x.shape
        if n == 1:
            # Weight 1 makes the Möbius scaling and the sum identities, so
            # exp0 → project → log0 of the value is a radial clip.
            return self.ff(M.radial_clip(self.wv(x), self.r_max))
        weights = self.attend(x)
        v = M.project_ball(M.exp0(self.wv(x), self.c), self.c)
        scaled = M.mobius_scalar_mul(weights.reshape(batch, n, n, 1),
                                     v.reshape(batch, 1, n, d), self.c)
        mixed = M.project_ball(scaled.sum(axis=2), self.c)
        return self.ff(M.log0(mixed, self.c))


class SphericalBranch(Module):
    """Attention by cosine similarity between sphere-lifted tokens."""

    def __init__(self, d: int, ff_multiplier: int, activation: str,
                 seed: int):
        # Tangent vectors at the pole live in R^{d+1}; the feed-forward
        # brings the output back to width d.
        self.ff = FeedForward(d + 1, ff_multiplier * d, d, activation, seed)

    def lift(self, x: Tensor) -> Tensor:
        """Map tokens onto the sphere through the zero-padded tangent."""
        pad = Tensor(np.zeros(x.shape[:-1] + (1,)))
        return M.sphere_exp_mu(T.concat(x, pad, axis=-1))

    def attend(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Sphere points and row-stochastic Gram-matrix weights."""
        points = self.lift(x)
        gram = points @ points.swapaxes(-1, -2)
        return points, T.softmax(gram, axis=-1)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-2] == 1:
            # A lone token pools to its own lifted point; lift, clamp and
            # log map collapse to one radial fold of the token.
            return self.ff(M.sphere_fold(x))
        points, weights = self.attend(x)
        pooled = M.sphere_project(weights @ points)
        # Token norms near pi land the pooled point next to the antipode,
        # outside the log map's chart; retract it back in first.
        return self.ff(M.sphere_log_mu(M.sphere_chart_clamp(pooled)))


class Router(FeedForward):
    """Feed-forward to three logits + softmax: per-token branch weights."""

    def __init__(self, d: int, d_hidden: int, activation: str, seed: int):
        super().__init__(d, d_hidden, 3, activation, seed)

    def __call__(self, x: Tensor) -> Tensor:
        return T.softmax(super().__call__(x), axis=-1)

    def force_one_hot(self, branch: int) -> None:
        """Pin the routing distribution to a single branch.

        Sets the output layer so its logits are 0 for ``branch`` and
        -2000 elsewhere; the losing exponentials underflow to exactly
        zero, making alpha an exact one-hot vector.
        """
        self.lin2.weight.data[:] = 0.0
        self.lin2.bias.data[:] = -2000.0
        self.lin2.bias.data[branch] = 0.0


class CatBlock(Module):
    """The routed mixture of the three geometry branches."""

    branch_names = ("euclidean", "hyperbolic", "spherical")

    def __init__(self, d: int, heads: int, ff_multiplier: int,
                 activation: str, curvature: float, seed: int):
        se, sh, ss, sr = T.derive_seeds(seed, 4)
        self.euclidean = EuclideanBranch(d, heads, ff_multiplier,
                                         activation, se)
        self.hyperbolic = HyperbolicBranch(d, curvature, ff_multiplier,
                                           activation, sh)
        self.spherical = SphericalBranch(d, ff_multiplier, activation, ss)
        self.router = Router(d, d, activation, sr)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        alpha = self.router(x)
        outputs = (self.euclidean(x), self.hyperbolic(x), self.spherical(x))
        mixed = None
        for i, branch_out in enumerate(outputs):
            term = T.narrow(alpha, -1, i, 1) * branch_out
            mixed = term if mixed is None else mixed + term
        return mixed, alpha


class SingleGeometryBlock(Module):
    """Adapter giving one branch the same interface as :class:`CatBlock`.

    ``forward`` returns ``None`` in place of routing weights: fixed
    variants have nothing to route.
    """

    def __init__(self, name: str, branch):
        self.name = name
        self.branch = branch

    def forward(self, x: Tensor) -> tuple[Tensor, None]:
        return self.branch(x), None

    def parameters(self) -> dict[str, Tensor]:
        # Named by the variant, not by the ``branch`` attribute.
        return {f"{self.name}.{key}": p
                for key, p in self.branch.parameters().items()}


def build_block(variant: str, d: int, *, heads: int, ff_multiplier: int,
                activation: str, curvature: float, seed: int):
    """Construct the block for a model variant tag."""
    if variant == "cat":
        return CatBlock(d, heads, ff_multiplier, activation, curvature, seed)
    if variant == "euclidean":
        return SingleGeometryBlock(
            variant, EuclideanBranch(d, heads, ff_multiplier, activation, seed))
    if variant == "hyperbolic":
        return SingleGeometryBlock(
            variant, HyperbolicBranch(d, curvature, ff_multiplier, activation,
                                      seed))
    if variant == "spherical":
        return SingleGeometryBlock(
            variant, SphericalBranch(d, ff_multiplier, activation, seed))
    raise ConfigError(f"unknown variant {variant!r}; choose from {VARIANTS}")


def parameter_count(module) -> int:
    """Total number of scalar parameters in a module."""
    return sum(p.size for p in module.parameters().values())
