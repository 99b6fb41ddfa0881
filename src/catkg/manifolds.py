"""Closed-form maps for the Poincaré ball and the unit hypersphere.

All operations act on the last axis (leading axes are batch), accept
Tensors or arrays, and return Tensors so gradients flow through the tape.

Stability conventions used throughout:

* norms are computed as ``sqrt(sum(x^2) + 1e-32)`` so that the zero
  vector has an exact, finite-gradient image under every map;
* radial formulas are written in "factor form" ``f(|x|)/|x| * x`` instead
  of normalizing first, which keeps the x → 0 limit exact;
* ball points are renormalized to radius ``(1 - BOUNDARY_EPS)/sqrt(c)``
  whenever they stray, keeping ``artanh`` arguments away from 1.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError
from .tensor import Tensor

# Margin between representable points and the ball boundary 1/sqrt(c).
BOUNDARY_EPS = 1e-5

# Inner products fed to arccos are clamped this far inside [-1, 1].
COS_CLAMP = 1e-7

# Sphere points keep their last coordinate at least this far above -1.
CHART_MARGIN = 1e-6

_NORM_FLOOR_SQ = 1e-32


def check_curvature(c) -> float:
    """Validate the (positive) curvature magnitude of a Poincaré ball."""
    c = float(c)
    if not math.isfinite(c) or c <= 0.0:
        raise ConfigError(f"ball curvature must be a positive finite scalar, got {c}")
    return c


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The values of :func:`safe_norm` for an array, off the tape."""
    return np.sqrt((a * a).sum(axis=-1, keepdims=True) + _NORM_FLOOR_SQ)


def safe_norm(x, keepdims: bool = True) -> Tensor:
    """Euclidean norm ``sqrt(sum(x²) + 1e-32)`` over the last axis.

    The floor keeps the gradient ``g·x/n`` finite at the zero vector.
    """
    x = T.as_tensor(x)
    n = _row_norms(x.data)
    return T.node(n if keepdims else n[..., 0], (x,),
                  lambda g: (x.data * (g.reshape(n.shape) / n),))


# ---------------------------------------------------------------------------
# Poincaré ball of curvature -c
# ---------------------------------------------------------------------------

def project_ball(x, c) -> Tensor:
    """Pull points of norm > (1 - BOUNDARY_EPS)/sqrt(c) back to that radius.

    This is :func:`radial_clip` at that radius. Interior points pass
    through unchanged (the rescale factor clips to exactly 1), so the
    operation is idempotent.
    """
    c = check_curvature(c)
    return radial_clip(x, (1.0 - BOUNDARY_EPS) / math.sqrt(c))


def mobius_add(x, y, c) -> Tensor:
    """Möbius addition x ⊕ y on the ball, projected back to the interior.

    ((1 + 2c<x,y> + c|y|^2) x + (1 - c|x|^2) y)
    / (1 + 2c<x,y> + c^2 |x|^2 |y|^2)

    Adding the origin is an exact identity.
    """
    c = check_curvature(c)
    x, y = T.as_tensor(x), T.as_tensor(y)
    xy = T.reduce_sum(x * y, axis=-1, keepdims=True)
    x2 = T.reduce_sum(x * x, axis=-1, keepdims=True)
    y2 = T.reduce_sum(y * y, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + (c * c) * x2 * y2
    return project_ball(num / den, c)


def mobius_scalar_mul(r, x, c) -> Tensor:
    """Möbius scalar multiplication r ⊙ x: move along the geodesic
    through the origin so that distance-to-origin scales by r.

    ``r`` may be a scalar or any tensor broadcastable against ``x`` with a
    trailing axis of 1 (per-point weights). The origin is a fixed point
    for every r.
    """
    c = check_curvature(c)
    x, r = T.as_tensor(x), T.as_tensor(r)
    sc = math.sqrt(c)
    n = safe_norm(x)
    factor = T.tanh(r * T.arctanh(sc * n)) / (sc * n)
    return factor * x


def exp0(v, c) -> Tensor:
    """Exponential map at the origin: tanh(sqrt(c)|v|) v / (sqrt(c)|v|)."""
    c = check_curvature(c)
    v = T.as_tensor(v)
    sc = math.sqrt(c)
    n = safe_norm(v)
    return T.tanh(sc * n) / (sc * n) * v


def log0(x, c) -> Tensor:
    """Logarithmic map at the origin; inverse of :func:`exp0` on the ball."""
    c = check_curvature(c)
    x = T.as_tensor(x)
    sc = math.sqrt(c)
    n = safe_norm(x)
    return T.arctanh(sc * n) / (sc * n) * x


def poincare_distance(x, y, c) -> Tensor:
    """Geodesic distance (2/sqrt(c)) artanh(sqrt(c) |(-x) ⊕ y|).

    Consumes the last axis: inputs (..., d) give distances (...,).
    """
    c = check_curvature(c)
    x, y = T.as_tensor(x), T.as_tensor(y)
    diff = mobius_add(-x, y, c)
    sc = math.sqrt(c)
    return (2.0 / sc) * T.arctanh(sc * safe_norm(diff, keepdims=False))


def radial_clip(x, radius: float) -> Tensor:
    """Pull rows longer than ``radius`` back to it: ``x·min(1, radius/|x|)``.

    With ``radius = artanh(1 - BOUNDARY_EPS)/sqrt(c)`` this is the round
    trip ``log0(project_ball(exp0(x, c), c), c)`` as one taped op: exp0
    lands every row inside the ball, the projection caps its radius, and
    log0 undoes exp0. The backward passes the gradient of unclipped rows
    through and projects it off the radial direction, scaled by
    ``radius/|x|``, on clipped ones.
    """
    x = T.as_tensor(x)
    n = _row_norms(x.data)
    scale = np.minimum(1.0, radius / n)

    def backward_fn(g):
        gx = g * scale
        clipped = n > radius
        if clipped.any():
            unit = x.data / n
            gx -= unit * ((unit * gx).sum(axis=-1, keepdims=True) * clipped)
        return (gx,)

    return T.node(x.data * scale, (x,), backward_fn)


# ---------------------------------------------------------------------------
# Unit hypersphere, charts at the north pole
# ---------------------------------------------------------------------------

def north_pole(dim: int) -> np.ndarray:
    """The base point μ = (0, ..., 0, 1) used by the spherical maps."""
    mu = np.zeros(dim, dtype=np.float64)
    mu[-1] = 1.0
    return mu


def sphere_project(x) -> Tensor:
    """Normalize to the unit sphere; the zero vector has no image."""
    x = T.as_tensor(x)
    norms = np.linalg.norm(x.data, axis=-1)
    if np.any(norms == 0.0):
        raise DomainError("cannot project the zero vector onto the sphere")
    return x / T.sqrt(T.reduce_sum(x * x, axis=-1, keepdims=True))


def sphere_exp_mu(v) -> Tensor:
    """Exponential map at μ: cos(|v|) μ + sin(|v|) v/|v| (v = 0 → μ).

    ``v`` must lie in the tangent space at μ (last component zero) for
    the output to be unit-norm; lifted tokens satisfy this by
    construction.
    """
    v = T.as_tensor(v)
    mu = Tensor(north_pole(v.shape[-1]))
    n = safe_norm(v)
    return T.cos(n) * mu + T.sin(n) / n * v


def sphere_chart_clamp(x) -> Tensor:
    """Retract unit-sphere points into the domain of :func:`sphere_log_mu`.

    The log map's chart excludes a small cap around the antipode -μ.
    Points whose last coordinate falls below ``-1 + CHART_MARGIN`` have it
    raised to exactly that value, with the tangential part rescaled to
    keep the point on the sphere; everything else passes through
    bitwise unchanged, so the retraction is the identity almost
    everywhere.

    At the exact antipode the tangential direction is lost: the output
    keeps a zero tangential part (and a slightly sub-unit norm), whose
    log image is the zero tangent vector — the canonical degenerate
    choice where every direction is equally valid.
    """
    x = T.as_tensor(x)
    d = x.shape[-1]
    tang = T.narrow(x, -1, 0, d - 1)
    last = T.narrow(x, -1, d - 1, 1)
    lifted = T.clip(last, lo=-1.0 + CHART_MARGIN)
    # The tangential norm is computed from the tangential data itself;
    # deriving it as 1 - last^2 would cancel catastrophically in the cap.
    # Interior points add an exact 0.0 to it, making scale exactly 1.
    norm_sq = T.reduce_sum(tang * tang, axis=-1, keepdims=True)
    target_sq = norm_sq + (last * last - lifted * lifted)
    scale = T.sqrt((target_sq + _NORM_FLOOR_SQ) / (norm_sq + _NORM_FLOOR_SQ))
    return T.concat(tang * scale, lifted, axis=-1)


def sphere_log_mu(x) -> Tensor:
    """Logarithmic map at μ: θ (x - cosθ μ)/|x - cosθ μ|, θ = arccos<μ,x>.

    The inner product is clamped to [-1 + 1e-7, 1 - 1e-7] before arccos so
    the map stays differentiable at the chart edges; points at (or
    numerically indistinguishable from) the antipode -μ are rejected, as
    every tangent direction there is equally valid.
    """
    x = T.as_tensor(x)
    if np.any(x.data[..., -1] <= -1.0 + COS_CLAMP):
        raise DomainError(
            "log map at the north pole is undefined at the antipode")
    mu = Tensor(north_pole(x.shape[-1]))
    dot = T.reduce_sum(x * mu, axis=-1, keepdims=True)
    cos_t = T.clip(dot, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
    theta = T.arccos(cos_t)
    u = x - cos_t * mu
    return theta * u / safe_norm(u)


def sphere_fold(x) -> Tensor:
    """``sphere_log_mu(sphere_chart_clamp(sphere_exp_mu([x; 0])))`` per row.

    This is what the spherical branch computes for a lone token, whose
    pooled point is its own lifted point. The output has one more
    coordinate than ``x``. With n = |x| (floored as in :func:`safe_norm`),
    s = sin n and c = cos n the chain reduces to

        last  = max(c, -1 + CHART_MARGIN)          (chart clamp)
        cos_t = clip(last, ±(1 - COS_CLAMP))       (log map's clamp)
        b     = last - cos_t,  r = |(s, b)|
        y     = arccos(cos_t) · (s·x/n, b) / r

    so y = [x; 0] for norms between arccos(1 - COS_CLAMP) ≈ 4.47e-4 and
    π - 1.4e-3. Below, the angle is floored at arccos(1 - COS_CLAMP) and
    the last coordinate is nonzero. Within ~1.4e-3 of π the chart clamp
    caps it at arccos(-1 + CHART_MARGIN). Above π the token folds back
    along -x̂ (|x| = 4 gives 2π - 4). One taped op; the backward is the
    closed-form derivative of each regime, with no gradient through a
    clamped angle.
    """
    x = T.as_tensor(x)
    n = _row_norms(x.data)
    s, c = np.sin(n), np.cos(n)
    last = np.maximum(c, -1.0 + CHART_MARGIN)
    cos_t = np.clip(last, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
    theta = np.arccos(cos_t)
    b = last - cos_t  # nonzero only where the top of the clamp binds
    r = np.sqrt(s * s + b * b)
    f = theta * s / r  # θ·sign(s) wherever b = 0

    def backward_fn(g):
        gt, gl = g[..., :-1], g[..., -1:]
        unit = x.data / n
        radial = (unit * gt).sum(axis=-1, keepdims=True)
        # Radial slope: d(θ·sign s)/dn = 1 where θ = arccos(cos n) is free,
        # 0 where the chart clamp fixes it; the last output coordinate only
        # moves where the top clamp binds (b > 0), handled below.
        rho = np.where(c < -1.0 + CHART_MARGIN, 0.0, radial)
        tiny = b > 0.0
        if tiny.any():
            # y = θ·v/r with v = (s·x/n, c - cos_t) and θ fixed.
            w = (s * radial + b * gl) / r
            gv_t = theta / r * (radial - s / r * w)
            gv_l = theta / r * (gl - b / r * w)
            rho = np.where(tiny, c * gv_t - s * gv_l, rho)
        gx = gt - unit * radial
        gx *= f / n
        gx += unit * rho
        return (gx,)

    return T.node(np.concatenate([x.data * (f / n), theta * b / r], axis=-1),
                  (x,), backward_fn)
