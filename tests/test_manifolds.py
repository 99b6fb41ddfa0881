"""Geometry of the Poincaré ball and unit sphere: closed forms, inverses,
metric axioms, and chart-edge behavior.

Oracles here are independent of the implementation: relativistic velocity
addition for collinear Möbius sums, tanh/arctanh radial profiles, the
curvature-rescaling equivalences of the ball family, and hand-evaluated
trigonometry for the spherical chart.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from catkg import manifolds as M
from catkg import tensor as T
from catkg.errors import ConfigError, DomainError
from catkg.tensor import Tape, Tensor, grad_check


def ball_points(rng, shape, radius=0.85, c=1.0):
    """Uniform directions with radii in [0.05, radius]/sqrt(c): interior
    samples that never touch the projection boundary."""
    v = rng.normal(size=shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    r = rng.uniform(0.05, radius, size=shape[:-1] + (1,))
    return v * r / math.sqrt(c)


def tangent_at_pole(rng, shape, lo=1e-3, hi=3.0):
    """Vectors in the tangent space at the north pole (last component 0)."""
    v = rng.normal(size=shape)
    v[..., -1] = 0.0
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v * rng.uniform(lo, hi, size=shape[:-1] + (1,))


class TestCurvature:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(ConfigError):
            M.check_curvature(bad)

    def test_accepts_and_coerces(self):
        assert M.check_curvature(2) == 2.0

    def test_every_map_validates(self):
        x = np.full(3, 0.1)
        for fn in (lambda: M.project_ball(x, -1), lambda: M.mobius_add(x, x, 0),
                   lambda: M.exp0(x, float("nan")), lambda: M.log0(x, -2),
                   lambda: M.poincare_distance(x, x, 0),
                   lambda: M.mobius_scalar_mul(2.0, x, -0.5)):
            with pytest.raises(ConfigError):
                fn()


class TestProjectBall:
    def test_interior_points_pass_through_bitwise(self):
        rng = np.random.default_rng(0)
        x = ball_points(rng, (50, 8))
        assert np.array_equal(M.project_ball(x, 1.0).data, x)

    def test_far_points_land_at_margin_radius(self):
        rng = np.random.default_rng(1)
        for c in (1.0, 0.5, 4.0):
            x = rng.normal(size=(40, 6)) * 5.0
            norms = np.linalg.norm(M.project_ball(x, c).data, axis=-1)
            assert_allclose(norms, (1 - M.BOUNDARY_EPS) / math.sqrt(c),
                            rtol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 5)) * 3.0
        once = M.project_ball(x, 1.0).data
        twice = M.project_ball(once, 1.0).data
        assert_allclose(twice, once, rtol=0, atol=1e-15)

    def test_direction_preserved(self):
        x = np.array([3.0, 4.0])
        p = M.project_ball(x, 1.0).data
        assert_allclose(p / np.linalg.norm(p), [0.6, 0.8], rtol=1e-14)


class TestMobiusAdd:
    def test_right_identity_exact(self):
        rng = np.random.default_rng(3)
        x = ball_points(rng, (30, 7))
        assert np.array_equal(M.mobius_add(x, np.zeros_like(x), 1.0).data, x)

    def test_left_identity_exact(self):
        rng = np.random.default_rng(4)
        y = ball_points(rng, (30, 7))
        assert np.array_equal(M.mobius_add(np.zeros_like(y), y, 1.0).data, y)

    def test_left_inverse(self):
        rng = np.random.default_rng(5)
        x = ball_points(rng, (200, 6), radius=0.9)
        assert np.abs(M.mobius_add(-x, x, 1.0).data).max() < 1e-10
        assert np.abs(M.mobius_add(x, -x, 1.0).data).max() < 1e-10

    def test_collinear_matches_velocity_addition(self):
        # For parallel arguments the gyrogroup sum reduces to the
        # relativistic velocity-addition law (a + b) / (1 + ab).
        rng = np.random.default_rng(6)
        e = np.zeros(8)
        e[2] = 1.0
        for _ in range(50):
            a, b = rng.uniform(0.01, 0.9, size=2)
            out = M.mobius_add(a * e, b * e, 1.0).data
            assert_allclose(out, (a + b) / (1 + a * b) * e,
                            rtol=0, atol=1e-14)

    def test_curvature_rescaling_equivalence(self):
        # The c-ball is the unit ball viewed through x -> sqrt(c) x.
        rng = np.random.default_rng(7)
        c = 2.7
        x = ball_points(rng, (50, 6), c=c)
        y = ball_points(rng, (50, 6), c=c)
        lhs = M.mobius_add(x, y, c).data
        rhs = M.mobius_add(math.sqrt(c) * x, math.sqrt(c) * y, 1.0).data
        assert_allclose(lhs, rhs / math.sqrt(c), rtol=0, atol=1e-14)

    def test_not_commutative_but_norms_agree(self):
        rng = np.random.default_rng(8)
        x = ball_points(rng, (100, 5))
        y = ball_points(rng, (100, 5))
        fwd = M.mobius_add(x, y, 1.0).data
        rev = M.mobius_add(y, x, 1.0).data
        assert np.abs(fwd - rev).max() > 1e-3  # genuinely non-abelian
        assert_allclose(np.linalg.norm(fwd, axis=-1),
                        np.linalg.norm(rev, axis=-1), rtol=0, atol=1e-14)

    @given(st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3),
           st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_result_stays_inside_ball(self, xs, ys):
        out = M.mobius_add(np.array(xs), np.array(ys), 1.0).data
        assert np.linalg.norm(out) <= 1.0 - M.BOUNDARY_EPS + 1e-15


class TestMobiusScalarMul:
    def test_one_is_identity(self):
        rng = np.random.default_rng(9)
        x = ball_points(rng, (40, 6))
        assert_allclose(M.mobius_scalar_mul(1.0, x, 1.0).data, x,
                        rtol=0, atol=1e-14)

    def test_zero_gives_origin_exactly(self):
        rng = np.random.default_rng(10)
        x = ball_points(rng, (40, 6))
        assert np.all(M.mobius_scalar_mul(0.0, x, 1.0).data == 0.0)

    def test_two_equals_self_addition(self):
        rng = np.random.default_rng(11)
        x = ball_points(rng, (100, 5), radius=0.7)
        assert_allclose(M.mobius_scalar_mul(2.0, x, 1.0).data,
                        M.mobius_add(x, x, 1.0).data, rtol=0, atol=1e-12)

    def test_scales_distance_to_origin(self):
        rng = np.random.default_rng(12)
        x = ball_points(rng, (60, 6))
        zero = np.zeros_like(x)
        for r in (0.25, 0.5, 1.7):
            d_scaled = M.poincare_distance(
                zero, M.mobius_scalar_mul(r, x, 1.0), 1.0).data
            d_base = M.poincare_distance(zero, x, 1.0).data
            assert_allclose(d_scaled, r * d_base, rtol=0, atol=1e-12)

    def test_scalar_distributivity_along_geodesic(self):
        rng = np.random.default_rng(13)
        x = ball_points(rng, (60, 6), radius=0.6)
        lhs = M.mobius_scalar_mul(0.7, x, 1.0).data
        rhs = M.mobius_add(M.mobius_scalar_mul(0.3, x, 1.0),
                           M.mobius_scalar_mul(0.4, x, 1.0), 1.0).data
        assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_per_point_weights_broadcast(self):
        rng = np.random.default_rng(14)
        x = ball_points(rng, (5, 4))
        w = rng.uniform(0.1, 1.0, size=(5, 1))
        out = M.mobius_scalar_mul(w, x, 1.0).data
        rows = [M.mobius_scalar_mul(float(w[i, 0]), x[i], 1.0).data
                for i in range(5)]
        assert_allclose(out, np.stack(rows), rtol=1e-14)


class TestExpLogOrigin:
    def test_exp0_radial_profile_is_tanh(self):
        rng = np.random.default_rng(15)
        v = rng.normal(size=(100, 8))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        v *= rng.uniform(0.01, 3.0, size=(100, 1))
        out = M.exp0(v, 1.0).data
        assert_allclose(np.linalg.norm(out, axis=-1),
                        np.tanh(np.linalg.norm(v, axis=-1)),
                        rtol=0, atol=1e-14)
        # direction is unchanged
        assert_allclose(out / np.linalg.norm(out, axis=-1, keepdims=True),
                        v / np.linalg.norm(v, axis=-1, keepdims=True),
                        rtol=0, atol=1e-13)

    def test_exp0_of_zero_is_zero_exactly(self):
        assert np.all(M.exp0(np.zeros((3, 5)), 1.0).data == 0.0)
        assert np.all(M.log0(np.zeros((3, 5)), 1.0).data == 0.0)

    def test_log_after_exp_recovers_tangent(self):
        rng = np.random.default_rng(16)
        v = rng.normal(size=(200, 8))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        v *= rng.uniform(0.01, 3.0, size=(200, 1))
        for c in (1.0, 0.25, 3.0):
            back = M.log0(M.exp0(v, c), c).data
            assert np.abs(back - v).max() < 1e-12

    def test_exp_after_log_recovers_point(self):
        rng = np.random.default_rng(17)
        x = ball_points(rng, (200, 8), radius=0.9)
        back = M.exp0(M.log0(x, 1.0), 1.0).data
        assert np.abs(back - x).max() < 1e-12

    def test_exp0_travels_twice_the_tangent_norm(self):
        # The conformal factor at the origin is 2, so the geodesic from 0
        # with initial vector v has length 2|v|.
        rng = np.random.default_rng(18)
        v = rng.normal(size=(100, 6))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        v *= rng.uniform(0.01, 2.5, size=(100, 1))
        d = M.poincare_distance(np.zeros_like(v), M.exp0(v, 1.0), 1.0).data
        assert_allclose(d, 2 * np.linalg.norm(v, axis=-1),
                        rtol=0, atol=1e-12)

    @given(st.floats(0.01, 2.5), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, norm, dim):
        v = np.full(dim, norm / math.sqrt(dim))
        back = M.log0(M.exp0(v, 1.0), 1.0).data
        assert np.abs(back - v).max() < 1e-12


class TestPoincareDistance:
    def test_half_radius_point_is_log_three_from_origin(self):
        # d(0, x) = 2 artanh(|x|) and artanh(1/2) = ln(3)/2.
        x = np.zeros(4)
        x[0] = 0.5
        d = float(M.poincare_distance(np.zeros(4), x, 1.0).data)
        assert abs(d - math.log(3.0)) < 5e-16

    def test_self_distance_vanishes(self):
        rng = np.random.default_rng(19)
        x = ball_points(rng, (50, 6))
        assert np.abs(M.poincare_distance(x, x, 1.0).data).max() < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(20)
        x = ball_points(rng, (300, 8))
        y = ball_points(rng, (300, 8))
        fwd = M.poincare_distance(x, y, 1.0).data
        rev = M.poincare_distance(y, x, 1.0).data
        assert np.abs(fwd - rev).max() < 1e-12

    def test_positivity_for_distinct_points(self):
        rng = np.random.default_rng(21)
        x = ball_points(rng, (100, 5))
        y = ball_points(rng, (100, 5))
        assert (M.poincare_distance(x, y, 1.0).data > 0).all()

    def test_triangle_inequality(self):
        rng = np.random.default_rng(22)
        x = ball_points(rng, (300, 6))
        y = ball_points(rng, (300, 6))
        z = ball_points(rng, (300, 6))
        dxz = M.poincare_distance(x, z, 1.0).data
        via_y = (M.poincare_distance(x, y, 1.0).data
                 + M.poincare_distance(y, z, 1.0).data)
        assert (via_y - dxz).min() > -1e-10

    def test_collinear_points_add_exactly(self):
        # The diameter through the origin is a geodesic, so distances along
        # it are additive.
        e = np.zeros(8)
        e[1] = 1.0
        zero = np.zeros(8)
        d_0a = float(M.poincare_distance(zero, 0.2 * e, 1.0).data)
        d_ab = float(M.poincare_distance(0.2 * e, 0.7 * e, 1.0).data)
        d_0b = float(M.poincare_distance(zero, 0.7 * e, 1.0).data)
        assert abs(d_0a + d_ab - d_0b) < 1e-12

    def test_curvature_rescaling(self):
        rng = np.random.default_rng(23)
        c = 2.7
        x = ball_points(rng, (50, 6), c=c)
        y = ball_points(rng, (50, 6), c=c)
        lhs = M.poincare_distance(x, y, c).data
        rhs = M.poincare_distance(math.sqrt(c) * x, math.sqrt(c) * y,
                                  1.0).data / math.sqrt(c)
        assert_allclose(lhs, rhs, rtol=0, atol=1e-13)

    def test_consumes_last_axis(self):
        x = np.zeros((3, 4, 5))
        assert M.poincare_distance(x, x, 1.0).shape == (3, 4)


class TestSphere:
    def test_north_pole_layout(self):
        mu = M.north_pole(5)
        assert mu.shape == (5,)
        assert mu[-1] == 1.0 and np.all(mu[:-1] == 0.0)

    def test_project_normalizes(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(50, 7)) * 10
        p = M.sphere_project(x).data
        assert_allclose(np.linalg.norm(p, axis=-1), 1.0, rtol=0, atol=1e-14)
        assert_allclose(M.sphere_project(p).data, p, rtol=0, atol=1e-15)

    def test_project_rejects_zero_vector(self):
        with pytest.raises(DomainError):
            M.sphere_project(np.zeros(4))
        batch = np.ones((3, 4))
        batch[1] = 0.0
        with pytest.raises(DomainError):
            M.sphere_project(batch)

    def test_exp_of_zero_is_pole_exactly(self):
        out = M.sphere_exp_mu(np.zeros(6)).data
        assert np.array_equal(out, M.north_pole(6))

    def test_exp_lands_on_sphere(self):
        rng = np.random.default_rng(25)
        v = tangent_at_pole(rng, (200, 6))
        norms = np.linalg.norm(M.sphere_exp_mu(v).data, axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_exp_closed_form_single_direction(self):
        # v = (theta, 0, ..., 0) rotates the pole by theta in the
        # (e_0, e_last) plane.
        theta = 1.1
        v = np.zeros(5)
        v[0] = theta
        expected = np.zeros(5)
        expected[0] = math.sin(theta)
        expected[-1] = math.cos(theta)
        assert_allclose(M.sphere_exp_mu(v).data, expected, rtol=0, atol=1e-15)

    def test_log_after_exp_recovers_tangent(self):
        rng = np.random.default_rng(26)
        v = tangent_at_pole(rng, (200, 6), lo=1e-3, hi=3.0)
        back = M.sphere_log_mu(M.sphere_exp_mu(v)).data
        assert np.abs(back - v).max() < 1e-12

    def test_exp_after_log_recovers_point(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(300, 6))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        x = x[x[..., -1] > -0.9]
        back = M.sphere_exp_mu(M.sphere_log_mu(x)).data
        assert np.abs(back - x).max() < 1e-12

    def test_log_output_is_tangent(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(100, 6))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        x = x[np.abs(x[..., -1]) < 0.99]
        out = M.sphere_log_mu(x).data
        assert np.all(out[..., -1] == 0.0)

    def test_log_at_pole_is_small_but_not_exact_zero(self):
        # The arccos clamp saturates within ~sqrt(2 * 1e-7) of the pole, so
        # log(mu) returns a radial vector of that magnitude instead of 0;
        # roundtrips are only meaningful above this floor.
        out = M.sphere_log_mu(M.north_pole(6)).data
        assert 0.0 < np.linalg.norm(out) < 5e-4

    def test_log_rejects_antipode(self):
        mu = M.north_pole(6)
        with pytest.raises(DomainError):
            M.sphere_log_mu(-mu)
        near = -mu.copy()
        near[-1] = -1.0 + 1e-9  # inside the rejection margin
        with pytest.raises(DomainError):
            M.sphere_log_mu(near)

    @given(st.floats(1e-2, 3.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property_2d_tangent(self, norm, angle):
        v = np.zeros(4)
        v[0] = norm * math.cos(angle)
        v[1] = norm * math.sin(angle)
        back = M.sphere_log_mu(M.sphere_exp_mu(v)).data
        assert np.abs(back - v).max() < 1e-12


class TestChartClamp:
    """Retraction that pulls near-antipodal points back into the log chart."""

    def test_interior_points_pass_through_bitwise(self):
        rng = np.random.default_rng(31)
        x = M.sphere_project(rng.normal(size=(80, 6))).data
        x = x[x[..., -1] > -0.99]
        assert np.array_equal(M.sphere_chart_clamp(x).data, x)

    def test_cap_point_lands_on_margin_circle(self):
        theta = math.pi - 2e-4  # inside sphere_log_mu's rejection band
        p = np.zeros(4)
        p[0], p[3] = math.sin(theta), math.cos(theta)
        out = M.sphere_chart_clamp(p).data
        assert out[3] == -1.0 + 1e-6
        assert abs(np.linalg.norm(out) - 1.0) < 1e-15
        # tangential direction is preserved, only rescaled
        assert out[0] > 0 and out[1] == 0.0 and out[2] == 0.0
        back = M.sphere_log_mu(out).data
        assert np.all(np.isfinite(back))
        assert abs(np.linalg.norm(back) - math.pi) < 2e-3

    def test_rounded_antipode_keeps_tangential_direction(self):
        # When the last coordinate rounds to exactly -1.0, 1 - last**2
        # would cancel to zero; the tiny tangential residue must still
        # come out at the margin circle's radius, not blow up.
        p = np.zeros(4)
        p[0], p[3] = 1.5e-8, -1.0
        out = M.sphere_chart_clamp(p).data
        assert abs(np.linalg.norm(out) - 1.0) < 1e-15
        expected = math.sqrt(1.0 - (1.0 - 1e-6) ** 2)
        assert abs(out[0] - expected) < 1e-12 and out[0] > 0

    def test_exact_antipode_maps_to_zero_tangent(self):
        # No tangential information survives at the antipode itself, so
        # the retraction keeps it zero and the log image is the zero
        # vector rather than an arbitrary direction.
        out = M.sphere_chart_clamp(-M.north_pole(5))
        assert np.array_equal(M.sphere_log_mu(out).data, np.zeros(5))

    def test_gradient_in_cap_and_interior(self):
        rng = np.random.default_rng(32)
        theta = math.pi - 2e-4
        p = np.zeros((1, 4))
        p[0, 0], p[0, 3] = math.sin(theta), math.cos(theta)
        probe = Tensor(rng.normal(size=(1, 4)))

        def fn(t):
            clamped = M.sphere_chart_clamp(M.sphere_project(t))
            return T.reduce_sum(M.sphere_log_mu(clamped) * probe)

        # so close to the antipode the default step's truncation error
        # dominates; a smaller step shows the analytic gradient is right
        cap = Tensor(p.copy(), requires_grad=True)
        assert grad_check(fn, [cap], step=1e-8) < 1e-6

        interior = Tensor(p * 0.3 + 0.1, requires_grad=True)
        assert grad_check(fn, [interior]) < 1e-6


class TestGradients:
    """Analytic tape gradients against central differences for every map."""

    def setup_method(self):
        self.rng = np.random.default_rng(29)

    def _points(self, shape, radius=0.8):
        return Tensor(ball_points(self.rng, shape, radius=radius),
                      requires_grad=True)

    def test_mobius_add(self):
        x, y = self._points((4, 5)), self._points((4, 5))
        err = grad_check(lambda a, b: T.reduce_sum(M.mobius_add(a, b, 1.0)),
                         [x, y])
        assert err < 1e-6

    def test_mobius_scalar_mul(self):
        r = Tensor(self.rng.uniform(0.1, 2.0, size=(4, 1)),
                   requires_grad=True)
        x = self._points((4, 5))
        err = grad_check(
            lambda rr, a: T.reduce_sum(M.mobius_scalar_mul(rr, a, 1.0)),
            [r, x])
        assert err < 1e-6

    def test_exp0_and_log0(self):
        v = Tensor(self.rng.normal(size=(4, 5)) * 0.7, requires_grad=True)
        assert grad_check(lambda a: T.reduce_sum(M.exp0(a, 1.0)), [v]) < 1e-6
        x = self._points((4, 5))
        assert grad_check(lambda a: T.reduce_sum(M.log0(a, 1.0)), [x]) < 1e-6

    def test_poincare_distance(self):
        x, y = self._points((6, 5)), self._points((6, 5))
        err = grad_check(
            lambda a, b: T.reduce_sum(M.poincare_distance(a, b, 1.0)), [x, y])
        assert err < 1e-6

    def test_sphere_maps(self):
        v = Tensor(tangent_at_pole(self.rng, (4, 6), lo=0.1, hi=2.0),
                   requires_grad=True)
        assert grad_check(lambda a: T.reduce_sum(M.sphere_exp_mu(a)),
                          [v]) < 1e-6
        x = self.rng.normal(size=(4, 6))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        x = np.where(x[..., -1:] < -0.8, -x, x)
        xt = Tensor(x, requires_grad=True)
        assert grad_check(lambda a: T.reduce_sum(M.sphere_log_mu(a)),
                          [xt]) < 1e-6

    def test_gradients_finite_at_origin(self):
        # The norm floor keeps every radial formula differentiable at 0.
        z = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            out = T.reduce_sum(M.exp0(z, 1.0))
        tape.backward(out)
        assert np.isfinite(z.grad).all()
        zn = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            out = T.reduce_sum(M.safe_norm(zn))
        tape.backward(out)
        assert np.isfinite(zn.grad).all()


class TestOneTokenMaps:
    """The single-token closed forms against the map chains they replace."""

    def setup_method(self):
        self.rng = np.random.default_rng(31)

    def _rows(self, norms, d=6):
        rows = self.rng.normal(size=(len(norms), d))
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        return rows * np.asarray(norms, dtype=float)[:, None]

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_radial_clip_is_the_ball_round_trip(self, c):
        r_max = math.atanh(1.0 - M.BOUNDARY_EPS) / math.sqrt(c)
        x = self._rows([0.0, 1e-5, 0.5, r_max * (1 - 1e-6),
                        r_max * (1 + 1e-6), 3 * r_max, 100.0])
        chain = M.log0(M.project_ball(M.exp0(x, c), c), c).data
        out = M.radial_clip(x, r_max).data
        assert_allclose(out, chain, rtol=0, atol=1e-10)
        assert_allclose(np.linalg.norm(out[-3:], axis=-1), r_max, rtol=1e-15)
        assert np.array_equal(out[:4], x[:4])

    def test_sphere_fold_is_the_pole_chain(self):
        norms = [0.0, 1e-6, 1e-5, 1e-4, 4.4e-4, 4.5e-4, 0.5, 3.0,
                 math.pi - 1.5e-3, math.pi - 1e-3, math.pi, math.pi + 1e-3,
                 4.0, 7.0, 10.0]
        x = self._rows(norms)
        lifted = M.sphere_exp_mu(np.concatenate(
            [x, np.zeros((len(norms), 1))], axis=-1))
        chain = M.sphere_log_mu(M.sphere_chart_clamp(M.sphere_project(lifted)))
        assert_allclose(M.sphere_fold(x).data, chain.data, rtol=0, atol=1e-13)

    def test_sphere_fold_edges(self):
        floor = math.acos(1.0 - M.COS_CLAMP)
        cap = math.acos(-1.0 + M.CHART_MARGIN)
        x = self._rows([1e-6, 0.5, 3.0, math.pi - 1.4e-3 + 1e-5, math.pi,
                        4.0])
        unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
        y = M.sphere_fold(x).data
        size = np.linalg.norm(y, axis=-1)
        # Below the log map's clamp the angle is floored and the point
        # keeps a polar component.
        assert_allclose(size[0], floor, rtol=1e-12)
        assert_allclose(y[0, -1], 4.45e-5, rtol=1e-2)
        # In between it is the identity, with no polar component.
        assert_allclose(y[1:3, :-1], x[1:3], rtol=0, atol=1e-14)
        assert np.all(y[1:5, -1] == 0.0)
        # Next to the antipode the angle is capped by the chart clamp.
        assert_allclose(size[3:5], cap, rtol=1e-14)
        assert_allclose(y[3:5, :-1], cap * unit[3:5], rtol=0, atol=1e-14)
        # Beyond π the token folds back along -x̂.
        assert_allclose(y[5, :-1], (4.0 - 2 * math.pi) * unit[5],
                        rtol=0, atol=1e-14)

    def test_gradients_away_from_the_kinks(self):
        r_max = math.atanh(1.0 - M.BOUNDARY_EPS)
        x = Tensor(self._rows([0.0, 0.5, 3.0, 5.9, 6.3, 9.0, 40.0]),
                   requires_grad=True)
        probe = Tensor(self.rng.normal(size=x.shape))
        assert grad_check(
            lambda a: T.reduce_sum(M.radial_clip(a, r_max) * probe), [x]) < 1e-6
        for norms, step, tol in (
                ([0.5, 2.0, 4.0, 7.0, math.pi - 1e-3, math.pi + 1e-3],
                 1e-5, 1e-6),
                # below the clamp the slope is ~θ/|x|: a finer step
                ([1e-4, 2e-4, 4e-4], 1e-7, 1e-5)):
            x = Tensor(self._rows(norms), requires_grad=True)
            probe = Tensor(self.rng.normal(size=(len(norms), 7)))
            err = grad_check(lambda a: T.reduce_sum(M.sphere_fold(a) * probe),
                             [x], step=step)
            assert err < tol, norms
