import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    OriginUndefined,
    bendixson_map,
    integrate_radial_correction,
    poincare_displacement_rk4,
    polar_bendixson_rhs,
    right_radial_correction,
)
from pwlcycles.core import Mat2, PwlSystem, Vec2, canonical_system
from pwlcycles.examples import example_one, example_one_params
from pwlcycles.flow import displacement, simulate
from pwlcycles.infinity import (
    infinity_stability,
    left_radial_correction,
    poincare_displacement,
)
from pwlcycles.melnikov import MelnikovParams, Stability


class TestBendixsonMap:
    def test_unit_circle_fixed(self):
        assert bendixson_map(1.0, 0.0) == (1.0, 0.0)

    def test_inversion(self):
        assert bendixson_map(2.0, 0.0) == (0.5, 0.0)

    def test_origin_rejected(self):
        with pytest.raises(OriginUndefined):
            bendixson_map(0.0, 0.0)

    @given(x=st.floats(-10, 10), y=st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_involution(self, x, y):
        if x * x + y * y < 1e-6:
            return
        u, v = bendixson_map(x, y)
        x2, y2 = bendixson_map(u, v)
        assert abs(x2 - x) < 1e-14 * max(1.0, abs(x))
        assert abs(y2 - y) < 1e-14 * max(1.0, abs(y))


class TestInfinityStability:
    def test_example_one(self):
        p = example_one_params()
        rep = infinity_stability(p)
        assert rep.stability is Stability.STABLE
        assert_allclose(rep.coefficient, -(math.pi / 2) * (-2.0 + 0.21 / 0.1),
                        rtol=1e-12)

    def test_zero_traces_undetermined(self):
        p = MelnikovParams(b=-1.0, d=1.0, e=1.0, xi=1.0,
                           b11m=0.0, b22m=0.0, v1m=1.0,
                           b11p=0.0, b22p=0.0, v1p=0.5)
        assert infinity_stability(p).stability is Stability.UNDETERMINED

    def test_large_amplitude_drift_matches_report(self):
        # stable infinity attracts: the planar first-return displacement at
        # a huge amplitude is positive (outward); flipping the first-order
        # entries reverses both
        sys = example_one()
        rep = infinity_stability(example_one_params())
        d = displacement(sys.with_epsilon(1e-3), 1e3)
        assert rep.stability is Stability.STABLE and d > 0
        flipped = canonical_system(
            1.0, -1.0, 1.01, 0.1, 0.55,
            B_minus=[[1.0, 0.0], [0.0, 1.0]], v_minus=[2.65, 0.0],
            B_plus=[[-0.21, 0.0], [0.0, 0.0]])
        p2 = MelnikovParams(b=-1.0, d=0.1, e=0.55, xi=0.1,
                            b11m=1.0, b22m=1.0, v1m=2.65,
                            b11p=-0.21, b22p=0.0, v1p=0.0)
        rep2 = infinity_stability(p2)
        d2 = displacement(flipped.with_epsilon(1e-3), 1e3)
        assert rep2.stability is Stability.UNSTABLE and d2 < 0


class TestPolarSystem:
    def test_rhs_against_planar_field(self):
        # pushing the planar field through the inversion must reproduce
        # (dr/dt, dtheta/dt) obtained from finite differences of a mapped
        # planar trajectory
        sys = example_one().with_epsilon(1e-2)
        th, r = 2.2, 0.3  # left zone (cos th < 0)
        x, y = math.cos(th) / r, math.sin(th) / r
        dr, dth = polar_bendixson_rhs(sys, r, th)
        h = 1e-7
        traj = simulate(sys, (x, y), h)
        x1, y1 = traj.samples[-1][1], traj.samples[-1][2]
        u1, v1 = bendixson_map(x1, y1)
        r1 = math.hypot(u1, v1)
        th1 = math.atan2(v1, u1)
        assert_allclose((r1 - r) / h, dr, rtol=1e-5)
        assert_allclose((th1 - th) / h, dth, rtol=1e-5)

    def test_unperturbed_return_map_is_identity(self):
        # every orbit of the unperturbed system is closed, so the angular
        # return map has no displacement at any radius
        sys = example_one()
        for r0 in (1e-3, 1e-2, 0.05):
            # rounding accumulation only; far below the O(eps*r0) signal
            assert abs(poincare_displacement(sys, r0)) < 1e-9 * r0

    def test_displacement_coefficient_converges(self):
        sys = example_one()
        p = example_one_params()
        coef = infinity_stability(p).coefficient
        r0 = 1e-2
        got = poincare_displacement(sys.with_epsilon(1e-4), r0)
        assert got / (1e-4 * r0) == pytest.approx(coef, rel=0.05)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="polar radius r0 .* got nan"):
            poincare_displacement(example_one().with_epsilon(1e-2), math.nan)

    @pytest.mark.parametrize("r0", [math.inf, 1e-320, 5e-324, 0.0, -1e-2, -math.inf])
    def test_radius_outside_its_domain_rejected(self, r0):
        # r0 = inf started at the origin and raised a NoReturn naming a
        # sliding endpoint, and 1/r0 = inf started at y = -inf
        with pytest.raises(ValueError, match=r"polar radius r0 .* got"):
            poincare_displacement(example_one().with_epsilon(1e-2), r0)

    def test_displacement_sign_matches_report(self):
        sys = example_one()
        got = poincare_displacement(sys.with_epsilon(1e-3), 1e-2)
        assert got < 0  # r shrinks toward the orbit at infinity: attracting


def _draw_system(rng):
    """Normal form with random first- and second-order perturbations."""
    xi = rng.uniform(0.2, 2.0)
    a = rng.uniform(-1.0, 1.0)
    b = -rng.uniform(0.2, 3.0)
    c = -(xi * xi + a * a) / b
    off = rng.uniform(-0.5, 0.5, 4)
    return canonical_system(
        a, b, c, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
        B_minus=[[rng.uniform(-2.0, 2.0), off[0]], [off[1], rng.uniform(-2.0, 2.0)]],
        v_minus=[rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)],
        B_plus=[[rng.uniform(-2.0, 2.0), off[2]], [off[3], rng.uniform(-2.0, 2.0)]],
        v_plus=[rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)],
        C_minus=rng.uniform(-0.1, 0.1, (2, 2)),
        w_minus=[0.0, rng.uniform(-0.1, 0.1)])


def _time_reversed(sys):
    """The system with every zone field negated: the same orbits, run backward."""
    def neg(pair):
        m, u = pair
        return (Mat2(-m.m11, -m.m12, -m.m21, -m.m22), Vec2(-u.x, -u.y))

    return PwlSystem(*(neg(getattr(sys, f"order{k}_{side}"))
                       for k in range(3) for side in ("plus", "minus")),
                     epsilon=sys.epsilon)


class TestExactAngularMap:
    # the RK4 reference with 2048 steps per half stays within 1e-10 * r0
    # of the exact map on these systems; 1e-9 * r0 leaves a tenfold margin
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-3, 1e-2])
    def test_example_one_against_rk4(self, eps):
        sys = example_one().with_epsilon(eps)
        r0 = 1e-2
        assert abs(poincare_displacement(sys, r0)
                   - poincare_displacement_rk4(sys, r0, n_steps=2048)) < 1e-9 * r0

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_systems_against_rk4(self, seed):
        sys = _draw_system(np.random.default_rng([seed, 5])).with_epsilon(1e-2)
        r0 = 1e-2
        assert abs(poincare_displacement(sys, r0)
                   - poincare_displacement_rk4(sys, r0, n_steps=2048)) < 1e-9 * r0

    def test_backward_when_the_flow_enters_the_left_zone(self):
        # reversing time enters x < 0 from (0, -1/r0) and leaves dr/dtheta
        # unchanged, so the map, run backward, is that of the original
        sys = example_one().with_epsilon(1e-2)
        rev = _time_reversed(sys)
        r0 = 1e-2
        got = poincare_displacement(rev, r0)
        assert abs(got - poincare_displacement(sys, r0)) < 1e-12 * r0
        assert abs(got - poincare_displacement_rk4(rev, r0, n_steps=2048)) < 1e-9 * r0

    def test_no_polar_field_evaluation(self, monkeypatch):
        # a deterministic cost guard: the exact map never steps the polar
        # system, nor evaluates the planar field it is built on; it reads
        # the order records once per side, to resolve the zone flows
        calls = 0
        orders = PwlSystem.orders

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return orders(self, *args, **kwargs)

        monkeypatch.setattr(PwlSystem, "orders", counting)
        assert poincare_displacement(example_one().with_epsilon(1e-2), 1e-2) < 0
        assert calls == 2


class TestRadialCorrections:
    def test_left_closed_form(self):
        sys = example_one()
        for th in (3 * math.pi / 4, math.pi, 5 * math.pi / 4):
            _, rho1 = integrate_radial_correction(sys, math.pi / 2 + 1e-10, th, 1.0)
            assert_allclose(rho1, float(left_radial_correction(sys, 1.0, th)),
                            atol=1e-6)

    def test_left_endpoint_value(self):
        # after the full left half-turn the correction equals
        # -(pi/2) * (b11m + b22m) * rho0
        sys = example_one()
        _, rho1 = integrate_radial_correction(
            sys, math.pi / 2 + 1e-10, 3 * math.pi / 2 - 1e-10, 1.0)
        assert_allclose(rho1, -(math.pi / 2) * (-2.0), rtol=1e-6)

    def test_right_reference_form_is_negated(self):
        # the reference right-zone closed form reproduces the variational
        # correction up to a global sign; the endpoint identity pins the
        # true orientation
        sys = example_one()
        for th in (-math.pi / 4, 0.0, math.pi / 4):
            _, rho1 = integrate_radial_correction(sys, -math.pi / 2 + 1e-10, th, 1.0)
            assert_allclose(rho1, -float(right_radial_correction(sys, 1.0, th)),
                            atol=1e-6)

    def test_right_endpoint_value(self):
        sys = example_one()
        _, rho1 = integrate_radial_correction(
            sys, -math.pi / 2 + 1e-10, math.pi / 2 - 1e-10, 1.0)
        assert_allclose(rho1, -(math.pi / 2) * 0.21 / 0.1, rtol=1e-6)

    def test_loop_total_equals_coefficient(self):
        sys = example_one()
        p = example_one_params()
        _, r1_right = integrate_radial_correction(
            sys, -math.pi / 2 + 1e-10, math.pi / 2 - 1e-10, 1.0)
        _, r1_left = integrate_radial_correction(
            sys, math.pi / 2 + 1e-10, 3 * math.pi / 2 - 1e-10, 1.0)
        assert_allclose(r1_right + r1_left, infinity_stability(p).coefficient,
                        rtol=1e-7)


class TestInvolutionConsistency:
    def test_planar_samples_land_on_polar_trajectory(self):
        # push a large planar orbit through the inversion and compare its
        # radius against integrating dr/dtheta from the mapped start
        sys = example_one().with_epsilon(1e-3)
        start = (0.0, 40.0)
        traj = simulate(sys, start, 2.5)
        pts = [(t, x, y) for (t, x, y) in traj.samples if x < -1.0]
        t0, x0, y0 = pts[0]
        u0, v0 = bendixson_map(x0, y0)
        r = math.hypot(u0, v0)
        th = math.atan2(v0, u0)
        for (t, x, y) in pts[1:60]:
            u, v = bendixson_map(x, y)
            r_target = math.hypot(u, v)
            th_target = math.atan2(v, u)
            # unwrap: theta increases along the flow
            while th_target < th - 1e-12:
                th_target += 2 * math.pi
            n = 200
            h = (th_target - th) / n
            for _ in range(n):
                k1 = _drd(sys, r, th)
                k2 = _drd(sys, r + 0.5 * h * k1, th + 0.5 * h)
                k3 = _drd(sys, r + 0.5 * h * k2, th + 0.5 * h)
                k4 = _drd(sys, r + h * k3, th + h)
                r += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                th += h
            assert_allclose(r, r_target, atol=1e-6)


def _drd(sys, r, th):
    dr, dth = polar_bendixson_rhs(sys, r, th)
    return dr / dth
