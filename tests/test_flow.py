import hashlib
import math
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    affine_flow,
    expm_states,
    first_component_zero_reference,
    first_return_displacement,
    integrate_zone,
    seeded_systems,
    sliding_time,
    velocity_zeros,
    zone_arrays,
)
from pwlcycles import flow
from pwlcycles.core import Mat2, PwlSystem, Vec2, canonical_system
from pwlcycles.errors import (
    DegenerateLinearPart,
    EventStall,
    LineOfTangency,
    NonPositiveAmplitude,
    NoReturn,
)
from pwlcycles.examples import (
    example_one,
    example_one_params,
    example_two,
    type_one_sliding_params,
)
from pwlcycles.flow import (
    AffineFlow,
    displacement,
    first_component_zero,
    melnikov_oracle,
    simulate,
    zone_flows,
)
from pwlcycles.infinity import poincare_displacement
from pwlcycles.melnikov import m1
from pwlcycles.sigma import RegionKind, Visibility, _SlidingSpeed, classify_point, find_folds
from pwlcycles.sliding import (
    detect_sliding_cycle,
    s_maps_simulated,
    simulate_sliding_cycle,
)
from pwlcycles.svg import PhasePortrait


def _left(e):
    """Left zone of the normal form: the unit rotation about (-e, 0)."""
    return affine_flow(*zone_arrays(canonical_system(1.0, -1.0, 1.01, 0.1, e), "minus"))


def _right(a, b, c, d):
    """Right zone of the normal form: X' = [[a, b], [c, -a]] X + (0, d)."""
    return affine_flow(*zone_arrays(canonical_system(a, b, c, d, 1.0), "plus"))


def _left_return(e, y0):
    """(t, kind) of the first event on x = 0 of the left flow from (0, y0),
    y0 > 0: the half-return, at t in (pi, 2 pi]."""
    return first_component_zero(_left(e), np.array([0.0, y0]), 1.0, 2.5 * math.pi)


def _return_case(case):
    """example 1 at eps 1e-4, or a general system drawn from a seed at the
    same eps, with random entries M1 does not read."""
    if case == "example_one":
        return example_one().with_epsilon(1e-4)
    rng = np.random.default_rng(int(case.split("_")[1]))
    a = float(rng.uniform(-0.8, 0.8))
    xi = float(rng.uniform(0.4, 1.5))
    b = -float(rng.uniform(0.4, 1.8))
    c = (a * a + xi * xi) / (-b)
    d, e = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5))
    B_minus, B_plus = rng.uniform(-1, 1, (2, 2, 2))
    v_minus, v_plus = rng.uniform(-1, 1, (2, 2))
    return canonical_system(a, b, c, d, e, B_minus=B_minus, v_minus=v_minus,
                            B_plus=B_plus, v_plus=v_plus).with_epsilon(1e-4)


def _simulate_backward(sys, start, t_max, max_segments=10_000):
    """``simulate`` run backward in time: the recording run of ``flow._run``
    on a backward ``Trajectory``, as ``flow._first_return`` drives it."""
    traj = flow.Trajectory(direction=-1.0)
    for _ in flow._run(sys, start, t_max, max_segments, traj, record=True):
        pass
    return traj


def _full_run_return(sys, y0, backward):
    """(y of the first return, the recording run, t_max) of a ``simulate``
    run over the first-return budget; y is None without a return."""
    t_max = 3.0 * (2.0 * math.pi + math.pi / flow._xi_of(sys))
    run = _simulate_backward if backward else simulate
    traj = run(sys, (0.0, y0), t_max, max_segments=64)
    y_ret = next((ev.y for ev in traj.crossings
                  if ev.t != 0.0 and (ev.y > 0) == (y0 > 0)), None)
    return y_ret, traj, t_max


def _right_return(a, b, c, d, y1):
    """Signed (negative) time of the right flow run backward from (0, y1),
    y1 > 0, to x = 0: the half-return, at |t| in (0, pi/xi]."""
    xi = math.sqrt(-(a * a + b * c))
    t, kind = first_component_zero(_right(a, b, c, d), np.array([0.0, y1]), -1.0,
                                   1.5 * math.pi / xi)
    assert kind == "cross"
    return t


class TestClosedFormFlows:
    def test_flow_minus_initial_condition(self):
        assert_allclose(_left(1.0).state((0.0, 1.0), 0.0), (0.0, 1.0), atol=1e-15)

    def test_flow_minus_half_turn(self):
        assert_allclose(_left(1.0).state((0.0, 1.0), math.pi), (-2.0, -1.0), atol=1e-14)

    def test_flow_minus_against_adaptive_integration(self):
        # frozen from the adaptive reference: endpoint of the left zone
        # from (0, 2) with e = 0.55 after t = 1.3
        x, y = _left(0.55).state((0.0, 2.0), 1.3)
        assert_allclose((float(x), float(y)), (-2.329992015090828, 1.064954659228608),
                        rtol=1e-12)
        ref = integrate_zone([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.55], [0.0, 2.0], 1.3)
        assert_allclose((float(x), float(y)), ref, rtol=1e-10)

    def test_flow_plus_initial_condition(self):
        assert_allclose(_right(1.0, -1.0, 1.01, 0.1).state((0.0, 0.7), 0.0), (0.0, 0.7),
                        atol=1e-15)

    def test_flow_plus_specific_point(self):
        got = _right(0.0, -1.0, 1.0, 1.0).state((0.0, 1.0), -math.pi)
        assert_allclose(got, (-2.0, -1.0), atol=1e-13)
        ref = integrate_zone([[0.0, -1.0], [1.0, 0.0]], [0.0, 1.0], [0.0, 1.0], -math.pi)
        assert_allclose(got, ref, atol=1e-10)

    def test_flows_random_against_integration(self):
        # 100 random (parameter, time) samples against the adaptive
        # integrator, half per zone
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = rng.uniform(-1, 1)
            b = -rng.uniform(0.3, 2)
            xi = rng.uniform(0.3, 1.5)
            c = (a * a + xi * xi) / (-b)
            d = rng.uniform(0.2, 2)
            y1 = rng.uniform(-2, 2)
            s = rng.uniform(-3, 3)
            got = _right(a, b, c, d).state((0.0, y1), s)
            ref = integrate_zone([[a, b], [c, -a]], [0.0, d], [0.0, y1], s)
            assert_allclose(got, ref, rtol=1e-9, atol=1e-10)
            e = rng.uniform(0.2, 2)
            y0 = rng.uniform(-2, 2)
            t = rng.uniform(-6, 6)
            got_m = _left(e).state((0.0, y0), t)
            ref_m = integrate_zone([[0.0, -1.0], [1.0, 0.0]], [0.0, e], [0.0, y0], t)
            assert_allclose(got_m, ref_m, rtol=1e-9, atol=1e-10)

    def test_flow_plus_satisfies_its_ode(self):
        a, b, c, d = 0.7, -1.3, (0.49 + 0.81) / 1.3, 0.9
        zone = _right(a, b, c, d)
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(50):
            y1 = rng.uniform(-2, 2)
            s = rng.uniform(-2, 2)
            x0, y0 = zone.state((0.0, y1), s)
            xp, yp = zone.state((0.0, y1), s + h)
            xm, ym = zone.state((0.0, y1), s - h)
            dx, dy = (xp - xm) / (2 * h), (yp - ym) / (2 * h)
            assert_allclose(dx, a * x0 + b * y0, rtol=1e-7, atol=1e-8)
            assert_allclose(dy, c * x0 - a * y0 + d, rtol=1e-7, atol=1e-8)


class TestHalfReturnTimes:
    def test_left_limit_small_amplitude(self):
        # the return point is within rounding of the tangency at x = 0
        t, kind = _left_return(1.0, 1e-9)
        assert kind == "graze"
        assert_allclose(t, 2 * math.pi, rtol=1e-8)

    def test_left_equal_amplitude(self):
        t, kind = _left_return(1.0, 1.0)
        assert kind == "cross"
        assert_allclose(t, 1.5 * math.pi, rtol=1e-12)

    def test_left_lands_on_switching_line(self):
        t, _ = _left_return(0.55, 2.0)
        x, y = _left(0.55).state((0.0, 2.0), t)
        assert abs(float(x)) < 1e-12
        assert float(y) == pytest.approx(-2.0, rel=1e-12)
        assert math.pi < t < 2 * math.pi

    def test_right_quarter_turn(self):
        # d = xi*|y1| makes the arccos argument of the closed form zero
        a, b = 0.0, -1.0
        xi = 1.0
        c = (a * a + xi * xi) / (-b)
        t = _right_return(a, b, c, 2.0, 2.0)
        assert_allclose(t, -math.pi / (2 * xi), rtol=1e-9)

    def test_right_lands_on_switching_line(self):
        t = _right_return(1.0, -1.0, 1.01, 0.1, 1.5)
        x, _ = _right(1.0, -1.0, 1.01, 0.1).state((0.0, 1.5), t)
        assert abs(float(x)) < 1e-12

    def test_half_return_records_land_on_section(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            e = rng.uniform(0.2, 2.0)
            y0 = rng.uniform(0.1, 5.0)
            t, _ = _left_return(e, y0)
            assert t > 0
            x, y = _left(e).state((0.0, y0), t)
            assert abs(float(x)) < 1e-10
            assert float(y) == pytest.approx(-y0, rel=1e-9)
            a = rng.uniform(-1, 1)
            b = -rng.uniform(0.3, 2.0)
            xi = rng.uniform(0.3, 1.5)
            c = (a * a + xi * xi) / (-b)
            d = rng.uniform(0.2, 2.0)
            s = _right_return(a, b, c, d, y0)
            assert s < 0
            xp, yp = _right(a, b, c, d).state((0.0, y0), s)
            assert abs(float(xp)) < 1e-10
            assert float(yp) == pytest.approx(-y0, rel=1e-9)

    def test_residuals_over_amplitude_decades(self):
        # unit-frequency right zone: strict 1e-12 across six decades
        a, b = 0.3, -1.0
        xi = 1.0
        c = (a * a + xi * xi) / (-b)
        for y0 in np.geomspace(1e-3, 1e3, 40):
            t, _ = _left_return(0.7, float(y0))
            x, _ = _left(0.7).state((0.0, float(y0)), t)
            assert abs(float(x)) < 1e-12
            s = _right_return(a, b, c, 0.7, float(y0))
            xp, _ = _right(a, b, c, 0.7).state((0.0, float(y0)), s)
            assert abs(float(xp)) < 1e-12

    def test_residuals_slow_rotation(self):
        # xi = 0.1 stretches flight times to ~10 pi; the achievable
        # absolute residual is then ulp(t) * |x'| and exceeds 1e-12 at the
        # largest amplitudes, so the bound is floor-aware there
        zone = _right(1.0, -1.0, 1.01, 0.1)
        for y0 in np.geomspace(1e-3, 1e3, 25):
            s = _right_return(1.0, -1.0, 1.01, 0.1, float(y0))
            x, y = zone.state((0.0, float(y0)), s)
            floor = 8.0 * np.spacing(abs(s)) * max(1.0, abs(float(y)))
            assert abs(float(x)) < max(1e-12, floor)


class TestSimulate:
    def test_unperturbed_orbit_closes(self):
        sys = canonical_system(1.0, -1.0, 1.01, 0.1, 0.55)
        for y0 in (0.3, 1.0, 2.7):
            assert abs(displacement(sys, y0)) < 1e-9

    def test_segments_alternate_zones(self):
        sys = example_one()
        # the left half-return time from (0, y0) about (-e, 0), e = 0.55
        e, y0 = 0.55, 1.0
        t_l = 2 * math.pi - math.acos(2 * e * e / (e * e + y0 * y0) - 1)
        traj = simulate(sys, (0.0, 1.0), t_l + 1.0)
        kinds = traj.segment_kinds()
        assert kinds[0] == "ZoneMinus" and kinds[1] == "ZonePlus"
        # consecutive segments share their switching-line endpoint
        assert traj.crossings[1].t == pytest.approx(t_l, rel=1e-10)
        assert traj.crossings[1].y == pytest.approx(-1.0, rel=1e-9)

    def test_reversibility_without_sliding(self):
        sys = example_one(1e-3).with_epsilon(1e-3)
        start = (0.0, 1.3)
        fwd = simulate(sys, start, 5.0)
        end = fwd.samples[-1]
        back = _simulate_backward(sys, (end[1], end[2]), 5.0)
        final = back.samples[-1]
        assert_allclose((final[1], final[2]), start, atol=1e-8)
        assert "Sliding" not in fwd.segment_kinds()

    SAMPLES_CSV_SHA256 = "416f906c06ce9cb3a2f858e0d5c8265402b2eed1d0c41ffc474c0442e63081ae"

    def test_samples_are_python_floats(self):
        # zone-arc samples carried their time as numpy.float64 (62 of these
        # 63); every entry is now a Python float of the same value, so the
        # CSV, recorded before, keeps its bytes
        traj = simulate(example_one().with_epsilon(1e-2), (0.0, 1.5), 12.0)
        assert len(traj.samples) == 63
        csv = traj.to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == self.SAMPLES_CSV_SHA256
        for sys, start, t_max, backward in _bit_simulations():  # the last one slides
            traj = (_simulate_backward if backward else simulate)(sys, start, t_max)
            for sample in traj.samples:
                assert len(sample) == 3 and all(type(v) is float for v in sample)

    @pytest.mark.parametrize("t_max", [8.0, 40.0])
    def test_backward_csv_labels_every_row(self, t_max):
        traj = _simulate_backward(example_one(1e-2), (0.0, 1.5), t_max)
        rows = [line.split(",") for line in traj.to_csv().splitlines()[1:]]
        assert len(rows) == len(traj.samples)
        seg_iter = iter(traj.segments)
        seg = next(seg_iter)
        labels = []
        for t, _x, _y, kind in rows:
            # rows run backward in time; a boundary row belongs to the
            # segment that ends there
            while float(t) < seg.t_end - 1e-12:
                seg = next(seg_iter)
            assert kind == seg.kind
            if not labels or labels[-1] != kind:
                labels.append(kind)
        assert labels == traj.segment_kinds()

    def test_displacement_against_independent_integrator(self):
        sys = example_one(1e-3).with_epsilon(1e-3)
        ours = displacement(sys, 1.5)
        ref = first_return_displacement(sys, 1.5)
        assert_allclose(ours, ref, rtol=1e-6, atol=1e-10)

    def test_displacement_rejects_nonpositive_amplitude(self):
        with pytest.raises(NonPositiveAmplitude):
            displacement(example_one(), 0.0)

    @pytest.mark.parametrize("start, t_max, name", [
        ((0.0, 1.0), math.inf, "t_max"),
        ((0.0, 1.0), math.nan, "t_max"),
        ((0.0, 1.0), 0.0, "t_max"),
        ((math.nan, 1.0), 5.0, "start"),
        ((0.0, -math.inf), 5.0, "start"),
    ])
    def test_non_finite_input_rejected(self, start, t_max, name):
        with pytest.raises(ValueError, match=name):
            simulate(example_one(1e-2), start, t_max)

    @pytest.mark.parametrize("first_return", [
        lambda y0: displacement(example_one().with_epsilon(1e-2), y0),
        lambda y0: melnikov_oracle(example_one(), y0, 1e-2),
    ], ids=["displacement", "melnikov_oracle"])
    def test_nan_amplitude_rejected(self, first_return):
        with pytest.raises(ValueError, match="start must be finite"):
            first_return(math.nan)

    def test_no_return_raises(self, monkeypatch):
        sys = canonical_system(1.0, -1.0, 1.01, 0.1, 0.55)
        monkeypatch.setattr(flow, "RETURN_SEGMENTS", 1)
        with pytest.raises(NoReturn):
            displacement(sys, 1.0)

    def test_stability_labels_drive_long_run_drift(self):
        # at a small perturbation the displacement pushes orbits toward the
        # stable cycle (second root) and away from the unstable ones; eps
        # must be small enough for the first-order term to dominate
        sys = example_one()
        eps = 1e-4
        d_below = displacement(sys.with_epsilon(eps), 0.8)
        d_mid_lo = displacement(sys.with_epsilon(eps), 1.5)
        d_mid_hi = displacement(sys.with_epsilon(eps), 3.0)
        d_above = displacement(sys.with_epsilon(eps), 4.5)
        assert d_below < 0          # repelled downward from the first cycle
        assert d_mid_lo > 0         # attracted up toward the second
        assert d_mid_hi < 0         # attracted down toward the second
        assert d_above > 0          # repelled outward past the third

    def test_overflowing_state_raises(self):
        # a right zone of size 1e200 overflows to inf within the run; the
        # state is reported, not recorded as inf samples
        left = zone_arrays(example_one(), "minus")
        sys = PwlSystem.from_dict({"order0": {
            "plus": {"matrix": [1e200, 0.0, 0.0, 1e200], "offset": [0.0, 0.1]},
            "minus": {"matrix": np.ravel(left[0]).tolist(), "offset": list(left[1])}}})
        with np.errstate(over="ignore"), pytest.raises(EventStall, match="not finite at t = 5$"):
            simulate(sys, (1.0, 1.0), 5.0)


class _CountingList(list):
    """A sample list that counts its element reads."""
    reads = 0

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item

    def __getitem__(self, index):
        out = super().__getitem__(index)
        self.reads += len(out) if isinstance(index, slice) else 1
        return out


def _polylines(svg):
    return [line.split('points="')[1].split('"')[0].split()
            for line in svg.splitlines() if line.startswith("<polyline")]


class TestSegmentSamples:
    """Each segment owns the samples recorded with it."""

    def test_fold_start_polylines_hold_their_segment(self):
        # a 1e-11 slide from a start next to the visible fold: a time
        # window of 1e-12 around each segment pulled the slide's samples
        # into the next zone arc's polyline (35 points instead of 32)
        sys = type_one_sliding_params(1e-2).to_system()
        y_f1 = {f.side: f.y for f in find_folds(sys)}["minus"]
        traj = simulate(sys, (1e-12, y_f1 - 1e-11), 8.620188996829313)
        assert traj.segment_kinds() == ["Sliding", "ZoneMinus", "Sliding", "ZoneMinus"]
        portrait = PhasePortrait()
        portrait.add_trajectory(traj)
        lines = _polylines(portrait.render())
        # one polyline per segment: its start point, then its own samples
        assert [len(pts) for pts in lines] == [flow.SAMPLE_STRIDE] * 4
        for before, after in zip(lines, lines[1:]):
            assert after[0] == before[-1]
        assert sum(len(pts) - 1 for pts in lines) + 1 == len(traj.samples)
        for (seg, pts), line in zip(traj.segment_samples(), lines):
            assert len(pts) == len(line)
            assert pts[0][0] == seg.t_start and pts[-1][0] == seg.t_end

    def test_render_reads_each_sample_a_few_times(self):
        # a deterministic cost guard: a time window per segment read every
        # sample once per segment
        traj = simulate(example_one(1e-2), (0.0, 1.5), 200.0)
        assert len(traj.segments) > 10
        traj.samples = _CountingList(traj.samples)
        portrait = PhasePortrait()
        portrait.add_trajectory(traj)
        portrait.render()
        reads, n = traj.samples.reads, len(traj.samples)
        assert reads <= 3 * n


class TestMelnikovOracle:
    def test_matches_closed_form_near_root(self):
        sys = example_one()
        p = example_one_params()
        est = melnikov_oracle(sys, 1.0, 1e-4)
        assert abs(est - m1(p, 1.0)) < 1e-3

    def test_matches_closed_form_at_generic_point(self):
        sys = example_one()
        p = example_one_params()
        est = melnikov_oracle(sys, 1.5, 2e-5)
        assert abs(est - m1(p, 1.5)) / abs(m1(p, 1.5)) < 0.01

    def test_error_decays_linearly(self):
        sys = example_one()
        p = example_one_params()
        for y0 in np.linspace(0.6, 4.6, 10):
            errs = [abs(melnikov_oracle(sys, float(y0), eps) - m1(p, float(y0)))
                    for eps in (1e-3, 5e-4, 2.5e-4)]
            assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.35)
            assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.35)

    def test_error_decays_linearly_constrained_system(self):
        sys = example_two()
        from pwlcycles.examples import example_two_params
        from pwlcycles.melnikov import m1_constrained
        p = example_two_params()
        for y0 in np.linspace(1.2, 6.0, 10):
            errs = [abs(melnikov_oracle(sys, float(y0), eps) - m1_constrained(p, float(y0)))
                    for eps in (1e-3, 5e-4, 2.5e-4)]
            assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.35)

    def test_random_systems_with_irrelevant_entries(self):
        # the first-order displacement function depends only on the traces,
        # v1 entries and the normal-form scalars; random b12/b21/v2 entries
        # in the simulated system must not break the agreement
        rng = np.random.default_rng(55)
        for _ in range(5):
            a = float(rng.uniform(-0.8, 0.8))
            xi = float(rng.uniform(0.4, 1.5))
            b = -float(rng.uniform(0.4, 1.8))
            c = (a * a + xi * xi) / (-b)
            d, e = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5))
            b11m, b22m = rng.uniform(-1, 1, 2)
            b11p, b22p = rng.uniform(-1, 1, 2)
            v1m, v1p = rng.uniform(-1, 1, 2)
            sys = canonical_system(
                a, b, c, d, e,
                B_minus=[[b11m, rng.uniform(-1, 1)], [rng.uniform(-1, 1), b22m]],
                v_minus=[v1m, rng.uniform(-1, 1)],
                B_plus=[[b11p, rng.uniform(-1, 1)], [rng.uniform(-1, 1), b22p]],
                v_plus=[v1p, rng.uniform(-1, 1)])
            from pwlcycles.melnikov import MelnikovParams
            p = MelnikovParams(b=b, d=d, e=e, xi=xi, b11m=b11m, b22m=b22m,
                               v1m=v1m, b11p=b11p, b22p=b22p, v1p=v1p)
            for y0 in np.linspace(0.5, 3.5, 10):
                errs = [abs(melnikov_oracle(sys, float(y0), eps) - m1(p, float(y0)))
                        for eps in (1e-3, 5e-4)]
                ratio = errs[0] / errs[1] if errs[1] > 1e-14 else 2.0
                assert ratio == pytest.approx(2.0, abs=0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.0])
    def test_zero_eps_rejected(self, eps):
        # -displacement/eps has no value at eps = 0: a ValueError naming
        # eps > 0, not a bare ZeroDivisionError
        with pytest.raises(ValueError, match="eps > 0"):
            melnikov_oracle(example_one(), 3.0, eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
    def test_invalid_eps_keeps_its_message(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            melnikov_oracle(example_one(), 3.0, eps)

    def test_oracle_does_not_scan_a_grid(self, monkeypatch):
        # a deterministic cost guard: sampling each rotation on a grid
        # evaluates the zone flow thousands of times per oracle call
        calls = 0
        state = AffineFlow.state

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return state(self, *args, **kwargs)

        monkeypatch.setattr(AffineFlow, "state", counting)
        melnikov_oracle(example_one(), 3.0, 1e-4)
        assert calls < 100

    def test_oracle_resolves_each_zone_once(self, monkeypatch):
        # a deterministic cost guard: the order records are read once per
        # side and system, when the zones resolve to floats; rebuilding the
        # zone fields on every read made 114 array conversions per oracle call
        reads = _order_reads(monkeypatch)
        melnikov_oracle(example_one(), 3.0, 1e-4)
        assert reads == ["plus", "minus"]

    def test_oracle_stops_at_the_return(self, monkeypatch):
        # a deterministic cost guard: the return from y0 = 3 comes after two
        # zone arcs, at t = 28.5 of a t_max = 113 budget; running on to
        # t_max made 8 arcs and 16 AffineFlow.state calls
        arcs = calls = 0
        locate, state = flow.first_component_zero, AffineFlow.state

        def counting_locate(*args, **kwargs):
            nonlocal arcs
            arcs += 1
            return locate(*args, **kwargs)

        def counting_state(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return state(self, *args, **kwargs)

        monkeypatch.setattr(flow, "first_component_zero", counting_locate)
        monkeypatch.setattr(AffineFlow, "state", counting_state)
        melnikov_oracle(example_one(), 3.0, 1e-4)
        assert arcs <= 3
        assert calls <= 4

    @pytest.mark.parametrize("y0", [0.8, 3.0, 4.5])
    def test_early_stop_keeps_the_full_run_return(self, y0):
        # the first return read off a run to the old t_max budget is the
        # value the stopping run returns, to the bit
        sys = example_one().with_epsilon(1e-4)
        t_max = 3.0 * (2.0 * math.pi + math.pi / example_one_params().xi)
        traj = simulate(sys, (0.0, y0), t_max, max_segments=64)
        y_ret = next(ev.y for ev in traj.crossings[1:] if ev.y > 0)
        assert displacement(sys, y0) == y_ret - y0

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("case, y0", [
        ("example_one", 0.8), ("example_one", 4.5), ("example_one", -0.5),
        ("example_one", -3.0), ("example_one", -100.0),
        ("seeded_3", 1.2), ("seeded_3", -2.0), ("seeded_17", 0.6),
        ("seeded_17", -0.9), ("seeded_42", 3.5), ("seeded_42", -4.0),
    ])
    def test_early_stop_keeps_the_full_run_return_both_ways(self, case, y0, backward):
        # backward runs and starts on y < 0, as the return map at infinity
        # runs them, on example 1 and on seeded general systems: the first
        # return without samples is the recording run's crossing, to the bit
        sys = _return_case(case)
        y_ret, traj, _ = _full_run_return(sys, y0, backward)
        assert y_ret is not None, traj.stopped
        assert flow._first_return(sys, y0, backward=backward) == y_ret

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("y0", [0.002, 0.01, -0.002, -0.01])
    def test_early_stop_keeps_the_full_run_outcome_when_sliding(self, y0, backward):
        # example 2 at eps 1e-2 near the sliding segment: forward from
        # y0 > 0 the orbit slides and never returns to y > 0, so both runs
        # end without a return, for the same reason; the other starts keep
        # the recording run's return or its missing return, to the bit
        sys = example_two(0.01)
        y_ret, traj, t_max = _full_run_return(sys, y0, backward)
        if y0 > 0 and not backward:
            assert flow.SLIDING in traj.segment_kinds()
            assert y_ret is None
        if y_ret is not None:
            assert flow._first_return(sys, y0, backward=backward) == y_ret
            return
        half = "y>0" if y0 > 0 else "y<0"
        with pytest.raises(NoReturn) as exc:
            flow._first_return(sys, y0, backward=backward)
        assert str(exc.value) == f"no return to x=0, {half} within t={t_max} ({traj.stopped})"

    @staticmethod
    def _array_state_and_fold_calls(monkeypatch):
        counts = {"array_state": 0, "find_folds": 0}
        state, find_folds = AffineFlow.state, flow.find_folds

        def counting_state(self, X0, t):
            if np.ndim(t) > 0:
                counts["array_state"] += 1
            return state(self, X0, t)

        def counting_folds(*args, **kwargs):
            counts["find_folds"] += 1
            return find_folds(*args, **kwargs)

        monkeypatch.setattr(AffineFlow, "state", counting_state)
        monkeypatch.setattr(flow, "find_folds", counting_folds)
        return counts

    def test_oracle_samples_no_arc_and_finds_no_fold(self, monkeypatch):
        # a deterministic cost guard: the first return reads only crossings,
        # so no arc is sampled and a crossing-only orbit needs no folds;
        # recording made two 32-point state calls and one fold search
        counts = self._array_state_and_fold_calls(monkeypatch)
        melnikov_oracle(example_one(), 3.0, 1e-4)
        assert counts == {"array_state": 0, "find_folds": 0}

    def test_return_at_infinity_samples_no_arc_and_finds_no_fold(self, monkeypatch):
        # the same guard for the return map at infinity
        from pwlcycles.infinity import poincare_displacement
        counts = self._array_state_and_fold_calls(monkeypatch)
        poincare_displacement(example_one().with_epsilon(1e-2), 1e-2)
        assert counts == {"array_state": 0, "find_folds": 0}


_UNIT_ROTATION = affine_flow([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])


class TestEventMachinery:
    def test_tangent_start_is_not_an_event(self):
        # from the visible fold the orbit leaves quadratically; the first
        # located event is the genuine far-side return
        sys = example_two(0.01)
        zone = affine_flow(*zone_arrays(sys, "minus"))
        t_ev, kind = first_component_zero(zone, np.array([0.0, 0.002]), 1.0, 10.0)
        assert kind == "cross"
        assert t_ev > 6.0

    def test_section_event_on_y_component(self):
        sys = canonical_system(1.0, -1.0, 1.01, 0.1, 0.55)
        zone = affine_flow(*zone_arrays(sys, "minus"))
        t_ev, kind = first_component_zero(zone, np.array([0.0, 0.4]), 1.0, 10.0,
                                          component=1, target=0.4)
        assert kind == "cross"
        state = zone.state(np.array([0.0, 0.4]), t_ev)
        assert state[1] == pytest.approx(0.4, abs=1e-11)
        assert state[0] < -1.0

    @pytest.mark.parametrize("delta", [2e-5, 4e-5, 6e-5])
    def test_shallow_dip_crossing(self, delta):
        # x = cos(phi + t) rises through 1 - delta and falls back within
        # 2 sqrt(2 delta) of time: a transversal double crossing with a
        # shallow dip, first crossed at 2 pi - phi - acos(1 - delta)
        for phi in np.linspace(0.05, 6.0, 41):
            start = np.array([math.cos(phi), math.sin(phi)])
            t_ev, kind = first_component_zero(_UNIT_ROTATION, start, 1.0, 7.0,
                                              target=1.0 - delta)
            assert kind == "cross"
            t_ref = 2.0 * math.pi - phi - 2.0 * math.asin(math.sqrt(0.5 * delta))
            assert abs(t_ev - t_ref) < 1e-12

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    @pytest.mark.parametrize("phi", [0.3, 2.0, 4.5])
    def test_graze_at_extremum(self, direction, phi):
        # x = cos(phi + t) touches 1 at t = -phi (mod 2 pi) without crossing
        start = np.array([math.cos(phi), math.sin(phi)])
        t_ev, kind = first_component_zero(_UNIT_ROTATION, start, direction, 7.0, target=1.0)
        assert kind == "graze"
        t_ref = 2.0 * math.pi - phi if direction > 0 else phi
        assert abs(abs(t_ev) - t_ref) < 1e-12
        assert first_component_zero(_UNIT_ROTATION, start, direction, 7.0,
                                    target=1.0 + 1e-9) == (None, "none")


class TestCriticalTimes:
    @pytest.mark.parametrize("M, u", [
        ([[0.15, -1.0], [1.3, 0.05]], [0.3, -0.2]),   # oscillatory, mu = 0.1
        ([[0.3, 1.0], [0.8, -0.5]], [0.2, 0.1]),      # hyperbolic, mu = -0.1
        ([[0.5, 1.0], [1e-16, 0.5]], [0.1, -0.3]),    # near-nilpotent: hyperbolic, w2 = 1e-16
        ([[0.5, 1.0], [0.0, 0.5]], [0.1, -0.3]),      # nilpotent, w2 = 0
        ([[0.5, 1.0], [-1e-16, 0.5]], [0.1, -0.3]),   # oscillatory, w2 = -1e-16
    ], ids=["oscillatory", "hyperbolic", "near-nilpotent", "nilpotent", "tiny-oscillatory"])
    def test_against_velocity_zeros(self, M, u):
        from pwlcycles.flow import _Coordinate
        zone = affine_flow(M, u)
        for direction in (1.0, -1.0):
            found = 0
            for start in ((0.4, 0.7), (-1.0, 0.5), (1.0, -2.0)):
                for component in (0, 1):
                    g = _Coordinate(zone, start, direction, component, 0.0)
                    got = list(g.critical_times(12.0))
                    ref = velocity_zeros(M, u, start, direction, 12.0, component)
                    assert len(got) == len(ref)
                    assert_allclose(got, ref, rtol=0.0, atol=1e-12)
                    found += len(ref)
            assert found > 0


def _numpy_calls(monkeypatch):
    """Counts of the numpy calls the float-arithmetic engine does without,
    and of the equilibrium solves it keeps."""
    counts = dict.fromkeys(("det", "solve", "concatenate", "arange"), 0)
    for owner, name in ((np.linalg, "det"), (np.linalg, "solve"),
                        (np, "concatenate"), (np, "arange")):
        def counting(*args, _f=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return counts


def _order_reads(monkeypatch):
    """The sides of the ``PwlSystem.orders`` calls, in call order: the engine
    reads the order records only there."""
    reads = []
    orders = PwlSystem.orders

    def counting(self, side):
        reads.append(side)
        return orders(self, side)

    monkeypatch.setattr(PwlSystem, "orders", counting)
    return reads


_ZONES = {  # (M, u) of zones on each branch of AffineFlow._cs, and the unit rotation
    "oscillatory": ([[0.15, -1.0], [1.3, 0.05]], [0.3, -0.2]),
    "hyperbolic": ([[0.3, 1.0], [0.8, -0.5]], [0.2, 0.1]),
    "near-nilpotent": ([[0.5, 1.0], [1e-16, 0.5]], [0.1, -0.3]),  # hyperbolic, w2 = 1e-16
    "nilpotent": ([[0.5, 1.0], [0.0, 0.5]], [0.1, -0.3]),
    "rotation": ([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]),
}


_ZONE_CALLS = {  # one call of each entry point that sets up the zone flows of one system
    "detect_sliding_cycle": lambda: detect_sliding_cycle(type_one_sliding_params()),
    "melnikov_oracle": lambda: melnikov_oracle(example_one(), 3.0, 1e-4),
    "poincare_displacement": lambda: poincare_displacement(example_one().with_epsilon(1e-2), 1e-2),
    "simulate": lambda: simulate(example_one().with_epsilon(1e-2), (0.0, 1.5), 12.0),
    "simulate_sliding_cycle": lambda: simulate_sliding_cycle(type_one_sliding_params()),
}


class TestFloatEngine:
    """The zone flow and the event set-up run in float arithmetic that
    rounds as the numpy expressions they replace."""

    def test_det2_is_numpys_determinant(self):
        # seeded matrices over ten decades, two-decimal entries (pivot
        # ties), trace-free ones and ones with zero entries, to the bit
        rng = np.random.default_rng(14)
        n = 25_000
        scaled = rng.normal(size=(n, 2, 2)) * 10.0 ** rng.uniform(-5, 5, (n, 1, 1))
        ties = np.round(rng.uniform(-3, 3, (n, 2, 2)), 2)
        trace_free = rng.normal(size=(n, 2, 2))
        trace_free[:, 1, 1] = -trace_free[:, 0, 0]
        sparse = rng.normal(size=(n, 2, 2))
        sparse[rng.uniform(size=(n, 2, 2)) < 0.3] = 0.0
        mats = np.concatenate([scaled, ties, trace_free, sparse])
        got = np.array([flow._det2(*m) for m in mats.reshape(-1, 4).tolist()])
        assert got.tobytes() == np.linalg.det(mats).tobytes()

    @pytest.mark.parametrize("m, want", [
        ([1e200, 0.0, 0.0, 1e200], math.inf),
        ([-1e200, 0.0, 0.0, 1e200], -math.inf),
        ([1e200, 1.0, 3.0, -1e200], -math.inf),
        ([0.0, 1e300, 1e300, 0.0], -math.inf),
        ([0.0, 0.0, 0.0, 0.0], 0.0),
        ([0.0, 1.0, 0.0, 0.0], 0.0),
        ([2.0, 3.0, 2.0, 3.0], 0.0),
        ([-0.0, 1.0, 2.0, 0.0], -2.0),
    ])
    def test_det2_overflow_and_zeros(self, m, want):
        # numpy's determinant overflows to +-inf where math.exp would raise
        with np.errstate(over="ignore"):
            ref = float(np.linalg.det(np.reshape(m, (2, 2))))
        got = flow._det2(*m)
        assert float.hex(got) == float.hex(ref) == float.hex(want)

    @pytest.mark.parametrize("name", ["oscillatory", "hyperbolic", "near-nilpotent", "nilpotent"])
    def test_float_state_is_the_array_state(self, name):
        zone = affine_flow(*_ZONES[name])
        rng = np.random.default_rng(5)
        for _ in range(500):
            X0 = rng.normal(size=2) * 3.0
            t = float(rng.uniform(-8.0, 8.0))
            assert zone.state(X0, t).tobytes() == zone.state(X0, np.array(t)).tobytes()

    @pytest.mark.parametrize("name", ["oscillatory", "hyperbolic", "near-nilpotent", "nilpotent"])
    def test_array_state_is_the_float_state(self, name):
        # one expression for both: each entry of the array result is the
        # float result of its time, to the bit
        zone = affine_flow(*_ZONES[name])
        rng = np.random.default_rng(15)
        for _ in range(50):
            X0 = rng.normal(size=2) * 3.0
            ts = rng.uniform(-8.0, 8.0, 64)
            got = zone.state(X0, ts)
            assert got.shape == (64, 2)
            for k, t in enumerate(ts.tolist()):
                assert got[k].tobytes() == zone.state(X0, t).tobytes()

    def test_huge_entries_build_a_zone(self):
        # |M|^2 overflows a float power; the scale is a product, inf here
        zone = affine_flow([[1e200, 0.0], [0.0, 1e200]], [0.0, 0.1])
        assert zone.w2 == 0.0
        assert zone.state((1.0, 1.0), 0.0).tolist() == [1.0, 1.0]

    def test_oracle_numpy_calls(self, monkeypatch):
        # a deterministic cost guard: 4 determinants, 2 concatenations and
        # 2 aranges per oracle call before the zones were built from floats
        counts = _numpy_calls(monkeypatch)
        melnikov_oracle(example_one(), 3.0, 1e-4)
        assert counts["det"] == counts["concatenate"] == counts["arange"] == 0
        assert counts["solve"] == 1

    def test_section_marks_numpy_calls(self, monkeypatch):
        # the same guard for the exact section marks (4, 5 and 5 before)
        counts = _numpy_calls(monkeypatch)
        detect_sliding_cycle(type_one_sliding_params())
        assert counts["det"] == counts["concatenate"] == counts["arange"] == 0
        assert counts["solve"] == 1

    @pytest.mark.parametrize("call", list(_ZONE_CALLS))
    def test_one_solve_and_no_zone_arrays(self, call, monkeypatch):
        # a deterministic cost guard: both zones of a system are set up
        # from its resolved floats with one stacked solve (one per zone
        # before), and the order records are read only to resolve them,
        # once per side
        counts = _numpy_calls(monkeypatch)
        reads = _order_reads(monkeypatch)
        _ZONE_CALLS[call]()
        assert counts["solve"] == 1
        assert reads == ["plus", "minus"]


def _flow_bits(zone):
    """The set-up of an ``AffineFlow`` as hex literals and bytes."""
    return ([float.hex(v) for v in zone._eq], float.hex(zone.mu), float.hex(zone.w2),
            zone._branch, zone.N.tobytes())


# type-one sliding data whose left zone is [[0, -1], [0, 0]] at eps 1e-2, and
# whose right zone is [[1, -1], [1, -1]] there: each singular, the other regular
_SINGULAR = {
    "minus": replace(type_one_sliding_params(), b11m=0.0, b22m=0.0, c11m=0.0, c22m=0.0,
                     c21m=0.0, b21m=-100.0),
    "plus": replace(type_one_sliding_params(), a=0.0, b11p=100.0, b22p=-100.0),
}


class TestZoneFlows:
    """``zone_flows`` sets up both zones with one stacked solve, to the bit
    of one ``AffineFlow`` per zone and of one ``np.linalg.solve`` each."""

    def test_flows_are_the_per_zone_flows(self):
        systems = [example_one(), example_two()] + list(seeded_systems(73, 1000))
        checked = 0
        for base in systems:
            for eps in (0.0, 1e-3, 1e-2, 0.5):
                sys = base.with_epsilon(eps)
                zones = [zone_arrays(sys, side) for side in ("plus", "minus")]
                try:
                    per_zone = [affine_flow(*zone) for zone in zones]
                except DegenerateLinearPart:
                    with pytest.raises(DegenerateLinearPart):
                        zone_flows(sys)
                    continue
                for got, want, (M, u) in zip(zone_flows(sys), per_zone, zones):
                    assert _flow_bits(got) == _flow_bits(want)
                    solved = np.linalg.solve(M, -u).tolist()
                    assert [float.hex(v) for v in got._eq] == [float.hex(v) for v in solved]
                checked += 1
        assert checked > 3900

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_a_singular_zone_raises(self, side):
        # a singular zone is refused by its determinant before the solve, on
        # either side, so numpy's LinAlgError never surfaces
        p = _SINGULAR[side]
        sys = p.to_system()
        entries = sys._entries
        assert flow._det2(*entries[side][:4]) == 0.0
        other = "minus" if side == "plus" else "plus"
        assert flow._det2(*entries[other][:4]) != 0.0
        calls = (lambda: simulate(sys, (0.0, 1.0), 5.0),
                 lambda: melnikov_oracle(p.to_system(0.0), 1.0, p.epsilon),
                 lambda: detect_sliding_cycle(p))
        for call in calls:
            with pytest.raises(DegenerateLinearPart, match="^zone matrix is numerically singular$"):
                call()

    def test_a_singular_zone_is_reported_before_a_cusp(self):
        # the left fold of this system also has a vanishing second contact
        # (its u2 is 0); the section marks set up both zone flows before
        # they look for folds, so they report the singular zone, as the
        # simulator does, where they used to raise LineOfTangency
        p = replace(_SINGULAR["minus"], v2m=-100.0, w2m=0.0)
        with pytest.raises(LineOfTangency, match="vanishing second contact"):
            find_folds(p.to_system())
        for call in (lambda: detect_sliding_cycle(p), lambda: s_maps_simulated(p, p.epsilon),
                     lambda: simulate(p.to_system(), (0.0, 1.0), 5.0)):
            with pytest.raises(DegenerateLinearPart):
                call()


def _fast_rotation(omega, mu=0.0):
    return affine_flow([[mu, -omega], [omega, mu]], [0.0, 0.0])


def _coordinate_evaluations(monkeypatch):
    """A count of the event search's coordinate evaluations, by wrapping
    the float closure of every ``_Coordinate`` built."""
    counts = {"value": 0}

    class Counting(flow._Coordinate):
        def __init__(self, *args):
            super().__init__(*args)
            inner = self.value

            def value(tau):
                counts["value"] += 1
                return inner(tau)
            self.value = value

    monkeypatch.setattr(flow, "_Coordinate", Counting)
    return counts


class TestEventBudget:
    @pytest.mark.parametrize("omega", [1e12, 1e100])
    def test_fast_rotation_stalls(self, omega, monkeypatch):
        # 1.6e13 and 1.6e101 monotone pieces within the budget, none
        # reaching x = 2; the extrema of a rotation never grow, so the
        # search ends after its start and two extrema, with no event
        counts = _coordinate_evaluations(monkeypatch)
        assert first_component_zero(_fast_rotation(omega), (0.5, 0.0), 1.0, 50.0,
                                    target=2.0) == (None, "none")
        assert counts["value"] <= 4

    @pytest.mark.parametrize("mu, target, t_hex", [
        (0.0, 0.25, "0x1.12843cf07a12ep-10"),
        (0.0, -0.3, "0x1.223b7e23914c2p-9"),
        # a spiral growing by 2 in 20: the crossings are thousands of pieces in
        (math.log(2.0) / 20.0, 1.0, "0x1.40171c51fdc30p+4"),
        (math.log(2.0) / 20.0, -1.2, "0x1.942f435c0d600p+4"),
    ])
    def test_fast_rotation_crossing(self, mu, target, t_hex):
        # 15,915 monotone pieces in the budget; the crossing the listing of
        # all of them found, to the bit
        zone = _fast_rotation(1e3, mu)
        assert first_component_zero(zone, (0.5, 0.0), 1.0, 50.0, target=target) == \
            (float.fromhex(t_hex), "cross")

    def test_oracle_refines_between_certified_values(self, monkeypatch):
        # 112 coordinate evaluations when the refinement evaluated every
        # bisection midpoint, about 52 per event
        counts = _coordinate_evaluations(monkeypatch)
        melnikov_oracle(example_one(), 3.0, 1e-4)
        assert counts["value"] <= 56

    def test_section_marks_refine_between_certified_values(self, monkeypatch):
        # 277 coordinate evaluations for the fold preimage and the four
        # marks when every bisection midpoint was evaluated
        counts = _coordinate_evaluations(monkeypatch)
        detect_sliding_cycle(type_one_sliding_params())
        assert counts["value"] <= 140

    def test_growing_spiral_skips_to_its_crossing(self, monkeypatch):
        # the crossing at x = 1 is 6,368 pieces in; the envelope jumps near it,
        # so the walk evaluates a few breakpoints and the bisection the rest
        counts = _coordinate_evaluations(monkeypatch)
        first_component_zero(_fast_rotation(1e3, math.log(2.0) / 20.0), (0.5, 0.0), 1.0,
                             50.0, target=1.0)
        assert counts["value"] < 80


def _sweep_zone(rng, branch):
    """A zone mu I + [[h, b], [c, -h]] with -det of its trace-free part
    drawn for ``branch``; mu = 0 only where that leaves M regular."""
    mu = rng.choice([0.0 if branch != "near-nilpotent" else 0.1, rng.uniform(-0.3, 0.3),
                     rng.uniform(-1e-3, 1e-3)])
    h, b = rng.uniform(-1.0, 1.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
    w2 = {"oscillatory": -rng.uniform(0.3, 5.0) ** 2, "hyperbolic": rng.uniform(0.5, 3.0) ** 2,
          "near-nilpotent": rng.uniform(-1e-16, 1e-16)}[branch]
    return affine_flow([[mu + h, b], [(w2 - h * h) / b, mu - h]], rng.uniform(-2.0, 2.0, 2))


def _sweep_cases(seed, n):
    """Seeded event searches: oscillatory, hyperbolic and near-nilpotent zones
    (w2 drawn within 1e-16 of 0, on the branch of its computed sign), both
    directions and components, budgets of 5, 50 and 500 (5000 on hyperbolic
    arcs, so that the bisection meets the overflow), a fifth of the starts on
    the section, slowly growing spirals from near their focus, and grazes
    built at an extremum: the target is its value, offset by 0, +-graze_tol/2
    or +-2 noise, when that value is within 10 times the search's scale."""
    rng = np.random.default_rng(seed)
    branches = ("oscillatory", "hyperbolic", "near-nilpotent", "spiral")
    for i in range(n):
        branch = branches[i % 4]
        direction = float(rng.choice([1.0, -1.0]))
        component = int(rng.integers(2))
        if branch == "spiral":
            mu, om = rng.uniform(1e-3, 3e-2), rng.uniform(1.0, 20.0)
            zone = affine_flow([[mu, -om], [om, mu]], rng.uniform(-2.0, 2.0, 2))
            start = np.array(zone._eq) + rng.uniform(-0.05, 0.05, 2)
            target = zone._eq[component] + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            yield zone, start, 1.0, 500.0, component, float(target)
            continue
        zone = _sweep_zone(rng, branch)
        budget = float(rng.choice([5.0, 50.0, 500.0 if branch != "hyperbolic" else 5000.0]))
        start = rng.uniform(-3.0, 3.0, 2)
        target = float(rng.uniform(-2.0, 2.0))
        if rng.random() < 0.2:
            start[component] = target
        if rng.random() < 0.3:
            probe = flow._Coordinate(zone, start, direction, component, 0.0)
            crit = list(islice(probe.critical_times(budget), int(rng.integers(1, 6))))
            scale = max(1.0, float(np.abs(start).max()), zone._eq_size)
            offset = rng.choice([0.0, 0.5e-11, -0.5e-11, 2.0 * flow._NOISE, -2.0 * flow._NOISE])
            if crit and abs(probe.value(crit[-1])) <= 10.0 * scale:
                target = probe.value(crit[-1]) + float(offset) * scale
        yield zone, start, direction, budget, component, target


def _hex_event(event):
    t, kind = event
    return None if t is None else float.hex(t), kind


class TestLazyEventSearch:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_full_scan(self, seed):
        # the lazy walk with its envelope skip against every breakpoint in
        # one numpy array, to the bit; the draws hold crossings, grazes and
        # empty arcs on all three branches, crossings past piece 10 and
        # crossings whose bisection starts where cosh overflows
        kinds, far, overflowed = set(), 0, 0
        for args in _sweep_cases(seed, 2000):
            got = first_component_zero(*args)
            assert _hex_event(got) == _hex_event(first_component_zero_reference(*args)), args
            zone, budget = args[0], args[3]
            kinds.add((zone.w2 < -1e-14, zone.w2 > 1e-14, got[1]))
            far += got[0] is not None and zone.w2 < -1e-14 and abs(got[0]) * zone.omega > 10 * math.pi
            overflowed += got[1] == "cross" and zone.w2 > 1e-14 and zone.omega * budget > 1420.0
        assert len(kinds) == 9
        assert far > 100 and overflowed > 10

    def test_oracle_makes_no_array_evaluation(self, monkeypatch):
        # a deterministic cost guard: the breakpoints were evaluated in one
        # numpy array per arc, about 20 of them per search on the oracle
        arrays = 0
        for name in ("exp", "cos", "sin"):
            def counting(x, *args, _f=getattr(np, name), **kwargs):
                nonlocal arrays
                arrays += isinstance(x, np.ndarray)
                return _f(x, *args, **kwargs)
            monkeypatch.setattr(np, name, counting)
        counts = _coordinate_evaluations(monkeypatch)
        melnikov_oracle(example_one(), 3.0, 1e-4)
        assert arrays == 0
        assert 0 < counts["value"] < 200

    def test_overflow_gives_the_ieee_value(self):
        # past exp(709.78) the coordinate is what numpy gives, with no
        # warning: -inf on a saddle leaving for x -> -inf, nan for 0 * inf
        saddle = affine_flow([[1.0, 0.0], [0.0, -1.0]], [-2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert flow._Coordinate(saddle, (1.0, 0.5), 1.0, 0, 0.0).value(1e4) == -math.inf
            assert math.isnan(flow._Coordinate(saddle, (2.0, 0.5), 1.0, 0, 0.0).value(1e4))

    def test_hyperbolic_overflow_crosses(self):
        # simulate raised OverflowError here: the bisection over a budget of
        # 1e4 evaluates the saddle zone past exp(709.78); the crossing is
        # the one a budget of 1e3 finds, at ln 2
        sys = PwlSystem.from_dict({"order0": {
            "plus": {"matrix": [1.0, 0.0, 0.0, -1.0], "offset": [-2.0, 0.0]},
            "minus": {"matrix": [0.0, -1.0, 1.0, 0.0], "offset": [0.0, 0.0]}}})
        for t_max in (1e3, 1e4):
            assert simulate(sys, (1.0, 0.5), t_max).crossings[0].t == 0.6931471805599454

    def test_spiral_into_a_focus_runs_to_t_max(self):
        # a focus at (2, 0) inside the right zone: the orbit never reaches
        # x = 0, which the decaying envelope decides at once; the scan of
        # every piece raised EventStall after about 0.55 s
        sys = PwlSystem.from_dict({"order0": {
            "plus": {"matrix": [-0.1, -1.0, 1.0, -0.1], "offset": [0.2, -2.0]},
            "minus": {"matrix": [0.0, -1.0, 1.0, 0.0], "offset": [0.0, 0.0]}}})
        traj = simulate(sys, (2.5, 0.0), 4e6)
        assert traj.stopped == "t_max"
        assert traj.segment_kinds() == [flow.ZONE_PLUS]


def _exact_w2_zone(monkeypatch, mu, w2, u=(0.0, 0.0)):
    """The zone mu I + [[0, 1], [w2, 0]] with w2 itself as its w2.  ``_det2``
    rounds through exp(log), so the w2 it gives near 1e-14 lie about 45 ulps
    apart; the exact determinant of these entries, a*d - b*c, keeps each."""
    with monkeypatch.context() as patch:
        patch.setattr(flow, "_det2", lambda a, b, c, d: a * d - b * c)
        zone = affine_flow([[mu, 1.0], [w2, mu]], list(u))
    assert zone.w2 == w2
    return zone


def _slow_zones(seed, n):
    """(M, u, zone, t_end) of seeded zones mu I + [[h, b], [c, -h]] with
    |w2| <= 1e-14, a fifth of them at w2 = 0 exactly, and t_end =
    1/sqrt|w2| (1e7 at 0), so that |w2| t_end^2 = 1; mu is large enough
    for M to be regular and keeps |mu| t_end at most 30."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        if i % 5 == 0:
            w2 = h = 0.0
        else:
            w2 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -14.0)
            h = rng.uniform(-1e-8, 1e-8)
        t_end = 1e7 if w2 == 0.0 else 1.0 / math.sqrt(abs(w2))
        mu = rng.choice([-1.0, 1.0]) * rng.uniform(2e-7, max(3e-7, 20.0 / t_end))
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
        M = [[mu + h, b], [(w2 - h * h) / b, mu - h]]
        u = rng.uniform(-1.0, 1.0, 2).tolist()
        yield M, u, affine_flow(M, u), t_end


class TestBranchBoundary:
    """Zones whose w2 is 0, a few subnormal ulps on either side of 0, and a
    few ulps on either side of +-1e-14: each takes the branch of the sign of
    its w2, "nilpotent" only at 0, and the coordinate and its critical times
    follow the branch that ``AffineFlow`` decided, so they agree with
    ``_cs`` there."""

    @staticmethod
    def _zones(monkeypatch):
        """(branch expected, zone) for the zone 2e-7 I + [[0, 1], [w2, 0]] at
        w2 = 0, +-1, 2 and 3 times 2**-1074, and +-1e-14 moved by up to 3 ulps."""
        w2s = [0.0]
        for sign in (-1.0, 1.0):
            w2s += [sign * k * 5e-324 for k in (1, 2, 3)]
            for k in range(-3, 4):
                w2 = sign * 1e-14
                for _ in range(abs(k)):  # k > 0 steps away from zero
                    w2 = math.nextafter(w2, math.copysign(math.inf, sign * k))
                w2s.append(w2)
        for w2 in w2s:
            branch = "oscillatory" if w2 < 0.0 else "hyperbolic" if w2 > 0.0 else "nilpotent"
            yield branch, _exact_w2_zone(monkeypatch, 2e-7, w2)

    @staticmethod
    def _horizon(zone):
        """Four turns at the zone's omega, or at omega = 1e-7 below it."""
        return 4.0 * math.pi / max(zone.omega, 1e-7)

    def test_each_side_takes_its_branch(self, monkeypatch):
        seen = {}
        for branch, zone in self._zones(monkeypatch):
            assert zone._branch == branch, zone.w2
            seen[branch] = seen.get(branch, 0) + 1
        assert seen == {"oscillatory": 10, "hyperbolic": 10, "nilpotent": 1}

    def test_value_is_the_cs_composite(self, monkeypatch):
        for _, zone in self._zones(monkeypatch):
            coord = flow._Coordinate(zone, (1.0, -1.28e-7), 1.0, 0, 0.3)
            for tau in np.linspace(0.0, self._horizon(zone), 101).tolist():
                c, s = zone._cs(tau, math)
                want = math.exp(coord.m * tau) * (coord.P * c + coord.Q * s) + coord.R
                assert float.hex(coord.value(tau)) == float.hex(want), (zone.w2, tau)

    def test_critical_times_follow_the_branch(self, monkeypatch):
        # from this start the rules part: the oscillatory extrema are
        # pi/omega apart, the hyperbolic one is at omega*tau ~ 0.5, and the
        # nilpotent one is the zero of mP + Q + mQ tau, near 2.8e6
        for branch, zone in self._zones(monkeypatch):
            coord = flow._Coordinate(zone, (1.0, -1.28e-7), 1.0, 0, 0.0)
            crit = list(coord.critical_times(self._horizon(zone)))
            if branch == "nilpotent":
                assert crit == [-(coord.m * coord.P + coord.Q) / (coord.m * coord.Q)]
            elif zone.omega < 1e-100:  # a subnormal w2: test_tiny_w2_keeps_the_nilpotent_extremum
                continue
            else:
                assert len(crit) >= 3 if branch == "oscillatory" else len(crit) == 1
                assert_allclose(np.diff(crit), math.pi / zone.omega, rtol=1e-12)
                if branch == "hyperbolic":
                    assert 0.4 < zone.omega * crit[0] < 0.6
            for tau in crit:  # an extremum of the value
                mid, lo, hi = (coord.value(t) for t in (tau, tau * 0.999, tau * 1.001))
                assert (lo - mid) * (hi - mid) > 0.0, (zone.w2, tau)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["hyperbolic", "oscillatory"])
    def test_tiny_w2_keeps_the_nilpotent_extremum(self, monkeypatch, sign):
        # |w2| tau^2 <= 1e-27 at the extremum near 2.8e6, so it is the
        # nilpotent law's to rounding, on either side of w2 = 0
        for w2 in (5e-324, 1e-323, 1.5e-323, 1e-300, 1e-40):
            zone = _exact_w2_zone(monkeypatch, 2e-7, sign * w2)
            coord = flow._Coordinate(zone, (1.0, -1.28e-7), 1.0, 0, 0.0)
            law = -(coord.m * coord.P + coord.Q) / (coord.m * coord.Q)
            assert_allclose(list(coord.critical_times(1e7)), [law], rtol=1e-14, err_msg=str(w2))

    def test_slow_saddle_crosses_twice(self):
        # w2 = 1e-14: scipy's expm brackets two crossings of x = 1.24 up to
        # 6e6, on a 1e4-unit scan refined to 100 units in each cell that
        # changes sign (the zone varies on scales of 1/omega = 1e7 and
        # 1/mu = 5e6); the search finds both, the second from the state at
        # the first
        M, X0 = [[2e-7, 1.0], [1e-14, 2e-7]], (1.0, -1.28e-7)
        coarse = np.arange(0.0, 6e6 + 1.0, 1e4)
        x = expm_states(M, (0.0, 0.0), X0, coarse)[:, 0] - 1.24
        cells = []
        for t0 in coarse[np.flatnonzero(np.sign(x[:-1]) != np.sign(x[1:]))].tolist():
            fine = t0 + np.arange(0.0, 1e4 + 1.0, 100.0)
            x = expm_states(M, (0.0, 0.0), X0, fine)[:, 0] - 1.24
            cells += fine[np.flatnonzero(np.sign(x[:-1]) != np.sign(x[1:]))].tolist()
        assert cells == [4143600.0, 5755200.0]
        zone = affine_flow(M, [0.0, 0.0])
        t1, kind1 = first_component_zero(zone, X0, 1.0, 1e7, 0, 1.24)
        t2, kind2 = first_component_zero(zone, zone.state(X0, t1), 1.0, 1e7 - t1, 0, 1.24)
        assert kind1 == kind2 == "cross"
        assert cells[0] < t1 < cells[0] + 100.0 and cells[1] < t1 + t2 < cells[1] + 100.0

    @pytest.mark.parametrize("w2", [5e-324, -5e-324], ids=["hyperbolic", "oscillatory"])
    def test_events_are_continuous_at_zero(self, monkeypatch, w2):
        # seeded searches on mu I + [[0, 1], [w2, 0]] give the events of
        # w2 = 0 to the bit at w2 = +-2**-1074, whose omega 2**-537 makes
        # (cos, sin/omega) and (cosh, sinh/omega) the floats (1, t)
        rng = np.random.default_rng(23)
        events = 0
        for _ in range(300):
            mu = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0))
            u = rng.uniform(-2.0, 2.0, 2).tolist()
            scale = 10.0 ** rng.uniform(0.0, 3.0)
            args = (rng.uniform(-1.0, 1.0, 2) * scale, float(rng.choice([1.0, -1.0])), 12.0,
                    int(rng.integers(2)), float(rng.uniform(-1.0, 1.0) * scale))
            want = first_component_zero(_exact_w2_zone(monkeypatch, mu, 0.0, u), *args)
            events += want[0] is not None
            got = first_component_zero(_exact_w2_zone(monkeypatch, mu, w2, u), *args)
            assert _hex_event(got) == _hex_event(want), args
        assert events > 80

    def test_state_agrees_with_the_matrix_exponential(self):
        # |w2| <= 1e-14 at times up to |w2| t^2 = 1
        rng, worst = np.random.default_rng(43), 0.0
        for M, u, zone, t_end in _slow_zones(31, 200):
            X0 = rng.uniform(-1.0, 1.0, 2)
            ts = np.linspace(-t_end, t_end, 9)
            ref = expm_states(M, u, X0, ts)
            err = np.abs(zone.state(X0, ts) - ref).max() / np.abs(ref).max()
            worst = max(worst, err)
        assert worst <= 1e-12

    def test_critical_times_agree_with_the_velocity_zeros(self):
        # the critical times of slow zones over t_end = 1/sqrt|w2| against
        # scipy's velocity, in count and to 1e-12 t_end
        found = 0
        starts = ((0.4, 0.7), (-1.0, 0.5), (1.0, -2.0), (0.05, -0.3), (-0.7, -0.9))
        for M, u, zone, t_end in _slow_zones(37, 12):
            for direction in (1.0, -1.0):
                for start in starts:
                    for component in (0, 1):
                        g = flow._Coordinate(zone, start, direction, component, 0.0)
                        got = list(g.critical_times(t_end))
                        ref = velocity_zeros(M, u, start, direction, t_end, component, n=1000)
                        assert len(got) == len(ref), (M, start, direction, component)
                        assert_allclose(got, ref, rtol=0.0, atol=1e-12 * t_end)
                        found += len(ref)
        assert found > 40


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs a long double of at least 64 bits")
class TestRoundingBand:
    @staticmethod
    def _check(cases):
        """(values checked, worst error / band): the float closure against
        the same closed form in long double, at random points of the first
        pieces and of random later ones, on the oscillatory arcs of
        ``cases`` (the branch that has a band)."""
        L = np.longdouble
        rng = np.random.default_rng(5)
        values, worst = 0, 0.0
        for zone, X0, direction, budget, component, target in cases:
            if zone._branch != "oscillatory":
                continue
            coord = flow._Coordinate(zone, X0, direction, component, target)
            ts = [0.0, *coord.critical_times(budget), budget]
            pieces = sorted({*range(min(3, len(ts) - 1)), *rng.integers(len(ts) - 1, size=3)})
            m, om, P, Q, R = (L(v) for v in (coord.m, zone.omega, coord.P, coord.Q, coord.R))
            for i in pieces:
                band = coord.band(ts[i], ts[i + 1])
                taus = rng.uniform(ts[i], ts[i + 1], 8)
                tau = taus.astype(L)
                ref = np.exp(m * tau) * (P * np.cos(om * tau) + Q * (np.sin(om * tau) / om)) + R
                err = np.abs(np.array([coord.value(t) for t in taus.tolist()], dtype=L) - ref)
                assert (err <= band).all(), (zone.w2, X0, direction, component, target, i)
                values += len(taus)
                worst = max(worst, float(err.max()) / band)
        return values, worst

    def test_band_bounds_the_rounding(self):
        values, worst = self._check(_sweep_cases(3, 1000))
        assert values > 10_000 and 0.0 < worst <= 1.0

    def test_band_bounds_the_rounding_on_slow_oscillatory_arcs(self):
        # arcs with -1e-14 < w2 < 0, which have a band since the branch
        # follows the sign of w2, over budgets up to 1/sqrt|w2|
        rng = np.random.default_rng(29)

        def cases():
            for M, u, zone, t_end in _slow_zones(41, 3000):
                if zone.w2 < 0.0:
                    component = int(rng.integers(2))
                    yield (zone, rng.uniform(-3.0, 3.0, 2), float(rng.choice([1.0, -1.0])),
                           float(rng.choice([5.0, 500.0, t_end])), component,
                           float(rng.uniform(-2.0, 2.0)))
        values, worst = self._check(cases())
        assert values > 10_000 and 0.0 < worst <= 1.0

    def test_band_is_inf_where_the_exponential_leaves_the_normal_range(self):
        coord = flow._Coordinate(_fast_rotation(1.0, 1.0), (0.5, 0.0), 1.0, 0, 0.0)
        assert coord.band(0.0, 700.0) < math.inf
        assert coord.band(0.0, 710.0) == math.inf
        coord = flow._Coordinate(_fast_rotation(1.0, 1.0), (0.5, 0.0), -1.0, 0, 0.0)
        assert coord.band(0.0, 710.0) == math.inf

    def test_hyperbolic_and_near_nilpotent_arcs_have_no_band(self):
        for zone in (affine_flow([[1.0, 0.0], [0.0, -1.0]], [-2.0, 0.0]),
                     affine_flow([[0.1, 1.0], [0.0, 0.1]], [0.0, 0.0])):
            assert flow._Coordinate(zone, (1.0, 0.5), 1.0, 0, 0.0).band(0.0, 1.0) == math.inf

    def test_crossing_just_before_a_flat_extremum(self):
        # the crossing lies about 4e-8 before a flat extremum that sits 2
        # noise past the target, at t_hi: a probe past t_hi would read the
        # far side of the extremum as a certificate, and the refinement
        # would return t_hi itself
        args = next(a for a in _sweep_cases(1, 2000)
                    if a[5] == float.fromhex("0x1.167f71c9b9873p+2"))
        zone, budget = args[0], args[3]
        assert zone.w2 < -1e-14 and budget == 5.0
        assert first_component_zero(*args) == (float.fromhex("0x1.de8fb424b7471p+1"), "cross")


def _decay_system():
    """Z+h = y - 1 and Z-h = y + 1: the segment (-1, 1) slides with dy/dt = -y."""
    return PwlSystem((Mat2(1.0, 1.0, 1.0, 0.0), Vec2(-1.0, -1.0)),
                     (Mat2(1.0, 1.0, -1.0, 0.0), Vec2(1.0, 1.0)))


def _slide_system(be_p, de_p, be_m, de_m):
    """Z+h = y - 1 and Z-h = 2y + 1: the segment (-1/2, 1) slides, and the
    y-components be*y + de of the two fields set the sliding speed."""
    return PwlSystem((Mat2(0.0, 1.0, 1.0, be_p), Vec2(-1.0, de_p)),
                     (Mat2(0.0, 2.0, 1.0, be_m), Vec2(1.0, de_m)))


class TestSlidingMotion:
    def test_pseudo_equilibrium_start_stalls(self):
        traj = simulate(_decay_system(), (0.0, 0.0), 5.0)
        assert traj.stopped == "sliding_stall"

    def test_forward_slide_ends_at_time_budget(self):
        # y(t) = 0.5 e^-t approaches the pseudo-equilibrium y = 0
        traj = simulate(_decay_system(), (0.0, 0.5), 5.0)
        assert traj.stopped == "t_max"
        assert traj.segment_kinds() == ["Sliding"]
        t, x, y = traj.samples[-1]
        assert (t, x) == (5.0, 0.0)
        assert abs(y - 0.5 * math.exp(-5.0)) < 1e-12
        ts = [s[0] for s in traj.samples]
        assert ts == sorted(ts)
        for t_k, _x, y_k in traj.samples:
            assert abs(y_k - 0.5 * math.exp(-t_k)) < 1e-12

    def test_long_budget_ends_at_pseudo_equilibrium(self):
        # backward in time the slide approaches the repelling root of
        # N = 2y^2 + 1.6y - 1.2 until it is within rounding of it
        sys = _slide_system(1.0, -0.2, 0.0, -1.0)
        root = (-1.6 + math.sqrt(1.6 ** 2 + 9.6)) / 4.0
        traj = _simulate_backward(sys, (0.0, 0.6), 60.0)
        assert traj.stopped == "t_max"
        t, _x, y = traj.samples[-1]
        assert t == -60.0
        assert abs(y - root) < 1e-14

    def test_backward_slide_reaches_fold(self):
        traj = _simulate_backward(_decay_system(), (0.0, 0.5), 5.0)
        seg, = traj.segments
        assert seg.kind == "Sliding"
        assert abs(seg.t_end + math.log(2.0)) < 1e-12
        assert traj.samples[-1][2] == 1.0
        assert traj.stopped == "sliding_endpoint"  # the fold at y = 1 is invisible

    @pytest.mark.parametrize("coeffs, start, fold, case", [
        ((1.0, -0.2, 0.0, -1.0), 0.8, 1.0, "real"),     # N = 2y^2 + 1.6y - 1.2
        ((1.0, -0.2, 0.0, -1.0), 0.0, -0.5, "real"),
        ((0.0, 1.0, -1.0, 1.0), -0.4, 1.0, "complex"),  # N = y^2 + 2
        ((0.5, 1.0, 1.0, 0.3), 0.0, 1.0, "linear"),     # N = 3.2y + 1.3
        ((0.5, 0.25, 0.0, 6.0), -0.4, 1.0, "double"),   # N = (y - 2.5)^2
        ((0.0, 0.5, 0.0, 1.0), 0.0, 1.0, "constant"),   # N = 1.5
    ])
    def test_slide_time_against_quadrature(self, coeffs, start, fold, case):
        be_p, de_p, be_m, de_m = coeffs
        A = 2.0 * be_p - be_m
        B = 2.0 * de_p + be_p - de_m + be_m
        disc = B * B - 4.0 * A * (de_p + de_m)
        if A == 0:
            assert case == ("constant" if B == 0 else "linear")
        else:
            assert case == ("real" if disc > 0 else "double" if disc == 0 else "complex")
        sys = _slide_system(*coeffs)
        traj = simulate(sys, (0.0, start), 10.0)
        seg = traj.segments[0]
        assert seg.kind == "Sliding"
        end = [s for s in traj.samples if s[0] == seg.t_end][-1]
        assert end[2] == fold
        ref = sliding_time(sys, start, fold)
        assert abs((seg.t_end - seg.t_start) - ref) < 1e-12 * ref

    def test_degenerate_numerators_keep_their_roots(self):
        # a double root of N is one pseudo-equilibrium, and a constant N has none
        double = _SlidingSpeed(_slide_system(0.5, 0.25, 0.0, 6.0))
        assert (double.A, double.B, double.C, double.disc) == (1.0, -5.0, 6.25, 0.0)
        assert double.roots == (2.5,)
        constant = _SlidingSpeed(_slide_system(0.0, 0.5, 0.0, 1.0))
        assert (constant.A, constant.B, constant.C) == (0.0, 0.0, 1.5)
        assert constant.roots == ()

    def test_first_type_one_slide_against_quadrature(self):
        p = type_one_sliding_params()
        traj, _closure, _kinds = simulate_sliding_cycle(p, 1e-2)
        seg = next(s for s in traj.segments if s.kind == "Sliding")
        y_land = [y for (t, _x, y) in traj.samples if t <= seg.t_start + 1e-12][-1]
        y_fold = [y for (t, _x, y) in traj.samples if t == seg.t_end][-1]
        ref = sliding_time(p.to_system(1e-2), y_land, y_fold)
        assert ref == pytest.approx(0.00470930478175, rel=1e-11)
        assert abs((seg.t_end - seg.t_start) - ref) < 1e-10 * ref


def _line_system(plus, minus):
    """Zones ((m11, m12, m21, m22), (u1, u2)) for plus and minus; on x = 0
    a zone's field is (m12*y + u1, m22*y + u2)."""
    (mp, up), (mm, um) = plus, minus
    return PwlSystem((Mat2(*mp), Vec2(*up)), (Mat2(*mm), Vec2(*um)))


class TestSwitchingLineCorners:
    """Runs that start where the switching line is neither crossing nor sliding."""

    # Z+h = y and Z-h = y - 1: (0, 1) escapes, with the Filippov speed
    # dy/dt = 2y - 1 from the y-components -1 and 1; both folds are invisible
    ESCAPING = ((0.0, 1.0, -1.0, 0.0), (0.0, -1.0)), ((0.0, 1.0, -1.0, 0.0), (-1.0, 1.0))

    @pytest.mark.parametrize("y0, fold", [(0.75, 1.0), (0.25, 0.0)])
    def test_escaping_segment_runs_to_an_invisible_fold(self, y0, fold):
        # forward in time the motion leaves the pseudo-equilibrium y = 1/2,
        # reaching either fold after (1/2) ln 2
        sys = _line_system(*self.ESCAPING)
        assert classify_point(sys, y0) is RegionKind.ESCAPING
        traj = simulate(sys, (0.0, y0), 5.0)
        seg, = traj.segments
        assert (seg.kind, traj.stopped) == ("Sliding", "sliding_endpoint")
        assert seg.t_end == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
        assert traj.samples[-1][1:] == (0.0, fold)

    @pytest.mark.parametrize("y0", [0.75, 0.25])
    def test_escaping_segment_backward_nears_the_pseudo_equilibrium(self, y0):
        # backward, y - 1/2 = (y0 - 1/2) e^(2t) decays toward the repeller
        traj = _simulate_backward(_line_system(*self.ESCAPING), (0.0, y0), 5.0)
        assert traj.segment_kinds() == ["Sliding"] and traj.stopped == "t_max"
        t, x, y = traj.samples[-1]
        assert (t, x) == (-5.0, 0.0)
        assert y - 0.5 == pytest.approx((y0 - 0.5) * math.exp(-10.0), rel=1e-9)

    def test_escaping_pseudo_equilibrium_start_stalls(self):
        traj = simulate(_line_system(*self.ESCAPING), (0.0, 0.5), 5.0)
        assert traj.stopped == "sliding_stall"

    def test_double_tangency_stops_the_run(self):
        # Z+h = Z-h = y: both fields are tangent to x = 0 at the origin
        sys = _line_system(((0.0, 1.0, -1.0, 0.0), (0.0, 1.0)),
                           ((0.0, 1.0, -1.0, 0.0), (0.0, -1.0)))
        assert classify_point(sys, 0.0) is RegionKind.DOUBLE_TANGENCY
        traj = simulate(sys, (0.0, 0.0), 5.0)
        assert traj.stopped == "double_tangency"
        assert traj.segments == [] and traj.samples == [(0.0, 0.0, 0.0)]

    def test_start_on_the_invisible_fold_slides(self):
        # example 2's right fold is invisible: the run slides from it to the
        # visible left fold, then follows the left zone
        sys = example_two(0.01)
        folds = {f.side: f for f in find_folds(sys)}
        start, end = folds["plus"], folds["minus"]
        assert start.visibility is Visibility.INVISIBLE
        assert end.visibility is Visibility.VISIBLE
        traj = simulate(sys, (0.0, start.y), 1.0)
        assert traj.segment_kinds() == ["Sliding", "ZoneMinus"]
        slide = traj.segments[0]
        assert slide.t_end - slide.t_start == pytest.approx(
            sliding_time(sys, start.y, end.y), rel=1e-10)
        assert [s for s in traj.samples if s[0] == slide.t_end][0][1:] == (0.0, end.y)


# ---------------------------------------------------------------------------
# the engine's outputs to the bit
# ---------------------------------------------------------------------------

_BIT_ORACLE_CASES = ((3, 0.7), (5, 1.9), (8, 3.1), (11, 4.4), (17, 0.6), (23, 2.2),
                     (31, 5.0), (42, 3.5))


def _bit_events(name):
    """'t kind' of the event searches on zone ``name`` over a budget of 12:
    both directions, two targets on each component, three starts (on the
    unit rotation the first target 1 is a tangency)."""
    zone = affine_flow(*_ZONES[name])
    out = []
    for direction in (1.0, -1.0):
        for component, target in ((0, 0.0), (0, -0.3), (1, 0.25), (1, -0.4)):
            if name == "rotation" and (component, target) == (0, 0.0):
                target = 1.0
            for start in ((0.4, 0.7), (-1.0, 0.5), (0.9, -0.6)):
                if name == "rotation":
                    start = (math.cos(start[0]), math.sin(start[0]))
                t, kind = first_component_zero(zone, start, direction, 12.0, component, target)
                out.append(f"{'None' if t is None else float.hex(t)} {kind}")
    return out


def _bit_simulations():
    """(system, start, t_max, backward) of the pinned ``simulate`` CSVs;
    the last one slides."""
    return ((example_one().with_epsilon(1e-2), (0.0, 3.0), 12.0, False),
            (example_one().with_epsilon(1e-2), (2.0, -1.0), 12.0, True),
            (example_two(0.01), (0.0, 0.01), 20.0, False))


class TestEngineBits:
    """The flow engine's outputs to the bit: ``float.hex`` literals and
    CSV digests recorded with the numpy-built zones, before the zones and
    the event set-up moved to float arithmetic.  Any change of rounding in
    the zone flow, the event search or its refinement fails here."""

    ORACLE = (
        "-0x1.5ebcfeaf2c4a0p+0",
        "0x1.c7bbbff5f39f0p+1",
        "0x1.2ca776507bffcp+3",
        "-0x1.384c42336a464p+4",
        "0x1.ac9e2395c943cp+1",
        "-0x1.29343b73a25c8p+2",
        "-0x1.09b53a6971300p-1",
        "-0x1.d7f8494217400p-4",
    )
    INFINITY = {
        ("example_one", 0.01): "-0x1.cad30cb3a8400p-15",
        ("example_one", 0.1): "-0x1.930f0d2c60200p-12",
        ("seeded_42", 0.01): "-0x1.09371834e9100p-14",
        ("seeded_42", 0.1): "-0x1.c10f93382ad00p-12",
    }
    S_MAPS = {
        5e-3: ("-0x1.ff8a625866c9cp+0", "-0x1.ff8aa426f8b6ep+0",
               "-0x1.ff8ac9241c6d4p+0", "-0x1.ff8bfd86458acp+0"),
        1e-2: ("-0x1.ff15773d65ff7p+0", "-0x1.ff167e297ea20p+0",
               "-0x1.ff17128efe906p+0", "-0x1.ff1be47446d14p+0"),
    }
    EVENTS = {
        "oscillatory": (
            "0x1.c060c12a26e62p-1 cross", "0x1.71954e46b6fcep+0 cross",
            "0x1.19e750febe4bap+1 cross", "0x1.9a731f5c8de8bp+0 cross",
            "0x1.3c431174e971ap+0 cross", "0x1.31ab8718c9690p+1 cross",
            "0x1.05a6c1447d752p+1 cross", "0x1.53041c705e877p-3 cross",
            "0x1.4d857ac5b850ep-1 cross", "0x1.0386324e7a648p+3 cross",
            "0x1.2f84d46b5e0f2p-1 cross", "0x1.80b9930c21df2p-3 cross",
            "-0x1.4884a495a1fb4p+1 cross", "-0x1.1a001adae2afep+0 cross",
            "-0x1.8656446374cf1p-1 cross", "None none",
            "-0x1.b172b898d788ap-1 cross", "-0x1.0935e04882196p+0 cross",
            "-0x1.f08ad855adb8ap-1 cross", "-0x1.59b98de0b5634p+1 cross",
            "-0x1.00444b60dd6d0p+1 cross", "None none",
            "-0x1.b3ee5f2e77f10p+1 cross", "-0x1.722274c54244ep+0 cross",
        ),
        "hyperbolic": (
            "None none", "None none",
            "None none", "None none",
            "None none", "None none",
            "None none", "0x1.2e31b6dd60320p-2 cross",
            "0x1.c3bd6b41c1962p-1 cross", "None none",
            "0x1.5b245f25171e8p+0 cross", "0x1.80ce2dfe5e3c8p-3 cross",
            "-0x1.a76652660688ap-2 cross", "None none",
            "None none", "-0x1.74e2e5acc8c3ep-1 cross",
            "None none", "None none",
            "None none", "None none",
            "None none", "None none",
            "None none", "None none",
        ),
        "near-nilpotent": (
            "None none", "None none",
            "0x1.4f995bc1e6118p+0 cross", "None none",
            "None none", "0x1.7aa796b363d00p+0 cross",
            "None none", "0x1.40b512eb53d5cp+1 cross",
            "None none", "None none",
            "0x1.26bb1bbb55513p+2 cross", "None none",
            "-0x1.cea1dbfa3d662p-2 cross", "None none",
            "-0x1.650b42fe578bap+1 cross", "-0x1.c4b771ceba58bp-1 cross",
            "None none", "-0x1.cab4394b68e64p+1 cross",
            "None none", "None none",
            "-0x1.3b6dc4af1ff9cp+1 cross", "None none",
            "None none", "-0x1.7565011e49670p-2 cross",
        ),
        "rotation": (
            "0x1.78861baaa937ep+2 graze", "0x1.0000000000000p+0 graze",
            "0x1.58861baaa937ep+2 graze", "0x1.79b9a55630472p+0 cross",
            "0x1.701005de4b56cp+1 cross", "0x1.f3734aac608e3p-1 cross",
            "0x1.3e94ae74f88ecp+1 cross", "0x1.40afa7382e1f2p+0 cross",
            "0x1.fd295ce9f11d6p+0 cross", "0x1.93991792de12cp+1 cross",
            "0x1.2d4da9f8c62e6p-1 cross", "0x1.53991792de12cp+1 cross",
            "-0x1.999999999999ap-2 graze", "-0x1.521fb54442d18p+2 graze",
            "-0x1.ccccccccccccdp-1 graze", "-0x1.234339117e8a0p+1 cross",
            "-0x1.c04017792d5b0p-1 cross", "-0x1.634339117e8a0p+1 cross",
            "-0x1.2db5f971c239cp-3 cross", "-0x1.327788e059e12p+1 cross",
            "-0x1.4b6d7e5c708e7p-1 cross", "-0x1.9f7f22d4069e8p-1 cross",
            "-0x1.bae63f84e8ba4p+0 cross", "-0x1.4fbf916a034f4p+0 cross",
        ),
    }
    CSV_SHA256 = (
        "0b59341de4ec833c52632c7264ff185df8300c181f4042d61f52fc84dda7ed09",
        "db1a4b5c9eea29fa68916d80c449eb4638ea31bd0e318434f82a9e6ccb568614",
        "102475240139b2696dc4c4828eba35d151f2f081350ad22ad3013a6b91c151f5",
    )

    @pytest.mark.parametrize("i", range(len(_BIT_ORACLE_CASES)))
    def test_melnikov_oracle(self, i):
        seed, y0 = _BIT_ORACLE_CASES[i]
        got = melnikov_oracle(_return_case(f"seeded_{seed}"), y0, 1e-4)
        assert float.hex(got) == self.ORACLE[i]

    @pytest.mark.parametrize("case, r0", sorted(INFINITY))
    def test_poincare_displacement(self, case, r0):
        sys = example_one() if case == "example_one" else _return_case(case)
        got = poincare_displacement(sys.with_epsilon(1e-2), r0)
        assert float.hex(got) == self.INFINITY[case, r0]

    @pytest.mark.parametrize("eps", sorted(S_MAPS))
    def test_section_marks(self, eps):
        got = s_maps_simulated(type_one_sliding_params(), eps)
        assert tuple(float.hex(v) for v in got) == self.S_MAPS[eps]

    @pytest.mark.parametrize("name", list(EVENTS))
    def test_first_component_zero(self, name):
        assert tuple(_bit_events(name)) == self.EVENTS[name]

    @pytest.mark.parametrize("i", range(3))
    def test_simulate_csv(self, i):
        sys, start, t_max, backward = _bit_simulations()[i]
        csv = (_simulate_backward if backward else simulate)(sys, start, t_max).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == self.CSV_SHA256[i]
