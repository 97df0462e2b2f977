import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pwlcycles import sliding
from pwlcycles.core import PwlSystem
from pwlcycles.errors import ConstraintViolated
from pwlcycles.flow import simulate
from pwlcycles.examples import (
    EXAMPLE2_SYSTEM_ROOT,
    example_two,
    example_two_sliding_params,
    type_one_sliding_params,
)
from pwlcycles.melnikov import SIGN_TOL, MelnikovParams, Stability, m1_constrained, scaled_sign
from pwlcycles.sliding import (
    CycleKind,
    SlidingParams,
    detect_sliding_cycle,
    s_maps,
    s_maps_general_order1,
    s_maps_simulated,
    simulate_sliding_cycle,
    simultaneity_report,
    thresholds,
)


def _hexes(p) -> dict:
    return {f.name: getattr(p, f.name).hex() for f in fields(p)}


class TestParams:
    @pytest.mark.parametrize("name", ["b22m", "v1m", "c11m", "epsilon"])
    def test_rejects_non_finite_fields(self, name):
        with pytest.raises(ValueError, match=f"SlidingParams.{name} must be finite"):
            replace(example_two_sliding_params(), **{name: math.nan})

    @pytest.mark.parametrize("eps", [1e-2, 5e-3, 0.0])
    def test_example_two_read_off_its_system(self, eps):
        # the coefficients example 2's sliding record was once typed out with
        literal = SlidingParams(
            a=-1.0, b=-1.0, d=2.0, e=1.0, xi=1.0,
            b11m=1.0, b22m=-1.0, b21m=0.0, v1m=0.2, v2m=0.0, v1p=-0.5,
            c11m=0.03, c22m=0.02, c21m=0.0, w2m=0.0,
            epsilon=eps, b11p=1.5, b22p=-0.4,
        )
        assert _hexes(example_two_sliding_params(eps)) == _hexes(literal)
        assert _hexes(SlidingParams.from_system(example_two(eps))) == _hexes(literal)

    def test_from_system_round_trips(self):
        p = type_one_sliding_params()
        assert _hexes(SlidingParams.from_system(p.to_system())) == _hexes(p)

    def test_from_system_needs_normal_coordinates(self):
        sys = type_one_sliding_params().to_system()
        (m, u) = sys.order0_minus
        with pytest.raises(ValueError, match="not in normal coordinates"):
            SlidingParams.from_system(replace(sys, order0_minus=(m, replace(u, x=0.1))))

    def test_is_a_melnikov_params(self):
        p = example_two_sliding_params()
        assert isinstance(p, MelnikovParams)
        assert p.constrained and p.drift == p.b * p.v1m + p.v1p
        mp = MelnikovParams(**{f.name: getattr(p, f.name) for f in fields(MelnikovParams)})
        ys = np.geomspace(1e-1, 1e2, 257)
        assert m1_constrained(p, ys).tobytes() == m1_constrained(mp, ys).tobytes()
        assert all(m1_constrained(p, y).hex() == m1_constrained(mp, y).hex()
                   for y in (0.3, 1.0, 2.12882852534382, 40.0))


class TestThresholds:
    def test_threshold_formula(self):
        p = example_two_sliding_params()
        # (v1m*b + v1p)^2 = 0.49 with b = -1, e = 1
        assert_allclose(thresholds(p), 0.49 / (2 * math.pi), rtol=1e-12)

    def test_degenerate_drift(self):
        p = replace(example_two_sliding_params(), v1m=0.5, v1p=0.5)  # b*v1m + v1p = 0
        assert thresholds(p) == 0.0

    def test_quadratic_scaling_in_e(self):
        p = example_two_sliding_params()
        p2 = replace(p, e=2.0 * p.e)
        assert_allclose(thresholds(p2), thresholds(p) / 4.0, rtol=1e-12)


class TestSMapSeries:
    def test_common_leading_term(self):
        p = type_one_sliding_params()
        sm = s_maps(p, 0.0)
        assert all(v == pytest.approx(-2.0 * p.e, abs=1e-15) for v in sm.values)

    def test_common_first_order_coefficient(self):
        p = type_one_sliding_params()
        sm = s_maps(p)
        c1 = 2.0 * p.b21m * p.e - 2.0 * p.v2m
        for series in sm.series():
            assert series.c1 == pytest.approx(c1, rel=1e-12)

    def test_requires_trace_constraint(self):
        p = replace(type_one_sliding_params(), b22m=0.5)
        with pytest.raises(ConstraintViolated):
            s_maps(p)

    def test_second_order_splits(self):
        p = type_one_sliding_params()
        sm = s_maps(p)
        tau = p.c11m + p.c22m
        pe = (p.v1m * p.b + p.v1p) ** 2 / (p.b ** 2 * p.e)
        assert sm.s0.c2 - sm.s1.c2 == pytest.approx(math.pi * p.e * tau, rel=1e-12)
        assert sm.s0.c2 - sm.s2.c2 == pytest.approx(pe / 2.0, rel=1e-12)
        assert sm.s0.c2 - sm.s3.c2 == pytest.approx(2.0 * pe, rel=1e-12)

    def test_series_match_simulation_to_third_order(self):
        p = example_two_sliding_params()
        series = s_maps(p).series()
        sims = {eps: s_maps_simulated(p, eps) for eps in (1e-2, 5e-3, 2.5e-3)}
        for i in range(4):
            errs = [abs(series[i](eps) - sims[eps][i]) for eps in (1e-2, 5e-3, 2.5e-3)]
            assert 6.0 <= errs[0] / errs[1] <= 10.0
            assert 6.0 <= errs[1] / errs[2] <= 10.0

    def test_general_first_order_split(self):
        # without the trace constraint the forward mark separates from the
        # three backward ones at first order already
        p = replace(type_one_sliding_params(), b11m=0.3, b22m=0.2)
        c1 = s_maps_general_order1(p)
        assert c1[0] == c1[2] == c1[3]
        assert c1[0] - c1[1] == pytest.approx(math.pi * p.e * 0.5, rel=1e-12)
        for eps in (1e-4,):
            sims = s_maps_simulated(p, eps)
            for i in (0, 2, 3):
                assert sims[i] + 2.0 * p.e - c1[i] * eps == pytest.approx(0.0, abs=5e-7)
            assert sims[1] + 2.0 * p.e - c1[1] * eps == pytest.approx(0.0, abs=5e-7)


class TestFoldPositions:
    def test_example_two_values(self):
        p = example_two_sliding_params()
        y1, y2, y3 = sliding._fold_positions(p.to_system(1e-2), p.xi)
        assert y1 == pytest.approx(0.002, rel=1e-12)
        assert y2 == pytest.approx(-0.005, rel=1e-12)
        # y3 = -(v1m + 2 v1p / b) eps + O(eps^2) = -(0.2 + 1.0)*eps ... with
        # b = -1: -(0.2 - 2*0.5*(-1)...); first-order value is -0.012
        assert y3 == pytest.approx(-0.012, abs=2e-4)
        assert y3 < y2 < y1

    def test_y3_first_order_coefficient(self):
        p = example_two_sliding_params()
        vals = []
        for eps in (1e-3, 5e-4):
            _, _, y3 = sliding._fold_positions(p.to_system(eps), p.xi)
            vals.append(y3 / eps)
        extrap = 2.0 * vals[1] - vals[0]
        assert extrap == pytest.approx(-(p.v1m + 2.0 * p.v1p / p.b), rel=1e-5)


class TestDetect:
    def test_example_two_type_one(self):
        report = detect_sliding_cycle(example_two_sliding_params())
        assert report.cycle is CycleKind.SLIDING_TYPE_I
        assert report.ordering == "S3 < S2 < S1 < S0"
        assert report.ordering_consistent
        assert report.extra_crossing_bound == 1
        assert report.threshold_lo == 0.0
        assert_allclose(report.threshold_hi, 0.49 / (2 * math.pi), rtol=1e-12)

    def test_type_two_window(self):
        base = type_one_sliding_params()
        T = thresholds(base)
        p = replace(base, c11m=3.0 * T - base.c22m)
        report = detect_sliding_cycle(p)
        assert report.cycle is CycleKind.SLIDING_TYPE_II
        assert report.ordering == "S3 < S1 < S2 < S0"
        assert report.ordering_consistent

    def test_above_both_windows_no_cycle(self):
        base = type_one_sliding_params()
        T = thresholds(base)
        p = replace(base, c11m=5.0 * T - base.c22m)
        report = detect_sliding_cycle(p)
        assert report.cycle is CycleKind.NONE

    def test_nonzero_trace_gives_none(self):
        p = replace(type_one_sliding_params(), b11m=0.4, b22m=0.1)
        report = detect_sliding_cycle(p)
        assert report.cycle is CycleKind.NONE
        assert "S1" in report.reason

    def test_escaping_mirror(self):
        base = type_one_sliding_params()
        T = thresholds(base)
        p = replace(base, a=-base.a, v1m=-base.v1m, v1p=-base.v1p,
                    c11m=-0.5 * T - base.c22m * -1.0, c22m=-base.c22m)
        # drift flips sign; tau = -0.5*T sits in the escaping Type-I window
        assert p.drift > 0
        assert -thresholds(p) < p.tau < 0
        report = detect_sliding_cycle(p)
        assert report.cycle is CycleKind.ESCAPING_TYPE_I
        assert report.ordering_consistent

    def test_escaping_type_two(self):
        base = type_one_sliding_params()
        T = thresholds(base)
        p = replace(base, a=-base.a, v1m=-base.v1m, v1p=-base.v1p,
                    c11m=-2.0 * T + base.c22m, c22m=-base.c22m)
        assert p.drift > 0 and -4.0 * thresholds(p) < p.tau < -thresholds(p)
        report = detect_sliding_cycle(p)
        assert report.cycle is CycleKind.ESCAPING_TYPE_II
        assert report.ordering_consistent

    def test_ordering_dichotomy_across_threshold(self):
        # sweeping the second-order trace across T swaps only the S1/S2
        # adjacency; S0 and S3 stay extremal
        base = type_one_sliding_params()
        T = thresholds(base)
        for frac, expect in ((0.5, "S3 < S2 < S1 < S0"), (1.5, "S3 < S1 < S2 < S0"),
                             (2.5, "S3 < S1 < S2 < S0")):
            p = replace(base, c11m=frac * T - base.c22m)
            sims = s_maps_simulated(p, 5e-3)
            order = sorted(range(4), key=lambda i: sims[i])
            names = " < ".join(f"S{i}" for i in order)
            assert names == expect


def _four_windows(p):
    """The window decision as it was written before the mirror: the two
    sliding and the two escaping windows, each tested on p's own tau."""
    T = thresholds(p)
    drift = p.b * p.v1m + p.v1p
    tau = p.c11m + p.c22m
    margin = SIGN_TOL * max(1.0, abs(tau), T)
    cycle = CycleKind.NONE
    lo = hi = 0.0
    reason = ""
    if p.d + p.b * p.e <= 0:
        reason = "d + b*e <= 0: the sliding direction condition fails"
    elif scaled_sign(drift, p.b * p.v1m, p.v1p) == 0:
        reason = "b*v1m + v1p = 0: fold points collide at first order"
    elif drift < 0:
        if margin < tau < T - margin:
            cycle, lo, hi = CycleKind.SLIDING_TYPE_I, 0.0, T
        elif T + margin < tau < 4.0 * T - margin:
            cycle, lo, hi = CycleKind.SLIDING_TYPE_II, T, 4.0 * T
        else:
            reason = (f"c11m + c22m = {tau:.6g} outside the sliding windows "
                      f"(0, {T:.6g}) and ({T:.6g}, {4 * T:.6g})")
    else:
        if -T + margin < tau < -margin:
            cycle, lo, hi = CycleKind.ESCAPING_TYPE_I, -T, 0.0
        elif -4.0 * T + margin < tau < -T - margin:
            cycle, lo, hi = CycleKind.ESCAPING_TYPE_II, -4.0 * T, -T
        else:
            reason = (f"c11m + c22m = {tau:.6g} outside the escaping windows "
                      f"(-{T:.6g}, 0) and (-{4 * T:.6g}, -{T:.6g})")
    return cycle, lo, hi, reason


def _window_draws(n: int, seed: int = 19):
    """Seeded parameter sets; four in five put c11m + c22m on a window edge
    (mostly of the drift's side), +- the margin, +- one ulp, and the rest
    anywhere in (-5T, 5T)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, 16))
    edges = rng.choice([0.0, 1.0, 4.0], size=n)
    offsets = rng.integers(-1, 2, size=(n, 2))
    for k in range(n):
        r = u[k]
        b, e = -0.2 - 2.8 * r[0], 0.1 + 2.9 * r[1]
        d = max(0.05, -b * e + 3.5 * r[2] - 0.5)  # d + b*e <= 0 in about one in seven
        scale = 10.0 ** (6.0 * r[3] - 3.0)
        v1m = scale * (2.0 * r[4] - 1.0)
        if r[5] < 0.05:                     # the fold points collide
            v1p = -b * v1m * (1.0 + 1e-13 * offsets[k, 0])
        else:
            v1p = scale * (2.0 * r[6] - 1.0)
        drift = b * v1m + v1p
        T = drift ** 2 / (2.0 * b ** 2 * e ** 2 * math.pi)
        if r[7] < 0.2:
            tau = (10.0 * r[8] - 5.0) * T
        else:
            side = (1.0 if drift < 0 else -1.0) * (1.0 if r[8] < 0.8 else -1.0)
            edge = side * edges[k] * T
            tau = edge + offsets[k, 0] * SIGN_TOL * max(1.0, abs(edge), T)
            tau = (math.nextafter(tau, -math.inf), tau,
                   math.nextafter(tau, math.inf))[offsets[k, 1] + 1]
        b11m = 2.0 * r[9] - 1.0
        yield SlidingParams(
            a=2.0 * r[10] - 1.0, b=b, d=d, e=e, xi=0.2 + 1.8 * r[11],
            b11m=b11m, b22m=-b11m, b21m=2.0 * r[12] - 1.0, v1m=v1m,
            v2m=2.0 * r[13] - 1.0, v1p=v1p, c11m=tau, c22m=0.0,
            c21m=2.0 * r[14] - 1.0, w2m=2.0 * r[15] - 1.0, epsilon=1e-2)


class TestWindowDecision:
    def test_mirrored_windows_match_the_four_windows(self):
        # the escaping windows are the sliding windows of the mirror image;
        # thresholds compare by float.hex, so -0.0 is not +0.0
        seen = dict.fromkeys(CycleKind, 0)
        for p in _window_draws(20_000):
            work = p if p.drift < 0 else sliding._mirror(p)
            cycle, lo, hi, reason = sliding._window(p, work)
            want = _four_windows(p)
            assert (cycle, lo.hex(), hi.hex(), reason) == \
                (want[0], want[1].hex(), want[2].hex(), want[3]), p
            seen[cycle] += 1
        assert min(seen.values()) > 300, seen

    def test_escaping_type_one_ends_at_positive_zero(self):
        base = type_one_sliding_params()
        report = detect_sliding_cycle(sliding._mirror(base))
        assert report.cycle is CycleKind.ESCAPING_TYPE_I
        assert report.threshold_lo == -thresholds(base)
        assert math.copysign(1.0, report.threshold_hi) == 1.0
        assert '"threshold_hi": 0.0,' in json.dumps(report.to_dict(), indent=0)


class TestSimulatedCycles:
    def test_type_one_loop(self):
        p = type_one_sliding_params()
        traj, closure, kinds = simulate_sliding_cycle(p, 1e-2)
        assert closure < 1e-6 * p.e
        assert kinds[:2] == ["ZoneMinus", "Sliding"]
        assert "ZonePlus" not in kinds

    def test_type_one_loop_closes_at_small_eps(self):
        # each left-zone turn from the visible fold meets x = 0 again in a
        # shallow dip onto the sliding segment (width 3.5e-3 at eps 5e-3);
        # missing that return sends the orbit round the left zone again
        p = type_one_sliding_params()
        traj, closure, kinds = simulate_sliding_cycle(p, 5e-3)
        assert closure < 1e-6 * p.e
        assert kinds[::2] == ["ZoneMinus"] * len(kinds[::2])
        assert kinds[1::2] == ["Sliding"] * len(kinds[1::2])
        assert kinds.count("Sliding") >= 2

    def test_sliding_motion_is_not_stepped(self, monkeypatch):
        # a deterministic cost guard: numerical stepping along the segment
        # reads the zone fields tens of thousands of times per slide
        calls = 0
        zone = PwlSystem.zone

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return zone(self, *args, **kwargs)

        monkeypatch.setattr(PwlSystem, "zone", counting)
        _traj, _closure, kinds = simulate_sliding_cycle(type_one_sliding_params(), 1e-2)
        assert kinds.count("Sliding") == 4
        assert calls < 100 * kinds.count("Sliding")

    @pytest.mark.parametrize("entry", [detect_sliding_cycle,
                                       lambda p: simulate_sliding_cycle(p, 1e-2)],
                             ids=["detect", "loop"])
    def test_one_system_per_call(self, monkeypatch, entry):
        # a deterministic cost guard: the fold positions, the section marks
        # and the loop all read the one system built at eps
        calls = 0
        to_system = SlidingParams.to_system

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return to_system(self, *args, **kwargs)

        monkeypatch.setattr(SlidingParams, "to_system", counting)
        entry(type_one_sliding_params())
        assert calls == 1

    @pytest.mark.parametrize("eps", [5e-3, 1e-2])
    def test_loop_starts_at_the_visible_fold_only(self, monkeypatch, eps):
        # the loop reads only the left fold: no right-zone event search for
        # the third fold position, and the same loop as one started from
        # the first of ``_fold_positions``
        p = type_one_sliding_params()
        sys = p.to_system(eps)
        y_f1 = sliding._fold_positions(sys, p.xi)[0]
        t_max = 3.0 * (2.0 * math.pi + math.pi / p.xi)
        want = simulate(sys, (0.0, y_f1), t_max, max_segments=64)
        calls = 0
        locate = sliding.first_component_zero

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return locate(*args, **kwargs)

        monkeypatch.setattr(sliding, "first_component_zero", counting)
        traj, closure, kinds = simulate_sliding_cycle(p, eps)
        assert calls == 0
        assert traj.to_csv() == want.to_csv()
        assert kinds == want.segment_kinds()
        assert kinds == ["ZoneMinus", "Sliding"] * 4 + ["ZoneMinus"]
        assert closure == 0.0

    def test_type_two_loop_uses_both_zones(self):
        base = type_one_sliding_params()
        T = thresholds(base)
        p = replace(base, c11m=3.0 * T - base.c22m)
        traj, closure, kinds = simulate_sliding_cycle(p, 1e-2)
        assert closure < 1e-6 * p.e
        assert "ZonePlus" in kinds and "Sliding" in kinds

    def test_escaping_loop_via_mirror(self):
        base = type_one_sliding_params()
        T = thresholds(base)
        p = replace(base, a=-base.a, v1m=-base.v1m, v1p=-base.v1p,
                    c11m=-0.5 * T - base.c22m, c22m=base.c22m)
        traj, closure, kinds = simulate_sliding_cycle(p, 1e-2)
        assert closure < 1e-6 * p.e
        assert "Sliding" in kinds


class TestSimultaneity:
    def test_example_two_simultaneous(self):
        rep = simultaneity_report(example_two_sliding_params())
        assert rep.verdict == "simultaneous"
        assert len(rep.crossing_roots) == 1
        assert rep.crossing_roots[0] == pytest.approx(EXAMPLE2_SYSTEM_ROOT, abs=1e-6)
        assert rep.crossing_stability is Stability.UNSTABLE
        assert rep.sliding.extra_crossing_bound == 1

    def test_sliding_only_when_no_crossing_root(self):
        # a nonpositive right first-order trace makes the constrained
        # displacement function monotone up from a positive limit: no root
        p = replace(example_two_sliding_params(), b11p=-0.5, b22p=0.0)
        rep = simultaneity_report(p)
        assert rep.verdict == "sliding only"
        assert rep.crossing_roots == ()

    def test_crossing_stability_follows_drift_sign(self):
        # v1m + v1p/b = 0.7 > 0 for the bundled constrained system
        p = example_two_sliding_params()
        assert p.v1m + p.v1p / p.b > 0
        rep = simultaneity_report(p)
        assert rep.crossing_stability is Stability.UNSTABLE

    def test_requires_trace_constraint(self):
        p = replace(example_two_sliding_params(), b22m=0.0)
        with pytest.raises(ConstraintViolated):
            simultaneity_report(p)

    def test_report_serializes(self):
        rep = simultaneity_report(example_two_sliding_params())
        data = rep.to_dict()
        assert data["verdict"] == "simultaneous"
        assert isinstance(rep.to_json(), str)
