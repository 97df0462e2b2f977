import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import deriv, stencil_family
from pwlcycles.ect import (
    EctVerdict,
    FunctionFamily,
    amplitude_family,
    amplitude_w0,
    amplitude_w1,
    amplitude_w2,
    amplitude_w3,
    amplitude_w3_tilde_slope,
    check_ect,
    constrained_family,
    constrained_w1,
    constrained_w1_tilde_slope,
    wronskian,
)
from pwlcycles import ect
from pwlcycles.ect import _BISECT_DEPTH, _BISECT_STEPS
from pwlcycles.melnikov import ReducedParams, m1_reduced
from pwlcycles.examples import example_one_params


class TestWronskian:
    def test_first_order_closed_form(self):
        fam = amplitude_family(2.0)
        assert wronskian(fam, 0, 1.0) == pytest.approx(1.0)
        assert wronskian(fam, 1, 1.0) == pytest.approx(3.0)  # beta^2 s^2 - 1

    @pytest.mark.parametrize("order", [-2, -1, 4])
    def test_order_outside_the_members_rejected(self, order):
        with pytest.raises(ValueError, match=r"order must be in \[0, 4\)"):
            wronskian(amplitude_family(2.0), order, 1.5)

    def test_constant_family(self):
        fam = stencil_family((lambda s: 1.0,), (0.1, 10.0))
        assert wronskian(fam, 0, 3.0) == pytest.approx(1.0)

    def test_third_order_against_closed_form(self):
        fam = amplitude_family(2.0)
        num = wronskian(fam, 3, 2.0)
        ref = float(amplitude_w3(2.0, 2.0))
        assert_allclose(num, ref, rtol=1e-8)

    def test_all_orders_against_closed_forms(self):
        rng = np.random.default_rng(12)
        for beta in (0.5, 2.0):
            fam = amplitude_family(beta)
            closed = (amplitude_w0, amplitude_w1, amplitude_w2, amplitude_w3)
            for _ in range(25):
                s0 = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
                if min(abs(s0 - 1), abs(s0 - 1 / beta)) < 1e-3:
                    continue
                for k in range(4):
                    assert_allclose(wronskian(fam, k, s0), float(closed[k](beta, s0)),
                                    rtol=1e-8, atol=1e-12)

    def test_numeric_derivatives_agree_with_analytic(self):
        # strip the analytic derivatives and recompute with stencils
        for beta in (0.5, 2.0):
            fam = amplitude_family(beta)
            bare = stencil_family(fam.members, fam.interval, fam.punctures)
            rng = np.random.default_rng(4)
            for _ in range(50):
                s0 = float(rng.uniform(0.2, 5.0))
                if min(abs(s0 - 1), abs(s0 - 1 / beta)) < 1e-2:
                    continue
                for k in range(4):
                    a = wronskian(fam, k, s0)
                    n = wronskian(bare, k, s0)
                    assert_allclose(n, a, rtol=1e-6, atol=1e-9)

    def test_constrained_family_closed_form(self):
        fam = constrained_family()
        for s0 in (0.3, 0.7, 2.0, 5.0):
            assert_allclose(wronskian(fam, 1, s0), float(constrained_w1(s0)),
                            rtol=1e-9)

    def test_constrained_forms_keep_their_digits_at_large_s(self):
        # pi - 2 arctan(s) = 2 arctan(1/s) cancelled as pi(s^2+1) - G(s):
        # 2.2e-13 relative at s = 1e3 for the member, 6.3e-13 for its
        # derivative and 8.7e-8 for W1, against an extended-precision reference
        ss = np.geomspace(1.0, 1e3, 4096)
        s = ss.astype(np.longdouble)
        arc = 2.0 * np.arctan(1.0 / s)
        fam = constrained_family(interval=(0.5, 2e3))
        eps = np.finfo(float).eps
        for got, want in ((deriv(fam, 1, 0, ss), (s * s + 1.0) * arc),
                          (deriv(fam, 1, 1, ss), 2.0 * s * arc - 2.0)):
            assert np.all(np.abs(got - want) <= 4.0 * eps * np.abs(want))
        # W1 = -2s + (s^2 - 1) 2 arctan(1/s) is itself a difference of two
        # terms near 2s: it keeps their rounding, not more
        want = -2.0 * s + (s * s - 1.0) * arc
        assert np.all(np.abs(constrained_w1(ss) - want) <= 8.0 * eps * 2.0 * ss)

    def test_constrained_scan_keeps_its_verdict(self):
        for interval in ((1e-2, 1e2), (0.05, 50.0), (1e-2, 1e3)):
            profile, verdict = check_ect(constrained_family(interval))
            assert verdict is EctVerdict.ECT
            assert profile.sign_changes == [0, 0]
            assert profile.zero_candidates == [[], []]

    def test_constrained_slope_is_positive(self):
        ss = np.geomspace(0.05, 50, 200)
        ss = ss[np.abs(ss - 1.0) > 1e-3]
        assert np.all(constrained_w1_tilde_slope(ss) > 0)
        # and W1 itself stays negative: no zeros on the positive axis
        assert np.all(constrained_w1(ss) < 0)

    def test_slope_law_of_reduced_third_wronskian(self):
        ss = np.geomspace(0.05, 50, 100)
        for beta in (0.5, 2.0):
            sign = np.sign(amplitude_w3_tilde_slope(beta, ss))
            assert np.all(sign == np.sign(beta ** 3 * (beta ** 2 - 1)))


class TestFamilyRules:
    @pytest.mark.parametrize("beta", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_amplitude_beta_must_be_finite_and_positive(self, beta):
        # beta = d/(e xi) > 0; at beta = -2 the last member's first
        # derivative took 2*beta where 2|beta| is needed
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            amplitude_family(beta)

    @pytest.mark.parametrize("interval", [(100.0, 0.01), (1.0, 1.0), (math.nan, 1.0),
                                          (0.01, math.nan), (0.0, math.inf), (-1.0, 1.0),
                                          (0.0, 10.0)])
    def test_interval_must_be_finite_and_increasing(self, interval):
        # and on s > 0, where G is the arc term: 2(s^2+1) arctan(s) is odd
        # where (s^2+1) arccos(2/(s^2+1) - 1) is even.  The rule is the
        # FunctionFamily's own, so a bare family refuses (-1, 1) and (0, 10) too
        with pytest.raises(ValueError, match="interval"):
            amplitude_family(2.0, interval)
        with pytest.raises(ValueError, match="interval"):
            constrained_family(interval)
        with pytest.raises(ValueError, match=r"interval must have finite ends 0 < lo < hi"):
            FunctionFamily(members=(lambda s: 1.0,), interval=interval, derivatives=((),))

    @pytest.mark.parametrize("k", [-1, 4])
    def test_derivative_order_outside_the_supplied_rejected(self, k):
        # k = -1 read the derivatives from the end and returned the second
        # derivative; k = 4 raised a bare IndexError
        with pytest.raises(ValueError, match=r"k must be in \[0, 3\].*got " + str(k)):
            deriv(amplitude_family(2.0), 2, k, 1.5)

    def test_every_wronskian_order_needs_its_derivatives(self):
        fam = amplitude_family(2.0)
        with pytest.raises(ValueError, match="derivatives"):
            FunctionFamily(members=fam.members, interval=fam.interval,
                           derivatives=tuple(ds[:1] for ds in fam.derivatives))
        with pytest.raises(ValueError, match="derivatives"):
            FunctionFamily(members=fam.members, interval=fam.interval,
                           derivatives=fam.derivatives[:3])

    def test_wronskians_give_one_closed_form_per_order(self):
        fam = amplitude_family(2.0)
        for wronskians in (fam.wronskians[:3], fam.wronskians + fam.wronskians[:1]):
            with pytest.raises(ValueError, match=r"wronskians must be empty or give one "
                                                 r"closed form for each of the 4 orders"):
                replace(fam, wronskians=wronskians)
        assert replace(fam, wronskians=()).wronskians == ()

    @pytest.mark.parametrize("beta", [0.5, 2.0, 3.0, None])
    def test_shipped_derivatives_against_stencils(self, beta):
        # each analytic derivative, order by order, against the stencil of
        # the same member; an order-3 stencil rounds to about 6e-9 times
        # the member's size, so atol scales with it
        fam = constrained_family() if beta is None else amplitude_family(beta)
        ref = stencil_family(fam.members, fam.interval, fam.punctures)
        ss = np.geomspace(0.02, 50.0, 200)
        ss = ss[np.min([np.abs(ss - p) for p in fam.punctures], axis=0) > 1e-2]
        for i in range(len(fam.members)):
            size = np.maximum(1.0, np.abs(deriv(fam, i, 0, ss)))
            for k in range(1, len(fam.members)):
                want = deriv(ref, i, k, ss)
                err = np.abs(deriv(fam, i, k, ss) - want)
                assert np.all(err <= 1e-8 * size + 1e-6 * np.abs(want)), (i, k)


class TestCheckEct:
    def test_amplitude_family_verdicts(self):
        # W1 = beta^2 s0^2 - 1 vanishes at 1/beta and W2 crosses near
        # s0 ~ 1.08, so the full family is honestly inconclusive on an
        # interval containing those points; beyond them every leading
        # Wronskian is bounded away from zero
        fam = amplitude_family(2.0, interval=(0.01, 100.0))
        profile, verdict = check_ect(fam)
        assert verdict is EctVerdict.INCONCLUSIVE
        assert profile.sign_changes == [0, 1, 1, 0]
        fam_hi = amplitude_family(2.0, interval=(1.2, 100.0))
        _, verdict_hi = check_ect(fam_hi)
        assert verdict_hi is EctVerdict.ECT
        # the last Wronskian alone never vanishes on the positive axis
        ss = np.geomspace(0.01, 100.0, 2000)
        assert np.all(amplitude_w3(2.0, ss) > 0)
        assert np.all(amplitude_w3(0.5, ss) < 0)

    def test_polynomials_are_ect(self):
        fam = stencil_family((lambda s: 1.0, lambda s: s, lambda s: s * s), (0.1, 10.0))
        _, verdict = check_ect(fam)
        assert verdict is EctVerdict.ECT

    def test_constrained_family_verdict(self):
        fam = constrained_family(interval=(0.05, 50.0))
        profile, verdict = check_ect(fam)
        # the last Wronskian has no zeros off the puncture, so the family
        # is (numerically) a complete Chebyshev system: at most one zero
        assert verdict is EctVerdict.ECT
        assert profile.sign_changes[-1] == 0

    def test_single_last_order_zero_gives_accuracy_verdict(self):
        # W2 = 6(s - 1) changes sign once, at a simple zero
        fam = stencil_family((lambda s: 1.0, lambda s: s, lambda s: (s - 1.0) ** 3), (0.5, 2.0))
        profile, verdict = check_ect(fam)
        assert verdict is EctVerdict.ET_WITH_ACCURACY
        assert profile.sign_changes == [0, 0, 1]
        assert profile.zero_candidates[:2] == [[], []]
        assert profile.zero_candidates[2] == [pytest.approx(1.0, abs=1e-12)]

    @staticmethod
    def _draws(rng, n):
        # the closed_form workload's ranges: |log beta| in [0.15, log 3],
        # lo in [0.01, 2] and hi in [10, 100], both log-uniform
        for _ in range(n):
            beta = math.exp(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, math.log(3.0)))
            iv = (math.exp(rng.uniform(math.log(0.01), math.log(2.0))),
                  math.exp(rng.uniform(math.log(10.0), math.log(100.0))))
            yield amplitude_family(beta, iv)
            yield constrained_family(iv)

    def test_closed_form_scans_agree_with_the_determinants(self):
        # the shipped families scan their closed-form Wronskians; the same
        # family without them scans determinants of the derivative matrices,
        # an independent evaluation of the same functions
        verdicts = set()
        for fam in self._draws(np.random.default_rng(2031), 24):
            profile, verdict = check_ect(fam)
            ref, ref_verdict = check_ect(replace(fam, wronskians=()))
            assert verdict is ref_verdict
            verdicts.add(verdict)
            assert profile.sign_changes == ref.sign_changes
            assert list(map(len, profile.zero_candidates)) \
                == list(map(len, ref.zero_candidates))
            for got, want in zip(profile.zero_candidates, ref.zero_candidates):
                assert_allclose(got, want, rtol=1e-12, atol=0)
        assert verdicts == {EctVerdict.ECT, EctVerdict.INCONCLUSIVE}

    def test_beta_one_third_wronskian_is_exactly_zero(self):
        # at beta = 1 the closed form W3 vanishes identically through its
        # factor beta^2 - 1; the determinants are rounding noise about zero,
        # with 203 sign changes and 105 zero candidates
        fam = amplitude_family(1.0)
        profile, verdict = check_ect(fam)
        assert verdict is EctVerdict.INCONCLUSIVE
        assert profile.sign_changes == [0, 1, 0, 0]
        assert list(map(len, profile.zero_candidates)) == [0, 1, 0, 0]
        assert not profile.values[3].any()
        ref, ref_verdict = check_ect(replace(fam, wronskians=()))
        assert ref_verdict is EctVerdict.INCONCLUSIVE
        assert ref.sign_changes[:3] == [0, 1, 0] and ref.sign_changes[3] > 0

    def test_profile_csv(self):
        fam = amplitude_family(2.0, interval=(0.1, 10.0))
        profile, _ = check_ect(fam)
        csv = profile.to_csv()
        assert csv.splitlines()[0] == "s0,W0,W1,W2,W3"


class TestGridPath:
    """Members, derivatives and Wronskians over a whole grid at once."""

    @staticmethod
    def families():
        fam = amplitude_family(2.0)
        return {"analytic": fam,
                "determinant": replace(fam, wronskians=()),
                "stencil": stencil_family(fam.members, fam.interval, fam.punctures),
                "constrained": constrained_family(),
                "cubic": stencil_family((lambda s: 1.0, lambda s: s, lambda s: (s - 1.0) ** 3),
                                        (0.5, 2.0))}

    @pytest.mark.parametrize("name", ["analytic", "stencil", "constrained"])
    def test_grid_matches_points(self, name):
        fam = self.families()[name]
        grid = np.geomspace(0.02, 50.0, 301)
        grid = grid[np.min([np.abs(grid - p) for p in fam.punctures], axis=0) > 1e-3]
        for k in range(len(fam.members)):
            on_grid = wronskian(fam, k, grid)
            assert on_grid.shape == grid.shape
            points = [wronskian(fam, k, float(s)) for s in grid]
            assert all(type(w) is float for w in points)
            assert_allclose(on_grid, points, rtol=1e-12, atol=0)

    def test_scalar_returns_are_broadcast(self):
        fam = FunctionFamily(members=(lambda s: 1.0, lambda s: s), interval=(0.1, 10.0),
                             derivatives=((lambda s: 0.0,), (lambda s: 1.0,)))
        grid = np.linspace(0.5, 5.0, 7)
        assert_allclose(deriv(fam, 0, 0, grid), np.ones(7))
        assert_allclose(deriv(fam, 1, 1, grid), np.ones(7))
        assert deriv(fam, 0, 0, 2.0) == 1.0 and type(deriv(fam, 0, 0, 2.0)) is float
        assert_allclose(wronskian(fam, 1, grid), np.ones(7))

    def test_grid_outside_interval_rejected(self):
        fam = amplitude_family(2.0)
        with pytest.raises(ValueError, match="outside the family interval"):
            wronskian(fam, 1, np.array([0.5, 200.0]))

    @pytest.mark.parametrize("name", ["analytic", "determinant", "stencil", "cubic"])
    def test_refinement_is_plain_bisection(self, name):
        # reference: the per-bracket scalar bisection of the Wronskian the
        # scan reads (the closed form if the family has one, else the
        # determinant), 80 halvings keeping the end whose sign W has at the
        # bracket's left end
        fam = self.families()[name]
        profile, _ = check_ect(fam)
        want = []
        for k, v in enumerate(profile.values):
            w = fam.wronskians[k] if fam.wronskians else partial(wronskian, fam, k)
            cand = []
            for j in np.where(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]:
                a, b = float(profile.grid[j]), float(profile.grid[j + 1])
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    if (w(mid) > 0) == (v[j] > 0):
                        a = mid
                    else:
                        b = mid
                cand.append(0.5 * (a + b))
            want.append(cand)
        assert profile.zero_candidates == want
        assert sum(map(len, want)) >= 1

    @pytest.mark.parametrize("name", ["analytic", "stencil"])
    def test_scan_calls_each_function_a_few_times(self, name):
        # a deterministic cost guard: the scan evaluates every member and
        # derivative once over the grid, and the refinement once per round
        # for all brackets together; a per-point scan made 1024 calls each
        fam = self.families()[name]
        calls = {}

        def counted(key, g):
            def h(s):
                calls[key] = calls.get(key, 0) + 1
                return g(s)
            return h

        members = tuple(counted(f"g{i}", g) for i, g in enumerate(fam.members))
        if name == "stencil":  # the stencils call the counted members
            wrapped = stencil_family(members, fam.interval, fam.punctures)
        else:
            wrapped = FunctionFamily(
                members=members, interval=fam.interval,
                derivatives=tuple(tuple(counted(f"d{k + 1}g{i}", g) for k, g in enumerate(ds))
                                  for i, ds in enumerate(fam.derivatives)),
                punctures=fam.punctures)
        profile, verdict = check_ect(wrapped)
        ref_profile, ref_verdict = check_ect(fam)
        assert verdict is ref_verdict
        assert profile.sign_changes == ref_profile.sign_changes
        # one matrix for the grid, one per refinement round and one for the
        # slope test; a stencil evaluates a member 1 + 4 + 5 + 6 times per matrix
        per_matrix = 1 if name == "analytic" else 16
        matrices = 1 + _BISECT_STEPS // _BISECT_DEPTH + 1
        assert len(calls) == (16 if name == "analytic" else 4)
        assert max(calls.values()) <= per_matrix * matrices

    @pytest.mark.parametrize("name", ["analytic", "constrained", "cubic"])
    def test_closed_form_scan_takes_no_determinant(self, name, monkeypatch):
        # a deterministic cost guard: a scan of closed forms reads each once
        # over the grid, the last twice more for the slope probe, and each at
        # most _BISECT_STEPS times per bracket, and builds no derivative
        # matrix; the cubic's W2 = 6(s - 1) reaches the slope probe, and its
        # constant W0 and W1 are broadcast over the grid
        def refuse(*args, **kwargs):
            raise AssertionError("determinant path reached")

        fam = self.families()[name]
        if name == "cubic":
            fam = replace(fam, wronskians=(lambda s: 1.0, lambda s: 1.0,
                                           lambda s: 6.0 * (s - 1.0)))
        ref_profile, ref_verdict = check_ect(fam)
        assert (ref_verdict is EctVerdict.ET_WITH_ACCURACY) == (name == "cubic")
        calls = [0] * len(fam.wronskians)

        def counted(k, w):
            def h(s):
                calls[k] += 1
                return w(s)
            return h

        monkeypatch.setattr(ect, "_matrices", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        wrapped = replace(fam, wronskians=tuple(map(counted, range(len(calls)),
                                                    fam.wronskians)))
        profile, verdict = check_ect(wrapped)
        assert verdict is ref_verdict
        assert profile.zero_candidates == ref_profile.zero_candidates
        for k, n in enumerate(calls):
            brackets = len(profile.zero_candidates[k])
            assert n <= 1 + 2 * (k == len(calls) - 1) + _BISECT_STEPS * brackets, k


class TestBoundRealization:
    def test_three_root_combination_exists(self):
        red = ReducedParams.from_params(example_one_params())
        ss = np.geomspace(1e-2, 1e2, 4096)
        vals = m1_reduced(red, ss)
        changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert changes == 3

    def test_no_four_root_combination_found(self):
        # 10^4 random coefficient draws: the combination never exceeds
        # three sign changes (statistical evidence for the zero bound)
        rng = np.random.default_rng(99)
        ss = np.geomspace(1e-3, 1e3, 4096)
        beta = 2.0
        ub = beta * beta * ss * ss + 1.0
        u = ss * ss + 1.0
        f0 = ss
        f1 = ub * (np.arccos(2.0 / ub - 1.0) - 2.0 * np.pi)
        f2 = u * np.arccos(2.0 / u - 1.0)
        worst = 0
        for _ in range(10_000):
            k = rng.standard_normal(3)
            vals = k[0] * f0 + k[1] * f1 + k[2] * f2
            sgn = np.sign(vals)
            sgn = sgn[sgn != 0]
            worst = max(worst, int(np.sum(sgn[:-1] * sgn[1:] < 0)))
        assert worst <= 3
