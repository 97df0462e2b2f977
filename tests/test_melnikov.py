import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pwlcycles import melnikov
from pwlcycles.errors import ConstraintViolated, MelnikovDomainError
from pwlcycles.examples import (
    EXAMPLE1_M1_ROOTS,
    EXAMPLE2_NOMINAL_ROOT,
    EXAMPLE2_SYSTEM_ROOT,
    example_one_params,
    example_two_params,
    example_two_nominal_m1,
)
from pwlcycles.melnikov import (
    SIGN_TOL,
    _acos,
    MelnikovParams,
    MelnikovReport,
    ReducedParams,
    RootFindOptions,
    RootFlag,
    Stability,
    classify_stability,
    find_roots,
    infinity_sign_expression,
    m1,
    m1_constrained,
    m1_reduced,
    reduced_limit_at_zero,
    scaled_sign,
    stability_from_sign,
)


def random_params(rng, constrained=False) -> MelnikovParams:
    b11m = float(rng.uniform(-2, 2))
    return MelnikovParams(
        b=-float(rng.uniform(0.2, 3)), d=float(rng.uniform(0.1, 3)),
        e=float(rng.uniform(0.1, 3)), xi=float(rng.uniform(0.2, 2)),
        b11m=b11m, b22m=-b11m if constrained else float(rng.uniform(-2, 2)),
        v1m=float(rng.uniform(-3, 3)),
        b11p=float(rng.uniform(-2, 2)), b22p=float(rng.uniform(-2, 2)),
        v1p=float(rng.uniform(-3, 3)))


class TestM1:
    def test_example_one_reference_expression_identity(self):
        # the parameter form of M1 agrees with the fully substituted
        # single-expression form of the first demo system
        p = example_one_params()

        def reference(y0):
            return -1.0 / (400.0 * y0) * (
                -242.0 * np.pi - 800.0 * np.pi * y0 ** 2
                + 420.0 * (y0 ** 2 + 1) * np.arccos(2.0 / (y0 ** 2 + 1) - 1.0)
                + (400.0 * y0 ** 2 + 121.0) * np.arccos(242.0 / (400.0 * y0 ** 2 + 121.0) - 1.0)
                + 840.0 * y0)

        ys = np.geomspace(0.05, 50, 200)
        assert_allclose(m1(p, ys), reference(ys), rtol=0, atol=1e-11)

    def test_example_one_near_unit_amplitudes(self):
        # the bundled coefficients are rounded to two decimals, so M1
        # vanishes near the quoted amplitudes 1 and 2 but not at them
        p = example_one_params()
        assert m1(p, 1.0) == pytest.approx(3.1587094985e-03, rel=1e-8)
        assert m1(p, 2.0) == pytest.approx(4.6605003873e-04, rel=1e-8)

    def test_example_one_roots_pinned(self):
        p = example_one_params()
        roots = [r for r, _ in find_roots(lambda y: m1(p, y), (1e-2, 1e2))]
        assert_allclose(roots, EXAMPLE1_M1_ROOTS, rtol=1e-9)

    def test_domain_error_outside_arccos_range(self):
        p = example_one_params()
        object.__setattr__(p, "e", p.e)  # no-op; params are valid
        with pytest.raises(ValueError):
            m1(p, -1.0)

    def test_rejects_invalid_scalars(self):
        with pytest.raises(ValueError):
            MelnikovParams(b=1.0, d=1.0, e=1.0, xi=1.0, b11m=0, b22m=0,
                           v1m=0, b11p=0, b22p=0, v1p=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, bad):
        # a NaN trace would otherwise read as unconstrained while
        # m1_constrained accepted it
        for name in ("b11m", "v1p", "xi"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                replace(example_two_params(), **{name: bad})


class TestFloatAndArrayPaths:
    """``m1`` and ``m1_constrained`` run one formula on ``math`` for a number
    and on numpy for an array; ``find_roots`` refines on the float path."""

    VARIANTS = [(m1, False), (m1_constrained, True)]

    @pytest.mark.parametrize("f, constrained", VARIANTS, ids=["m1", "constrained"])
    def test_values_agree(self, f, constrained):
        # near a root the value cancels, so the tolerance is relative to the
        # sampled scale: arccos differs in the last ulp between the paths
        rng = np.random.default_rng(31)
        ys = np.geomspace(1e-3, 1e3, 257)
        for _ in range(50):
            p = random_params(rng, constrained)
            arr = f(p, ys)
            flt = [f(p, float(y)) for y in ys]
            assert all(type(v) is float for v in flt)
            assert_allclose(flt, arr, rtol=1e-15, atol=1e-15 * np.abs(arr).max())

    @pytest.mark.parametrize("f, constrained", VARIANTS, ids=["m1", "constrained"])
    def test_same_errors(self, f, constrained):
        p = example_two_params() if constrained else example_one_params()
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="needs y0 > 0"):
                f(p, bad)
            with pytest.raises(ValueError, match="needs y0 > 0"):
                f(p, np.array([1.0, bad]))

    def test_arccos_clamp_on_both_paths(self):
        # the M1 arguments stay in [-1, 1] up to rounding; past the 1e-14
        # clamp both paths refuse rather than return NaN
        for arg in (1.0 + 1e-13, -1.0 - 1e-13):
            with pytest.raises(MelnikovDomainError):
                _acos(arg)
            with pytest.raises(MelnikovDomainError):
                _acos(np.array([0.0, arg]))
        assert _acos(1.0 + 1e-15) == 0.0 and _acos(np.array([1.0 + 1e-15]))[0] == 0.0
        assert _acos(-1.0 - 1e-15) == math.pi

    @pytest.mark.parametrize("f, constrained", VARIANTS, ids=["m1", "constrained"])
    def test_nan_amplitude_gives_nan(self, f, constrained):
        # NaN passes the y0 > 0 check on both paths and comes out as NaN
        p = example_two_params() if constrained else example_one_params()
        assert math.isnan(f(p, math.nan))
        out = f(p, np.array([math.nan, 1.0]))
        assert math.isnan(out[0]) and out[1] == pytest.approx(f(p, 1.0), rel=1e-15)

    @pytest.mark.parametrize("f, constrained", VARIANTS, ids=["m1", "constrained"])
    def test_find_roots_matches_the_array_path(self, f, constrained):
        # differential check over seeded draws: refinement on floats finds
        # the same roots and flags as refinement through one-entry arrays
        rng = np.random.default_rng(8 + constrained)
        found = 0
        for _ in range(1000):
            p = random_params(rng, constrained)
            flt = find_roots(lambda y: f(p, y), (1e-3, 1e3))
            arr = find_roots(lambda y: f(p, np.atleast_1d(y)), (1e-3, 1e3))
            assert flt == arr
            found += len(flt)
        assert found > 300

    def test_refinement_calls_f_on_floats(self):
        # a deterministic cost guard: the grid is the only array call; every
        # bisection and slope evaluation gets a Python float
        p = example_one_params()
        kinds = []

        def f(y):
            kinds.append(type(y))
            return m1(p, y)

        roots = find_roots(f, (1e-2, 1e2))
        assert len(roots) == 3
        assert kinds[0] is np.ndarray
        assert set(kinds[1:]) == {float}

    def test_array_returns_are_unwrapped(self):
        roots = find_roots(lambda y: np.atleast_1d(y) - 5.0, (1.0, 10.0))
        assert roots == find_roots(lambda y: y - 5.0, (1.0, 10.0))


class TestReduced:
    def test_identity_with_m1_at_random_points(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_params(rng)
            red = ReducedParams.from_params(p)
            s0 = float(rng.uniform(0.05, 20.0))
            y0 = p.d * s0 / p.xi
            lhs = m1_reduced(red, s0)
            rhs = 2.0 * p.b * red.beta * p.xi ** 2 * s0 * m1(p, y0)
            assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_limit_at_zero_amplitude(self):
        rng = np.random.default_rng(23)
        p = random_params(rng)
        red = ReducedParams.from_params(p)
        assert_allclose(m1_reduced(red, 1e-9), reduced_limit_at_zero(red), rtol=1e-6)
        alpha = p.e * p.xi
        assert_allclose(reduced_limit_at_zero(red),
                        -2.0 * math.pi * alpha * p.b * p.xi * (p.b11m + p.b22m),
                        rtol=1e-12)

    def test_zero_combination_vanishes(self):
        # trace-free perturbations with b*v1m + v1p = 0 kill all three
        # coefficients of the reduced combination
        p = MelnikovParams(b=-1.5, d=0.8, e=1.2, xi=0.9,
                           b11m=0.4, b22m=-0.4, v1m=0.6, b11p=0.7, b22p=-0.7,
                           v1p=0.9)
        red = ReducedParams.from_params(p)
        assert red.K0 == pytest.approx(0.0, abs=1e-12)
        assert red.K1 == pytest.approx(0.0, abs=1e-12)
        assert red.K2 == pytest.approx(0.0, abs=1e-12)
        ss = np.geomspace(0.1, 10, 50)
        assert np.max(np.abs(m1_reduced(red, ss))) < 1e-12

    def test_large_amplitude_sign_quantity(self):
        # mtilde1(s0)/s0^2 approaches -pi*alpha*b*beta^2*(xi*Sm + Sp);
        # Richardson extrapolation in 1/s0 confirms the displayed quantity
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_params(rng)
            red = ReducedParams.from_params(p)
            alpha = p.e * p.xi
            target = -math.pi * alpha * p.b * red.beta ** 2 * infinity_sign_expression(p)
            f = [m1_reduced(red, s) / s ** 2 for s in (1e3, 2e3, 4e3)]
            r1, r2 = 2 * f[1] - f[0], 2 * f[2] - f[1]
            extrap = (4.0 * r2 - r1) / 3.0
            assert_allclose(extrap, target, rtol=1e-6, atol=1e-9)


class TestConstrained:
    def test_limit_at_zero(self):
        # probed at 1e-4: smaller amplitudes push the arccos argument
        # within one ulp of 1 and the subtracted term rounds away
        p = example_two_params()
        lim = 2.0 * (p.v1m + p.v1p / p.b)
        assert lim == pytest.approx(1.4, abs=1e-15)
        assert_allclose(m1_constrained(p, 1e-4), lim, rtol=1e-6)

    def test_specialization_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_params(rng, constrained=True)
            y0 = float(rng.uniform(0.05, 30.0))
            assert_allclose(m1_constrained(p, y0), m1(p, y0), rtol=1e-10, atol=1e-13)

    def test_requires_trace_constraint(self):
        p = example_one_params()  # trace_minus = -2
        with pytest.raises(ConstraintViolated):
            m1_constrained(p, 1.0)

    def test_example_two_roots(self):
        nominal = find_roots(example_two_nominal_m1, (1e-1, 1e2))
        assert len(nominal) == 1
        assert nominal[0][0] == pytest.approx(EXAMPLE2_NOMINAL_ROOT, abs=1e-9)
        assert nominal[0][0] == pytest.approx(7.94622, abs=1e-3)
        p = example_two_params()
        own = find_roots(lambda y: m1_constrained(p, y), (1e-1, 1e2))
        assert len(own) == 1
        assert own[0][0] == pytest.approx(EXAMPLE2_SYSTEM_ROOT, abs=1e-9)


class TestFindRoots:
    def test_linear_function(self):
        roots = find_roots(lambda y: y - 5.0, (1.0, 10.0))
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(5.0, abs=1e-11)
        assert roots[0][1] is RootFlag.SIMPLE

    def test_suspect_flag_for_flat_crossing(self):
        roots = find_roots(lambda y: (y - 2.0) ** 3, (1.0, 4.0))
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(2.0, abs=1e-9)
        assert roots[0][1] is RootFlag.SUSPECT

    def test_empty_result_allowed(self):
        assert find_roots(lambda y: y + 1.0, (0.5, 2.0)) == []


class TestRootFindOptions:
    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_rejects_grid_below_two(self, grid):
        # a one-point grid brackets nothing and an empty one has no maximum:
        # both used to reach find_roots (example 1 came back with no roots)
        with pytest.raises(ValueError, match=r"RootFindOptions\.grid must be >= 2"):
            RootFindOptions(grid=grid)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_refine_tol_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match=r"RootFindOptions\.refine_tol must be finite"):
            RootFindOptions(refine_tol=tol)

    def test_two_point_grid_still_brackets(self):
        roots = find_roots(lambda y: y - 5.0, (1.0, 10.0), RootFindOptions(grid=2))
        assert [r for r, _ in roots] == [pytest.approx(5.0, abs=1e-11)]


class TestSharedGrid:
    @staticmethod
    def grid_seen(domain, grid):
        seen = []

        def f(y):
            if isinstance(y, np.ndarray):
                seen.append(y)
            return y - 1.5

        find_roots(f, domain, RootFindOptions(grid=grid))
        return seen[0]

    def test_bitwise_equal_to_geomspace(self):
        ys = self.grid_seen((1e-3, 1e3), 4096)
        assert ys.tobytes() == np.geomspace(1e-3, 1e3, 4096).tobytes()

    def test_keys_do_not_collide(self):
        keys = [((1e-3, 1e3), 256), ((1e-2, 1e3), 256), ((1e-3, 1e2), 256),
                ((1e-3, 1e3), 512), ((1e-3, 1e3), 256)]
        for (lo, hi), n in keys:
            ys = self.grid_seen((lo, hi), n)
            assert ys.tobytes() == np.geomspace(lo, hi, n).tobytes()

    def test_grid_is_read_only(self):
        def f(y):
            if isinstance(y, np.ndarray):
                y[0] = 0.0
            return y - 1.5

        with pytest.raises(ValueError):
            find_roots(f, (0.5, 5.0))
        assert self.grid_seen((0.5, 5.0), 4096)[0] == 0.5

    def test_one_geomspace_per_domain(self, monkeypatch):
        # a deterministic cost guard: rebuilding the 4096-point grid took
        # about 70 us of every call
        calls = 0
        geomspace = np.geomspace

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return geomspace(*args, **kwargs)

        monkeypatch.setattr(np, "geomspace", counting)
        melnikov._grid.cache_clear()
        p = example_one_params()
        for _ in range(3):
            assert len(find_roots(lambda y: m1(p, y), (1e-2, 1e2))) == 3
        assert calls == 1


class TestConstrainedFlag:
    def test_replace_recomputes(self):
        p = example_two_params()
        assert p.constrained
        assert not replace(p, b11m=p.b11m + 0.5).constrained
        q = example_one_params()
        assert not q.constrained
        assert replace(q, b11m=-q.b22m).constrained

    def test_equality_and_hash_unchanged(self):
        p, q = example_two_params(), example_two_params()
        assert p.constrained
        assert p == q and hash(p) == hash(q)
        assert "constrained" not in repr(p)

    def test_decided_once_per_instance(self, monkeypatch):
        # a deterministic cost guard: the flag was re-tested through
        # scaled_sign on every evaluation of m1_constrained
        calls = evals = 0
        sign = melnikov.scaled_sign

        def counting(*args):
            nonlocal calls
            calls += 1
            return sign(*args)

        def f(y):
            nonlocal evals
            evals += 1
            return m1_constrained(p, y)

        monkeypatch.setattr(melnikov, "scaled_sign", counting)
        p = example_two_params()
        assert len(find_roots(f, (1e-1, 1e2))) == 1
        assert evals > 30 and calls == 1


class TestScaledSign:
    def test_tie_boundary(self):
        up, down = np.nextafter(SIGN_TOL, math.inf), np.nextafter(-SIGN_TOL, -math.inf)
        assert [scaled_sign(v) for v in (0.0, SIGN_TOL, -SIGN_TOL, up, down)] == \
            [0, 0, 0, 1, -1]

    def test_scale_comes_from_terms(self):
        tol = SIGN_TOL * 4.0
        assert scaled_sign(tol, 4.0, 0.5) == 0
        assert scaled_sign(-tol, -4.0) == 0       # terms count by magnitude
        assert scaled_sign(np.nextafter(tol, math.inf), 4.0) == 1
        assert scaled_sign(np.nextafter(-tol, -math.inf), 0.5, -4.0) == -1
        assert scaled_sign(2.0 * SIGN_TOL) == 1
        assert scaled_sign(2.0 * SIGN_TOL, 4.0) == 0
        # terms below 1 never shrink the tolerance
        assert scaled_sign(SIGN_TOL, 1e-3) == 0

    def test_stability_mapping(self):
        assert [stability_from_sign(s) for s in (1, 0, -1)] == \
            [Stability.STABLE, Stability.UNDETERMINED, Stability.UNSTABLE]


class TestStability:
    def test_example_one_labels(self):
        p = example_one_params()
        roots = find_roots(lambda y: m1(p, y), (1e-2, 1e2))
        report = classify_stability(p, roots)
        assert [r.stability for r in report.roots] == [
            Stability.UNSTABLE, Stability.STABLE, Stability.UNSTABLE]
        assert report.infinity_stability is Stability.STABLE
        assert report.root_count_bound == 3

    def test_example_two_labels(self):
        p = example_two_params()
        roots = find_roots(lambda y: m1_constrained(p, y), (1e-1, 1e2))
        report = classify_stability(p, roots)
        assert report.root_count_bound == 1
        assert report.roots[0].stability is Stability.UNSTABLE  # repels
        assert report.infinity_stability is Stability.STABLE    # attracts

    def test_sign_flip_flips_labels(self):
        p = example_one_params()
        q = MelnikovParams(b=p.b, d=p.d, e=p.e, xi=p.xi,
                           b11m=-p.b11m, b22m=-p.b22m, v1m=-p.v1m,
                           b11p=-p.b11p, b22p=-p.b22p, v1p=-p.v1p)
        roots_p = find_roots(lambda y: m1(p, y), (1e-2, 1e2))
        roots_q = find_roots(lambda y: m1(q, y), (1e-2, 1e2))
        assert_allclose([r for r, _ in roots_p], [r for r, _ in roots_q], rtol=1e-9)
        rep_p = classify_stability(p, roots_p)
        rep_q = classify_stability(q, roots_q)
        flip = {Stability.STABLE: Stability.UNSTABLE,
                Stability.UNSTABLE: Stability.STABLE}
        assert [r.stability for r in rep_q.roots] == \
            [flip[r.stability] for r in rep_p.roots]
        assert rep_q.infinity_stability is flip[rep_p.infinity_stability]

    def test_lowest_cycle_rule_matches_m1_sign_near_zero(self):
        # the lowest cycle repels exactly when M1 > 0 below it, and
        # sign(M1(0+)) = -sign(b11m + b22m)
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(40):
            p = random_params(rng)
            roots = find_roots(lambda y: m1(p, y), (1e-3, 1e3))
            if not roots:
                continue
            report = classify_stability(p, roots)
            low = report.roots[0]
            probe = m1(p, low.y0 * 0.9 if low.y0 > 2e-3 else low.y0 / 2)
            if abs(probe) < 1e-10 or low.stability is Stability.UNDETERMINED:
                continue
            expected = Stability.UNSTABLE if probe > 0 else Stability.STABLE
            assert low.stability is expected
            checked += 1
        assert checked > 10

    def test_report_serialization(self):
        p = example_one_params()
        roots = find_roots(lambda y: m1(p, y), (1e-2, 1e2))
        report = classify_stability(p, roots)
        data = report.to_dict()
        assert data["root_count_bound"] == 3
        assert len(data["roots"]) == 3
        assert isinstance(report.to_json(), str)
        assert isinstance(report, MelnikovReport)
