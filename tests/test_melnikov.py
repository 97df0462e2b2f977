import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    deriv,
    m1_arctan_reference,
    m1_constrained_arctan_reference,
    m1_constrained_reference,
    m1_longdouble,
    m1_reference,
)
from pwlcycles import melnikov
from pwlcycles.core import (
    Mat2,
    PwlSystem,
    Vec2,
    canonical_system,
    canonicalize,
    check_hypotheses,
)
from pwlcycles.ect import constrained_family
from pwlcycles.errors import ConstraintViolated, NotTraceFree
from pwlcycles.examples import (
    EXAMPLE1_M1_ROOTS,
    EXAMPLE2_NOMINAL_ROOT,
    EXAMPLE2_SYSTEM_ROOT,
    example_one_params,
    example_two_params,
    example_two_nominal_m1,
    example_two_sliding_params,
)
from pwlcycles.melnikov import (
    SIGN_TOL,
    _ARC_TERM,
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
    m1_csv,
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

    def test_from_system_refuses_a_right_focus(self):
        # [[1, -1], [2, 0]] has trace 1: a focus, which the reduction and
        # the hypotheses refuse; from_system read it as xi = 1.3229
        sys = PwlSystem(order0_plus=(Mat2(1.0, -1.0, 2.0, 0.0), Vec2(0.0, 1.0)),
                        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, 1.0)))
        with pytest.raises(NotTraceFree):
            canonicalize(sys)
        assert not check_hypotheses(sys).h2_virtual_center
        with pytest.raises(ValueError, match="^right zone is not a center$"):
            MelnikovParams.from_system(sys)

    def test_from_system_keeps_xi_of_a_trace_free_zone(self):
        # the center rule is the reduction's, with the same arithmetic
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0), -rng.uniform(0.2, 3.0)
            c = -(rng.uniform(0.2, 2.0) ** 2 + a * a) / b
            p = MelnikovParams.from_system(canonical_system(a, b, c, 1.0, 1.0))
            assert p.xi == math.sqrt(-(a * a + b * c))

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
        # sampled scale: arctan differs in the last ulp between the paths
        rng = np.random.default_rng(31)
        ys = np.geomspace(1e-3, 1e3, 257)
        for _ in range(50):
            p = random_params(rng, constrained)
            arr = f(p, ys)
            flt = [f(p, float(y)) for y in ys]
            assert all(type(v) is float for v in flt)
            assert_allclose(flt, arr, rtol=1e-15, atol=1e-15 * np.abs(arr).max())

    def test_reduced_values_agree(self):
        # m1_reduced reads G with math.atan for a number, np.arctan for an array
        rng = np.random.default_rng(5)
        ss = np.geomspace(1e-3, 1e3, 257)
        for _ in range(50):
            red = ReducedParams.from_params(random_params(rng))
            arr = m1_reduced(red, ss)
            flt = [m1_reduced(red, float(s)) for s in ss]
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


class TestM1Bits:
    """``m1`` and ``m1_constrained`` to the bit: the numbers that read the
    parameters alone are resolved once per ``MelnikovParams``, and every
    value is still the arctan formula's with each product formed in the
    call."""

    AMPLITUDES = (0.05, 0.5, 1.0, 2.0, 3.8278, 20.0)
    # the float and array paths give the same bits at these amplitudes, and
    # example two's m1 is its m1_constrained, as its left trace is exactly 0
    FLOATS = {
        ("one", "m1"): ("0x1.08249f0e0b735p+5", "0x1.8e7009cd56bc0p-1", "0x1.9e04b3fcbc000p-9",
                        "0x1.e8b05acb60000p-12", "-0x1.623bc34cea800p-8",
                        "-0x1.13d5a0ec4e560p+1"),
        ("two", "m1"): ("0x1.662a55350b942p+0", "0x1.4f3815193fc98p+0", "0x1.0cc8bf233380ep+0",
                        "0x1.276b89b501980p-3", "-0x1.1e913aedcbc77p+1",
                        "-0x1.d16a51ce783a8p+4"),
        ("two", "constrained"): ("0x1.662a55350b942p+0", "0x1.4f3815193fc98p+0",
                                 "0x1.0cc8bf233380ep+0", "0x1.276b89b501980p-3",
                                 "-0x1.1e913aedcbc77p+1", "-0x1.d16a51ce783a8p+4"),
    }
    CSV_SHA256 = {
        "one": "528bb11db4024d5f19516019941000ee3abf391821c6b7b8102f36c4833801ff",
        "two": "18e39f4658496cab1ee9c84605e1b2db78e26955761d31d4ed2403cfee69095c",
    }
    PARAMS = {"one": example_one_params, "two": example_two_params}
    FUNCS = {"m1": m1, "constrained": m1_constrained}

    @pytest.mark.parametrize("example, name", sorted(FLOATS))
    def test_example_values(self, example, name):
        p, f = self.PARAMS[example](), self.FUNCS[name]
        assert tuple(float.hex(f(p, y)) for y in self.AMPLITUDES) == self.FLOATS[example, name]
        arr = f(p, np.array(self.AMPLITUDES))
        assert tuple(float.hex(float(v)) for v in arr) == self.FLOATS[example, name]

    @pytest.mark.parametrize("example", sorted(CSV_SHA256))
    def test_m1_csv(self, example):
        csv = m1_csv(self.PARAMS[example]())
        assert hashlib.sha256(csv.encode()).hexdigest() == self.CSV_SHA256[example]

    def test_differential_against_the_reference(self):
        # seeded draws on both paths, compared as int64 views; amplitudes
        # span four decades either side of the zones' scales d/xi and e
        rng = np.random.default_rng(23)
        ys = np.geomspace(1e-4, 1e4, 257)
        for k in range(1000):
            p = random_params(rng, constrained=k % 2 == 1)
            pairs = [(m1, m1_arctan_reference)]
            if p.constrained:
                pairs.append((m1_constrained, m1_constrained_arctan_reference))
            floats = [float(y) for y in np.exp(rng.uniform(-9.0, 9.0, 8))]
            for f, ref in pairs:
                assert np.array_equal(f(p, ys).view(np.int64), ref(p, ys).view(np.int64))
                got = np.array([f(p, y) for y in floats])
                want = np.array([ref(p, y) for y in floats])
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestAgainstTheArccosForm:
    """The arctan form against the paper's arccos form: in long double on
    ``m1_csv``'s grid, and in doubles within the arccos form's conditioning."""

    @pytest.mark.parametrize("example, f", [("one", m1), ("two", m1), ("two", m1_constrained)])
    def test_within_2e_15_of_long_double(self, example, f):
        # the arccos form in doubles was off by 5.9e-15 (example one) and
        # 3.4e-14 (example two) of max|M1|
        p = {"one": example_one_params, "two": example_two_params}[example]()
        ys = np.geomspace(1e-2, 1e2, 4096)
        want = m1_longdouble(p, ys, constrained=f is m1_constrained)
        tol = 2e-15 * float(np.max(np.abs(want)))
        assert float(np.max(np.abs(f(p, ys) - want))) <= tol
        assert max(abs(f(p, y) - w) for y, w in zip(ys.tolist(), want)) <= tol

    def test_the_arccos_oracle_within_its_conditioning(self):
        # the arccos form rounds its argument 2x^2/(x^2 + t) - 1 within 4u
        # where it nears +-1, and arccos' slope 1/sin(theta) magnifies that
        # by the term's coefficient c_i; each form's longest chain rounds
        # about 8 times, one u of the terms' sum each, so the two forms lie
        # within 16 u sum|T_k| + 4u sum c_i/sin(theta_i) (the seeded draws
        # of test_differential_against_the_reference read at most 0.72 of it)
        u = 2.0 ** -53

        def bound(p, y, left):
            e, d, b, xi, sm, sp = p.e, p.d, p.b, p.xi, p.trace_minus, p.trace_plus
            th_r = 2.0 * np.arctan(xi * y / d)
            c_r = abs(sp) * (d * d + xi * xi * y * y) / (2.0 * y * xi ** 3)
            terms = abs(2.0 * p.v1m) + abs(2.0 * p.v1p / b) + abs(d * sp / xi ** 2) + c_r * th_r
            slopes = c_r / np.sin(th_r)
            if left:
                th_l, c_l = 2.0 * np.arctan(y / e), abs(sm) * (e * e + y * y) / (2.0 * y)
                terms += abs(sm) * (math.pi * (e * e + y * y) + e * y) / y + c_l * th_l
                slopes += c_l / np.sin(th_l)
            return 16.0 * u * terms + 4.0 * u * slopes

        rng = np.random.default_rng(23)
        ys = np.geomspace(1e-4, 1e4, 257)
        worst = 0.0
        for k in range(1000):
            p = random_params(rng, constrained=k % 2 == 1)
            floats = [float(y) for y in np.exp(rng.uniform(-9.0, 9.0, 8))]
            pairs = [(m1, m1_reference)]
            if p.constrained:
                pairs.append((m1_constrained, m1_constrained_reference))
            for f, ref in pairs:
                err = np.abs(f(p, ys) - ref(p, ys)) / bound(p, ys, f is m1)
                flt = [abs(f(p, y) - ref(p, y)) / bound(p, y, f is m1) for y in floats]
                worst = max(worst, float(np.max(err)), max(flt))
        assert worst <= 1.0


class TestResolvedTerms:
    def test_resolved_once_per_instance(self, monkeypatch):
        # a deterministic cost guard: m1 read both traces (two property
        # calls) on every evaluation.  The terms resolve when the record is
        # built, where their finiteness is checked, and never again
        reads = 0
        trace_plus = MelnikovParams.trace_plus

        def counting(self):
            nonlocal reads
            reads += 1
            return trace_plus.fget(self)

        monkeypatch.setattr(MelnikovParams, "trace_plus", property(counting))
        for params, f in ((example_one_params, m1), (example_two_params, m1_constrained)):
            evals = reads = 0
            p = params()
            assert reads == 1

            def counted(y):
                nonlocal evals
                evals += 1
                return f(p, y)

            assert find_roots(counted, (1e-1, 1e2))
            assert evals > 30 and reads == 1

    def test_replace_recomputes(self):
        p = example_two_params()
        q = replace(p, v1m=p.v1m + 0.25, b11p=p.b11p - 0.5)
        assert q._terms != p._terms
        for f, ref in ((m1, m1_arctan_reference),
                       (m1_constrained, m1_constrained_arctan_reference)):
            assert f(p, 1.5) == ref(p, 1.5) and f(q, 1.5) == ref(q, 1.5) != f(p, 1.5)

    def test_equality_and_hash_unchanged(self):
        # the terms resolve when a record is built; q drops its cache
        p, q = example_one_params(), example_one_params()
        del vars(q)["_terms"]
        assert "_terms" in vars(p) and "_terms" not in vars(q)
        assert p == q and hash(p) == hash(q)
        assert "_terms" not in repr(p)


class TestInPlaceWork:
    """``m1`` and ``m1_constrained`` make their arrays in the call and never
    write into the caller's."""

    @pytest.mark.parametrize("name", ["m1", "constrained"])
    def test_a_writable_amplitude_array_is_left_alone(self, name):
        f = {"m1": m1, "constrained": m1_constrained}[name]
        p = example_two_params()
        ys = np.array([0.05, 0.5, 1.0, 2.0, 3.8278, 20.0])
        assert ys.flags.writeable
        kept = ys.copy()
        out = f(p, ys)
        assert np.array_equal(ys.view(np.int64), kept.view(np.int64))
        assert isinstance(out, np.ndarray) and not np.shares_memory(out, ys)
        assert np.array_equal(f(p, ys).view(np.int64), out.view(np.int64))

    @pytest.mark.parametrize("name", ["m1", "constrained"])
    def test_a_number_gives_a_python_float(self, name):
        f = {"m1": m1, "constrained": m1_constrained}[name]
        p = example_two_params()
        for y in (2.0, 2, np.float64(2.0), np.array(2.0)):
            assert type(f(p, y)) is float and f(p, y) == f(p, 2.0)


class TestSubnormalAmplitude:
    # the xi = 0.5, d = 2 constrained system, at which xi*y0/d rounds to 0
    # for y0 = 5e-324
    SYSTEM = canonical_system(0.0, -0.25, 1.0, 2.0, 1.0,
                              B_minus=[[0.3, 0.0], [0.0, -0.3]], v_minus=[0.2, 0.0],
                              B_plus=[[0.5, 0.0], [0.0, 0.1]], v_plus=[-0.4, 0.0])

    def test_float_path_names_the_amplitude(self):
        p = MelnikovParams.from_system(self.SYSTEM)
        assert p.xi == 0.5 and p.d == 2.0 and p.constrained
        assert p.xi / p.d * 5e-324 == 0.0
        for f in (m1, m1_constrained):
            with pytest.raises(ValueError, match=f"{f.__name__} needs y0 = 5e-324"):
                f(p, 5e-324)
            assert math.isfinite(f(p, 1e-300))

    def test_array_path_keeps_its_nan(self):
        p = MelnikovParams.from_system(self.SYSTEM)
        for f in (m1, m1_constrained):
            with pytest.warns(RuntimeWarning, match="divide"):
                out = f(p, np.array([5e-324, 1.0]))
            assert math.isnan(out[0]) and math.isfinite(out[1])


class TestArccosContract:
    """MelnikovParams takes the parameters at which the paper's arccos form
    of M1 has its arguments in [-1, 1]; the arctan form ``m1`` evaluates
    keeps a value there."""
    @pytest.mark.parametrize("name, value", [("d", 1e-158), ("d", 1e-162), ("e", 1.2e154),
                                             ("d", 2.0 ** 511 * (1 + 2.0 ** -52)),
                                             ("e", 2.0 ** -511 * (1 - 2.0 ** -53))])
    def test_d_and_e_outside_the_range_are_refused(self, name, value):
        # these reached the clamp: d = 1e-158 at y0 = 1e-170 and e = 1.2e154
        # (2e^2 overflows) raised MelnikovDomainError, and d = 1e-162 (d*d
        # underflows to 0) a bare ZeroDivisionError; the last two are the
        # doubles next to the ends
        with pytest.raises(ValueError, match=f"MelnikovParams.{name} must lie in"):
            replace(example_one_params(), **{name: value})
        with pytest.raises(ValueError, match=f"SlidingParams.{name} must lie in"):
            replace(example_two_sliding_params(), **{name: value})

    @pytest.mark.parametrize("name, b, xi", [("xi", -1.0, 1e-110), ("xi", -1.0, 1e120),
                                             ("xi", -1.0, 2.0 ** -511.5), ("xi", -1.0, 2.0 ** 342),
                                             ("b", -1e300, 1e100), ("b", -1e-300, 1e-100)])
    def test_xi_and_b_that_break_the_denominators_are_refused(self, name, b, xi):
        # xi = 1e-110 (xi**3 underflows to 0) gave a bare ZeroDivisionError
        # from m1 at y0 = 2, and xi = 1e120 an OverflowError from xi**3; the
        # rest leave xi*xi, xi**3 or b*xi**3 outside the normal doubles
        kwargs = dict(b=b, d=1.0, e=1.0, xi=xi, b11m=0.3, b22m=0.1, v1m=0.2,
                      b11p=0.5, b22p=0.1, v1p=0.3)
        with pytest.raises(ValueError, match=f"MelnikovParams.{name} must keep"):
            MelnikovParams(**kwargs)
        with pytest.raises(ValueError, match=f"SlidingParams.{name} must keep"):
            replace(example_two_sliding_params(), b=b, xi=xi)

    def test_the_sweep_range_of_xi_is_taken(self):
        # the domain sweep below draws xi from [1e-100, 1e100] and b from
        # [-3, -0.2]; its corners keep finite M1 values
        for b, xi in ((-3.0, 1e-100), (-0.2, 1e-100), (-3.0, 1e100), (-0.2, 1e100)):
            p = replace(example_one_params(), b=b, xi=xi)
            assert math.isfinite(m1(p, 2.0)) and math.isfinite(m1(p, np.array([2.0]))[0])

    def test_the_ends_are_taken(self):
        for d, e in ((2.0 ** -511, 2.0 ** 511), (2.0 ** 511, 2.0 ** -511)):
            p = replace(example_two_params(), d=d, e=e)
            assert math.isfinite(m1(p, 1.0)) and math.isfinite(m1_constrained(p, 1.0))

    def test_the_float_path_over_the_whole_domain(self):
        # d and e log-uniform over [2**-511, 2**511] with its four corners, xi
        # in [1e-100, 1e100] and amplitudes over (5e-324, 1.7e308) plus NaN:
        # a parameter set is taken, or refused where kappa overflows (4 of
        # the 200), and at a taken one a float amplitude gives a float, or
        # the ValueError that names it where xi*y0/d rounds to 0, and
        # nothing else.  Beside a NaN amplitude, NaN comes only where the
        # right zone's term kappa*H(xi*y0/d) overflows (42 times; 202 while
        # the 4 sets of infinite kappa were taken, 160 of them theirs, and
        # 3,142 in the arccos form)
        rng = np.random.default_rng(2024)
        lo, hi = 2.0 ** -511, 2.0 ** 511

        def log_uniform(a, b, n):
            return np.exp(rng.uniform(math.log(a), math.log(b), n)).tolist()

        ds = [lo, lo, hi, hi, *log_uniform(lo, hi, 196)]
        es = [lo, hi, lo, hi, *log_uniform(lo, hi, 196)]
        ys = [5e-324, 1.7e308, math.nan, *log_uniform(5e-324, 1.7e308, 61)]
        values = refused = refused_params = nans = 0
        for k, (d, e) in enumerate(zip(ds, es)):
            xi = math.exp(rng.uniform(math.log(1e-100), math.log(1e100)))
            b11m = float(rng.uniform(-2, 2))
            kwargs = dict(b=-float(rng.uniform(0.2, 3)), d=d, e=e, xi=xi,
                          b11m=b11m, b22m=-b11m if k % 2 else 0.5,
                          v1m=0.3, b11p=0.7, b22p=-0.2, v1p=-0.4)
            try:
                p = MelnikovParams(**kwargs)
            except ValueError as exc:
                assert str(exc) == ("MelnikovParams must keep kappa = d*sp/xi^2 and "
                                    "k0 = 2*v1m + 2*v1p/b + kappa finite")
                assert math.isinf(d * (0.7 - 0.2) / (xi * xi))
                refused_params += 1
                continue
            f = m1_constrained if p.constrained else m1
            for y in ys:
                try:
                    v = f(p, y)
                except ValueError as exc:
                    assert str(exc) == (f"{f.__name__} needs y0 = {y!r} large enough "
                                        "that xi*y0/d does not round to 0")
                    assert p.xi / p.d * y == 0.0
                    refused += 1
                    continue
                assert type(v) is float
                values += 1
                if math.isnan(v) and not math.isnan(y):
                    t, r = p._terms, p.xi / p.d * y
                    assert math.isfinite(t.k0) and math.isfinite(t.kappa)
                    assert not math.isfinite(t.kappa * (math.atan(r) / r + r * math.atan(r)))
                    nans += 1
        assert values + refused == (200 - refused_params) * len(ys) and refused > 0
        assert (refused_params, nans) == (4, 42)

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


class TestArcTerm:
    """M1's arc term G(s) = (s^2+1) arccos(2/(s^2+1) - 1) = 2(s^2+1) arctan(s)
    and its first three derivatives, the one home of ect's families and
    m1_reduced."""

    def test_equals_the_arccos_form(self):
        # the arccos form's argument 2/u - 1 carries up to an ulp of 2, which
        # arccos amplifies by 1/sin(theta): that form, not G, loses digits as
        # s -> 0 (6.9e-13 relative at s = 1e-2)
        ss = np.geomspace(1e-2, 1e2, 4096)
        u = ss * ss + 1.0
        theta = np.arccos(2.0 / u - 1.0)
        rel = np.abs(_ARC_TERM[0](ss) / (u * theta) - 1.0)
        assert np.all(rel <= 1e-13 + 2.0 * np.finfo(float).eps / (theta * np.sin(theta)))

    @pytest.mark.parametrize("s", [1e-4, 1e-6])
    def test_full_accuracy_near_zero(self, s):
        # G = 2s + 4s^3/3 - 4s^5/15 + ..., and the s^5 term is below an ulp;
        # the arccos form is off by 3.6e-9 at 1e-4 and 4.4e-5 at 1e-6
        series = 2.0 * s + 4.0 * s ** 3 / 3.0
        g = _ARC_TERM[0]
        for value in (g(s), g(s, math.atan), g(np.array([s]))[0]):
            assert abs(value - series) <= 2.0 * math.ulp(series)

    def test_derivatives_by_complex_step(self):
        # Im f(s + h i)/h is f'(s) to rounding at h = 1e-30, with no
        # difference taken.  The step of G'' sums 4/(1+s^2) and
        # 4(1-s^2)/(1+s^2)^2, which cancel to G''' = 8/(1+s^2)^2 at large s,
        # hence the absolute term
        ss = np.geomspace(1e-2, 1e2, 4096)
        for k in (1, 2, 3):
            step = _ARC_TERM[k - 1](ss + 1e-30j).imag / 1e-30
            err = np.abs(_ARC_TERM[k](ss) - step)
            assert np.all(err <= 1e-14 * (np.abs(step) + 1.0 / (1.0 + ss * ss))), k
        # the constrained family's second member is s^2 G(1/s), M1's
        # constrained span under s -> 1/s, and its derivative crosses 0 near
        # s = 0.7
        fam = constrained_family()
        mirrored = lambda s: s * s * _ARC_TERM[0](1.0 / s)
        assert_allclose(deriv(fam, 1, 0, ss), mirrored(ss), rtol=1e-12)
        assert_allclose(deriv(fam, 1, 1, ss), mirrored(ss + 1e-30j).imag / 1e-30,
                        rtol=1e-12, atol=1e-13)


class TestConstrained:
    def test_limit_at_zero(self):
        p = example_two_params()
        lim = 2.0 * (p.v1m + p.v1p / p.b)
        assert lim == pytest.approx(1.4, abs=1e-15)
        assert_allclose(m1_constrained(p, 1e-4), lim, rtol=1e-6)

    @pytest.mark.parametrize("y0", [1e-200, 1e-20, 1e-8])
    def test_limit_at_tiny_amplitudes(self, y0):
        # the arccos form lost the subtracted term here once its argument
        # rounded to 1, and gave 2 v1m + 2 v1p/b + d sp/xi^2 = 3.6
        p = example_two_params()
        lim = 2.0 * (p.v1m + p.v1p / p.b)
        for f in (m1, m1_constrained):
            assert f(p, y0) == pytest.approx(lim, rel=1e-15)
            assert f(p, np.array([y0]))[0] == pytest.approx(lim, rel=1e-15)

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

    @pytest.mark.parametrize("domain", [(1e-3, math.inf), (1e-2, math.nan), (math.nan, 1.0),
                                        (0.0, 1.0), (2.0, 1.0)])
    def test_domain_needs_finite_ends(self, domain):
        # (1e-3, inf) passed the 0 < lo < hi test, warned in geomspace and
        # reported example 1 without roots
        with pytest.raises(ValueError, match=r"need finite 0 < lo < hi"):
            find_roots(lambda y: m1(example_one_params(), y), domain)
        with pytest.raises(ValueError, match=r"need finite 0 < lo < hi"):
            melnikov.analyze(example_one_params(), domain)

    def test_exact_zero_on_a_grid_node(self):
        # a zero that lands on a node has no bracket: it is reported at the
        # node itself and flagged SUSPECT, and its neighbours bracket nothing
        ys = np.geomspace(0.5, 2.0, 9)
        node = float(ys[3])
        roots = find_roots(lambda y: y - node, (0.5, 2.0), RootFindOptions(grid=9))
        assert roots == [(node, RootFlag.SUSPECT)]

    def test_all_nan_gives_no_roots_and_no_warning(self):
        # with no bracket and no zero node the grid scale is never needed;
        # nanmax of an all-NaN grid warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_roots(lambda y: np.full(np.shape(y), math.nan), (0.5, 2.0)) == []

    def test_slope_probe_stays_in_the_domain(self):
        # a root below 1e-6 put the probe's lower point at root - 1e-6 <= 0,
        # where m1_constrained raised "needs y0 > 0" out of find_roots;
        # 2 v1m - 0.6 = (5e-7)^2 sets the leading term's root
        p = MelnikovParams(b=-1, d=1, e=1, xi=1, b11m=0.5, b22m=-0.5, v1m=0.3 + 1.25e-13,
                           b11p=1, b22p=0.5, v1p=0.3)
        lo, seen = 1e-8, []

        def f(y):
            seen.append(np.min(y))
            return m1_constrained(p, y)

        roots = find_roots(f, (lo, 1.0))
        assert any(r < 1e-6 for r, _ in roots)
        assert min(seen) >= lo and all(lo < r < 1.0 for r, _ in roots)

    def test_no_noise_roots_below_the_leading_root(self):
        # the arccos form was rounding noise below 1e-6 and gave 739 roots on
        # (1e-8, 1); the root of these float inputs is 5.0002222465e-7 to 40
        # digits, and k0's last bit moves it by 3.6e-4 of itself
        p = MelnikovParams(b=-1, d=1, e=1, xi=1, b11m=0.5, b22m=-0.5, v1m=0.3 + 1.25e-13,
                           b11p=1, b22p=0.5, v1p=0.3)
        for f in (m1, m1_constrained):
            roots = find_roots(lambda y: f(p, y), (1e-8, 1.0))
            assert [fl for _, fl in roots] == [RootFlag.SIMPLE]
            assert roots[0][0] == pytest.approx(5.000222246516626e-7, rel=1e-3)

    def test_slope_step_unchanged_inside_the_domain(self):
        # the step shrinks only where root - 1e-6 max(1, root) < lo
        p = example_one_params()
        seen = []

        def f(y):
            seen.append(y)
            return m1(p, y)

        roots = find_roots(f, (1e-2, 1e2))
        probes = [y for y in seen if type(y) is float][-2:]
        r = roots[-1][0]
        assert probes == [r + 1e-6 * r, r - 1e-6 * r]


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

    def test_infinity_tie_labels_from_the_lowest_cycle(self):
        # xi*(b11m + b22m) + b11p + b22p = 0: infinity is undetermined, and
        # the labels follow the lowest cycle, stable because M1 < 0 near 0+
        # when b11m + b22m > 0, then alternate
        p = MelnikovParams(b=-1.0, d=1.0, e=1.0, xi=0.5, b11m=0.5, b22m=0.5,
                           v1m=0.3, b11p=-0.25, b22p=-0.25, v1p=0.4)
        assert melnikov.infinity_sign(p) == 0
        assert m1(p, 1e-3) < 0
        roots = [(0.5, RootFlag.SIMPLE), (2.0, RootFlag.SIMPLE), (1.0, RootFlag.SIMPLE)]
        report = classify_stability(p, roots)
        assert report.infinity_stability is Stability.UNDETERMINED
        assert [(r.y0, r.stability) for r in report.roots] == [
            (0.5, Stability.STABLE), (1.0, Stability.UNSTABLE), (2.0, Stability.STABLE)]

    @pytest.mark.parametrize("v1p, lowest", [(0.5, Stability.STABLE),
                                             (0.1, Stability.UNSTABLE),
                                             (0.3, Stability.UNDETERMINED)])
    def test_drift_breaks_the_tie_of_both_traces(self, v1p, lowest):
        # both traces vanish, so infinity and the left trace tie and the
        # lowest cycle follows the drift b*v1m + v1p: M1 = 2*drift/b near 0+
        # is negative for a positive drift, a stable lowest cycle
        p = MelnikovParams(b=-1.0, d=1.0, e=1.0, xi=0.5, b11m=0.5, b22m=-0.5,
                           v1m=0.3, b11p=0.25, b22p=-0.25, v1p=v1p)
        assert melnikov.infinity_sign(p) == 0 and p.constrained
        assert scaled_sign(p.drift, p.b * p.v1m, p.v1p) == -scaled_sign(m1(p, 1e-3))
        roots = [(2.0, RootFlag.SIMPLE), (0.5, RootFlag.SIMPLE)]
        report = classify_stability(p, roots)
        flip = {Stability.STABLE: Stability.UNSTABLE, Stability.UNSTABLE: Stability.STABLE,
                Stability.UNDETERMINED: Stability.UNDETERMINED}
        assert report.infinity_stability is Stability.UNDETERMINED
        assert [(r.y0, r.stability) for r in report.roots] == [(0.5, lowest),
                                                                (2.0, flip[lowest])]
        assert report.root_count_bound == 1

    def test_report_serialization(self):
        p = example_one_params()
        roots = find_roots(lambda y: m1(p, y), (1e-2, 1e2))
        report = classify_stability(p, roots)
        data = report.to_dict()
        assert data["root_count_bound"] == 3
        assert len(data["roots"]) == 3
        assert isinstance(report.to_json(), str)
        assert isinstance(report, MelnikovReport)
