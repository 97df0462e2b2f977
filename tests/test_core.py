import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import (
    affine_flow,
    push_pairs_reference,
    seeded_systems,
    singular_points_reference,
    zone_arrays,
)

from pwlcycles import core
from pwlcycles.core import (
    ChangeOfVariables,
    Mat2,
    PwlSystem,
    Vec2,
    canonical_system,
    canonicalize,
    check_hypotheses,
)
from pwlcycles.errors import (
    BoundaryCase,
    DegenerateLinearPart,
    HypothesisViolation,
    NonCenterMinus,
    NotTraceFree,
    SwitchingLineNotPreserved,
)
from pwlcycles.examples import example_one, example_two


def unit_center_pair():
    m = Mat2(0.0, -1.0, 1.0, 0.0)
    return PwlSystem(order0_plus=(m, Vec2(0.0, 1.0)),
                     order0_minus=(m, Vec2(0.0, 1.0)))


def is_identity(change: ChangeOfVariables) -> bool:
    """``change`` maps every point and time to itself, to 1e-12."""
    return (np.allclose(change.matrix, np.eye(2), rtol=0, atol=1e-12)
            and np.allclose(change.offset, 0.0, rtol=0, atol=1e-12)
            and abs(change.time_scale - 1.0) < 1e-12)


class TestCheckHypotheses:
    def test_demo_system_satisfies_all(self):
        rep = check_hypotheses(canonical_system(1.0, -1.0, 1.01, 0.1, 0.55))
        assert rep.h1_real_center and rep.h2_virtual_center and rep.h3_global_center
        assert_allclose([rep.singular_minus.x, rep.singular_minus.y], [-0.55, 0.0],
                        atol=1e-12)
        # d/(a^2+bc) * (-b, a) = 0.1/(-0.01) * (1, 1)
        assert_allclose([rep.singular_plus.x, rep.singular_plus.y], [-10.0, -10.0],
                        rtol=1e-9)

    def test_identical_center_pieces(self):
        # both pieces equal: singular point of the right piece sits at
        # (-1, 0), inside x <= 0, hence virtual by the sign convention
        rep = check_hypotheses(unit_center_pair())
        assert rep.h1_real_center
        assert rep.h2_virtual_center
        assert rep.h3_global_center
        assert_allclose([rep.singular_minus.x, rep.singular_minus.y],
                        [rep.singular_plus.x, rep.singular_plus.y], atol=1e-12)

    def test_saddle_right_piece_fails_h2_h3(self):
        saddle = Mat2(0.0, 1.0, 1.0, 0.0)  # eigenvalues +-1
        sys = PwlSystem(order0_plus=(saddle, Vec2(0.0, 1.0)),
                        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, 1.0)))
        rep = check_hypotheses(sys)
        assert rep.h1_real_center
        assert not rep.h2_virtual_center
        assert not rep.h3_global_center
        assert rep.reduction is None

    def test_failed_normal_form_keeps_original_coordinates(self):
        # the left center admits the change of variables, the right saddle
        # has no normal form: both points stay where the input puts them
        sys = PwlSystem(order0_plus=(Mat2(1.0, 0.0, 0.0, -1.0), Vec2(0.0, 1.0)),
                        order0_minus=(Mat2(0.0, -2.0, 0.5, 0.0), Vec2(0.0, 1.0)))
        rep = check_hypotheses(sys)
        assert rep.reduction is None
        assert rep.singular_plus == Vec2(0.0, 1.0)
        assert rep.singular_minus == Vec2(-2.0, 0.0)

    def test_failed_reduction_runs_once(self, monkeypatch):
        # a deterministic cost guard: a reduction that fails on the right
        # piece still places the singular points without being redone
        calls = 0
        raw_change = core._raw_change

        def counting(sys):
            nonlocal calls
            calls += 1
            return raw_change(sys)

        monkeypatch.setattr(core, "_raw_change", counting)
        saddle = Mat2(0.0, 1.0, 1.0, 0.0)
        sys = PwlSystem(order0_plus=(saddle, Vec2(0.0, 1.0)),
                        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, 1.0)))
        with pytest.raises(HypothesisViolation):
            canonicalize(sys)
        calls = 0
        rep = check_hypotheses(sys)
        assert not rep.h3_global_center
        assert_allclose([rep.singular_minus.x, rep.singular_minus.y], [-1.0, 0.0],
                        atol=1e-12)
        assert calls == 1

    def test_h3_implies_h1_and_h2(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m_minus = Mat2(rng.uniform(-1, 1), rng.uniform(-2, -0.1),
                           rng.uniform(0.1, 2), 0.0)
            m_minus = Mat2(m_minus.m11, m_minus.m12, m_minus.m21, -m_minus.m11)
            sys = PwlSystem(order0_plus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0, rng.uniform(-1, 1))),
                            order0_minus=(m_minus, Vec2(0, rng.uniform(-1, 1))))
            try:
                rep = check_hypotheses(sys)
            except (DegenerateLinearPart, BoundaryCase):
                continue
            if rep.h3_global_center:
                assert rep.h1_real_center and rep.h2_virtual_center

    def test_degenerate_matrix_raises(self):
        sys = PwlSystem(order0_plus=(Mat2(0.0, 0.0, 0.0, 0.0), Vec2(0, 1)),
                        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0, 1)))
        with pytest.raises(DegenerateLinearPart):
            check_hypotheses(sys)


class TestCanonicalize:
    def test_unit_pair_already_canonical(self):
        params, change = canonicalize(unit_center_pair())
        assert_allclose([params.a, params.b, params.c, params.d, params.e],
                        [0.0, -1.0, 1.0, 1.0, 1.0], atol=1e-12)
        assert is_identity(change)

    def test_idempotence_on_canonical_input(self):
        sys = canonical_system(0.4, -0.7, 1.3, 0.6, 0.9)
        params, change = canonicalize(sys)
        assert_allclose([params.a, params.b, params.c, params.d, params.e],
                        [0.4, -0.7, 1.3, 0.6, 0.9], rtol=1e-12, atol=1e-12)
        assert is_identity(change)

    def test_known_left_matrix(self):
        # rho = sqrt(|1 - 2|) = 1 and e = -m12*u2/rho = 2
        sys = PwlSystem(order0_plus=(Mat2(1.0, -1.0, 1.01, -1.0), Vec2(0.0, 0.1)),
                        order0_minus=(Mat2(1.0, -2.0, 1.0, -1.0), Vec2(0.0, 1.0)))
        params, change = canonicalize(sys)
        assert_allclose(change.time_scale, 1.0, rtol=1e-12)
        assert_allclose(params.e, 2.0, rtol=1e-12)
        # conjugacy spot check: map sampled flow points through the change
        raw_flow = affine_flow(*zone_arrays(sys, "minus"))
        canon = canonical_system(params.a, params.b, params.c, params.d, params.e)
        can_flow = affine_flow(*zone_arrays(canon, "minus"))
        x0 = np.array([-0.7, 0.3])
        for t in np.linspace(0.05, 0.6, 10):
            lhs = change.apply(raw_flow.state(x0, t))
            rhs = can_flow.state(change.apply(x0), change.map_time(t))
            assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-11)

    def test_sign_constraints_always_hold(self):
        rng = np.random.default_rng(11)
        produced = 0
        for _ in range(50):
            m11, m12 = rng.uniform(-1, 1), rng.uniform(-2, -0.2)
            m21 = rng.uniform(0.1, 2.0)
            if m11 * m11 + m12 * m21 >= -1e-3:
                continue
            sys = PwlSystem(
                order0_plus=(Mat2(1.0, -1.0, 1.01, -1.0), Vec2(0.0, 0.1)),
                order0_minus=(Mat2(m11, m12, m21, -m11), Vec2(0.0, rng.uniform(0.2, 2))))
            try:
                params, _ = canonicalize(sys)
            except (HypothesisViolation, BoundaryCase):
                continue
            produced += 1
            assert params.b < 0 and params.c > 0 and params.d > 0 and params.e > 0
            assert params.a ** 2 + params.b * params.c < 0
            assert params.xi > 0
            assert abs(params.xi ** 2 + params.a ** 2 + params.b * params.c) \
                <= 1e-12 * params.xi ** 2
        assert produced > 10

    def test_switching_line_not_preserved(self):
        sys = PwlSystem(order0_plus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0, 1)),
                        order0_minus=(Mat2(0.0, 0.0, 1.0, 0.0), Vec2(0, 1)))
        with pytest.raises(SwitchingLineNotPreserved):
            canonicalize(sys)

    def test_non_center_minus(self):
        sys = PwlSystem(order0_plus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0, 1)),
                        order0_minus=(Mat2(0.0, 1.0, 1.0, 0.0), Vec2(0, 1)))
        with pytest.raises(NonCenterMinus):
            canonicalize(sys)

    def test_not_trace_free(self):
        sys = PwlSystem(order0_plus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0, 1)),
                        order0_minus=(Mat2(0.5, -1.0, 1.0, 0.0), Vec2(0, 1)))
        with pytest.raises(NotTraceFree):
            canonicalize(sys)

    def test_boundary_offset_raises(self):
        # u2+ = 0 puts the right singular point on the switching line: d = 0
        sys = PwlSystem(order0_plus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, 0.0)),
                        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, 1.0)))
        with pytest.raises(BoundaryCase):
            canonicalize(sys)

    def test_misaligned_tangencies_rejected(self):
        sys = PwlSystem(order0_plus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.3, 1.0)),
                        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(-0.2, 1.0)))
        with pytest.raises(HypothesisViolation):
            canonicalize(sys)

    def test_aligned_offsets_translate_away(self):
        # u1 components consistent with a common tangency translate out
        sys = PwlSystem(order0_plus=(Mat2(0.0, -2.0, 0.5, 0.0), Vec2(-0.8, 1.0)),
                        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(-0.4, 1.0)))
        params, change = canonicalize(sys)
        assert params.e > 0 and params.d > 0
        # the common tangency point (0, u1/m12 flipped in sign) maps to the origin
        assert_allclose(change.apply((0.0, -0.4)), [0.0, 0.0], atol=1e-12)


def raw_system(rng) -> PwlSystem:
    """A random normal form with all perturbation orders, moved off normal
    coordinates by a switching-line-preserving change built with numpy."""
    xi, a, b = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), -rng.uniform(0.2, 3.0)
    normal = canonical_system(
        a, b, -(xi * xi + a * a) / b, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
        B_minus=rng.uniform(-2, 2, (2, 2)), v_minus=rng.uniform(-3, 3, 2),
        B_plus=rng.uniform(-2, 2, (2, 2)), v_plus=rng.uniform(-3, 3, 2),
        C_minus=rng.uniform(-1, 1, (2, 2)), w_minus=rng.uniform(-1, 1, 2),
        C_plus=rng.uniform(-1, 1, (2, 2)), w_plus=rng.uniform(-1, 1, 2),
        epsilon=rng.uniform(1e-3, 1e-2))
    q11 = rng.uniform(0.5, 2.0)
    q22 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    change = ChangeOfVariables(linear=((q11, 0.0), (rng.uniform(-1.0, 1.0), q22)),
                               offset=(0.0, rng.uniform(-1.0, 1.0)),
                               time_scale=rng.uniform(0.5, 2.0))
    pushed = push_pairs_reference(change, normal.orders("plus") + normal.orders("minus"))
    p0, p1, p2, m0, m1, m2 = [(Mat2(*m.ravel().tolist()), Vec2(*u.tolist())) for m, u in pushed]
    return PwlSystem(p0, m0, p1, m1, p2, m2, epsilon=normal.epsilon)


def assert_close(got, want):
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (got, want)


class TestFloatReduction:
    def test_push_matches_the_numpy_reference(self):
        # differential check over seeded draws: the adjugate-based float
        # push agrees with Q M inv(Q) / rho by numpy products
        rng = np.random.default_rng(41)
        for _ in range(1000):
            sys = raw_system(rng)
            change = core._raw_change(sys)
            pairs = sys.orders("plus") + sys.orders("minus")
            for (m, u), (mm, uu) in zip(change._push_pairs(pairs),
                                        push_pairs_reference(change, pairs)):
                for got, want in zip((m.m11, m.m12, m.m21, m.m22, u.x, u.y),
                                     (*mm.ravel(), *uu)):
                    assert_close(got, want)
            params, _ = canonicalize(sys)
            (ap_m, ap_u), (_, am_u) = push_pairs_reference(
                change, (sys.order0_plus, sys.order0_minus))
            for got, want in zip((params.a, params.b, params.c, params.d, params.e),
                                 (0.5 * (ap_m[0, 0] - ap_m[1, 1]), ap_m[0, 1], ap_m[1, 0],
                                  ap_u[1], am_u[1])):
                assert_close(got, want)
            rep = check_hypotheses(sys)
            assert rep.h1_real_center and rep.h2_virtual_center and rep.h3_global_center

    def test_reduction_makes_no_array_round_trips(self, monkeypatch):
        # a deterministic cost guard: the reduction is 2x2 algebra on the
        # fields; it used to convert every pushed pair to arrays and back.
        # The hypotheses read the order-0 records alone, and the push reads
        # the orders of each side once
        sys = raw_system(np.random.default_rng(5))
        calls = {"inv": 0, "orders": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
        monkeypatch.setattr(PwlSystem, "orders", counting("orders", PwlSystem.orders))
        assert check_hypotheses(sys).h3_global_center
        _, change = canonicalize(sys)
        assert calls == {"inv": 0, "orders": 0}
        change.push_system(sys)
        assert calls == {"inv": 0, "orders": 2}

    def test_report_keeps_the_reduction(self):
        sys = raw_system(np.random.default_rng(6))
        rep = check_hypotheses(sys)
        assert rep.reduction == canonicalize(sys)
        plain = dataclasses.replace(rep, reduction=None)
        assert plain == rep and hash(plain) == hash(rep)
        assert "reduction" not in repr(rep)


class TestStackedSolve:
    """``check_hypotheses`` finds both singular points with one stacked
    ``np.linalg.solve``, to the bit of one solve per zone."""

    @staticmethod
    def hexes(points):
        return [float.hex(c) for point in points for c in point]

    @staticmethod
    def reported(rep):
        return [(rep.singular_minus.x, rep.singular_minus.y),
                (rep.singular_plus.x, rep.singular_plus.y)]

    def test_raw_coordinates_when_the_reduction_fails(self):
        # seeded draws: random zones, and random right zones beside a left
        # center, whose reduction then fails on the right piece
        rng = np.random.default_rng(59)
        checked = 0
        for k in range(2000):
            m = rng.normal(size=(2, 2, 2)) * np.exp(rng.uniform(-3.0, 3.0, (2, 1, 1)))
            u = rng.normal(size=(2, 2))
            if k % 2:
                m[1] = [[m[1, 0, 0], -abs(m[1, 0, 1])], [abs(m[1, 1, 0]), -m[1, 0, 0]]]
            sys = PwlSystem(order0_plus=(Mat2(*m[0].ravel().tolist()), Vec2(*u[0].tolist())),
                            order0_minus=(Mat2(*m[1].ravel().tolist()), Vec2(*u[1].tolist())))
            try:
                rep = check_hypotheses(sys)
            except DegenerateLinearPart:
                continue
            assert rep.reduction is None
            assert self.hexes(self.reported(rep)) == self.hexes(singular_points_reference(sys))
            checked += 1
        assert checked > 1900

    def test_normal_coordinates_when_the_reduction_holds(self):
        # the report moves the raw points by the change it found, in floats
        rng = np.random.default_rng(61)
        for k in range(1000):
            if k % 2:
                sys = raw_system(rng)
            else:
                xi, a, b = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), -rng.uniform(0.2, 3.0)
                sys = canonical_system(a, b, -(xi * xi + a * a) / b, rng.uniform(0.1, 3.0),
                                       rng.uniform(0.1, 3.0))
            rep = check_hypotheses(sys)
            assert rep.h3_global_center
            change = rep.reduction[1]
            (l11, l12), (l21, l22) = change.linear
            o1, o2 = change.offset
            want = [(l11 * x + l12 * y + o1, l21 * x + l22 * y + o2)
                    for x, y in singular_points_reference(sys)]
            assert self.hexes(self.reported(rep)) == self.hexes(want)

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_a_degenerate_zone_raises(self, side):
        center = (Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, 1.0))
        pairs = {"minus": center, "plus": center,
                 side: (Mat2(1.0, 2.0, 0.5, 1.0), Vec2(0.0, 1.0))}  # det = 0
        sys = PwlSystem(order0_plus=pairs["plus"], order0_minus=pairs["minus"])
        with pytest.raises(DegenerateLinearPart,
                           match="^zone matrix is singular; no isolated singular point$"):
            check_hypotheses(sys)

    def test_one_solve_per_check(self, monkeypatch):
        # a deterministic cost guard: one LAPACK call places both points,
        # whether the reduction holds or fails
        systems = [raw_system(np.random.default_rng(7)),
                   PwlSystem(order0_plus=(Mat2(0.0, 1.0, 1.0, 0.0), Vec2(0.0, 1.0)),
                             order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, 1.0)))]
        calls = 0
        solve = np.linalg.solve

        def counting(*args):
            nonlocal calls
            calls += 1
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        for sys, holds in zip(systems, (True, False)):
            calls = 0
            assert check_hypotheses(sys).h3_global_center is holds
            assert calls == 1


class TestZone:
    SYS = canonical_system(1.0, -1.0, 1.01, 0.1, 0.55,
                           B_minus=[[-1.0, 0.3], [0.7, -1.0]], v_minus=[-2.65, 0.4],
                           B_plus=[[0.21, -0.5], [0.2, 0.1]], v_plus=[0.3, -0.2],
                           C_minus=[[0.6, 0.1], [-0.3, 0.9]], w_minus=[0.05, 0.7],
                           C_plus=[[-0.4, 0.2], [0.8, 0.3]], w_plus=[-0.6, 0.25],
                           epsilon=0.37)

    @staticmethod
    def entry_arrays(sys, side):
        """The resolved floats of ``side`` as the (matrix, offset) arrays."""
        entries = sys._entries[side]
        return np.array(entries[:4]).reshape(2, 2), np.array(entries[4:])

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_bitwise_equal_to_the_orders(self, side):
        for got, want in zip(self.entry_arrays(self.SYS, side), zone_arrays(self.SYS, side)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_copies_resolve_at_their_own_eps(self, side):
        self.entry_arrays(self.SYS, side)
        for copy in (self.SYS.with_epsilon(0.02), dataclasses.replace(self.SYS, epsilon=1.5)):
            for got, want in zip(self.entry_arrays(copy, side), zone_arrays(copy, side)):
                assert got.tobytes() == want.tobytes()

    def test_resolution_keeps_equality_and_hash(self):
        a = canonical_system(1.0, -1.0, 1.01, 0.1, 0.55, v_minus=[0.3, 0.1], epsilon=0.1)
        b = canonical_system(1.0, -1.0, 1.01, 0.1, 0.55, v_minus=[0.3, 0.1], epsilon=0.1)
        entries = a._entries
        assert a == b and hash(a) == hash(b)
        assert entries == b._entries

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError, match="^side must be 'plus' or 'minus'$"):
            self.SYS.orders("left")

    def test_float_entries_are_the_arrays(self):
        # the six floats per side that the engine reads are the order
        # expression A + eps*B + eps^2*C, u + eps*v + eps^2*w in numpy, to
        # the bit, on seeded systems over six decades and both examples at
        # four eps
        systems = [example_one(), example_two()] + list(seeded_systems(71, 1000))
        for base in systems:
            for eps in (0.0, 1e-3, 1e-2, 0.5):
                sys = base.with_epsilon(eps)
                for side in ("plus", "minus"):
                    assert all(type(v) is float for v in sys._entries[side])
                    for got, want in zip(self.entry_arrays(sys, side), zone_arrays(sys, side)):
                        assert got.tobytes() == want.tobytes()


class TestJsonSchema:
    def test_round_trip(self):
        sys = canonical_system(1.0, -1.0, 1.01, 0.1, 0.55,
                               B_minus=[[-1, 0], [0, -1]], v_minus=[-2.65, 0],
                               B_plus=[[0.21, 0], [0, 0]], epsilon=0.25)
        again = PwlSystem.from_json(sys.to_json())
        assert again == sys

    def test_missing_order0_rejected(self):
        with pytest.raises(ValueError, match="order0"):
            PwlSystem.from_dict({"epsilon": 0.0})

    def test_bad_matrix_shape_rejected(self):
        data = json.loads(canonical_system(0, -1, 1, 1, 1).to_json())
        data["order0"]["plus"]["matrix"] = [1, 2, 3]
        with pytest.raises(ValueError, match="order0.plus.matrix"):
            PwlSystem.from_dict(data)

    def test_missing_higher_orders_default_to_zero(self):
        data = json.loads(canonical_system(0, -1, 1, 1, 1).to_json())
        del data["order1"], data["order2"]
        sys = PwlSystem.from_dict(data)
        assert sys.order1_minus[0] == Mat2.zero()


class TestFloatFields:
    def test_canonical_system_fields_are_floats(self):
        sys = canonical_system(np.float64(1.0), -1, 1.01, 0.1, 0.55,
                               B_minus=np.eye(2), v_minus=[1, 2],
                               B_plus=[[0.21, 0], [0, 0]], C_minus=np.ones((2, 2)),
                               w_plus=np.array([0.5, -0.5]), epsilon=np.float64(1e-2))
        values = [sys.epsilon]
        for f in dataclasses.fields(sys):
            if f.name.startswith("order"):
                m, u = getattr(sys, f.name)
                values += [m.m11, m.m12, m.m21, m.m22, u.x, u.y]
        assert len(values) == 37
        assert all(type(v) is float for v in values)


class TestPublicApi:
    def test_exports_are_pinned(self):
        # a change to the package's public names must be deliberate: update
        # this list with it and say so in the change log
        import pwlcycles
        assert sorted(pwlcycles.__all__) == [
            "CanonicalParams", "ChangeOfVariables", "CycleKind", "EctVerdict",
            "FoldPoint", "FunctionFamily", "HypothesisReport", "InfinityReport",
            "Mat2", "MelnikovParams", "MelnikovReport", "PwlSystem", "ReducedParams",
            "RegionKind", "RootFlag", "SimultaneityReport", "SlidingParams",
            "SlidingReport", "Stability", "Trajectory", "Vec2", "Visibility",
            "WronskianProfile", "amplitude_family", "canonical_system", "canonicalize",
            "check_ect", "check_hypotheses", "classify_point", "classify_stability",
            "constrained_family", "detect_sliding_cycle", "displacement", "find_folds",
            "find_roots", "infinity_stability", "m1", "m1_constrained", "m1_reduced",
            "melnikov_oracle", "poincare_displacement", "s_maps", "simulate",
            "simulate_sliding_cycle", "simultaneity_report", "sliding_field",
            "thresholds", "wronskian",
        ]

    def test_exports_resolve_and_submodules_stay_attributes(self):
        # every listed name is bound, and the submodules left out of
        # __all__ are still reached by attribute, as benchmark code does
        import types

        import pwlcycles
        assert len(set(pwlcycles.__all__)) == len(pwlcycles.__all__) == 48
        for name in pwlcycles.__all__:
            assert not isinstance(getattr(pwlcycles, name), types.ModuleType), name
        for name in ("core", "ect", "errors", "flow", "infinity", "melnikov", "sigma",
                     "sliding"):
            assert isinstance(getattr(pwlcycles, name), types.ModuleType)
        assert callable(pwlcycles.ect.amplitude_w0)

    # closed forms of the paper that no src/ module calls; they stay shipped
    # so that exact eps-expansions of the return map can be checked on them
    KEPT_CLOSED_FORMS = {
        ("ect", "constrained_w1_tilde_slope"),
        ("infinity", "left_radial_correction"), ("melnikov", "reduced_limit_at_zero"),
        ("sigma", "fold_series_minus"), ("sigma", "fold_series_plus"),
        ("sliding", "s_maps_general_order1"),
    }

    @staticmethod
    def _trees(folder):
        """Syntax tree of each module in ``folder``, by module name."""
        import ast
        return {p.stem: ast.parse(p.read_text()) for p in sorted(folder.glob("*.py"))}

    @staticmethod
    def _uses(trees):
        """(top-level statement, the names it references) for each statement
        of the modules other than ``__init__``, whose imports are the exports.
        References are names, attributes and imported names in the syntax
        tree, so a mention in a docstring or a comment does not count."""
        import ast
        uses = []
        for mod, tree in trees.items():
            if mod == "__init__":
                continue
            for stmt in tree.body:
                names = set()
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.alias):
                        names.add(node.name)
                uses.append((stmt, names))
        return uses

    def test_every_public_definition_is_used(self):
        # a guard against regrowth: each public module-level function or
        # class in src/ is referenced by src/ code outside its own
        # definition, exported, or a kept closed form
        import ast
        import pathlib

        import pwlcycles
        trees = self._trees(pathlib.Path(pwlcycles.__file__).parent)
        uses = self._uses(trees)
        public = {(mod, stmt.name): stmt for mod, tree in trees.items() for stmt in tree.body
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and not stmt.name.startswith("_")}
        assert self.KEPT_CLOSED_FORMS <= public.keys()
        unused = [f"{mod}.{name}" for (mod, name), stmt in public.items()
                  if name not in pwlcycles.__all__
                  and (mod, name) not in self.KEPT_CLOSED_FORMS
                  and not any(name in names for other, names in uses if other is not stmt)]
        assert unused == []

    def test_every_private_definition_is_used(self):
        # the private twin of the guard above: each private module-level
        # function, class or constant in src/ is referenced by src/ code
        # outside its own definition, so a helper or a constant that loses
        # its last src/ reader leaves with it, even if a test still reads it
        import ast
        import pathlib

        import pwlcycles
        trees = self._trees(pathlib.Path(pwlcycles.__file__).parent)
        uses = self._uses(trees)
        private = {}
        for mod, tree in trees.items():
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    names = [node.id for target in stmt.targets for node in ast.walk(target)
                             if isinstance(node, ast.Name)]
                else:
                    names = []
                private.update(((mod, name), stmt) for name in names
                               if name.startswith("_") and not name.startswith("__"))
        assert ("melnikov", "_bisect") in private and ("flow", "_NOISE") in private
        unused = [f"{mod}.{name}" for (mod, name), stmt in private.items()
                  if not any(name in names for other, names in uses if other is not stmt)]
        assert unused == []

    # conversions offered to the package's users that no src/ code calls
    USER_CONVERSIONS = {
        ("PwlSystem", "to_json"), ("PwlSystem", "from_json"), ("MelnikovReport", "to_json"),
        ("SimultaneityReport", "to_json"), ("ReducedParams", "from_params"),
    }

    def test_every_public_member_is_used(self):
        # the member-level twin of the guard above: each public method or
        # property of a class in src/ is read as an attribute by src/ code
        # outside its own definition, or is a user conversion.  An attribute
        # of a module (np.linalg.solve, math.inf, acceptance.run_all) is not
        # a member read
        import ast
        import importlib
        import pathlib
        import types

        import pwlcycles
        trees = self._trees(pathlib.Path(pwlcycles.__file__).parent)
        members = {(cls.name, node.name): node for tree in trees.values()
                   for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}

        def resolve(node, namespace):
            """The object a dotted name stands for, or None."""
            if isinstance(node, ast.Name):
                return namespace.get(node.id)
            if isinstance(node, ast.Attribute):
                return getattr(resolve(node.value, namespace), node.attr, None)
            return None

        reads = []
        for mod, tree in trees.items():
            module = pwlcycles if mod == "__init__" else importlib.import_module(
                f"pwlcycles.{mod}")
            reads += [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                      and not isinstance(resolve(node.value, vars(module)), types.ModuleType)]

        def read_outside(name, definition):
            inside = {id(node) for node in ast.walk(definition)}
            return any(node.attr == name and id(node) not in inside for node in reads)

        assert self.USER_CONVERSIONS <= members.keys()
        unused = sorted(f"{cls}.{name}" for (cls, name), definition in members.items()
                        if (cls, name) not in self.USER_CONVERSIONS
                        and not read_outside(name, definition))
        assert unused == []

    def test_one_home_for_the_arc_term(self):
        # a guard against a second copy of M1's arc term G, whose one home is
        # melnikov._ARC_TERM in arctan form (m1 and m1_constrained read its
        # per-amplitude companion H): arccos is named only by the flow's half-cosine
        # step, which is not the arc term, and the verbatim legacy fixture
        import ast
        import pathlib

        import pwlcycles
        naming = set()
        for mod, tree in self._trees(pathlib.Path(pwlcycles.__file__).parent).items():
            for stmt in tree.body:
                for node in ast.walk(stmt):
                    name = (getattr(node, "id", None) or getattr(node, "attr", None)
                            or getattr(node, "name", None))
                    if name in ("arccos", "acos"):
                        naming.add(f"{mod}.{getattr(stmt, 'name', stmt.lineno)}")
        assert naming == {"flow._certificates", "examples.example_two_nominal_m1"}

    def test_one_home_for_the_bisection(self):
        # a guard against a second bisection loop: the only function in src/
        # with a loop that forms a midpoint 0.5 * (x + y) is melnikov._bisect,
        # which find_roots, check_ect, the event search and the sliding
        # travel-time inversion all refine their brackets with
        import ast
        import pathlib

        import pwlcycles
        bisecting = set()
        for mod, tree in self._trees(pathlib.Path(pwlcycles.__file__).parent).items():
            for stmt in tree.body:
                for loop in ast.walk(stmt):
                    if isinstance(loop, (ast.For, ast.While)) and any(
                            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                            and getattr(node.left, "value", None) == 0.5
                            and isinstance(node.right, ast.BinOp)
                            and isinstance(node.right.op, ast.Add)
                            for node in ast.walk(loop)):
                        bisecting.add(f"{mod}.{getattr(stmt, 'name', stmt.lineno)}")
        assert bisecting == {"melnikov._bisect"}

    def test_one_home_for_the_branch_rule(self):
        # a guard against a second copy of the zone flow's branch rule: only
        # AffineFlow compares w2, whose sign picks the branch of _cs
        # (oscillatory, hyperbolic or nilpotent); the event search reads the
        # branch it decided
        import ast
        import pathlib

        import pwlcycles
        comparing = set()
        for mod, tree in self._trees(pathlib.Path(pwlcycles.__file__).parent).items():
            for stmt in tree.body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Compare) and any(
                            "w2" in (getattr(n, "id", None), getattr(n, "attr", None))
                            for n in ast.walk(node)):
                        comparing.add(f"{mod}.{getattr(stmt, 'name', stmt.lineno)}")
        assert comparing == {"flow.AffineFlow"}

    def test_every_keyword_only_parameter_is_passed(self):
        # a guard against regrowth: each keyword-only parameter of a public
        # module-level function in src/ is passed by name at a call of that
        # function in src/ or perfbench/, so no keyword is set by tests alone
        import ast
        import pathlib

        import pwlcycles
        src = self._trees(pathlib.Path(pwlcycles.__file__).parent)
        bench = self._trees(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
        assert bench
        passed = set()
        for tree in [*src.values(), *bench.values()]:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    passed.update((name, kw.arg) for kw in node.keywords)
        keywords = [(stmt.name, arg.arg) for tree in src.values() for stmt in tree.body
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
                    for arg in stmt.args.kwonlyargs]
        assert ("simulate", "max_segments") in keywords
        assert [k for k in keywords if k not in passed] == []
