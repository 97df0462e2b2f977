import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import field
from pwlcycles.core import canonical_system
from pwlcycles.errors import NotSlidingRegion
from pwlcycles.examples import example_two
from pwlcycles.sigma import (
    RegionKind,
    Visibility,
    classify_point,
    find_folds,
    fold_series_minus,
    fold_series_plus,
    normal_components,
    sliding_field,
)


def sliding_segment(sys) -> tuple[float, float] | None:
    """The open interval of y between the two fold points, if both exist."""
    folds = find_folds(sys)
    if len(folds) != 2:
        return None
    lo, hi = sorted(f.y for f in folds)
    if hi - lo <= 0:
        return None
    return (lo, hi)


def _filippov_vector(sys, y):
    """Filippov convex combination (Z-h Z+ - Z+h Z-) / (Z-h - Z+h) at (0, y),
    both components, from the two zone fields."""
    fp = field(sys, (0.0, y), "plus")
    fm = field(sys, (0.0, y), "minus")
    return (fm[0] * fp - fp[0] * fm) / (fm[0] - fp[0])


@pytest.fixture(scope="module")
def canon():
    return canonical_system(1.0, -1.0, 1.01, 0.1, 0.55)


@pytest.fixture(scope="module")
def ex2():
    return example_two(0.01)


class TestClassify:
    def test_crossing_above_origin(self, canon):
        assert classify_point(canon, 1.0) is RegionKind.CROSSING

    def test_double_tangency_at_origin(self, canon):
        assert classify_point(canon, 0.0) is RegionKind.DOUBLE_TANGENCY

    def test_sliding_between_folds(self, ex2):
        lo, hi = sliding_segment(ex2)
        assert classify_point(ex2, 0.5 * (lo + hi)) is RegionKind.SLIDING
        assert classify_point(ex2, hi + 0.01) is RegionKind.CROSSING
        assert classify_point(ex2, lo - 0.01) is RegionKind.CROSSING

    def test_single_tangencies_at_folds(self, ex2):
        lo, hi = sliding_segment(ex2)
        assert classify_point(ex2, hi) is RegionKind.TANGENCY_MINUS
        assert classify_point(ex2, lo) is RegionKind.TANGENCY_PLUS

    @given(y=st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_sign_dichotomy(self, y):
        sys = example_two(0.01)
        zp, zm = normal_components(sys, y)
        if min(abs(zp), abs(zm)) < 1e-9:
            return
        kind = classify_point(sys, y)
        assert kind in (RegionKind.CROSSING, RegionKind.SLIDING, RegionKind.ESCAPING)


class TestSlidingField:
    def test_requires_sliding_region(self, canon):
        with pytest.raises(NotSlidingRegion):
            sliding_field(canon, 1.0)

    def test_normal_component_vanishes_on_segment(self, ex2):
        lo, hi = sliding_segment(ex2)
        for y in np.linspace(lo, hi, 100)[1:-1]:
            vec = _filippov_vector(ex2, float(y))
            assert abs(vec[0]) < 1e-12

    @pytest.mark.parametrize("eps", [5e-3, 1e-2, 2e-2])
    def test_matches_the_convex_combination(self, eps):
        # the closed-form N/D law against the two zone fields combined
        sys = example_two(eps)
        lo, hi = sliding_segment(sys)
        for y in np.linspace(lo, hi, 202)[1:-1]:
            y = float(y)
            assert_allclose(sliding_field(sys, y), _filippov_vector(sys, y)[1],
                            rtol=1e-14, atol=0)

    def test_convex_combination_identity(self, ex2):
        lo, hi = sliding_segment(ex2)
        for y in np.linspace(lo, hi, 25)[1:-1]:
            y = float(y)
            fp = field(ex2, (0.0, y), "plus")
            fm = field(ex2, (0.0, y), "minus")
            alpha = fp[0] / (fp[0] - fm[0])
            blend = (1 - alpha) * fp + alpha * fm
            assert_allclose(sliding_field(ex2, y), blend[1], rtol=0, atol=1e-12)

    def test_quadratic_numerator_form(self):
        # Z-h * Z+_y - Z+h * Z-_y at (0, y) with no perturbation equals
        # y (a y - b e - d) for any normal-form parameters
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = rng.uniform(-1, 1)
            b = -rng.uniform(0.2, 2)
            xi = rng.uniform(0.2, 2)
            c = (a * a + xi * xi) / (-b)
            d, e = rng.uniform(0.1, 2), rng.uniform(0.1, 2)
            sys = canonical_system(a, b, c, d, e)
            y = float(rng.uniform(-3, 3))
            fp = field(sys, (0.0, y), "plus")
            fm = field(sys, (0.0, y), "minus")
            numerator = fm[0] * fp[1] - fp[0] * fm[1]
            assert_allclose(numerator, y * (a * y - b * e - d), rtol=1e-12, atol=1e-12)

    def test_pseudo_equilibrium_zeroes_numerator(self):
        a, b, d, e = -1.0, -1.0, 2.0, 1.0
        y_star = (d + b * e) / a
        assert abs(y_star * (a * y_star - b * e - d)) < 1e-15


class TestFolds:
    def test_unperturbed_folds_at_origin(self, canon):
        folds = {f.side: f for f in find_folds(canon)}
        assert_allclose(folds["minus"].y, 0.0, atol=1e-15)
        assert_allclose(folds["plus"].y, 0.0, atol=1e-15)
        assert folds["minus"].visibility is Visibility.VISIBLE
        assert folds["plus"].visibility is Visibility.INVISIBLE

    def test_example_two_fold_positions(self, ex2):
        folds = {f.side: f for f in find_folds(ex2)}
        assert_allclose(folds["minus"].y, 0.002, rtol=1e-12)
        assert_allclose(folds["plus"].y, -0.005, rtol=1e-12)
        assert folds["minus"].visibility is Visibility.VISIBLE
        assert folds["plus"].visibility is Visibility.INVISIBLE

    def test_fold_series_remainder_is_third_order(self):
        # exact affine solve minus the second-order series shrinks ~ eps^3
        def build(eps):
            return canonical_system(
                0.3, -1.2, (0.09 + 1.0) / 1.2, 0.8, 1.1,
                B_minus=[[0.2, 0.31], [0.11, -0.2]], v_minus=[0.17, 0.05],
                B_plus=[[0.1, -0.23], [0.4, -0.1]], v_plus=[-0.29, 0.07],
                C_minus=[[0.05, 0.13], [0.02, 0.04]], w_minus=[0.21, -0.08],
                C_plus=[[0.07, -0.11], [0.06, 0.03]], w_plus=[-0.13, 0.09],
                epsilon=eps)

        prev = None
        for eps in (1e-2, 5e-3, 2.5e-3):
            sys = build(eps)
            folds = {f.side: f for f in find_folds(sys)}
            err_m = abs(folds["minus"].y - fold_series_minus(sys, eps))
            err_p = abs(folds["plus"].y - fold_series_plus(sys, eps))
            if prev is not None:
                assert prev[0] / err_m > 6.0
                assert prev[1] / err_p > 6.0
            prev = (err_m, err_p)
