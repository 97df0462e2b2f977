"""Classification of the switching line, sliding vector field, fold points.

All quantities are evaluated on the line x = 0 with h(x, y) = x, so the
one-sided normal components are just the first components of the zone
fields: Zh(0, y) = M[0,0]*0 + M[0,1]*y + u[0].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PwlSystem
from .errors import DenominatorVanishes, LineOfTangency, NotSlidingRegion

LIE_TOL = 1e-12   # a normal component below this (scaled) counts as tangent
FOLD_TOL = 1e-10  # second-contact threshold for fold nondegeneracy


class RegionKind(Enum):
    CROSSING = "Crossing"
    SLIDING = "Sliding"
    ESCAPING = "Escaping"
    TANGENCY_PLUS = "TangencyPlus"
    TANGENCY_MINUS = "TangencyMinus"
    DOUBLE_TANGENCY = "DoubleTangency"


class Visibility(Enum):
    VISIBLE = "Visible"
    INVISIBLE = "Invisible"


@dataclass(frozen=True)
class FoldPoint:
    y: float
    side: str                  # "plus" | "minus"
    visibility: Visibility
    second_lie: float          # (Z^2 h) at the fold, for diagnostics


def normal_components(sys: PwlSystem, y: float) -> tuple[float, float]:
    """(Z+ h, Z- h) at (0, y)."""
    (mp_, up), (mm, um) = sys.zone("plus"), sys.zone("minus")
    return float(mp_[0, 1] * y + up[0]), float(mm[0, 1] * y + um[0])


def _lie_scale(sys: PwlSystem, y: float) -> float:
    (mp_, _), (mm, _) = sys.zone("plus"), sys.zone("minus")
    return max(1.0, abs(y)) * max(1.0, abs(mp_[0, 1]), abs(mm[0, 1]))


def classify_point(sys: PwlSystem, y: float) -> RegionKind:
    """Region of the switching line at (0, y) by the signs of (Z+h, Z-h)."""
    zp, zm = normal_components(sys, y)
    tol = LIE_TOL * _lie_scale(sys, y)
    p_zero, m_zero = abs(zp) <= tol, abs(zm) <= tol
    if p_zero and m_zero:
        return RegionKind.DOUBLE_TANGENCY
    if p_zero:
        return RegionKind.TANGENCY_PLUS
    if m_zero:
        return RegionKind.TANGENCY_MINUS
    if zp * zm > 0:
        return RegionKind.CROSSING
    if zp < 0 < zm:
        return RegionKind.SLIDING
    return RegionKind.ESCAPING


def sliding_vector(sys: PwlSystem, y: float) -> np.ndarray:
    """Filippov convex-combination field at (0, y), both components."""
    point = np.array([0.0, y])
    fp = sys.field(point, "plus")
    fm = sys.field(point, "minus")
    zp, zm = fp[0], fm[0]
    den = zm - zp
    if abs(den) < 1e-14 * _lie_scale(sys, y):
        raise DenominatorVanishes("Z-h equals Z+h at the requested point")
    return (zm * fp - zp * fm) / den


def sliding_field(sys: PwlSystem, y: float) -> float:
    """dy/dt of the sliding motion at (0, y).

    Only defined on sliding/escaping segments.  The x-component of the
    convex combination vanishes there by construction; it is asserted to be
    zero within 1e-12 as a consistency check.
    """
    kind = classify_point(sys, y)
    if kind not in (RegionKind.SLIDING, RegionKind.ESCAPING):
        raise NotSlidingRegion(f"point (0, {y}) is {kind.value}, not sliding/escaping")
    vec = sliding_vector(sys, y)
    if abs(vec[0]) > 1e-12 * max(1.0, abs(vec[1])):
        raise AssertionError("sliding field acquired a normal component")
    return float(vec[1])


def find_folds(sys: PwlSystem) -> list[FoldPoint]:
    """Solve the affine tangency equation exactly on each side.

    Z h(0, y) = alpha*y + gamma with alpha = M[0,1], gamma = u[0]; a fold
    exists when alpha != 0, and its visibility is the sign of the second
    Lie derivative (Z^2 h) = M[0,1] * (dy/dt) at the fold.
    """
    folds: list[FoldPoint] = []
    for side in ("minus", "plus"):
        m, u = sys.zone(side)
        alpha, gamma = m[0, 1], u[0]
        scale = max(1.0, abs(alpha), abs(gamma))
        if abs(alpha) < 1e-14 * scale:
            if abs(gamma) < 1e-14 * scale:
                raise LineOfTangency(f"{side} field is tangent to x=0 identically")
            continue  # constant nonzero normal component: no tangency
        y_f = -gamma / alpha
        ydot = m[1, 0] * 0.0 + m[1, 1] * y_f + u[1]
        second = alpha * ydot
        if abs(second) < FOLD_TOL * max(1.0, abs(alpha) * max(1.0, abs(ydot))):
            # degenerate second contact (cusp); not modeled
            raise LineOfTangency(f"{side} fold at y={y_f} has vanishing second contact")
        if side == "plus":
            vis = Visibility.VISIBLE if second > 0 else Visibility.INVISIBLE
        else:
            vis = Visibility.VISIBLE if second < 0 else Visibility.INVISIBLE
        folds.append(FoldPoint(y=float(y_f), side=side, visibility=vis,
                               second_lie=float(second)))
    return folds


def fold_series_minus(sys: PwlSystem, eps: float) -> float:
    """Second-order series of the left fold position in the perturbation size.

    y = v1*eps + (w1 + v1*b12)*eps^2; kept as a cross-check against the
    exact affine solve, which is what ``find_folds`` uses.
    """
    (_, _), (b, v), (c, w) = sys.orders("minus")
    return v.x * eps + (w.x + v.x * b.m12) * eps * eps


def fold_series_plus(sys: PwlSystem, eps: float) -> float:
    """Second-order series of the right fold position (exact solve is primary)."""
    (a0, _), (b, v), (c, w) = sys.orders("plus")
    bb = a0.m12
    return -v.x * eps / bb + (v.x * b.m12 - bb * w.x) * eps * eps / (bb * bb)


def sliding_segment(sys: PwlSystem) -> tuple[float, float] | None:
    """The open interval of y between the two fold points, if both exist."""
    folds = find_folds(sys)
    if len(folds) != 2:
        return None
    lo, hi = sorted(f.y for f in folds)
    if hi - lo <= 0:
        return None
    return (lo, hi)
