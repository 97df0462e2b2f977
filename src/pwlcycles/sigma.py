"""Classification of the switching line, the Filippov sliding law, fold points.

All quantities are evaluated on the line x = 0 with h(x, y) = x, so the
one-sided normal components are just the first components of the zone
fields: Zh(0, y) = M[0,0]*0 + M[0,1]*y + u[0].  Each zone is read as the
six floats (m11, m12, m21, m22, u1, u2) that ``PwlSystem`` resolves once,
in float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import PwlSystem
from .errors import LineOfTangency, NotSlidingRegion

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
    plus, minus = sys._entries["plus"], sys._entries["minus"]
    return float(plus[1] * y + plus[4]), float(minus[1] * y + minus[4])


def _lie_scale(sys: PwlSystem, y: float) -> float:
    plus, minus = sys._entries["plus"], sys._entries["minus"]
    return max(1.0, abs(y)) * max(1.0, abs(plus[1]), abs(minus[1]))


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


class _SlidingSpeed:
    """Closed-form Filippov speed dy/dt = N(y)/D(y) along x = 0.

    Both zone fields are affine in y on the line: Z(0, y) = (al*y + ga,
    be*y + de) with al = M[0,1], ga = u[0], be = M[1,1], de = u[1].  The
    convex combination gives the quadratic
    N = (al- y + ga-)(be+ y + de+) - (al+ y + ga+)(be- y + de-) = A y^2 + B y + C
    over the linear D = (al- - al+) y + (ga- - ga+) = p y + q.  D does not
    vanish on a sliding or escaping segment; a real root of N there is a
    pseudo-equilibrium.
    """

    def __init__(self, sys: PwlSystem):
        _, al_p, _, be_p, ga_p, de_p = sys._entries["plus"]
        _, al_m, _, be_m, ga_m, de_m = sys._entries["minus"]
        self.A = al_m * be_p - al_p * be_m
        self.B = al_m * de_p + ga_m * be_p - al_p * de_m - ga_p * be_m
        self.C = ga_m * de_p - ga_p * de_m
        self.p = al_m - al_p
        self.q = ga_m - ga_p
        A, B, C = self.A, self.B, self.C
        self.disc = B * B - 4.0 * A * C
        if A == 0.0:
            self.roots = (-C / B,) if B != 0.0 else ()
        elif self.disc > 0.0:
            # cancellation-free pair: s/A and C/s
            s = -0.5 * (B + math.copysign(math.sqrt(self.disc), B))
            self.roots = (s / A, C / s)
        elif self.disc == 0.0:
            self.roots = (-0.5 * B / A,)
        else:
            self.roots = ()

    def numerator(self, y: float) -> float:
        return (self.A * y + self.B) * y + self.C

    def speed(self, y: float) -> float:
        return self.numerator(y) / (self.p * y + self.q)

    def time(self, ya: float, yb: float) -> float:
        """Signed time to slide from ya to yb: the integral of D/N over [ya, yb].

        Partial fractions by the roots of N; every logarithm is a log1p of
        the relative change, so roots far from a short segment lose no
        digits.  Requires no root of N in [ya, yb].
        """
        A, B, C, p, q = self.A, self.B, self.C, self.p, self.q
        h = yb - ya
        if A == 0.0:
            if B == 0.0:  # constant N
                return h * (0.5 * p * (ya + yb) + q) / C
            # D/N = p/B + (p r + q) / (B (y - r))
            r, = self.roots
            return (p * h + (p * r + q) * math.log1p(h / (ya - r))) / B
        if self.disc > 0.0:
            # D/N = sum over roots of (p r_i + q) / (N'(r_i) (y - r_i))
            r1, r2 = self.roots
            return ((p * r1 + q) * math.log1p(h / (ya - r1))
                    - (p * r2 + q) * math.log1p(h / (ya - r2))) / (A * (r1 - r2))
        # complex or double roots: D/N = (p/2A) N'/N + (q - p B/2A)/N
        log_ratio = math.log1p(h * (A * (ya + yb) + B) / self.numerator(ya))
        polar = A * ya * yb + 0.5 * B * (ya + yb) + C  # N(ya) when yb = ya
        if self.disc == 0.0:
            inv_n = h / polar
        else:
            w = math.sqrt(-self.disc)
            sgn = math.copysign(1.0, A)
            inv_n = 2.0 * sgn * math.atan2(0.5 * w * h, sgn * polar) / w
        return p / (2.0 * A) * log_ratio + (q - p * B / (2.0 * A)) * inv_n


def sliding_field(sys: PwlSystem, y: float) -> float:
    """dy/dt of the sliding motion at (0, y), by ``_SlidingSpeed``.

    Only defined on sliding/escaping segments.
    """
    kind = classify_point(sys, y)
    if kind not in (RegionKind.SLIDING, RegionKind.ESCAPING):
        raise NotSlidingRegion(f"point (0, {y}) is {kind.value}, not sliding/escaping")
    return _SlidingSpeed(sys).speed(y)


def find_folds(sys: PwlSystem) -> list[FoldPoint]:
    """Solve the affine tangency equation exactly on each side.

    Z h(0, y) = alpha*y + gamma with alpha = M[0,1], gamma = u[0]; a fold
    exists when alpha != 0, and its visibility is the sign of the second
    Lie derivative (Z^2 h) = M[0,1] * (dy/dt) at the fold.
    """
    folds: list[FoldPoint] = []
    for side in ("minus", "plus"):
        _, alpha, _, m22, gamma, u2 = sys._entries[side]
        scale = max(1.0, abs(alpha), abs(gamma))
        if abs(alpha) < 1e-14 * scale:
            if abs(gamma) < 1e-14 * scale:
                raise LineOfTangency(f"{side} field is tangent to x=0 identically")
            continue  # constant nonzero normal component: no tangency
        y_f = -gamma / alpha
        ydot = m22 * y_f + u2
        second = alpha * ydot
        if abs(second) < FOLD_TOL * max(1.0, abs(alpha) * max(1.0, abs(ydot))):
            # degenerate second contact (cusp); not modeled
            raise LineOfTangency(f"{side} fold at y={y_f} has vanishing second contact")
        if side == "plus":
            vis = Visibility.VISIBLE if second > 0 else Visibility.INVISIBLE
        else:
            vis = Visibility.VISIBLE if second < 0 else Visibility.INVISIBLE
        folds.append(FoldPoint(y=y_f, side=side, visibility=vis, second_lie=second))
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
