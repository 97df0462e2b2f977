"""Domain types for two-zone piecewise-linear systems and the reduction
to normal coordinates.

The plane is split by the switching line ``x = 0``; the "+" piece governs
``x >= 0`` and the "-" piece ``x <= 0``.  A system carries three
perturbation orders, so the zone field is

    Z(X) = (A + eps*B + eps^2*C) X + (u + eps*v + eps^2*w).

``canonicalize`` reduces the order-0 part of a system whose two pieces are
linear centers (a real one on the left, a virtual one for the right piece)
to the normal form

    left:  [[0, -1], [1, 0]] X + (0, e),
    right: [[a,  b], [c, -a]] X + (0, d),

with b < 0, c > 0, d > 0, e > 0 and a^2 + b*c = -xi^2 < 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryCase,
    DegenerateLinearPart,
    HypothesisViolation,
    NonCenterMinus,
    NotTraceFree,
    PwlError,
    SwitchingLineNotPreserved,
)

SIGN_MARGIN = 1e-10  # strict inequalities are tested with this margin


@dataclass(frozen=True)
class Mat2:
    """2x2 real matrix with named entries."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self):
        if not (math.isfinite(self.m11) and math.isfinite(self.m12)
                and math.isfinite(self.m21) and math.isfinite(self.m22)):
            name = next(n for n in ("m11", "m12", "m21", "m22")
                        if not math.isfinite(getattr(self, n)))
            raise ValueError(f"Mat2.{name} must be finite")

    @staticmethod
    def zero() -> "Mat2":
        return Mat2(0.0, 0.0, 0.0, 0.0)

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class Vec2:
    """Point or offset in the plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("Vec2 entries must be finite")

    @staticmethod
    def zero() -> "Vec2":
        return Vec2(0.0, 0.0)


ZonePair = tuple[Mat2, Vec2]


@dataclass(frozen=True)
class PwlSystem:
    """Two-zone piecewise-linear system expanded to second order.

    Each ``order*_plus/minus`` pair is (matrix, offset).  ``epsilon`` is the
    perturbation size at which the concrete vector field is evaluated.
    """

    order0_plus: ZonePair
    order0_minus: ZonePair
    order1_plus: ZonePair = (Mat2.zero(), Vec2.zero())
    order1_minus: ZonePair = (Mat2.zero(), Vec2.zero())
    order2_plus: ZonePair = (Mat2.zero(), Vec2.zero())
    order2_minus: ZonePair = (Mat2.zero(), Vec2.zero())
    epsilon: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and >= 0")

    def orders(self, side: str) -> tuple[ZonePair, ZonePair, ZonePair]:
        if side == "plus":
            return (self.order0_plus, self.order1_plus, self.order2_plus)
        if side == "minus":
            return (self.order0_minus, self.order1_minus, self.order2_minus)
        raise ValueError("side must be 'plus' or 'minus'")

    @cached_property
    def _entries(self) -> dict:
        """Each side's zone resolved once at this eps, as the six floats
        (m11, m12, m21, m22, u1, u2), entry by entry rounded as the array
        expressions A + eps*B + eps^2*C and u + eps*v + eps^2*w."""
        eps = float(self.epsilon)
        eps2 = eps * eps
        entries = {}
        for side in ("plus", "minus"):
            (a, u), (b, v), (c, w) = self.orders(side)
            entries[side] = (
                a.m11 + eps * b.m11 + eps2 * c.m11, a.m12 + eps * b.m12 + eps2 * c.m12,
                a.m21 + eps * b.m21 + eps2 * c.m21, a.m22 + eps * b.m22 + eps2 * c.m22,
                u.x + eps * v.x + eps2 * w.x, u.y + eps * v.y + eps2 * w.y)
        return entries

    def with_epsilon(self, eps: float) -> "PwlSystem":
        return PwlSystem(
            self.order0_plus, self.order0_minus,
            self.order1_plus, self.order1_minus,
            self.order2_plus, self.order2_minus,
            epsilon=eps,
        )

    # -- JSON wire format ------------------------------------------------
    # {"order0": {"plus": {"matrix": [...4], "offset": [...2]}, "minus": ...},
    #  "order1": ..., "order2": ..., "epsilon": s}
    # order1/order2 may be omitted and default to zero.

    def to_dict(self) -> dict:
        def pair(p: ZonePair) -> dict:
            m, u = p
            return {"matrix": [m.m11, m.m12, m.m21, m.m22], "offset": [u.x, u.y]}

        return {
            "order0": {"plus": pair(self.order0_plus), "minus": pair(self.order0_minus)},
            "order1": {"plus": pair(self.order1_plus), "minus": pair(self.order1_minus)},
            "order2": {"plus": pair(self.order2_plus), "minus": pair(self.order2_minus)},
            "epsilon": self.epsilon,
        }

    @staticmethod
    def from_dict(data: dict) -> "PwlSystem":
        def pair(order: str, side: str) -> ZonePair:
            block = data.get(order)
            if block is None:
                if order == "order0":
                    raise ValueError("missing required key 'order0'")
                return (Mat2.zero(), Vec2.zero())
            if not isinstance(block, dict):
                raise ValueError(f"'{order}' must be an object")
            if side not in block:
                raise ValueError(f"missing key '{order}.{side}'")
            entry = block[side]
            if not isinstance(entry, dict):
                raise ValueError(f"'{order}.{side}' must be an object")
            mat = entry.get("matrix")
            off = entry.get("offset")
            if not isinstance(mat, (list, tuple)) or len(mat) != 4:
                raise ValueError(f"'{order}.{side}.matrix' must be a 4-element row-major array")
            if not isinstance(off, (list, tuple)) or len(off) != 2:
                raise ValueError(f"'{order}.{side}.offset' must be a 2-element array")
            try:
                if any(isinstance(x, (bool, str)) for x in (*mat, *off)):
                    raise TypeError("booleans and strings are not numbers")
                m = Mat2(*(float(x) for x in mat))
                u = Vec2(*(float(x) for x in off))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"non-numeric entry in '{order}.{side}': {exc}") from exc
            return (m, u)

        if not isinstance(data, dict):
            raise ValueError("top-level JSON value must be an object")
        eps = data.get("epsilon", 0.0)
        if isinstance(eps, bool) or not isinstance(eps, (int, float)):
            raise ValueError("'epsilon' must be a number")
        return PwlSystem(
            order0_plus=pair("order0", "plus"),
            order0_minus=pair("order0", "minus"),
            order1_plus=pair("order1", "plus"),
            order1_minus=pair("order1", "minus"),
            order2_plus=pair("order2", "plus"),
            order2_minus=pair("order2", "minus"),
            epsilon=float(eps),
        )

    @staticmethod
    def from_json(text: str) -> "PwlSystem":
        return PwlSystem.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def canonical_system(a: float, b: float, c: float, d: float, e: float,
                     B_minus=None, v_minus=None, B_plus=None, v_plus=None,
                     C_minus=None, w_minus=None, C_plus=None, w_plus=None,
                     epsilon: float = 0.0) -> PwlSystem:
    """Build a system whose order-0 part is already in normal coordinates;
    every field is a Python float."""
    def mat(rows):
        if rows is None:
            return Mat2.zero()
        (m11, m12), (m21, m22) = rows
        return Mat2(float(m11), float(m12), float(m21), float(m22))

    def vec(pair):
        if pair is None:
            return Vec2.zero()
        x, y = pair
        return Vec2(float(x), float(y))

    a, b, c, d, e = (float(v) for v in (a, b, c, d, e))
    return PwlSystem(
        order0_plus=(Mat2(a, b, c, -a), Vec2(0.0, d)),
        order0_minus=(Mat2(0.0, -1.0, 1.0, 0.0), Vec2(0.0, e)),
        order1_plus=(mat(B_plus), vec(v_plus)),
        order1_minus=(mat(B_minus), vec(v_minus)),
        order2_plus=(mat(C_plus), vec(w_plus)),
        order2_minus=(mat(C_minus), vec(w_minus)),
        epsilon=float(epsilon),
    )


@dataclass(frozen=True)
class CanonicalParams:
    """The five scalars of the normal form plus xi = sqrt(-(a^2 + b*c))."""

    a: float
    b: float
    c: float
    d: float
    e: float
    xi: float


@dataclass(frozen=True)
class ChangeOfVariables:
    """Affine change ``Y = linear @ X + offset`` with time rescaling
    ``t_new = time_scale * t_old``.  Maps original coordinates to normal
    coordinates."""

    linear: tuple[tuple[float, float], tuple[float, float]]
    offset: tuple[float, float]
    time_scale: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.linear, dtype=float)

    def apply(self, point) -> np.ndarray:
        return self.matrix @ np.asarray(point, dtype=float) + np.array(self.offset)

    def map_time(self, t: float) -> float:
        return self.time_scale * t

    def push_system(self, sys: PwlSystem) -> PwlSystem:
        """Transform every perturbation order into the new coordinates."""
        p0, p1, p2, m0, m1, m2 = self._push_pairs(sys.orders("plus") + sys.orders("minus"))
        return PwlSystem(p0, m0, p1, m1, p2, m2, epsilon=sys.epsilon)

    def _push_pairs(self, pairs) -> list[ZonePair]:
        """Each pair (M, u) pushed by ``_pushed``, as records."""
        return [(Mat2(m11, m12, m21, m22), Vec2(x, y))
                for m11, m12, m21, m22, x, y in self._pushed(pairs)]

    def _pushed(self, pairs) -> list[tuple[float, ...]]:
        """For Y = Q X + q, tau = rho t each pair (M, u) becomes
        (Q M Q^-1 / rho, Q (u - M Q^-1 q) / rho), in float arithmetic with
        Q^-1 the adjugate over the determinant; returned as the six floats
        (m11, m12, m21, m22, x, y), which may be non-finite."""
        (q11, q12), (q21, q22) = self.linear
        det = q11 * q22 - q12 * q21
        i11, i12, i21, i22 = q22 / det, -q12 / det, -q21 / det, q11 / det
        s1, s2 = self.offset
        p1, p2 = i11 * s1 + i12 * s2, i21 * s1 + i22 * s2  # Q^-1 q
        rho = self.time_scale
        out = []
        for m, u in pairs:
            r11, r12 = q11 * m.m11 + q12 * m.m21, q11 * m.m12 + q12 * m.m22  # Q M
            r21, r22 = q21 * m.m11 + q22 * m.m21, q21 * m.m12 + q22 * m.m22
            w1 = u.x - (m.m11 * p1 + m.m12 * p2)
            w2 = u.y - (m.m21 * p1 + m.m22 * p2)
            out.append(((r11 * i11 + r12 * i21) / rho, (r11 * i12 + r12 * i22) / rho,
                        (r21 * i11 + r22 * i21) / rho, (r21 * i12 + r22 * i22) / rho,
                        (q11 * w1 + q12 * w2) / rho, (q21 * w1 + q22 * w2) / rho))
        return out


@dataclass(frozen=True)
class HypothesisReport:
    """Structural conditions for the center reduction.

    h1: the left piece is a linear center with a real singular point;
    h2: the right piece is a linear center with a virtual singular point;
    h3: the sign constraints of the normal form all hold.
    Singular points are reported in normal coordinates when the reduction
    exists, otherwise in the original ones.  ``reduction`` is the
    ``canonicalize`` result when the normal form exists, else None.
    """

    h1_real_center: bool
    h2_virtual_center: bool
    h3_global_center: bool
    singular_minus: Vec2
    singular_plus: Vec2
    reduction: tuple[CanonicalParams, ChangeOfVariables] | None = field(
        default=None, compare=False, repr=False)


def _margin(*values: float) -> float:
    return SIGN_MARGIN * max(1.0, *map(abs, values))


def _require_positive(value: float, margin: float, inside: str,
                      violation: type[PwlError], beyond: str) -> None:
    """Strict test ``value > 0``: ``BoundaryCase(inside)`` when value is
    inside the margin, ``violation(beyond)`` when it is below it."""
    if value <= margin:
        if abs(value) <= margin:
            raise BoundaryCase(inside)
        raise violation(beyond)


def _center_data(m11: float, m12: float, m21: float,
                 m22: float) -> tuple[float, float, float] | None:
    """(m11, m11^2 + m12*m21, the sign margin of that discriminant) of the
    trace-free representative of [[m11, m12], [m21, m22]], or None when the
    trace is structurally nonzero.  A linear piece is a center iff its
    trace vanishes and the discriminant is negative; tiny traces are
    symmetrized away.
    """
    scale = max(1.0, abs(m11), abs(m12), abs(m21), abs(m22))
    if abs(m11 + m22) > 1e-9 * scale:
        return None
    m11 = 0.5 * (m11 - m22)
    return m11, m11 * m11 + m12 * m21, _margin(m11 * m11, m12 * m21)


def _is_center(m: Mat2) -> bool:
    data = _center_data(m.m11, m.m12, m.m21, m.m22)
    return data is not None and data[1] < -data[2]


def _tangency_shift(sys: PwlSystem) -> float:
    """Common y-translation removing the first offset components.

    The reduction needs u1 = 0 on both sides; that is possible exactly when
    -u1^-/m12^- = -u1^+/m12^+ (the one-sided tangency points coincide, which
    is forced by the global-center hypothesis).  The caller has checked
    that the left m12 does not vanish.
    """
    (mm, um) = sys.order0_minus
    (mp, up) = sys.order0_plus
    km = um.x / mm.m12
    if abs(up.x) < 1e-14 and abs(um.x) < 1e-14:
        return 0.0
    if abs(mp.m12) < _margin(mp.m11, mp.m21, mp.m22):
        raise SwitchingLineNotPreserved("right-zone m12 vanishes with nonzero u1")
    kp = up.x / mp.m12
    if abs(km - kp) > 1e-9 * max(1.0, abs(km), abs(kp)):
        raise HypothesisViolation(
            "one-sided tangency points differ; no global center is possible")
    return km


def _raw_change(sys: PwlSystem) -> ChangeOfVariables:
    """The affine change and time rescale taking the left piece to the unit
    rotation with offset (0, e); raises when the left piece is no center."""
    (mm, _) = sys.order0_minus
    if abs(mm.m12) < _margin(mm.m11, mm.m21, mm.m22):
        raise SwitchingLineNotPreserved("left-zone m12 vanishes")
    data = _center_data(mm.m11, mm.m12, mm.m21, mm.m22)
    if data is None:
        raise NotTraceFree("left zone matrix has nonzero trace; cannot be a center")
    m11, disc, margin = data
    _require_positive(-disc, margin, "left-zone discriminant is numerically zero",
                      NonCenterMinus, "left zone has no center")
    rho = math.sqrt(-disc)
    kappa = _tangency_shift(sys)
    # Compose y -> y + kappa, then (x, y) -> (x, -m11*x - m12*y), then
    # (x, y, t) -> (rho*x, y, rho*t) into a single affine map Y = Q X + Q (0, kappa).
    return ChangeOfVariables(linear=((rho, 0.0), (-m11, -mm.m12)),
                             offset=(0.0, -mm.m12 * kappa), time_scale=rho)


def _normal_form(sys: PwlSystem, change: ChangeOfVariables) -> CanonicalParams:
    """Read (a, b, c, d, e, xi) off the order-0 pairs pushed through
    ``change`` and check the strict sign constraints of the normal form."""
    plus, minus = change._pushed((sys.order0_plus, sys.order0_minus))
    if not math.isfinite(sum(plus) + sum(minus)):
        # a non-finite entry: the records raise the ValueError that names it
        change._push_pairs((sys.order0_plus, sys.order0_minus))
    data = _center_data(*plus[:4])
    if data is None:
        raise NotTraceFree("right zone matrix has nonzero trace; cannot be a center")
    # the left side is now the unit rotation with offset (0, e)
    a, disc, _ = data
    b, c, d, e = plus[1], plus[2], plus[5], minus[5]
    margin = _margin(a, b, c, d, e)
    checks = (("b < 0", -b), ("c > 0", c), ("d > 0", d), ("e > 0", e), ("a^2 + b*c < 0", -disc))
    for label, val in checks:
        if val <= margin:  # a failing check, the only one whose messages are formatted
            _require_positive(val, margin, f"constraint {label} is inside the sign margin",
                              HypothesisViolation, f"constraint {label} fails after reduction")
    return CanonicalParams(a=a, b=b, c=c, d=d, e=e, xi=math.sqrt(-disc))


_REDUCTION_ERRORS = (SwitchingLineNotPreserved, NonCenterMinus, BoundaryCase,
                     HypothesisViolation, NotTraceFree)


def check_hypotheses(sys: PwlSystem) -> HypothesisReport:
    """Check the structural center hypotheses on the order-0 system.

    h1 holds when the left piece is a center whose singular point has
    x <= 0; h2 when the right piece is a center whose singular point has
    x <= 0 (virtual or on the boundary); h3 when the reduced parameters
    satisfy b < 0, c > 0, d > 0, e > 0 and a^2 + b*c < 0.
    """
    (mm, um) = sys.order0_minus
    (mp, up) = sys.order0_plus

    minus_center = _is_center(mm)
    for m in (mm, mp):
        if abs(m.det) < _margin(m.m11 * m.m22, m.m12 * m.m21):
            raise DegenerateLinearPart("zone matrix is singular; no isolated singular point")
    # one LAPACK solve for both zones: the reported points keep its rounding
    matrices = np.array((mm.m11, mm.m12, mm.m21, mm.m22, mp.m11, mp.m12, mp.m21, mp.m22))
    offsets = np.array((-um.x, -um.y, -up.x, -up.y))
    xm, ym, xp, yp = np.linalg.solve(matrices.reshape(2, 2, 2),
                                     offsets.reshape(2, 2, 1)).ravel().tolist()
    h1 = bool(minus_center and xm <= _margin(xm))
    h2 = bool(_is_center(mp) and xp <= _margin(xp))
    p_minus, p_plus = (xm, ym), (xp, yp)

    h3 = False
    reduction = None
    if minus_center:
        try:
            change = _raw_change(sys)
            reduction = (_normal_form(sys, change), change)
            h3 = h1 and h2
        except _REDUCTION_ERRORS:
            pass
    if reduction is not None:
        # normal-coordinate singular points: (-e, 0) and d/(a^2+bc)*(-b, a)
        _, change = reduction
        (l11, l12), (l21, l22) = change.linear
        o1, o2 = change.offset
        p_minus, p_plus = [(l11 * x + l12 * y + o1, l21 * x + l22 * y + o2)
                           for x, y in (p_minus, p_plus)]
    return HypothesisReport(
        h1_real_center=h1,
        h2_virtual_center=h2,
        h3_global_center=h3,
        singular_minus=Vec2(*p_minus),
        singular_plus=Vec2(*p_plus),
        reduction=reduction,
    )


def canonicalize(sys: PwlSystem) -> tuple[CanonicalParams, ChangeOfVariables]:
    """Reduce the order-0 part to normal coordinates.

    Returns the parameter tuple (a, b, c, d, e, xi) together with the
    composite affine change of variables and time rescaling.  Raises when a
    structural prerequisite fails, and ``BoundaryCase`` when one of the
    strict sign constraints falls inside the numerical margin.
    """
    change = _raw_change(sys)
    return _normal_form(sys, change), change
