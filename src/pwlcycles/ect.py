"""Wronskians and numeric extended-Chebyshev checks for the function
families behind the root-count bounds.

A family (g0, ..., gk) on an interval is an extended complete Chebyshev
system when every leading Wronskian W(g0..gs) is nonvanishing there; any
nontrivial combination then has at most k zeros counting multiplicity.
The checks here are numeric evidence on a grid, never proofs, and the
verdicts say so.  Every family carries analytic derivatives of the orders
its Wronskians read; finite differences are a test reference
(``stencil_family`` in ``tests/oracles.py``), not a fallback.

A family may also carry its leading Wronskians in closed form, as the two
shipped families do (``amplitude_w0..w3`` and ``constrained_w1``).
``check_ect`` then scans those on its grid and refines each sign change by
scalar bisection of the closed form; a family without them is scanned
through determinants of its derivative matrices.  ``wronskian`` is always
the determinant, so the closed forms can be checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .melnikov import _ARC_TERM, _atan_of

PUNCTURE_RADIUS = 1e-6  # scan grids skip points this close to a puncture
ECT_GRID = 1024        # points of the Wronskian scan of check_ect


@dataclass(frozen=True)
class FunctionFamily:
    """Ordered scalar functions on an open interval, with their derivatives.

    Members and derivatives take a float array and return an array of its
    shape, or a scalar (``lambda s: 1.0``), which is broadcast.
    ``derivatives[i][k-1]`` is the k-th derivative of member i; each member
    has at least ``len(members) - 1`` of them, the orders the leading
    Wronskians read.  ``interval`` is ``(lo, hi)`` with finite ends and
    ``0 < lo < hi``: the families behind the bounds live on amplitudes
    s > 0, and the scan grid is log-spaced.  ``punctures`` are isolated
    points excluded from scan grids (removable factors of closed forms).
    ``wronskians`` is empty, or one closed form per leading order:
    ``wronskians[k]`` is W(g0..gk), taking a float (giving a float) or an
    array (giving an array of its shape, or a scalar, which is broadcast).
    ``check_ect`` scans and refines those when they are given, and the
    determinants of the derivative matrices when they are not.  A family
    that breaks these rules raises ``ValueError`` naming the field.
    """

    members: tuple
    interval: tuple
    derivatives: tuple
    punctures: tuple = ()
    wronskians: tuple = ()

    def __post_init__(self):
        lo, hi = self.interval
        if not 0 < lo < hi < math.inf:
            raise ValueError(f"interval must have finite ends 0 < lo < hi, got {self.interval}")
        need = len(self.members) - 1
        if len(self.derivatives) != len(self.members) \
                or any(len(ds) < need for ds in self.derivatives):
            raise ValueError(f"derivatives must give each of the {len(self.members)} "
                             f"members its first {need} derivatives")
        if self.wronskians and len(self.wronskians) != len(self.members):
            raise ValueError(f"wronskians must be empty or give one closed form for each "
                             f"of the {len(self.members)} orders, got {len(self.wronskians)}")


def _matrices(fam: FunctionFamily, n: int, s) -> np.ndarray:
    """Derivative matrices [d^k g_i](s) for k, i < n, stacked over the points
    of s.  Each function is called on s itself, and the assignment
    broadcasts a scalar return."""
    mat = np.empty(np.shape(s) + (n, n))
    for i in range(n):
        fs = (fam.members[i], *fam.derivatives[i])
        for k in range(n):
            mat[..., k, i] = fs[k](s)
    return mat


def wronskian(fam: FunctionFamily, order: int, s0):
    """Determinant of the (order+1)x(order+1) derivative matrix at s0, a
    float (giving a float) or an array of points (giving an array)."""
    if not 0 <= order < len(fam.members):
        raise ValueError(f"order must be in [0, {len(fam.members)}), the number of "
                         f"members, got {order}")
    lo, hi = fam.interval
    s = np.asarray(s0, dtype=float)
    outside = s[~((lo < s) & (s < hi))]
    if outside.size:
        raise ValueError(f"s0={outside.flat[0]} outside the family interval {fam.interval}")
    det = np.linalg.det(_matrices(fam, order + 1, s if s.shape else float(s)))
    return det if s.shape else float(det)


class EctVerdict(Enum):
    ECT = "ECT"
    ET_WITH_ACCURACY = "ET_withAccuracy"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class WronskianProfile:
    grid: np.ndarray
    values: np.ndarray        # shape (orders, len(grid))
    sign_changes: list = field(default_factory=list)
    zero_candidates: list = field(default_factory=list)

    def to_csv(self) -> str:
        orders = self.values.shape[0]
        header = "s0," + ",".join(f"W{k}" for k in range(orders))
        lines = [header]
        for j, s0 in enumerate(self.grid):
            row = ",".join(f"{self.values[k, j]:.17g}" for k in range(orders))
            lines.append(f"{s0:.17g},{row}")
        return "\n".join(lines) + "\n"


def check_ect(fam: FunctionFamily):
    """Scan all leading Wronskians on ``ECT_GRID`` points over the family's
    interval and classify the family.  The Wronskians are the family's
    closed forms if it has them, else determinants of derivative matrices.

    ECT: every order is bounded away from zero (min |Wk| > 1e-8 * scale).
    ET_withAccuracy: only the last order changes sign, exactly once, at a
    simple zero.  Anything else is Inconclusive.  Numeric evidence only.
    """
    lo, hi = fam.interval
    # log-spaced, strictly inside the open interval
    grid = np.geomspace(lo * (1 + 1e-12), hi * (1 - 1e-12), ECT_GRID)
    for p in fam.punctures:
        grid = grid[np.abs(grid - p) > PUNCTURE_RADIUS]
    orders = len(fam.members)
    if fam.wronskians:
        values = np.empty((orders, len(grid)))
        for k, w in enumerate(fam.wronskians):
            values[k] = w(grid)
    else:
        mats = _matrices(fam, orders, grid)
        values = np.stack([np.linalg.det(mats[:, :k + 1, :k + 1]) for k in range(orders)])

    profile = WronskianProfile(grid=grid, values=values)
    raw = np.sign(values)
    order, j = np.nonzero(raw[:, :-1] * raw[:, 1:] < 0)
    refine = _bisect_closed_forms if fam.wronskians else _bisect
    zeros = refine(fam, order, grid[j], grid[j + 1], values[order, j] > 0)
    bounded = []
    for k in range(orders):
        v = values[k]
        scale = max(float(np.abs(v).max()), 1e-300)
        negligible = np.abs(v) <= 1e-10 * scale
        sgn = np.sign(v)
        sgn[negligible] = 0.0
        nz = sgn[sgn != 0.0]
        changes = int(np.sum(nz[:-1] * nz[1:] < 0)) if len(nz) > 1 else 0
        profile.sign_changes.append(changes)
        cand = zeros[order == k].tolist()
        profile.zero_candidates.append(cand)
        bounded.append(float(np.abs(v).min()) > 1e-8 * scale and changes == 0
                       and not cand)

    if all(bounded):
        return profile, EctVerdict.ECT
    if all(bounded[:-1]) and profile.sign_changes[-1] == 1 \
            and len(profile.zero_candidates[-1]) == 1:
        z = profile.zero_candidates[-1][0]
        h = 1e-6 * max(1.0, abs(z))
        if fam.wronskians:
            w_lo, w_hi = fam.wronskians[-1](z - h), fam.wronskians[-1](z + h)
        else:
            w_lo, w_hi = wronskian(fam, orders - 1, np.array([z - h, z + h]))
        slope = (w_hi - w_lo) / (2 * h)
        vscale = max(float(np.abs(values[-1]).max()), 1e-300)
        if abs(slope) > 1e-8 * vscale:
            return profile, EctVerdict.ET_WITH_ACCURACY
    return profile, EctVerdict.INCONCLUSIVE


_BISECT_STEPS = 80  # halvings of each Wronskian bracket, _BISECT_DEPTH per round
_BISECT_DEPTH = 5


def _bisect_closed_forms(fam: FunctionFamily, order, a, b, positive) -> np.ndarray:
    """Bisected zeros of W_order in the brackets [a, b], as ``_bisect``, by
    plain bisection of the family's closed forms on floats: at most
    ``_BISECT_STEPS`` halvings per bracket, stopping once the midpoint
    rounds onto an end."""
    zeros = []
    for k, lo, hi, pos in zip(order.tolist(), a.tolist(), b.tolist(), positive.tolist()):
        w = fam.wronskians[k]
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if (w(mid) > 0) == pos:
                lo = mid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    return np.array(zeros)


def _bisect(fam: FunctionFamily, order, a, b, positive) -> np.ndarray:
    """Bisected zeros of W_order in the brackets [a, b], with ``positive`` the
    sign of W at a.  A round evaluates the midpoint tree of the next depth
    steps, built as bisection builds it, and walks it: the result is plain
    bisection's.  A midpoint rounding onto an end cannot move, so rounds stop
    once all do."""
    steps = [2 ** d for d in range(_BISECT_DEPTH, -1, -1)]  # leaves, ..., 2, 1
    rows = np.arange(len(a))
    n = int(order.max(initial=0)) + 1
    groups = [(k, order == k) for k in np.unique(order)]
    for _ in range(_BISECT_STEPS // _BISECT_DEPTH):
        mid = 0.5 * (a + b)
        if np.all((mid == a) | (mid == b)):
            break
        pts = np.empty((len(a), steps[0] + 1))
        pts[:, 0], pts[:, -1] = a, b
        for step in steps[:-1]:
            pts[:, step // 2::step] = 0.5 * (pts[:, :-step:step] + pts[:, step::step])
        mats = _matrices(fam, n, pts[:, 1:-1])
        w = np.empty(mats.shape[:2])
        for k, sel in groups:
            w[sel] = np.linalg.det(mats[sel, :, :k + 1, :k + 1])
        right = (w > 0) == positive[:, None]  # W has its sign at a: step right
        lo = np.zeros(len(a), dtype=int)
        for step in steps[1:]:
            lo = lo + step * right[rows, lo + step - 1]
        a, b = pts[rows, lo], pts[rows, lo + 1]
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# the two concrete families behind the cycle counts
# ---------------------------------------------------------------------------

def _arc_at(beta: float, k: int):
    """s -> the k-th derivative of G(beta s), beta^k G^(k)(beta s)."""
    scale, g = beta ** k, _ARC_TERM[k]
    return lambda s: scale * g(beta * s)


def amplitude_family(beta: float, interval=(1e-2, 1e2)) -> FunctionFamily:
    """(s0, 1 + beta^2 s0^2, G(s0), G(beta s0)) with M1's arc term
    G(s) = (s^2+1)*arccos(2/(s^2+1) - 1) = 2(s^2+1)*arctan(s).

    Spans the rescaled Melnikov combination of the unconstrained case;
    analytic derivatives through third order are supplied.  The points
    s0 = 1 and s0 = 1/beta are punctured from scan grids (removable
    factors of the closed-form Wronskians).  beta = d/(e xi) must be finite
    and positive, and the interval must lie on s0 > 0, else ``ValueError``.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    b2 = beta * beta
    return FunctionFamily(
        members=(lambda s: s, lambda s: 1.0 + b2 * s * s, _ARC_TERM[0], _arc_at(beta, 0)),
        interval=interval,
        derivatives=((lambda s: 1.0, lambda s: 0.0, lambda s: 0.0),
                     (lambda s: 2.0 * b2 * s, lambda s: 2.0 * b2, lambda s: 0.0),
                     _ARC_TERM[1:],
                     tuple(_arc_at(beta, k) for k in (1, 2, 3))),
        punctures=(1.0, 1.0 / beta),
        wronskians=tuple(partial(w, beta) for w in (amplitude_w0, amplitude_w1,
                                                    amplitude_w2, amplitude_w3)),
    )


def constrained_family(interval=(1e-2, 1e2)) -> FunctionFamily:
    """(s0, pi(s0^2+1) - G(s0)), with G as in ``amplitude_family``.

    The second member is s0^2 G(1/s0): M1's constrained span {s0, G(s0)}
    under s0 -> 1/s0, times s0^2 > 0, which keeps zero counts.  It and its
    derivative are written with pi - 2 arctan(s0) = 2 arctan(1/s0), which
    does not cancel at large s0.  The interval must lie on s0 > 0, else
    ``ValueError``.
    """
    return FunctionFamily(
        members=(lambda s: s, lambda s: 2.0 * (s * s + 1.0) * np.arctan(1.0 / s)),
        interval=interval,
        derivatives=((lambda s: 1.0,), (lambda s: 4.0 * s * np.arctan(1.0 / s) - 2.0,)),
        punctures=(1.0,),
        wronskians=(lambda s: s, constrained_w1),
    )


# closed forms of the leading Wronskians of ``amplitude_family`` ------------
# Each takes a float (giving a float, with ``math``) or an array (giving an
# array, with numpy).

def _points(s0):
    """``s0`` as a float if it is a number or 0-d, else as a float array."""
    if isinstance(s0, float):
        return s0
    return float(s0) if np.ndim(s0) == 0 else np.asarray(s0, dtype=float)


def amplitude_w0(beta: float, s0):
    return _points(s0) + 0.0


def amplitude_w1(beta: float, s0):
    s0 = _points(s0)
    return beta * beta * s0 * s0 - 1.0


def amplitude_w2(beta: float, s0):
    s0 = _points(s0)
    u = s0 * s0 + 1.0
    return (2.0 * (beta * beta - 1.0) * 2.0 * _atan_of(s0)(s0)
            - 4.0 * (beta * beta + 1.0) * s0 / u)


def amplitude_w3(beta: float, s0):
    s0 = _points(s0)
    u = s0 * s0 + 1.0
    ub = beta * beta * s0 * s0 + 1.0
    num = 16.0 * beta ** 3 * (beta * beta - 1.0) * (
        2.0 * s0 * (s0 * s0 - 1.0) + u * u * 2.0 * _atan_of(s0)(s0))
    return num / (u * u * ub * ub)


def amplitude_w3_tilde_slope(beta: float, s0):
    """d/ds0 of W3*(beta^2 s0^2+1)^2: 256 beta^3 (beta^2-1) s0^2/(s0^2+1)^3;
    its sign is the sign of beta^3 (beta^2 - 1) for all s0 != 0."""
    s0 = np.asarray(s0, dtype=float)
    return 256.0 * beta ** 3 * (beta * beta - 1.0) * s0 * s0 / (s0 * s0 + 1.0) ** 3


def constrained_w1(s0):
    s0 = _points(s0)
    return -2.0 * s0 + (s0 * s0 - 1.0) * 2.0 * _atan_of(s0)(1.0 / s0)


def constrained_w1_tilde_slope(s0):
    """d/ds0 of W1/(s0^2-1): 8 s0^2 / ((s0^2-1)^2 (s0^2+1)), positive."""
    s0 = np.asarray(s0, dtype=float)
    return 8.0 * s0 * s0 / ((s0 * s0 - 1.0) ** 2 * (s0 * s0 + 1.0))
