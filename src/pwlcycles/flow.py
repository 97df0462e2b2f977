"""Exact zone flows, event location and the event-driven simulator.

Each zone of a two-zone piecewise-linear system is an affine ODE
X' = M X + u whose flow is known in closed form through the 2x2 matrix
exponential (trace/trace-free splitting); ``AffineFlow`` gives it at any
perturbation order, and the half-return maps are its first events on
x = 0.  Events on the switching line x = 0 -- and on any horizontal
section -- are located on a closed-form coordinate function: its critical
times, also closed-form, split the time interval into monotone pieces, and
the first sign change is bisected to adjacent doubles, so no event is
skipped and no generic stepping error enters the simulation; on a spiral
the envelope of the extrema skips the pieces that cannot hold one.  Motion
inside sliding/escaping segments of the switching line follows the
Filippov law of ``sigma._SlidingSpeed``; its travel time is integrated in
closed form and inverted by bisection.  ``simulate`` records samples of
every segment and where they end, so ``Trajectory.segment_samples`` hands
each segment its own; the first-return maps (``displacement``,
``melnikov_oracle`` and ``infinity.poincare_displacement``) drive the same
engine without samples, so a zone arc costs one end-state evaluation, and
the folds are found only when the orbit reaches a point of x = 0 that is
not a crossing point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PwlSystem
from .errors import (
    DegenerateLinearPart,
    EventStall,
    LineOfTangency,
    MaxSegmentsExceeded,
    NonPositiveAmplitude,
    NoReturn,
)
from .sigma import (
    RegionKind,
    Visibility,
    _SlidingSpeed,
    classify_point,
    find_folds,
    normal_components,
)

TWO_PI = 2.0 * math.pi
EVENT_TOL = 1e-12     # a start this close to x = 0 (scaled) starts on it
SAMPLE_STRIDE = 32    # recorded samples per zone arc or sliding segment
RETURN_SEGMENTS = 64  # segment budget of a first return or a sliding loop
_NOISE = 64.0 * 2.0**-52  # rounding noise of a coordinate per unit of scale
_TINY = 2.0**-1022        # smallest normal double


# ---------------------------------------------------------------------------
# exact affine zone flow (any perturbation order folded in)
# ---------------------------------------------------------------------------

class AffineFlow:
    """Closed-form flow of X' = M X + u for a fixed 2x2 M and offset u.

    The zone is built from the six floats of (M, u) in float arithmetic
    that rounds as numpy's array expressions: the determinants are
    ``_det2``, numpy's value to the bit, and only the equilibrium is left to
    ``np.linalg.solve``, whose LAPACK solve rounds through fused
    multiply-adds that Python floats cannot express.
    """

    def __init__(self, M, u):
        M = np.asarray(M, dtype=float)
        (a, b), (c, d) = M.tolist()
        size = max(abs(a), abs(b), abs(c), abs(d))
        if abs(_det2(a, b, c, d)) < 1e-14 * max(1.0, size * size):
            raise DegenerateLinearPart("zone matrix is numerically singular")
        self._eq = tuple(np.linalg.solve(M, -np.asarray(u, dtype=float)).tolist())
        self._eq_size = _abs_max(self._eq)
        self.mu = mu = 0.5 * (a + d)
        # N = M - mu*I entry by entry, rounded as the array expression
        self._n = (a - mu, b - mu * 0.0, c - mu * 0.0, d - mu)
        self.N = np.array(self._n).reshape(2, 2)
        self.w2 = -_det2(*self._n)  # N^2 = w2 * I
        self.omega = math.sqrt(abs(self.w2)) if abs(self.w2) > 0 else 0.0

    def _cs(self, t, lib=np):
        """Scalar pair (c, s) with e^{Nt} = c I + s N; ``lib`` is numpy for
        arrays or math for a float."""
        w2 = self.w2
        if w2 < -1e-14:
            om = self.omega
            return lib.cos(om * t), lib.sin(om * t) / om
        if w2 > 1e-14:
            om = self.omega
            return lib.cosh(om * t), lib.sinh(om * t) / om
        z = w2 * t * t
        return 1.0 + z / 2.0 + z * z / 24.0, t * (1.0 + z / 6.0 + z * z / 120.0)

    def state(self, X0, t):
        """Flow of X0 after time t: the (2,) state for a float t, (n, 2) states
        for an array of n times.  One expression serves both, as numpy's
        functions take either, so a float t gives its entry of the array."""
        x, y = np.asarray(X0, dtype=float).tolist()
        e0, e1 = self._eq
        d0, d1 = x - e0, y - e1
        n00, n01, n10, n11 = self._n
        c, s = self._cs(t)
        ex = np.exp(self.mu * t)
        return np.array((ex * (c * d0 + s * (n00 * d0 + n01 * d1)) + e0,
                         ex * (c * d1 + s * (n10 * d0 + n11 * d1)) + e1)).T


def _det2(a, b, c, d):
    """``np.linalg.det`` of [[a, b], [c, d]] on floats, to the bit for finite
    entries that are zero or normal doubles.

    numpy factors the matrix by LAPACK's LU with partial pivoting and
    returns sign * exp(log|u00| + log|u11|): the pivot is the larger
    |column 0| entry, the first row on ties, the multiplier is c * (1/a)
    (c / a below the smallest normal double, as LAPACK divides there), and
    an exact zero pivot gives +0.0.  Where the exponential overflows,
    numpy's value is +-inf, and so is this one.
    """
    sign = 1.0
    if abs(c) > abs(a):
        a, b, c, d = c, d, a, b
        sign = -1.0
    if a == 0.0:
        return 0.0
    mult = c / a if abs(a) < _TINY else c * (1.0 / a)
    u11 = d - mult * b
    if u11 == 0.0:
        return 0.0
    if a < 0.0:
        sign = -sign
    if u11 < 0.0:
        sign = -sign
    try:
        return sign * math.exp(math.log(abs(a)) + math.log(abs(u11)))
    except OverflowError:
        return sign * math.inf


def _abs_max(pair):
    """max(|p0|, |p1|), NaN when either is NaN, as ``np.abs(pair).max()``."""
    a, b = abs(pair[0]), abs(pair[1])
    return a if a >= b or a != a else b


# ---------------------------------------------------------------------------
# event location on a closed-form coordinate
# ---------------------------------------------------------------------------

def _refine_crossing(g, t_lo, t_hi, tol):
    """Bisection of a bracketed sign change of g down to |t_hi-t_lo| < tol,
    or to adjacent doubles, whichever comes first."""
    g_lo = g(t_lo)
    for _ in range(200):
        if t_hi - t_lo < tol:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break
        g_mid = g(t_mid)
        if g_mid == 0.0:
            return t_mid
        if (g_mid > 0) == (g_lo > 0):
            t_lo, g_lo = t_mid, g_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi)


def _ieee(zone, m, P, Q, R, tau):
    """g at tau in numpy's arithmetic: +-inf or nan, and no warning."""
    with np.errstate(all="ignore"):
        c, s = zone._cs(tau, np)
        return float(np.exp(m * tau) * (P * c + Q * s) + R)


class _Coordinate:
    """One coordinate of a zone flow run forward in tau = |t|, minus a target.

    With m = direction*mu and (c, s) from ``AffineFlow._cs``, both even/odd
    in t, the coordinate is g(tau) = e^{m tau} (P c(tau) + Q s(tau)) + R with
    P = (X0 - equilibrium)[k], Q = direction*(N (X0 - equilibrium))[k] and
    R = equilibrium[k] - target.  Q is numpy's product, whose sum is fused.
    ``value`` is g on a float, as ``_cs(tau, math)`` computes it or as
    ``_ieee`` does where ``math`` raises; ``first`` is set on oscillatory arcs.
    """

    def __init__(self, zone: AffineFlow, X0, direction: float, component: int,
                 target: float):
        X0 = np.asarray(X0, dtype=float)
        e = zone._eq[component]
        self.zone = zone
        self.m = m = direction * zone.mu
        self.P = P = X0.tolist()[component] - e
        self.Q = Q = direction * float(zone.N[component] @ (X0 - zone._eq))
        self.R = R = e - target
        w2, om, exp = zone.w2, zone.omega, math.exp
        self.first = None
        if abs(w2) > 1e-14:
            cos, sin = (math.cos, math.sin) if w2 < 0.0 else (math.cosh, math.sinh)

            def value(tau):
                try:
                    return exp(m * tau) * (P * cos(om * tau) + Q * (sin(om * tau) / om)) + R
                except (OverflowError, ValueError):
                    return _ieee(zone, m, P, Q, R, tau)
            if w2 < 0.0:
                # g' e^{-m tau} = (mP + om q) cos(om tau) + (mq - om P) sin(om tau)
                # with q = Q/om, a single cosine A cos(om tau - phi)
                q = Q / om
                phi = math.atan2(m * q - om * P, m * P + om * q)
                self.first = (phi + 0.5 * math.pi) % math.pi
        else:
            def value(tau):
                z = w2 * tau * tau
                try:
                    return exp(m * tau) * (P * (1.0 + z / 2.0 + z * z / 24.0)
                                           + Q * (tau * (1.0 + z / 6.0 + z * z / 120.0))) + R
                except OverflowError:
                    return _ieee(zone, m, P, Q, R, tau)
        self.value = value

    def critical_times(self, t_end: float, k: int = 0):
        """The zeros of g' in (0, t_end) in increasing order, in closed form
        per branch of _cs, generated one by one; on an oscillatory arc, from
        the k-th critical time of its phase on."""
        zone, m, P, Q = self.zone, self.m, self.P, self.Q
        w2, om, first = zone.w2, zone.omega, self.first
        if P == 0.0 and Q == 0.0:  # the coordinate stays at its equilibrium value
            return
        if first is not None:
            n = (om * t_end - first) / math.pi  # the critical times are those of k < n
            while k < n:
                tau = (first + math.pi * k) / om
                k += 1
                if 0.0 < tau < t_end:
                    yield tau
            return
        if w2 > 1e-14:
            # g' e^{-m tau} = (mP + om q) cosh(om tau) + (mq + om P) sinh(om tau)
            q = Q / om
            den = m * q + om * P
            r = -(m * P + om * q) / den if den != 0.0 else math.inf
            if not abs(r) < 1.0:
                return
            tau = math.atanh(r) / om
        elif m * Q != 0.0:
            # near-nilpotent: g' e^{-m tau} = mP + Q + mQ tau to first order in w2
            tau = -(m * P + Q) / (m * Q)
        else:
            return
        if 0.0 < tau < t_end:
            yield tau


def first_component_zero(zone: AffineFlow, X0, direction: float, t_budget: float,
                         component: int = 0, target: float = 0.0):
    """First |t| in (0, t_budget] with state(X0, direction*t)[component] = target.

    Returns (t_signed, kind) with kind "cross" for a transversal crossing,
    "graze" when |g| is below 1e-11*max(1, |X0|, |equilibrium|) at an
    interior extremum (tangency) with no sign change before it, or
    (None, "none"); an extremum within rounding of the target is a graze
    whatever its computed sign.  The closed-form critical times split the
    interval into monotone pieces, so the first piece whose ends differ in
    sign holds the first crossing; it is bisected on the closed form down
    to adjacent doubles.  There is no piece budget: on an oscillatory arc
    the extremum at tau_k is R + S (-1)^k e^{m tau_k}, so once the two
    breakpoints after the one that set ref (or after the start) hold no
    event, m <= 0 ends the walk, and m > 0 jumps to two pieces before the
    first extremum whose deviation from R can reach the target.
    """
    X0 = np.asarray(X0, dtype=float)
    coord = _Coordinate(zone, X0, direction, component, target)
    scale = max(1.0, _abs_max(X0.tolist()), zone._eq_size)
    graze_tol = 1e-11 * scale
    # values below this are rounding noise with arbitrary sign; a start on
    # the section opens a monotone piece, so noise there is no crossing, and
    # neither is a near-zero extremum right after a tangent start
    noise = _NOISE * scale
    ref = 0.0  # the first value above the noise floor
    seen = -1  # breakpoints after the one that set ref, or after the start
    t_lo, t, crit = 0.0, 0.0, coord.critical_times(t_budget)
    while True:  # the start, the critical times, then t_budget
        v = coord.value(t)
        if ref == 0.0:
            if abs(v) > noise:
                ref, seen = v, -1
        elif abs(v) <= noise or (ref * v > 0.0 and abs(v) < graze_tol):
            # an extremum at the target to rounding, or just short of it
            if t != t_budget:
                return direction * t, "graze"
        elif ref * v < 0.0:
            return direction * _refine_crossing(coord.value, t_lo, t, 0.0), "cross"
        if t == t_budget:
            return None, "none"
        t_lo, seen = t, seen + 1
        if seen == 2 and coord.first is not None:
            m, first, om = coord.m, coord.first, zone.omega
            S = abs(coord.P * math.cos(first) + coord.Q / om * math.sin(first))
            # level: the least deviation from R of an extremum that holds an event;
            # k0: the first critical time whose extremum can reach it, at most the last
            level = max((coord.R if ref > 0.0 else -coord.R if ref else 0.0)
                        - graze_tol - noise, noise)
            k0 = min(((math.log(level) - math.log(S)) * om / m - first) / math.pi,
                     (om * t_budget - first) / math.pi) if m > 0.0 and S else math.inf
            if not k0 < math.inf:  # m <= 0: the extrema ahead lie between the last two
                return None, "none"
            j = math.floor(max(k0, 0.0)) - 2
            if (first + math.pi * (j - 1)) / om > t_lo:
                t_lo, crit = (first + math.pi * (j - 1)) / om, coord.critical_times(t_budget, j)
        t = next(crit, t_budget)


# ---------------------------------------------------------------------------
# trajectories and the simulator
# ---------------------------------------------------------------------------

ZONE_PLUS = "ZonePlus"
ZONE_MINUS = "ZoneMinus"
SLIDING = "Sliding"


@dataclass(frozen=True)
class SegmentInfo:
    kind: str
    t_start: float
    t_end: float


@dataclass(frozen=True)
class Crossing:
    t: float
    y: float
    into: str  # zone entered ("plus" | "minus")


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)    # (t, x, y) triples
    segments: list = field(default_factory=list)   # SegmentInfo
    crossings: list = field(default_factory=list)  # Crossing events on x = 0
    stopped: str = "t_max"                         # why the run ended
    direction: float = 1.0                         # -1.0 for a backward run
    _ends: list = field(default_factory=list, init=False, repr=False)  # len(samples) per segment

    def segment_kinds(self) -> list:
        return [s.kind for s in self.segments]

    def _close(self, kind: str, t_start: float, t_end: float) -> None:
        """Append a segment that owns the samples recorded since the last one."""
        self.segments.append(SegmentInfo(kind, t_start, t_end))
        self._ends.append(len(self.samples))

    def segment_samples(self):
        """Each segment with its samples, from its start point (the start of
        the run, or the last sample of the segment before) to its end point."""
        start = 0
        for seg, end in zip(self.segments, self._ends):
            yield seg, self.samples[start:end]
            start = end - 1

    def to_csv(self) -> str:
        """One row per sample, labelled with the kind of the segment that
        recorded it; the start belongs to the first segment."""
        kinds = [self.segments[0].kind if self.segments else ""]
        for seg, pts in self.segment_samples():
            kinds += [seg.kind] * (len(pts) - 1)
        rows = (f"{t:.17g},{x:.17g},{y:.17g},{kind}"
                for (t, x, y), kind in zip(self.samples, kinds))
        return "\n".join(["t,x,y,segment_kind", *rows]) + "\n"


def _zone_name(side: str) -> str:
    return ZONE_PLUS if side == "plus" else ZONE_MINUS


def _fold_map(sys: PwlSystem) -> dict:
    """Folds by side; empty when a side is tangent to x = 0 identically or
    has a degenerate fold, which leaves no sliding segment to follow."""
    try:
        return {f.side: f for f in find_folds(sys)}
    except LineOfTangency:
        return {}


def simulate(sys: PwlSystem, start, t_max: float, *, backward: bool = False,
             max_segments: int = 10_000) -> Trajectory:
    """Event-driven trajectory of the Filippov system from ``start``.

    Zone arcs use the exact affine flow; crossings of x = 0 are bisected on
    the closed form down to adjacent doubles, and a start within
    ``EVENT_TOL`` (scaled) of x = 0 starts on it.  On the switching line the
    point is classified: crossing points pass straight through, sliding and
    escaping points follow the Filippov field until a fold endpoint, and a
    double tangency stops the run.  More than ``max_segments`` segments
    raise ``MaxSegmentsExceeded``, a state that overflows ``EventStall``;
    a non-finite start or a t_max outside (0, inf) raises ``ValueError``.
    """
    traj = Trajectory(direction=-1.0 if backward else 1.0)
    for _ in _run(sys, start, t_max, max_segments, traj, record=True):
        pass
    return traj


def _run(sys: PwlSystem, start, t_max: float, max_segments: int, traj: Trajectory,
         record: bool):
    """Drive the simulator into ``traj``, yielding each crossing of x = 0 as
    it is recorded; a caller that stops iterating ends the run there.

    Segments, crossings and the stop reason are always kept; samples only
    when ``record`` is set.  The folds are found on the first landing on
    x = 0 at a point that is not a crossing point.
    """
    X = np.asarray(start, dtype=float).copy()
    size = float(np.abs(X).max())  # NaN when any entry is NaN
    if not math.isfinite(size):
        raise ValueError(f"start must be finite, got {tuple(X.tolist())}")
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    direction = traj.direction

    zones = {side: AffineFlow(*sys.zone(side)) for side in ("plus", "minus")}
    folds = None

    t_abs = 0.0  # unsigned elapsed time
    if record:
        traj.samples.append((0.0, float(X[0]), float(X[1])))

    snap = EVENT_TOL * max(1.0, size)
    mode: str
    if abs(X[0]) <= snap:
        X[0] = 0.0
        mode = "sigma"
    else:
        mode = "plus" if X[0] > 0 else "minus"

    n_segments = 0
    while t_abs < t_max and n_segments < max_segments:
        if mode == "sigma":
            kind = classify_point(sys, X[1])
            if kind is not RegionKind.CROSSING and folds is None:
                folds = _fold_map(sys)
            if kind is RegionKind.DOUBLE_TANGENCY:
                traj.stopped = "double_tangency"
                break
            if kind in (RegionKind.SLIDING, RegionKind.ESCAPING):
                mode = "sliding"
                continue
            if kind in (RegionKind.TANGENCY_PLUS, RegionKind.TANGENCY_MINUS):
                # landing at a fold: prefer the sliding branch when the
                # adjacent sliding segment attracts, else follow the
                # visible tangent orbit back into its zone
                side = "plus" if kind is RegionKind.TANGENCY_PLUS else "minus"
                f = folds.get(side)
                if f is not None and f.visibility is Visibility.VISIBLE:
                    mode = side
                else:
                    mode = "sliding"
                continue
            # a crossing point: both normal components share one nonzero sign
            zp, _ = normal_components(sys, X[1])
            side = "plus" if (zp > 0) == (direction > 0) else "minus"
            crossing = Crossing(t=direction * t_abs, y=float(X[1]), into=side)
            traj.crossings.append(crossing)
            yield crossing
            mode = side
            continue

        if mode == "sliding":
            t_used, X, end = _slide(sys, folds, X, direction, t_max - t_abs,
                                    traj, t_abs, record)
            t_abs += t_used
            n_segments += 1
            if end == "t_max":
                traj.stopped = "t_max"
                break
            if end == "stall":
                traj.stopped = "sliding_stall"
                break
            # reached the fold endpoint ``end``: leave through its visible side
            if end.visibility is not Visibility.VISIBLE:
                traj.stopped = "sliding_endpoint"
                break
            mode = end.side
            continue

        # zone arc
        side = mode
        zone = zones[side]
        t_ev, ev_kind = first_component_zero(zone, X, direction, t_max - t_abs)
        n_segments += 1
        dt = t_max - t_abs if t_ev is None else abs(t_ev)
        if dt < 1e-14 and ev_kind == "cross":
            raise EventStall("event located at vanishing time offset")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises below
            X = _record_arc(traj, zone, X, direction, dt, t_abs, side, record)
        if not math.isfinite(_abs_max(X)):
            raise EventStall(f"the state is not finite at t = {direction * (t_abs + dt):.17g}")
        if t_ev is None:
            traj.stopped = "t_max"
            break
        X[0] = 0.0
        t_abs += dt
        mode = "sigma"

    else:
        if n_segments >= max_segments:
            raise MaxSegmentsExceeded(f"exceeded {max_segments} segments")


def _record_arc(traj, zone, X, direction, dt, t_abs, side, record):
    """Record the arc's samples when ``record`` is set, then its segment;
    returns its end state, the last sample (``linspace`` ends exactly at
    dt), or the one state at dt without samples."""
    if record:
        ts = np.linspace(0.0, dt, SAMPLE_STRIDE)
        states = zone.state(X, direction * ts)
        for k in range(1, SAMPLE_STRIDE):
            traj.samples.append((direction * (t_abs + ts[k]),
                                 float(states[k, 0]), float(states[k, 1])))
        X = states[-1]
    else:
        X = zone.state(X, direction * dt)
    traj._close(_zone_name(side), direction * t_abs, direction * (t_abs + dt))
    return X


def _slide(sys, folds, X, direction, t_budget, traj, t_abs, record):
    """Follow the Filippov field along x = 0 until a fold endpoint or t_budget.

    The travel time is the closed form of ``_SlidingSpeed.time``.  A root of
    N ahead is a pseudo-equilibrium that the motion approaches without
    reaching; when the budget runs out first, the position at t_budget is
    bisected on the monotone travel time.  ``SAMPLE_STRIDE`` samples are
    spread evenly along the segment, the last one at the end state, when
    ``record`` is set.  Returns (elapsed, new_state, end) with ``end`` the
    ``FoldPoint`` reached, "t_max" or "stall".
    """
    if len(folds) != 2:
        return 0.0, X, "stall"
    f_lo, f_hi = sorted(folds.values(), key=lambda f: f.y)
    lo, hi = f_lo.y, f_hi.y
    seg_len = hi - lo
    if seg_len <= 0:
        return 0.0, X, "stall"
    law = _SlidingSpeed(sys)
    y0 = float(X[1])
    t0_signed = direction * t_abs
    v0 = direction * law.speed(y0)
    if abs(v0) < 1e-15 * max(1.0, seg_len):
        y, t_used, end = y0, 0.0, "stall"
    else:
        fold = f_hi if v0 > 0 else f_lo
        y_fold = fold.y
        ahead = [r for r in law.roots if min(y0, y_fold) < r < max(y0, y_fold)]
        if ahead:
            y_lim, t_lim = min(ahead, key=lambda r: abs(r - y0)), math.inf
        else:
            # a start at or past the fold leaves it at once
            y_lim, t_lim = y_fold, max(0.0, direction * law.time(y0, y_fold))
        if t_lim <= t_budget:
            y, t_used, end = y_fold, t_lim, fold
        else:
            def excess(s):
                y_s = y0 + s * (y_lim - y0)
                if y_s == y_lim:  # rounded onto a limit the budget does not reach
                    return math.inf
                return direction * law.time(y0, y_s) - t_budget
            s = _refine_crossing(excess, 0.0, 1.0, np.finfo(float).eps)
            y, t_used, end = y0 + s * (y_lim - y0), t_budget, "t_max"

    if record:
        if t_used > 0.0:
            for k in range(1, SAMPLE_STRIDE - 1):
                y_k = y0 + (y - y0) * (k / (SAMPLE_STRIDE - 1))
                traj.samples.append((t0_signed + law.time(y0, y_k), 0.0, y_k))
        if t_used > 0.0 or y != y0:
            traj.samples.append((t0_signed + direction * t_used, 0.0, y))
    traj._close(SLIDING, t0_signed, t0_signed + direction * t_used)
    return t_used, np.array([0.0, y]), end


# ---------------------------------------------------------------------------
# first-return displacement (simulation oracle for the displacement map)
# ---------------------------------------------------------------------------

def displacement(sys: PwlSystem, y0: float) -> float:
    """y_return - y0 for the first return to {x = 0, y > 0} from (0, y0).

    The first-order coefficient of this displacement in the perturbation
    size equals minus the first-order Melnikov function.
    """
    if y0 <= 0:
        raise NonPositiveAmplitude("displacement needs y0 > 0")
    return float(_first_return(sys, y0) - y0)


def melnikov_oracle(sys: PwlSystem, y0: float, eps: float) -> float:
    """Finite-difference estimate of the first-order Melnikov function.

    The return map satisfies P(y0) = y0 - eps*M1(y0) + O(eps^2), so
    -displacement/eps -> M1 as eps -> 0.  The estimate needs eps > 0:
    eps = 0 raises ``ValueError``, as NaN, inf and negative eps do.
    """
    if eps == 0.0:
        raise ValueError(f"melnikov_oracle needs eps > 0, got {eps}")
    return -displacement(sys.with_epsilon(eps), y0) / eps


def _first_return(sys: PwlSystem, y0: float, backward: bool = False) -> float:
    """y of the first return from (0, y0), y0 != 0, to the half-line of
    x = 0 that holds it.

    The simulation stops at that crossing; the crossing at the start does
    not count.  It records no samples: only the crossings and the stop
    reason are read.  Raises ``NoReturn`` when the run ends first, within
    t_max = 3(2 pi + pi/xi) or ``RETURN_SEGMENTS`` segments.
    """
    t_max = 3.0 * (TWO_PI + math.pi / _xi_of(sys))
    traj = Trajectory(direction=-1.0 if backward else 1.0)
    try:
        for ev in _run(sys, (0.0, y0), t_max, RETURN_SEGMENTS, traj, record=False):
            if ev.t != 0.0 and (ev.y > 0) == (y0 > 0):
                return ev.y
    except MaxSegmentsExceeded as exc:
        raise NoReturn(f"segment budget exhausted before the return: {exc}") from exc
    half = "y>0" if y0 > 0 else "y<0"
    raise NoReturn(f"no return to x=0, {half} within t={t_max} ({traj.stopped})")


def _xi_of(sys: PwlSystem) -> float:
    m, _ = sys.order0_plus
    disc = 0.25 * (m.m11 - m.m22) ** 2 + m.m12 * m.m21
    return math.sqrt(-disc) if disc < 0 else 1.0

