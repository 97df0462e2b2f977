"""Second-order analysis of sliding and escaping cycles.

With a vanishing first-order left trace (b11m = -b22m) the two fold
points sit at distance O(eps) and the segment between them slides (or
escapes).  Four marks on the section {y = y_f1, x <= 0} decide whether
the loop through the visible fold closes:

    S0  left-zone orbit from the visible fold y_f1, backward half turn;
    S1  the same orbit forward (where the actual loop crosses);
    S2  backward half turn from the invisible fold y_f2;
    S3  backward half turn from y_f3, the preimage of y_f1 under the
        right-zone half-return involution around y_f2.

Their expansions share -2e + eps*(2 b21m e - 2 v2m) and differ at second
order by multiples of pi*e*(c11m+c22m) and (v1m*b + v1p)^2/(b^2 e), which
yields the threshold windows on c11m + c22m:

    S3 < S2 < S1 < S0  (0 < tau < T)    closed loop of Type I,
    S3 < S1 < S2 < S0  (T < tau < 4T)   closed loop of Type II,

with tau = c11m + c22m and T = (v1m*b + v1p)^2 / (2 b^2 e^2 pi).
Escaping cycles are the image of the sliding ones under time reversal
composed with the flip y -> -y, which negates tau and b*v1m + v1p.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

from .core import PwlSystem, canonical_system
from .errors import BoundViolated, ConstraintViolated, EventStall
from .flow import RETURN_SEGMENTS, SLIDING, AffineFlow, first_component_zero, simulate
from .melnikov import (
    SIGN_TOL,
    MelnikovParams,
    RootFindOptions,
    Stability,
    find_roots,
    m1_constrained,
    scaled_sign,
    stability_from_sign,
)
from .sigma import find_folds


class CycleKind(Enum):
    SLIDING_TYPE_I = "SlidingTypeI"
    SLIDING_TYPE_II = "SlidingTypeII"
    ESCAPING_TYPE_I = "EscapingTypeI"
    ESCAPING_TYPE_II = "EscapingTypeII"
    NONE = "None"


@dataclass(frozen=True, kw_only=True)
class SlidingParams(MelnikovParams):
    """``MelnikovParams`` plus the entries entering the section marks
    through second order.  Entries not listed do not move S0..S3 and are
    taken to vanish in generated systems; the right-zone first-order
    traces b11p, b22p drive only the crossing-cycle count and default to 0."""

    a: float
    b21m: float
    v2m: float
    c11m: float
    c22m: float
    c21m: float
    w2m: float
    epsilon: float
    b11p: float = 0.0
    b22p: float = 0.0

    @staticmethod
    def from_system(sys: PwlSystem) -> "SlidingParams":
        """Read parameters off a system already in normal coordinates."""
        first = MelnikovParams.from_system(sys)
        (a0p, _), (b1m, v1m), (c2m, w2m) = sys.order0_plus, sys.order1_minus, sys.order2_minus
        return SlidingParams(
            **asdict(first), a=0.5 * (a0p.m11 - a0p.m22), b21m=b1m.m21, v2m=v1m.y,
            c11m=c2m.m11, c22m=c2m.m22, c21m=c2m.m21, w2m=w2m.y, epsilon=sys.epsilon)

    @property
    def c(self) -> float:
        """Entry c of the normal form, recovered from a^2 + b*c = -xi^2."""
        return -(self.xi * self.xi + self.a * self.a) / self.b

    @property
    def tau(self) -> float:
        """Second-order left trace c11m + c22m."""
        return self.c11m + self.c22m

    def to_system(self, epsilon: float | None = None) -> PwlSystem:
        eps = self.epsilon if epsilon is None else epsilon
        return canonical_system(
            self.a, self.b, self.c, self.d, self.e,
            B_minus=[[self.b11m, 0.0], [self.b21m, self.b22m]],
            v_minus=[self.v1m, self.v2m],
            B_plus=[[self.b11p, 0.0], [0.0, self.b22p]],
            v_plus=[self.v1p, 0.0],
            C_minus=[[self.c11m, 0.0], [self.c21m, self.c22m]],
            w_minus=[0.0, self.w2m],
            epsilon=eps,
        )


def thresholds(p: SlidingParams) -> float:
    """T = (v1m*b + v1p)^2 / (2 b^2 e^2 pi); the Type-I window on
    c11m + c22m is (0, T) and the Type-II window is (T, 4T)."""
    return p.drift ** 2 / (2.0 * p.b ** 2 * p.e ** 2 * math.pi)


@dataclass(frozen=True)
class EpsSeries:
    """Truncated series c0 + c1*eps + c2*eps^2."""

    c0: float
    c1: float
    c2: float

    def __call__(self, eps: float) -> float:
        return self.c0 + eps * (self.c1 + eps * self.c2)


@dataclass(frozen=True)
class SMapSeries:
    s0: EpsSeries
    s1: EpsSeries
    s2: EpsSeries
    s3: EpsSeries
    values: tuple  # numeric values at the requested eps

    def series(self) -> tuple:
        return (self.s0, self.s1, self.s2, self.s3)


def s_maps(p: SlidingParams, epsilon: float | None = None) -> SMapSeries:
    """Second-order series of the four section marks plus values at eps.

    Requires the vanishing first-order left trace; the common first-order
    term is 2*b21m*e - 2*v2m and the second-order terms differ by the
    threshold combinations described in the module docstring.
    """
    if not p.constrained:
        raise ConstraintViolated("s_maps needs b11m = -b22m")
    eps = p.epsilon if epsilon is None else epsilon
    e, b = p.e, p.b
    b22 = p.b22m
    c0 = -2.0 * e
    c1 = 2.0 * p.b21m * e - 2.0 * p.v2m
    base = (0.5 * math.pi * e * p.tau
            - 2.0 * (p.v1m * b22 - p.v2m * p.b21m + p.w2m
                     + p.b21m ** 2 * e - p.c21m * e))
    pe = p.drift ** 2 / (b * b * e)
    s0 = EpsSeries(c0, c1, base)
    s1 = EpsSeries(c0, c1, base - math.pi * e * p.tau)
    s2 = EpsSeries(c0, c1, base - 0.5 * pe)
    s3 = EpsSeries(c0, c1, base - 2.0 * pe)
    return SMapSeries(s0=s0, s1=s1, s2=s2, s3=s3,
                      values=(s0(eps), s1(eps), s2(eps), s3(eps)))


def s_maps_general_order1(p: SlidingParams) -> tuple:
    """First-order coefficients without the trace constraint: S0, S2, S3
    share (pi*e*(b11m+b22m) - 4*v2m + 4*b21m*e)/2 and S1 carries the
    opposite trace sign."""
    e = p.e
    sm = p.b11m + p.b22m
    common = (-4.0 * p.v2m + 4.0 * p.b21m * e) / 2.0
    c1_bwd = 0.5 * math.pi * e * sm + common
    c1_fwd = -0.5 * math.pi * e * sm + common
    return (c1_bwd, c1_fwd, c1_bwd, c1_bwd)


# ---------------------------------------------------------------------------
# exact section marks from the flow (the simulation side of the check)
# ---------------------------------------------------------------------------

def _fold_positions(sys: PwlSystem, xi: float) -> tuple:
    """(y_f1, y_f2, y_f3) of the built system, whose right zone turns at xi.

    y_f1, y_f2 solve the affine tangency equations exactly; y_f3 is found
    by flowing backward from (0, y_f1) through the right zone (the short
    arc around the invisible fold) to its other intersection with x = 0.
    """
    folds = {f.side: f for f in find_folds(sys)}
    y_f1 = folds["minus"].y
    y_f2 = folds["plus"].y
    zone = AffineFlow(*sys.zone("plus"))
    t_ev, kind = first_component_zero(
        zone, (0.0, y_f1), direction=-1.0,
        t_budget=2.0 * math.pi / xi, component=0, target=0.0)
    if t_ev is None or kind != "cross":
        raise EventStall("right-zone arc from the visible fold found no return")
    y_f3 = float(zone.state((0.0, y_f1), t_ev)[1])
    return (y_f1, y_f2, y_f3)


def s_maps_simulated(p: SlidingParams, eps: float) -> tuple:
    """Exact section marks (S0, S1, S2, S3) at eps from the closed-form flow."""
    sys = p.to_system(eps)
    return _section_marks(sys, _fold_positions(sys, p.xi))


def _section_marks(sys: PwlSystem, folds: tuple) -> tuple:
    """``s_maps_simulated`` of the built system on its folds (y_f1, y_f2, y_f3)."""
    y_f1, y_f2, y_f3 = folds
    zone = AffineFlow(*sys.zone("minus"))
    out = []
    for y_start, direction in ((y_f1, -1.0), (y_f1, 1.0), (y_f2, -1.0), (y_f3, -1.0)):
        X0 = (0.0, y_start)
        t_ev, kind = first_component_zero(
            zone, X0, direction=direction, t_budget=1.9 * math.pi,
            component=1, target=y_f1)
        if t_ev is None:
            raise EventStall("section mark not reached within the half turn")
        out.append(float(zone.state(X0, t_ev)[0]))
    return tuple(out)


# ---------------------------------------------------------------------------
# cycle detection and the combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlidingReport:
    fold_y1: float
    fold_y2: float
    fold_y3: float
    s_values: tuple
    ordering: str
    cycle: CycleKind
    extra_crossing_bound: int
    threshold_lo: float
    threshold_hi: float
    ordering_consistent: bool
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "fold_y1": self.fold_y1, "fold_y2": self.fold_y2, "fold_y3": self.fold_y3,
            "s_values": list(self.s_values), "ordering": self.ordering,
            "cycle": self.cycle.value,
            "extra_crossing_bound": self.extra_crossing_bound,
            "threshold_lo": self.threshold_lo, "threshold_hi": self.threshold_hi,
            "ordering_consistent": self.ordering_consistent,
            "reason": self.reason,
        }


def _ordering_tag(values: tuple) -> str:
    names = ("S0", "S1", "S2", "S3")
    order = sorted(range(4), key=lambda i: values[i])
    return " < ".join(names[i] for i in order)


def _mirror(p: SlidingParams) -> SlidingParams:
    """Time reversal composed with y -> -y: escaping data becomes sliding
    data of the transformed system (all perturbation orders negate, then
    conjugation by diag(1, -1) restores the normal rotation)."""
    return replace(p, a=-p.a, b11m=-p.b11m, b22m=-p.b22m, v1m=-p.v1m, v1p=-p.v1p,
                   c11m=-p.c11m, c22m=-p.c22m, c21m=-p.c21m, b11p=-p.b11p, b22p=-p.b22p)


_ESCAPING = {CycleKind.SLIDING_TYPE_I: CycleKind.ESCAPING_TYPE_I,
             CycleKind.SLIDING_TYPE_II: CycleKind.ESCAPING_TYPE_II}
# the ordering of the section marks each kind predicts; an escaping cycle's
# marks are those of its mirror image, a sliding cycle of the same type
_ORDERINGS = {
    CycleKind.SLIDING_TYPE_I: "S3 < S2 < S1 < S0", CycleKind.ESCAPING_TYPE_I: "S3 < S2 < S1 < S0",
    CycleKind.SLIDING_TYPE_II: "S3 < S1 < S2 < S0", CycleKind.ESCAPING_TYPE_II: "S3 < S1 < S2 < S0",
}


def _window(p: SlidingParams, work: SlidingParams) -> tuple:
    """(cycle, threshold_lo, threshold_hi, reason) of ``p``, decided on
    ``work``: ``p`` itself when the drift is negative, else ``_mirror(p)``.

    Only the two sliding windows are tested.  The mirror negates tau and
    keeps T, so an escaping cycle is a sliding cycle of the mirror, and
    its window is the sliding one mapped by (lo, hi) -> (-hi, -lo).
    """
    if p.d + p.b * p.e <= 0:
        return CycleKind.NONE, 0.0, 0.0, "d + b*e <= 0: the sliding direction condition fails"
    if scaled_sign(p.drift, p.b * p.v1m, p.v1p) == 0:
        return CycleKind.NONE, 0.0, 0.0, "b*v1m + v1p = 0: fold points collide at first order"
    T, tau = thresholds(p), work.tau
    margin = SIGN_TOL * max(1.0, abs(tau), T)
    if margin < tau < T - margin:
        cycle, lo, hi = CycleKind.SLIDING_TYPE_I, 0.0, T
    elif T + margin < tau < 4.0 * T - margin:
        cycle, lo, hi = CycleKind.SLIDING_TYPE_II, T, 4.0 * T
    else:
        windows = (f"sliding windows (0, {T:.6g}) and ({T:.6g}, {4 * T:.6g})" if work is p
                   else f"escaping windows (-{T:.6g}, 0) and (-{4 * T:.6g}, -{T:.6g})")
        return CycleKind.NONE, 0.0, 0.0, f"c11m + c22m = {p.tau:.6g} outside the {windows}"
    if work is p:
        return cycle, lo, hi, ""
    # 0.0 - lo, not -lo: Escaping Type I ends at +0.0 (json.dumps prints -0.0 as such)
    return _ESCAPING[cycle], -hi, 0.0 - lo, ""


def detect_sliding_cycle(p: SlidingParams) -> SlidingReport:
    """Classify the sliding/escaping cycle of the second-order perturbation.

    Without the trace constraint there is no such cycle (the first-order
    terms already break the ordering).  With it, the window containing
    c11m + c22m relative to T decides the kind; the ordering predicted by
    the series is cross-checked against the exact section marks at the
    requested perturbation size, or at eps = 1e-2 when ``p.epsilon`` is 0.
    """
    eps = p.epsilon if p.epsilon > 0 else 1e-2
    if not p.constrained:
        reason = ("first-order section marks split: S1 differs from S0/S2/S3 "
                  f"by pi*e*(b11m+b22m) = {math.pi * p.e * (p.b11m + p.b22m):.3e}, "
                  "so either S1 > S0 or S1 < S3 for small eps")
        return SlidingReport(
            fold_y1=math.nan, fold_y2=math.nan, fold_y3=math.nan,
            s_values=(), ordering="", cycle=CycleKind.NONE,
            extra_crossing_bound=3, threshold_lo=0.0, threshold_hi=0.0,
            ordering_consistent=True, reason=reason)

    drift = p.drift
    work = p if drift < 0 else _mirror(p)
    cycle, lo, hi, reason = _window(p, work)
    sys = work.to_system(eps)
    y1, y2, y3 = folds = _fold_positions(sys, work.xi)
    sims = _section_marks(sys, folds)
    ordering = _ordering_tag(sims)

    consistent = (cycle is CycleKind.NONE) or (ordering == _ORDERINGS[cycle])
    if drift > 0:
        # report fold data of the original (escaping) frame: mirror back
        y1, y2, y3 = -y1, -y2, -y3
    bound = 1 if cycle is not CycleKind.NONE else 3
    return SlidingReport(
        fold_y1=y1, fold_y2=y2, fold_y3=y3, s_values=sims, ordering=ordering,
        cycle=cycle, extra_crossing_bound=bound, threshold_lo=lo, threshold_hi=hi,
        ordering_consistent=consistent, reason=reason)


def simulate_sliding_cycle(p: SlidingParams, eps: float | None = None):
    """Run the loop from the visible fold and measure its closure.

    Returns (trajectory, closure, kinds): the orbit from (0, y_f1) through
    the left zone (Type II also through the right zone) back onto the
    sliding segment and up to the fold again, within ``RETURN_SEGMENTS``
    segments; ``closure`` is the distance between the endpoint and the
    start.
    """
    eps = p.epsilon if eps is None else eps
    work = p if p.drift < 0 else _mirror(p)
    sys = work.to_system(eps)
    y_f1 = {f.side: f.y for f in find_folds(sys)}["minus"]
    t_max = 3.0 * (2.0 * math.pi + math.pi / p.xi)
    traj = simulate(sys, (0.0, y_f1), t_max, max_segments=RETURN_SEGMENTS)
    kinds = traj.segment_kinds()
    # the loop is superstable (every slide ends at the fold), so closure is the
    # spread of consecutive landings on the sliding segment: the slides' starts
    landings = [pts[0][2] for seg, pts in traj.segment_samples() if seg.kind == SLIDING]
    closure = abs(landings[1] - landings[0]) if len(landings) >= 2 else math.inf
    return traj, closure, kinds


@dataclass(frozen=True)
class SimultaneityReport:
    sliding: SlidingReport
    crossing_roots: tuple
    crossing_stability: Stability
    verdict: str

    def to_dict(self) -> dict:
        return {
            "sliding": self.sliding.to_dict(),
            "crossing_roots": list(self.crossing_roots),
            "crossing_stability": self.crossing_stability.value,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def simultaneity_report(p: SlidingParams, domain=(1e-1, 1e2),
                        opts: RootFindOptions | None = None) -> SimultaneityReport:
    """Combine the sliding verdict with the constrained crossing-cycle count.

    With the vanishing first-order left trace the Melnikov function has at
    most one simple zero; more than one root is a build-failing event.
    The crossing cycle, when present, repels iff v1m + v1p/b > 0.
    """
    if not p.constrained:
        raise ConstraintViolated("simultaneity analysis needs b11m = -b22m")
    roots = find_roots(lambda y: m1_constrained(p, y), domain, opts)
    if len(roots) > 1:
        raise BoundViolated(
            f"constrained Melnikov function produced {len(roots)} roots; at most one is possible")
    sliding = detect_sliding_cycle(p)
    stab = stability_from_sign(-scaled_sign(p.v1m + p.v1p / p.b, p.v1m, p.v1p / p.b))
    has_sliding = sliding.cycle is not CycleKind.NONE
    has_crossing = len(roots) == 1
    if has_sliding and has_crossing:
        verdict = "simultaneous"
    elif has_sliding:
        verdict = "sliding only"
    elif has_crossing:
        verdict = "crossing only"
    else:
        verdict = "none"
    return SimultaneityReport(
        sliding=sliding,
        crossing_roots=tuple(r for r, _ in roots),
        crossing_stability=stab if has_crossing else Stability.UNDETERMINED,
        verdict=verdict)
