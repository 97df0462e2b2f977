"""First-order Melnikov function of the perturbed two-zone center, its
reduced forms, root isolation, and stability classification.

With the unperturbed part in normal coordinates, the first return map on
{x = 0, y > 0} expands as P(y0) = y0 - eps*M1(y0) + O(eps^2).  Simple
zeros of M1 are amplitudes of crossing limit cycles; signs of M1 around a
zero give its stability (M1 > 0 below and M1 < 0 above an isolated zero
means the cycle repels).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .core import PwlSystem
from .errors import ConstraintViolated, MelnikovDomainError

ARCCOS_CLAMP = 1e-14
SIGN_TOL = 1e-12


class Stability(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    UNDETERMINED = "Undetermined"


class RootFlag(Enum):
    SIMPLE = "Simple"
    SUSPECT = "Suspect"


def scaled_sign(value: float, *terms: float) -> int:
    """Sign of ``value`` as -1, 0 or 1, where 0 means
    |value| <= SIGN_TOL * max(1, |terms|): the tie of a sign decision whose
    quantity is built from ``terms``."""
    tol = SIGN_TOL * max([1.0, *(abs(t) for t in terms)])
    if value > tol:
        return 1
    if value < -tol:
        return -1
    return 0


def stability_from_sign(sign: int) -> Stability:
    """1 is stable, -1 unstable and 0 undetermined."""
    return (Stability.UNSTABLE, Stability.UNDETERMINED, Stability.STABLE)[sign + 1]


def _require_finite(params) -> None:
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ValueError(f"{type(params).__name__}.{name} must be finite")


@dataclass(frozen=True)
class MelnikovParams:
    """Normal-form scalars plus the first-order entries entering M1."""

    b: float
    d: float
    e: float
    xi: float
    b11m: float
    b22m: float
    v1m: float
    b11p: float
    b22p: float
    v1p: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.b < 0 and self.d > 0 and self.e > 0 and self.xi > 0):
            raise ValueError("need b < 0, d > 0, e > 0, xi > 0")

    @property
    def trace_minus(self) -> float:
        return self.b11m + self.b22m

    @property
    def trace_plus(self) -> float:
        return self.b11p + self.b22p

    @property
    def drift(self) -> float:
        """b*v1m + v1p; its sign separates sliding from escaping."""
        return self.b * self.v1m + self.v1p

    @cached_property
    def constrained(self) -> bool:
        """Whether the first-order left trace vanishes (b11m = -b22m)."""
        return scaled_sign(self.trace_minus, self.b11m, self.b22m) == 0

    @staticmethod
    def from_system(sys: PwlSystem) -> "MelnikovParams":
        """Read parameters off a system already in normal coordinates."""
        (a0p, u0p) = sys.order0_plus
        (a0m, u0m) = sys.order0_minus
        if not (abs(a0m.m11) < 1e-12 and abs(a0m.m22) < 1e-12
                and abs(a0m.m12 + 1.0) < 1e-12 and abs(a0m.m21 - 1.0) < 1e-12
                and abs(u0m.x) < 1e-12 and abs(u0p.x) < 1e-12):
            raise ValueError("system is not in normal coordinates; canonicalize first")
        a = 0.5 * (a0p.m11 - a0p.m22)
        disc = a * a + a0p.m12 * a0p.m21
        if disc >= 0:
            raise ValueError("right zone is not a center")
        (b1p, v1p) = sys.order1_plus
        (b1m, v1m) = sys.order1_minus
        return MelnikovParams(
            b=a0p.m12, d=u0p.y, e=u0m.y, xi=math.sqrt(-disc),
            b11m=b1m.m11, b22m=b1m.m22, v1m=v1m.x,
            b11p=b1p.m11, b22p=b1p.m22, v1p=v1p.x,
        )


def _positive(x, message: str):
    """``x`` as a float if it is a number or 0-d, else as a float array;
    ValueError(message) unless every entry is > 0 (NaN passes)."""
    if isinstance(x, (int, float)):
        if x <= 0:
            raise ValueError(message)
        return float(x)
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError(message)
    return x


def _acos(arg):
    """arccos with clamping restricted to a 1e-14 neighborhood of +-1:
    ``math.acos`` for a float, ``np.arccos`` for an array."""
    if isinstance(arg, np.ndarray):
        if np.any(np.abs(arg) > 1.0 + ARCCOS_CLAMP):
            raise MelnikovDomainError("arccos argument outside [-1, 1] beyond tolerance")
        return np.arccos(np.clip(arg, -1.0, 1.0))
    if abs(arg) > 1.0 + ARCCOS_CLAMP:
        raise MelnikovDomainError("arccos argument outside [-1, 1] beyond tolerance")
    return math.acos(min(max(arg, -1.0), 1.0))


def m1(p: MelnikovParams, y0):
    """First-order Melnikov function at amplitude y0 > 0: a float (``math``)
    for a number, an array (numpy) for an array; NaN amplitudes give NaN."""
    y0 = _positive(y0, "m1 needs y0 > 0")
    e, d, b, xi = p.e, p.d, p.b, p.xi
    sm, sp = p.trace_minus, p.trace_plus
    left_arg = 2.0 * e * e / (e * e + y0 * y0) - 1.0
    right_arg = 2.0 * d * d / (d * d + xi * xi * y0 * y0) - 1.0
    acl = _acos(left_arg)
    acr = _acos(right_arg)
    inner = (-2.0 * b * d * y0 * xi * sp - 4.0 * p.v1p * y0 * xi ** 3
             + b * sp * (d * d + y0 * y0 * xi * xi) * acr)
    return (4.0 * p.v1m * y0
            - 2.0 * sm * (math.pi * (e * e + y0 * y0) + e * y0)
            + sm * (e * e + y0 * y0) * acl
            - inner / (b * xi ** 3)) / (2.0 * y0)


def m1_constrained(p: MelnikovParams, y0):
    """M1 specialized to b11m = -b22m (vanishing first-order left trace); y0 as in m1.

    M1(y0) = 2 v1m + 2 v1p / b + d (b11p + b22p) / xi^2
             - (b11p + b22p) (d^2 + xi^2 y0^2) arccos(2 d^2/(d^2+xi^2 y0^2) - 1)
               / (2 y0 xi^3).
    """
    if not p.constrained:
        raise ConstraintViolated("m1_constrained needs b11m = -b22m")
    y0 = _positive(y0, "m1_constrained needs y0 > 0")
    d, b, xi, sp = p.d, p.b, p.xi, p.trace_plus
    acr = _acos(2.0 * d * d / (d * d + xi * xi * y0 * y0) - 1.0)
    return (2.0 * p.v1m + 2.0 * p.v1p / b + d * sp / (xi * xi)
            - sp * (d * d + xi * xi * y0 * y0) * acr / (2.0 * y0 * xi ** 3))


@dataclass(frozen=True)
class ReducedParams:
    """Data of the rescaled Melnikov combination.

    alpha = e*xi and beta = d/alpha; the amplitude substitution is
    y0 = d*s0/xi = alpha*beta*s0/xi, under which

        mtilde1(s0) = 2*b*beta*xi^2*s0 * M1(d*s0/xi)
                    = K0*s0
                      + K1*(beta^2 s0^2 + 1)*(arccos(2/(beta^2 s0^2+1) - 1) - 2 pi)
                      + K2*(s0^2 + 1)*arccos(2/(s0^2+1) - 1).

    k0, k1 are the analogous constants of the constrained case, where
    s0 * M1(d*s0/xi) = k0*s0 + k1*(s0^2+1)*arccos(2/(s0^2+1) - 1).
    """

    alpha: float
    beta: float
    K0: float
    K1: float
    K2: float
    k0: float
    k1: float

    @staticmethod
    def from_params(p: MelnikovParams) -> "ReducedParams":
        alpha = p.e * p.xi
        beta = p.d / alpha
        sm, sp = p.trace_minus, p.trace_plus
        b, xi = p.b, p.xi
        K0 = 2.0 * beta * (2.0 * xi * xi * p.drift
                           - alpha * b * xi * sm + alpha * b * beta * sp)
        K1 = alpha * b * xi * sm
        K2 = -b * alpha * beta * beta * sp
        k0 = 2.0 * p.v1m + 2.0 * p.v1p / b + p.d * sp / (xi * xi)
        k1 = -p.d * sp / (2.0 * xi * xi)
        return ReducedParams(alpha=alpha, beta=beta, K0=K0, K1=K1, K2=K2, k0=k0, k1=k1)


def m1_reduced(red: ReducedParams, s0):
    """The rescaled combination mtilde1(s0); zeros coincide with M1's."""
    s0 = _positive(s0, "m1_reduced needs s0 > 0")
    ub = red.beta * red.beta * s0 * s0 + 1.0
    u = s0 * s0 + 1.0
    return (red.K0 * s0
            + red.K1 * ub * (_acos(2.0 / ub - 1.0) - 2.0 * math.pi)
            + red.K2 * u * _acos(2.0 / u - 1.0))


def reduced_limit_at_zero(red: ReducedParams) -> float:
    """lim_{s0 -> 0} mtilde1(s0) = -2 pi K1."""
    return -2.0 * math.pi * red.K1


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

SUSPECT_REL = 1e-6  # slope below this times the grid scale: SUSPECT
DEDUPE_REL = 1e-9   # roots closer than this (relative) are one root


@dataclass(frozen=True)
class RootFindOptions:
    grid: int = 4096
    refine_tol: float = 1e-12

    def __post_init__(self):
        if not self.grid >= 2:
            raise ValueError("RootFindOptions.grid must be >= 2")
        if not (math.isfinite(self.refine_tol) and self.refine_tol > 0):
            raise ValueError("RootFindOptions.refine_tol must be finite and positive")


@lru_cache(maxsize=8)
def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.geomspace(lo, hi, n)``, built once per key and read-only."""
    ys = np.geomspace(lo, hi, n)
    ys.setflags(write=False)
    return ys


def _feval(f, x: float) -> float:
    v = f(x)  # a float as it is, an array's first entry as a float
    return v if isinstance(v, float) else float(np.ravel(v)[0])


def find_roots(f, domain, opts: RootFindOptions | None = None):
    """Sign-change bracketing on a log-spaced grid, refined by bisection.

    ``f`` is called once on the grid array, then on Python floats, for which
    it may return a float or a one-entry array.  The grid is shared by all
    calls on the same domain and grid size and is read-only: an ``f`` that
    writes into it raises ValueError.  Returns a list of (root, RootFlag);
    roots whose central-difference slope is below ``SUSPECT_REL`` times the
    grid scale are flagged SUSPECT (possible multiplicity).
    """
    lo, hi = domain
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    opts = opts or RootFindOptions()
    ys = _grid(lo, hi, opts.grid)
    vals = np.asarray(f(ys), dtype=float)
    scale = float(np.nanmax(np.abs(vals))) / (hi - lo)
    roots = []
    sign = np.sign(vals)
    idx = np.where(sign[:-1] * sign[1:] < 0)[0]
    for i in idx:
        a, b_ = float(ys[i]), float(ys[i + 1])
        fa = float(vals[i])
        for _ in range(200):
            if b_ - a < opts.refine_tol * max(1.0, b_):
                break
            mid = 0.5 * (a + b_)
            fm = _feval(f, mid)
            if fm == 0.0:
                a = b_ = mid
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b_ = mid
        root = 0.5 * (a + b_)
        h = 1e-6 * max(1.0, root)
        slope = (_feval(f, root + h) - _feval(f, root - h)) / (2.0 * h)
        flag = RootFlag.SUSPECT if abs(slope) < SUSPECT_REL * max(scale, 1e-300) \
            else RootFlag.SIMPLE
        roots.append((float(root), flag))
    # exact zeros sitting on grid nodes
    for i in np.where(sign == 0)[0]:
        roots.append((float(ys[i]), RootFlag.SUSPECT))
    roots.sort(key=lambda r: r[0])
    deduped = []
    for r, fl in roots:
        if deduped and abs(r - deduped[-1][0]) < DEDUPE_REL * max(1.0, abs(r)):
            continue
        deduped.append((r, fl))
    return deduped


# ---------------------------------------------------------------------------
# stability classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootInfo:
    y0: float
    flag: RootFlag
    stability: Stability


@dataclass(frozen=True)
class MelnikovReport:
    roots: tuple
    infinity_stability: Stability
    root_count_bound: int

    def to_dict(self) -> dict:
        return {
            "roots": [{"y0": r.y0, "flag": r.flag.value, "stability": r.stability.value}
                      for r in self.roots],
            "infinity_stability": self.infinity_stability.value,
            "root_count_bound": self.root_count_bound,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def infinity_sign_expression(p: MelnikovParams) -> float:
    """xi*(b11m + b22m) + b11p + b22p, the large-amplitude sign quantity."""
    return p.xi * p.trace_minus + p.trace_plus


def infinity_sign(p: MelnikovParams) -> int:
    """Scaled sign of ``infinity_sign_expression``: 1 when infinity
    attracts and the highest-amplitude cycle repels."""
    return scaled_sign(infinity_sign_expression(p),
                       p.xi * (abs(p.b11m) + abs(p.b22m)), abs(p.b11p) + abs(p.b22p))


def classify_stability(p: MelnikovParams, roots) -> MelnikovReport:
    """Stability labels for the found roots plus the periodic orbit at infinity.

    The highest-amplitude cycle is stable iff the large-amplitude sign
    expression is negative, and infinity has the opposite stability.  The
    lowest-amplitude cycle follows the sign of M1 near zero amplitude:
    sign(M1(0+)) = -sign(b11m + b22m), with the tie broken by
    sign(b*v1m + v1p) when the left trace vanishes; M1 > 0 below a cycle
    makes it unstable.  Interior roots alternate.
    """
    sgn_inf = infinity_sign(p)
    # the lowest cycle is stable when M1 < 0 near 0+
    sgn_low = (scaled_sign(p.trace_minus, p.b11m, p.b22m)
               or scaled_sign(p.drift, p.b * p.v1m, p.v1p))
    ordered = sorted(roots, key=lambda r: r[0])
    n = len(ordered)
    # a cycle's sign is the highest one's (the negated infinity sign) or the
    # lowest one's, flipped once per root in between
    if sgn_inf:
        labels = [stability_from_sign(-sgn_inf * (-1) ** (n - 1 - k)) for k in range(n)]
    else:
        labels = [stability_from_sign(sgn_low * (-1) ** k) for k in range(n)]

    bound = 1 if p.constrained else 3
    infos = tuple(RootInfo(y0=r, flag=fl, stability=lab)
                  for (r, fl), lab in zip(ordered, labels))
    return MelnikovReport(roots=infos, infinity_stability=stability_from_sign(sgn_inf),
                          root_count_bound=bound)


def analyze(p: MelnikovParams, domain=(1e-3, 1e3),
            opts: RootFindOptions | None = None) -> MelnikovReport:
    """Roots of the matching M1 variant plus stability labels."""
    f = (lambda y: m1_constrained(p, y)) if p.constrained else (lambda y: m1(p, y))
    roots = find_roots(f, domain, opts)
    return classify_stability(p, roots)


def m1_csv(p: MelnikovParams, domain=(1e-2, 1e2), n: int = 1024) -> str:
    """CSV sampling of (y0, M1(y0)) for plotting."""
    ys = np.geomspace(domain[0], domain[1], n)
    vals = np.asarray(m1(p, ys))
    lines = ["y0,m1"]
    lines += [f"{y:.17g},{v:.17g}" for y, v in zip(ys, vals)]
    return "\n".join(lines) + "\n"
