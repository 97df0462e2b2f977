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
from typing import NamedTuple

import numpy as np

from .core import PwlSystem, _center_data
from .errors import ConstraintViolated

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
    tol = SIGN_TOL * max([1.0, *map(abs, terms)])
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


class _M1Terms(NamedTuple):
    """The numbers of ``m1`` and ``m1_constrained`` that read the parameters
    alone: k0 = 2 v1m + 2 v1p/b + kappa with kappa = d sp/xi^2, xi_d = xi/d,
    e, the left trace sm, sme = sm*e and sme2 = sm*e*e."""

    k0: float
    kappa: float
    xi_d: float
    e: float
    sm: float
    sme: float
    sme2: float


@dataclass(frozen=True)
class MelnikovParams:
    """Normal-form scalars plus the first-order entries entering M1.

    Fields are finite, b < 0, xi > 0 and d, e in [2**-511, 2**511], else
    ``ValueError``; xi*xi, xi**3 and b*xi**3 are finite normal doubles, else
    ``ValueError`` naming xi, or b for the last.  These are the rules of the
    paper's arccos form of M1: there x*x is normal and 2.0*x*x exactly twice
    it for x = d, e, so its arguments 2x^2/(x^2 + t) - 1, t >= 0, round into
    [-1, 1] at every y0 > 0, and it divides by xi**3 and b*xi**3.  ``m1``
    evaluates the arctan form, which needs less; the rules keep the arccos
    form a check of every parameter set taken.  M1's constants kappa and k0
    (``_M1Terms``) are finite, else ``ValueError`` naming them: an infinite
    one makes M1 NaN at every amplitude.
    """

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
        for name in ("d", "e"):
            if not 2.0 ** -511 <= getattr(self, name) <= 2.0 ** 511:
                raise ValueError(f"{type(self).__name__}.{name} must lie in [2**-511, 2**511]")
        try:
            xi3 = self.xi ** 3
        except OverflowError:  # a float power raises where it overflows
            xi3 = math.inf
        for name, value in (("xi", self.xi * self.xi), ("xi", xi3), ("b", self.b * xi3)):
            if not 2.0 ** -1022 <= abs(value) < math.inf:
                raise ValueError(f"{type(self).__name__}.{name} must keep xi*xi, xi**3 "
                                 "and b*xi**3 finite normal doubles")
        terms = self._terms
        if not (math.isfinite(terms.kappa) and math.isfinite(terms.k0)):
            raise ValueError(f"{type(self).__name__} must keep kappa = d*sp/xi^2 and "
                             "k0 = 2*v1m + 2*v1p/b + kappa finite")

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

    @cached_property
    def _terms(self) -> _M1Terms:
        """M1's parameter-only numbers, resolved once per instance."""
        e, d, xi, sm = self.e, self.d, self.xi, self.trace_minus
        kappa = d * self.trace_plus / (xi * xi)
        return _M1Terms(k0=2.0 * self.v1m + 2.0 * self.v1p / self.b + kappa, kappa=kappa,
                        xi_d=xi / d, e=e, sm=sm, sme=sm * e, sme2=sm * e * e)

    @staticmethod
    def from_system(sys: PwlSystem) -> "MelnikovParams":
        """Read parameters off a system already in normal coordinates."""
        (a0p, u0p) = sys.order0_plus
        (a0m, u0m) = sys.order0_minus
        if not (abs(a0m.m11) < 1e-12 and abs(a0m.m22) < 1e-12
                and abs(a0m.m12 + 1.0) < 1e-12 and abs(a0m.m21 - 1.0) < 1e-12
                and abs(u0m.x) < 1e-12 and abs(u0p.x) < 1e-12):
            raise ValueError("system is not in normal coordinates; canonicalize first")
        data = _center_data(a0p.m11, a0p.m12, a0p.m21, a0p.m22)  # the reduction's rule
        if data is None or data[1] >= 0:
            raise ValueError("right zone is not a center")
        (b1p, v1p) = sys.order1_plus
        (b1m, v1m) = sys.order1_minus
        return MelnikovParams(
            b=a0p.m12, d=u0p.y, e=u0m.y, xi=math.sqrt(-data[1]),
            b11m=b1m.m11, b22m=b1m.m22, v1m=v1m.x,
            b11p=b1p.m11, b22p=b1p.m22, v1p=v1p.x,
        )


def _positive(x, message: str):
    """``x`` as a float if it is a number or 0-d, else as a float array;
    ValueError(message) unless every entry is > 0 (NaN passes)."""
    if not isinstance(x, (int, float)):
        if np.ndim(x) == 0:
            x = float(x)
        else:
            x = np.asarray(x, dtype=float)
            if (x <= 0).any():
                raise ValueError(message)
            return x
    if x <= 0:
        raise ValueError(message)
    return float(x)


def _atan_of(x):
    """``np.arctan`` for an array ``x``, ``math.atan`` for a float."""
    return np.arctan if isinstance(x, np.ndarray) else math.atan


# M1's arc term G(s) = (s^2+1)*arccos(2/(s^2+1) - 1) = 2(s^2+1)*arctan(s) on s > 0,
# in the form that keeps its digits as s -> 0: _ARC_TERM[k](s, atan) is G^(k)(s),
# with atan np.arctan (the same bits for a number and an array) or math.atan.
_ARC_TERM = (
    lambda s, atan=np.arctan: 2.0 * (s * s + 1.0) * atan(s),
    lambda s, atan=np.arctan: 4.0 * s * atan(s) + 2.0,
    lambda s, atan=np.arctan: 4.0 * atan(s) + 4.0 * s / (1.0 + s * s),
    lambda s, atan=np.arctan: 8.0 / (1.0 + s * s) ** 2,
)


def _arc_per_amplitude(r, atan):
    """H(r) = G(r)/(2r) = arctan(r)/r + r*arctan(r), the arc term per unit
    amplitude: it forms no r^2 to overflow, and arctan(r)/r is exactly 1 at
    tiny r.  A float r = 0 raises ZeroDivisionError; an array gives NaN."""
    a = atan(r)
    return a / r + r * a


def _right_zone(t: _M1Terms, y0, caller: str):
    """k0 - kappa*H(xi*y0/d), the right zone's part of M1; a float y0 at
    which xi*y0/d rounds to 0 raises ValueError naming it."""
    try:
        return t.k0 - t.kappa * _arc_per_amplitude(t.xi_d * y0, _atan_of(y0))
    except ZeroDivisionError:  # a float only: an array's entry becomes NaN
        raise ValueError(f"{caller} needs y0 = {y0!r} large enough that "
                         "xi*y0/d does not round to 0") from None


def m1(p: MelnikovParams, y0):
    """First-order Melnikov function at amplitude y0 > 0: a float (``math``)
    for a number, an array (numpy) for an array; NaN amplitudes give NaN.

    M1(y0) = k0 - kappa H(xi y0/d) - sm e - (sm e^2/y0 + sm y0) (pi - arctan(y0/e)),

    the paper's sum of two arc terms (x^2 + t) arccos(2x^2/(x^2 + t) - 1)
    = 2 (x^2 + t) arctan(sqrt(t)/x), one per zone, with k0, kappa and H as
    in ``_M1Terms`` and ``_arc_per_amplitude``.
    """
    y0 = _positive(y0, "m1 needs y0 > 0")
    t = p._terms
    left = t.sme + (t.sme2 / y0 + t.sm * y0) * (math.pi - _atan_of(y0)(y0 / t.e))
    return _right_zone(t, y0, "m1") - left


def m1_constrained(p: MelnikovParams, y0):
    """M1 specialized to b11m = -b22m (vanishing first-order left trace); y0 as in m1.

    M1(y0) = 2 v1m + 2 v1p / b + kappa - kappa H(xi y0/d),  kappa = d (b11p + b22p) / xi^2,

    with H(r) = arctan(r)/r + r arctan(r), the right zone's part of ``m1``.
    """
    if not p.constrained:
        raise ConstraintViolated("m1_constrained needs b11m = -b22m")
    y0 = _positive(y0, "m1_constrained needs y0 > 0")
    return _right_zone(p._terms, y0, "m1_constrained")


@dataclass(frozen=True)
class ReducedParams:
    """Data of the rescaled Melnikov combination.

    alpha = e*xi and beta = d/alpha; the amplitude substitution is
    y0 = d*s0/xi = alpha*beta*s0/xi, under which

        mtilde1(s0) = 2*b*beta*xi^2*s0 * M1(d*s0/xi)
                    = K0*s0 + K1*(G(beta s0) - 2 pi (beta^2 s0^2 + 1)) + K2*G(s0)

    with the arc term G(s) = (s^2+1)*arccos(2/(s^2+1) - 1) = 2(s^2+1)*arctan(s).
    k0, k1 are the analogous constants of the constrained case, where
    s0 * M1(d*s0/xi) = k0*s0 + k1*G(s0).
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
        k0 = p._terms.k0
        k1 = -p.d * sp / (2.0 * xi * xi)
        return ReducedParams(alpha=alpha, beta=beta, K0=K0, K1=K1, K2=K2, k0=k0, k1=k1)


def m1_reduced(red: ReducedParams, s0):
    """The rescaled combination mtilde1(s0); zeros coincide with M1's."""
    s0 = _positive(s0, "m1_reduced needs s0 > 0")
    g, bs, atan = _ARC_TERM[0], red.beta * s0, _atan_of(s0)
    return (red.K0 * s0 + red.K1 * (g(bs, atan) - 2.0 * math.pi * (bs * bs + 1.0))
            + red.K2 * g(s0, atan))


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
    if not (0 < lo < hi < math.inf):
        raise ValueError("need finite 0 < lo < hi")
    opts = opts or RootFindOptions()
    ys = _grid(lo, hi, opts.grid)
    vals = np.asarray(f(ys), dtype=float)
    pos, neg = vals > 0, vals < 0
    # strict sign changes, + to - or - to +: a zero or a NaN makes none
    idx = ((pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])).nonzero()[0]
    on_nodes = (vals == 0).nonzero()[0]
    if not (len(idx) or len(on_nodes)):
        return []
    # np.nanmax without its all-NaN warning, which cannot arise here
    scale = float(np.fmax.reduce(np.abs(vals))) / (hi - lo)
    tol = opts.refine_tol
    roots = []
    for i in idx:
        a, b_ = float(ys[i]), float(ys[i + 1])
        positive = float(vals[i]) > 0  # the sign of f at a, kept as a moves
        for _ in range(200):
            if b_ - a < tol * max(1.0, b_):
                break
            mid = 0.5 * (a + b_)
            fm = _feval(f, mid)
            if fm == 0.0:
                a = b_ = mid
                break
            if (fm > 0) == positive:
                a = mid
            else:
                b_ = mid
        root = 0.5 * (a + b_)
        h = 1e-6 * max(1.0, root)
        if root - h < lo:  # keep the slope probe inside the domain
            h = 0.5 * (root - lo)
        slope = (_feval(f, root + h) - _feval(f, root - h)) / (2.0 * h)
        flag = RootFlag.SUSPECT if abs(slope) < SUSPECT_REL * max(scale, 1e-300) \
            else RootFlag.SIMPLE
        roots.append((float(root), flag))
    # exact zeros sitting on grid nodes
    for i in on_nodes:
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
    ordered = sorted(roots, key=lambda r: r[0])
    n = len(ordered)
    # a cycle's sign is the highest one's (the negated infinity sign) or the
    # lowest one's, flipped once per root in between
    if sgn_inf:
        labels = [stability_from_sign(-sgn_inf * (-1) ** (n - 1 - k)) for k in range(n)]
    else:
        # the lowest cycle is stable when M1 < 0 near 0+
        sgn_low = (scaled_sign(p.trace_minus, p.b11m, p.b22m)
                   or scaled_sign(p.drift, p.b * p.v1m, p.v1p))
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
