"""Independent numerical references for the closed forms under test.

Everything here deliberately avoids the package's own flow machinery:
zone fields are integrated with scipy's adaptive solvers and switching
events are located on the integrator's dense output, and the angular
system at infinity is stepped by fixed-step RK4 on the polar field of the
plane inversion, ``polar_bendixson_rhs`` below.  The exceptions are
``first_component_zero_reference``, the event search as a full numpy
scan: a differential reference that shares the package's event set-up,
and ``affine_flow(M, u)``, which sets up the package's zone flow from a
matrix and an offset for the tests that flow one zone.
``expm_states`` flows a zone by scipy's matrix exponential, the reference
for the closed-form zone flow where its branch changes at w2 = 0.
``singular_points_reference`` solves each zone for its singular point on
its own, the bit reference for the stacked solve of ``check_hypotheses``.
``stencil_family`` gives a function family finite-difference derivatives,
the reference for the analytic derivatives of the shipped families, and
``deriv`` reads one derivative of a family at a point or over an array.
``mat``/``vec``, ``zone_arrays`` and ``field`` are the numpy forms of the
records, of a zone at the system's eps and of the planar field; the
package itself reads only the six floats per zone of ``PwlSystem._entries``.
``m1_arctan_reference`` and ``m1_constrained_arctan_reference`` are
``melnikov``'s arctan form of ``M1`` with every product formed in the call:
the bit reference for the numbers it resolves once per parameter set.
``m1_reference`` and ``m1_constrained_reference`` are the paper's arccos
form, the independent oracle within that form's conditioning; their arccos
keeps a clamp within 1e-14 of +-1 and raises ``MelnikovDomainError`` beyond
it.  ``m1_longdouble`` evaluates the arccos form in long double, the
accuracy reference for the float ``M1``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from pwlcycles.core import Mat2, PwlSystem, Vec2
from pwlcycles.ect import FunctionFamily
from pwlcycles.errors import PwlError
from pwlcycles.flow import AffineFlow, _equilibria


class MelnikovDomainError(PwlError):
    """An arccos argument left [-1, 1] beyond the clamping tolerance."""


class OriginUndefined(PwlError):
    """Plane inversion is undefined at the origin."""


class ThetaDotVanishes(PwlError):
    """Angular speed vanished; the angular return map is undefined there."""


def mat(m: Mat2) -> np.ndarray:
    """The 2x2 array of a matrix record."""
    return np.array([[m.m11, m.m12], [m.m21, m.m22]], dtype=float)


def vec(u: Vec2) -> np.ndarray:
    """The (2,) array of an offset record."""
    return np.array([u.x, u.y], dtype=float)


def zone_arrays(sys: PwlSystem, side: str) -> tuple[np.ndarray, np.ndarray]:
    """(A + eps*B + eps^2*C, u + eps*v + eps^2*w) of ``side`` at the
    system's eps, by numpy from the order records: the expression whose
    bits ``PwlSystem._entries`` keeps."""
    eps = sys.epsilon
    (a, u), (b, v), (c, w) = sys.orders(side)
    return (mat(a) + eps * mat(b) + eps * eps * mat(c),
            vec(u) + eps * vec(v) + eps * eps * vec(w))


def field(sys: PwlSystem, point, side: str | None = None) -> np.ndarray:
    """The vector field at ``point``; the zone follows sign(x) unless forced."""
    p = np.asarray(point, dtype=float)
    if side is None:
        side = "plus" if p[0] >= 0.0 else "minus"
    m, u = zone_arrays(sys, side)
    return m @ p + u


def affine_flow(M, u) -> AffineFlow:
    """The zone flow of X' = M X + u, its equilibrium by one solve."""
    (a, b), (c, d) = np.asarray(M, dtype=float).tolist()
    zone = (a, b, c, d, *np.asarray(u, dtype=float).tolist())
    return AffineFlow(zone, _equilibria((zone,))[0])


def deriv(fam: FunctionFamily, i: int, k: int, s0):
    """k-th derivative of member i of ``fam`` at a float s0 (a float), or
    over an array of points (an array of its shape)."""
    fs = (fam.members[i], *fam.derivatives[i])
    if not 0 <= k < len(fs):
        raise ValueError(f"k must be in [0, {len(fs) - 1}] for member {i}, got {k}")
    val = np.asarray(fs[k](s0), dtype=float)
    if val.shape != np.shape(s0):
        val = np.broadcast_to(val, np.shape(s0))
    return val if val.shape else float(val)


def integrate_zone(M, u, x0, t, rtol=1e-12, atol=1e-14):
    """Endpoint of X' = M X + u after time t (signed), adaptive RK."""
    M = np.asarray(M, dtype=float)
    u = np.asarray(u, dtype=float)

    def rhs(_t, X):
        return M @ X + u

    sol = solve_ivp(rhs, (0.0, t), np.asarray(x0, dtype=float),
                    rtol=rtol, atol=atol, dense_output=True)
    assert sol.success
    return sol.y[:, -1]


def first_return_displacement(sys, y0, t_guess=120.0):
    """y_return - y0 of the first return to {x = 0, y > 0}, zone by zone.

    Integrates each linear zone separately with terminal events on x = 0,
    so no discontinuity is ever stepped across.
    """
    X = np.array([0.0, float(y0)])
    for side in ("minus", "plus"):
        M, u = zone_arrays(sys, side)

        def rhs(_t, X_):
            return M @ X_ + u

        sol = solve_ivp(rhs, (0.0, t_guess), X, rtol=1e-12, atol=1e-14,
                        dense_output=True, first_step=1e-8)
        ts = np.linspace(1e-6, sol.t[-1], 400_000)
        xs = sol.sol(ts)[0]
        sgn = np.sign(xs)
        idx = np.where(sgn[:-1] * sgn[1:] < 0)[0]
        assert len(idx) > 0, "no switching-line crossing found"
        lo, hi = ts[idx[0]], ts[idx[0] + 1]
        f_lo = sol.sol(lo)[0]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = sol.sol(mid)[0]
            if (fm > 0) == (f_lo > 0):
                lo, f_lo = mid, fm
            else:
                hi = mid
        X = sol.sol(0.5 * (lo + hi))
        X[0] = 0.0
    return float(X[1]) - float(y0)


def push_pairs_reference(change, pairs):
    """Each (M, u) pair in the coordinates Y = Q X + q, tau = rho t of
    ``change``: (Q M Q^-1 / rho, Q (u - M Q^-1 q) / rho) as arrays, by numpy
    products and ``np.linalg.inv``."""
    q = np.array(change.offset, dtype=float)
    qm = np.array(change.linear, dtype=float)
    qinv = np.linalg.inv(qm)
    rho = change.time_scale
    return [(qm @ mat(m) @ qinv / rho, qm @ (vec(u) - mat(m) @ (qinv @ q)) / rho)
            for m, u in pairs]


def singular_points_reference(sys):
    """The singular points of the order-0 left and right zones, each by its
    own ``np.linalg.solve`` of M X = -u: the per-zone LAPACK solves whose
    bits the stacked solve of ``check_hypotheses`` keeps."""
    return [tuple(np.linalg.solve(mat(m), -vec(u)).tolist())
            for m, u in (sys.order0_minus, sys.order0_plus)]


def seeded_systems(seed: int, n: int):
    """``n`` systems with every perturbation order drawn from ``seed``: each
    (matrix, offset) pair normal, scaled by its own power of ten in
    [1e-3, 1e3], at eps 0."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        pairs = []
        for scale in 10.0 ** rng.uniform(-3.0, 3.0, 6):
            m11, m12, m21, m22, x, y = (rng.normal(size=6) * scale).tolist()
            pairs.append((Mat2(m11, m12, m21, m22), Vec2(x, y)))
        yield PwlSystem(*pairs)


def sliding_time(sys, ya, yb):
    """Signed time to slide along x = 0 from (0, ya) to (0, yb).

    Adaptive quadrature of dy / (dy/dt), with dy/dt the y-component of the
    Filippov convex combination of the two zone fields at (0, y).
    """
    (mp, up), (mm, um) = zone_arrays(sys, "plus"), zone_arrays(sys, "minus")

    def inv_speed(y):
        fp = mp @ (0.0, y) + up
        fm = mm @ (0.0, y) + um
        return (fm[0] - fp[0]) / (fm[0] * fp[1] - fp[0] * fm[1])

    value, _err = quad(inv_speed, ya, yb, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


@lru_cache(maxsize=8)
def _expm_grid(m_bytes: bytes, shape: tuple, direction: float, t_end: float, n: int):
    """The grid of ``velocity_zeros`` and expm(M t) on it, t = direction*tau,
    in one batched call; it depends on neither the start nor the component."""
    M = np.frombuffer(m_bytes).reshape(shape)
    taus = np.linspace(0.0, t_end, n)
    flows = expm(M[None] * (direction * taus)[:, None, None])
    flows.setflags(write=False)
    return taus, flows


def expm_states(M, u, x0, ts):
    """States at the times ``ts`` of X' = M X + u from x0: expm(M t)
    (x0 - e) + e with e the equilibrium, from scipy's matrix exponential
    in one batched call."""
    M = np.asarray(M, dtype=float)
    e = np.linalg.solve(M, -np.asarray(u, dtype=float))
    flows = expm(M[None] * np.asarray(ts, dtype=float)[:, None, None])
    return flows @ (np.asarray(x0, dtype=float) - e) + e


def velocity_zeros(M, u, x0, direction, t_end, component, n=4000):
    """Times tau in (0, t_end) at which the coordinate of X' = M X + u
    flowed from x0 over t = direction*tau is stationary.

    The velocity is expm(M t) (M x0 + u), from scipy's matrix exponential;
    sign changes on a dense grid, evaluated in one batched call, are
    refined by brentq.
    """
    M = np.asarray(M, dtype=float)
    v0 = M @ np.asarray(x0, dtype=float) + np.asarray(u, dtype=float)

    def velocity(tau):
        return (expm(M * (direction * tau)) @ v0)[component]

    taus, flows = _expm_grid(M.tobytes(), M.shape, direction, t_end, n)
    vals = (flows @ v0)[:, component]
    return [brentq(velocity, taus[i], taus[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for i in range(n - 1) if vals[i] * vals[i + 1] < 0]


def plain_bisection(g, t_lo, t_hi):
    """Bisection of a bracketed sign change of g down to adjacent doubles,
    evaluating every midpoint: the refinement the event search must match
    to the bit."""
    g_lo = g(t_lo)
    for _ in range(200):
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


def first_component_zero_reference(zone, X0, direction, t_budget, component=0, target=0.0):
    """``flow.first_component_zero`` as a full scan: every critical time in
    the budget is listed, all breakpoints are evaluated in one numpy array,
    and the first sign change is bisected on the ``math`` form of the
    coordinate, with numpy's +-inf or nan where ``math`` overflows.

    A differential reference for the lazy walk, its envelope skip and the
    refinement, not an independent one: it shares ``flow._Coordinate``'s
    set-up and critical times and the noise and graze rules, and bisects
    with ``plain_bisection``, which evaluates every midpoint.
    """
    from pwlcycles.flow import _NOISE, _Coordinate, _abs_max

    X0 = np.asarray(X0, dtype=float)
    coord = _Coordinate(zone, X0, direction, component, target)

    def g(tau, lib=math):
        c, s = zone._cs(tau, lib)
        return lib.exp(coord.m * tau) * (coord.P * c + coord.Q * s) + coord.R

    def g_float(tau):
        try:
            return g(tau)
        except (OverflowError, ValueError):
            with np.errstate(all="ignore"):
                return float(g(np.float64(tau), np))

    scale = max(1.0, _abs_max(X0.tolist()), zone._eq_size)
    graze_tol, noise = 1e-11 * scale, _NOISE * scale
    ts = [0.0, *coord.critical_times(t_budget), t_budget]
    with np.errstate(all="ignore"):
        values = g(np.array(ts), np).tolist()
    ref = t_prev = 0.0
    for i, (t, v) in enumerate(zip(ts, values)):
        if ref == 0.0:
            if abs(v) > noise:
                ref = v
        elif abs(v) <= noise or (ref * v > 0.0 and abs(v) < graze_tol):
            if i < len(ts) - 1:
                return direction * t, "graze"
        elif ref * v < 0.0:
            return direction * plain_bisection(g_float, t_prev, t), "cross"
        t_prev = t
    return None, "none"


# ---------------------------------------------------------------------------
# the angular system at infinity (plane inversion in polar coordinates)
# ---------------------------------------------------------------------------

def bendixson_map(x: float, y: float) -> tuple[float, float]:
    """Plane inversion (x, y) -> (x, y)/(x^2 + y^2); an involution."""
    r2 = x * x + y * y
    if r2 == 0.0:
        raise OriginUndefined("inversion undefined at the origin")
    return (x / r2, y / r2)


def polar_bendixson_rhs(sys: PwlSystem, r: float, theta: float,
                        side: str | None = None):
    """(dr/dt, dtheta/dt) of the inverted system at (r, theta), r > 0.

    The zone follows sign(cos theta) (x and u share sign); ``side`` forces
    it, which integrators use at the half boundaries where cos theta
    rounds ambiguously.
    """
    if r <= 0:
        raise ValueError("polar radius must be positive")
    c, s = math.cos(theta), math.sin(theta)
    if side is None:
        side = "plus" if c >= 0 else "minus"
    x, y = c / r, s / r
    f, g = field(sys, (x, y), side)
    dr = -r * r * (f * c + g * s)
    dth = r * (g * c - f * s)
    if abs(dth) < 1e-14 * max(1.0, abs(f) + abs(g)) * r:
        raise ThetaDotVanishes(f"angular speed vanished at r={r}, theta={theta}")
    return float(dr), float(dth)


def _drdtheta(sys: PwlSystem, r: float, theta: float, side: str | None = None) -> float:
    dr, dth = polar_bendixson_rhs(sys, r, theta, side)
    return dr / dth


def poincare_displacement_rk4(sys: PwlSystem, r0: float, n_steps: int = 8192) -> float:
    """Radial displacement of the angular return map starting at r0.

    Integrates dr/dtheta over one revolution from theta = -pi/2, split at
    the zone boundaries theta = +-pi/2 so each RK4 half sees a smooth
    right-hand side (the zone is pinned per half; a boundary stage must
    not round into the wrong one).  At the unperturbed system the
    displacement vanishes identically (every planar orbit is closed).
    """
    r = float(r0)
    for t0, t1, side in ((-math.pi / 2, math.pi / 2, "plus"),
                         (math.pi / 2, 3 * math.pi / 2, "minus")):
        h = (t1 - t0) / n_steps
        th = t0
        for _ in range(n_steps):
            k1 = _drdtheta(sys, r, th, side)
            k2 = _drdtheta(sys, r + 0.5 * h * k1, th + 0.5 * h, side)
            k3 = _drdtheta(sys, r + 0.5 * h * k2, th + 0.5 * h, side)
            k4 = _drdtheta(sys, r + h * k3, th + h, side)
            r += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            th += h
    return r - r0


# ---------------------------------------------------------------------------
# first-order radial corrections near r = 0 (variational system)
# ---------------------------------------------------------------------------

def _zone_pq(M, c: float, s: float) -> tuple[float, float]:
    """P = (row2.(c,s)) c - (row1.(c,s)) s and Q = (row1.(c,s)) c + (row2.(c,s)) s."""
    f = M[0, 0] * c + M[0, 1] * s
    g = M[1, 0] * c + M[1, 1] * s
    return g * c - f * s, f * c + g * s


def radial_variational_rhs(sys: PwlSystem, theta: float) -> tuple[float, float]:
    """(h, k) with drho0/dtheta = h*rho0 and drho1/dtheta = h*rho1 + k*rho0.

    These are the r -> 0 limits of the angular system expanded to first
    order in the perturbation size: with P0, Q0 from the order-0 zone
    matrix and P1, Q1 from the order-1 matrix,
    h = -Q0/P0 and k = -(Q1*P0 - Q0*P1)/P0^2.
    """
    c, s = math.cos(theta), math.sin(theta)
    side = "plus" if c >= 0 else "minus"
    (a0, _), (b1, _), _ = sys.orders(side)
    P0, Q0 = _zone_pq(mat(a0), c, s)
    P1, Q1 = _zone_pq(mat(b1), c, s)
    if abs(P0) < 1e-14:
        raise ThetaDotVanishes(f"angular speed degenerate at theta={theta}")
    return -Q0 / P0, -(Q1 * P0 - Q0 * P1) / (P0 * P0)


def integrate_radial_correction(sys: PwlSystem, theta0: float, theta1: float,
                                rho0: float) -> tuple[float, float]:
    """(rho0(theta1), rho1(theta1)) of the variational pair started at
    (rho0, 0) at theta0.

    The pair is linear, so rho0(theta1) = rho0 * exp(int h) and, since
    (rho1/rho0)' = k, rho1(theta1) = rho0(theta1) * int k, both integrals
    over [theta0, theta1] by adaptive quadrature of the right-hand side.
    """
    def integral(i):
        value, _err = quad(lambda th: radial_variational_rhs(sys, th)[i], theta0, theta1,
                           epsabs=1e-13, epsrel=1e-12, limit=200)
        return value

    r0 = rho0 * math.exp(integral(0))
    return r0, r0 * integral(1)


def right_radial_correction(sys: PwlSystem, rho0: float, theta) -> np.ndarray:
    """Reference closed form of the right-zone first-order radial correction
    (theta in (-pi/2, pi/2), vanishing at -pi/2).

    Kept verbatim as a fixture: as written it is the NEGATIVE of the
    forward variational correction (``integrate_radial_correction``
    confirms; the endpoint value of the true correction at pi/2 is
    -(pi/2)*(b11p+b22p)/xi * rho0, which the final displacement
    coefficient and the nonlinear angular return map both corroborate).
    """
    (a0, _) = sys.order0_plus
    (b1, _) = sys.order1_plus
    a, b, c = a0.m11, a0.m12, a0.m21
    xi = math.sqrt(-(a * a + b * c))
    sp = b1.m11 + b1.m22
    c2, d1 = b1.m12, b1.m21
    th = np.asarray(theta, dtype=float)
    s2, co2 = np.sin(2 * th), np.cos(2 * th)
    root = np.sqrt(-2.0 * a * s2 + (b + c) * co2 - b + c)
    pref = -rho0 / (4.0 * b * xi * math.sqrt(-2.0 * b) * root)
    atan_term = np.arctan(a / xi + b * np.tan(th) / xi)
    val = (2.0 * b * sp * atan_term * (-2.0 * a * s2 + (b + c) * co2 - b + c)
           + 2.0 * s2 * (math.pi * a * b * sp + 2.0 * a * c2 * xi + b * xi * (b1.m22 - b1.m11))
           - co2 * (math.pi * b * (b + c) * sp + 2.0 * xi * (c * c2 - b * d1))
           + math.pi * b * (b - c) * sp + 2.0 * b * d1 * xi - 2.0 * c * c2 * xi)
    return pref * val


# 4th-order central stencils, offsets -3..3, divided by h^order
_STENCILS = {
    1: ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12]),
    2: ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12]),
    3: ([-3, -2, -1, 1, 2, 3], [1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8]),
    4: ([-3, -2, -1, 0, 1, 2, 3], [-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6]),
}

# noise-optimal steps for a 4th-order stencil of the k-th derivative,
# eps_machine^(1/(4+k)); a fixed small step would drown high orders in
# rounding noise (error ~ eps/h^k)
_FD_STEP = {k: float(np.finfo(float).eps ** (1.0 / (4 + k))) for k in _STENCILS}


def _stencil(g, k: int):
    """k-th derivative of g by the fourth-order central stencil, with step
    ``_FD_STEP[k] * max(1, |s0|)`` per point."""
    offs, coefs = _STENCILS[k]

    def d(s0):
        h = _FD_STEP[k] * np.maximum(1.0, np.abs(s0))
        return sum(c * np.asarray(g(s0 + o * h), dtype=float)
                   for o, c in zip(offs, coefs)) / h ** k
    return d


def stencil_family(members, interval, punctures=()) -> FunctionFamily:
    """The family of ``members`` with stencil derivatives of the orders its
    Wronskians read, each calling the members themselves."""
    orders = range(1, len(members))
    return FunctionFamily(members=tuple(members), interval=interval,
                          derivatives=tuple(tuple(_stencil(g, k) for k in orders)
                                            for g in members),
                          punctures=tuple(punctures))


def _acos_reference(arg):
    """arccos clamped within 1e-14 of +-1; MelnikovDomainError beyond."""
    if isinstance(arg, np.ndarray):
        if np.any(np.abs(arg) > 1.0 + 1e-14):
            raise MelnikovDomainError("arccos argument outside [-1, 1] beyond tolerance")
        return np.arccos(np.clip(arg, -1.0, 1.0))
    if abs(arg) > 1.0 + 1e-14:
        raise MelnikovDomainError("arccos argument outside [-1, 1] beyond tolerance")
    return math.acos(min(max(arg, -1.0), 1.0))


def _amplitude(y0):
    """A float for a number, a float array for an array; y0 > 0 is assumed."""
    return float(y0) if np.ndim(y0) == 0 else np.asarray(y0, dtype=float)


def m1_reference(p, y0):
    """``melnikov.m1`` with each parameter product formed in the call."""
    y0 = _amplitude(y0)
    e, d, b, xi = p.e, p.d, p.b, p.xi
    sm, sp = p.trace_minus, p.trace_plus
    left_arg = 2.0 * e * e / (e * e + y0 * y0) - 1.0
    right_arg = 2.0 * d * d / (d * d + xi * xi * y0 * y0) - 1.0
    acl = _acos_reference(left_arg)
    acr = _acos_reference(right_arg)
    inner = (-2.0 * b * d * y0 * xi * sp - 4.0 * p.v1p * y0 * xi ** 3
             + b * sp * (d * d + y0 * y0 * xi * xi) * acr)
    return (4.0 * p.v1m * y0
            - 2.0 * sm * (math.pi * (e * e + y0 * y0) + e * y0)
            + sm * (e * e + y0 * y0) * acl
            - inner / (b * xi ** 3)) / (2.0 * y0)


def m1_constrained_reference(p, y0):
    """``melnikov.m1_constrained`` with each parameter product formed in the call."""
    y0 = _amplitude(y0)
    d, b, xi, sp = p.d, p.b, p.xi, p.trace_plus
    acr = _acos_reference(2.0 * d * d / (d * d + xi * xi * y0 * y0) - 1.0)
    return (2.0 * p.v1m + 2.0 * p.v1p / b + d * sp / (xi * xi)
            - sp * (d * d + xi * xi * y0 * y0) * acr / (2.0 * y0 * xi ** 3))


def m1_arctan_reference(p, y0):
    """``melnikov.m1``'s arctan form with each parameter product formed in
    the call: ``math.atan`` for a number, ``np.arctan`` for an array."""
    y0 = _amplitude(y0)
    atan = np.arctan if isinstance(y0, np.ndarray) else math.atan
    e, sm = p.e, p.trace_minus
    left = sm * e + (sm * e * e / y0 + sm * y0) * (math.pi - atan(y0 / e))
    return m1_constrained_arctan_reference(p, y0) - left


def m1_constrained_arctan_reference(p, y0):
    """``melnikov.m1_constrained``'s arctan form with each parameter product
    formed in the call."""
    y0 = _amplitude(y0)
    atan = np.arctan if isinstance(y0, np.ndarray) else math.atan
    kappa = p.d * p.trace_plus / (p.xi * p.xi)
    r = p.xi / p.d * y0
    a = atan(r)
    return 2.0 * p.v1m + 2.0 * p.v1p / p.b + kappa - kappa * (a / r + r * a)


def m1_longdouble(p, ys, constrained: bool = False) -> np.ndarray:
    """M1's arccos formula, or its constrained form, in ``np.longdouble`` at
    the float amplitudes ``ys``, from the exact fields of ``p`` (the traces
    are summed in long double): an accuracy reference for the float M1."""
    ld = np.longdouble
    y = np.asarray(ys, dtype=ld)
    e, d, b, xi = ld(p.e), ld(p.d), ld(p.b), ld(p.xi)
    sm, sp = ld(p.b11m) + ld(p.b22m), ld(p.b11p) + ld(p.b22p)
    u_r = d * d + xi * xi * y * y
    out = (2 * ld(p.v1m) + 2 * ld(p.v1p) / b + d * sp / (xi * xi)
           - sp * u_r * np.arccos(2 * d * d / u_r - 1) / (2 * y * xi ** 3))
    if constrained:
        return out
    u_l = e * e + y * y
    pi = np.arccos(ld(-1))
    return out + sm * (u_l * np.arccos(2 * e * e / u_l - 1) - 2 * (pi * u_l + e * y)) / (2 * y)
