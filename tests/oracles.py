"""Independent numerical references for the closed forms under test.

Everything here deliberately avoids the package's own flow machinery:
zone fields are integrated with scipy's adaptive solvers and switching
events are located on the integrator's dense output, and the angular
system at infinity is stepped by fixed-step RK4 on the polar field of the
plane inversion, ``polar_bendixson_rhs`` below.  The one exception is
``first_component_zero_reference``, the event search as a full numpy
scan: a differential reference that shares the package's event set-up.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from pwlcycles.core import PwlSystem
from pwlcycles.errors import PwlError


class OriginUndefined(PwlError):
    """Plane inversion is undefined at the origin."""


class ThetaDotVanishes(PwlError):
    """Angular speed vanished; the angular return map is undefined there."""


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
        M, u = sys.zone(side)

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
    return [(qm @ m.array @ qinv / rho, qm @ (u.array - m.array @ (qinv @ q)) / rho)
            for m, u in pairs]


def sliding_time(sys, ya, yb):
    """Signed time to slide along x = 0 from (0, ya) to (0, yb).

    Adaptive quadrature of dy / (dy/dt), with dy/dt the y-component of the
    Filippov convex combination of the two zone fields at (0, y).
    """
    (mp, up), (mm, um) = sys.zone("plus"), sys.zone("minus")

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


def first_component_zero_reference(zone, X0, direction, t_budget, component=0, target=0.0):
    """``flow.first_component_zero`` as a full scan: every critical time in
    the budget is listed, all breakpoints are evaluated in one numpy array,
    and the first sign change is bisected on the ``math`` form of the
    coordinate, with numpy's +-inf or nan where ``math`` overflows.

    A differential reference for the lazy walk and its envelope skip, not
    an independent one: it shares ``flow._Coordinate``'s set-up and
    critical times, the noise and graze rules and ``flow._refine_crossing``.
    """
    from pwlcycles.flow import _NOISE, _Coordinate, _abs_max, _refine_crossing

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
            return direction * _refine_crossing(g_float, t_prev, t, 0.0), "cross"
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
    f, g = sys.field((x, y), side)
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
    P0, Q0 = _zone_pq(a0.array, c, s)
    P1, Q1 = _zone_pq(b1.array, c, s)
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
