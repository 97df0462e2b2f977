"""Independent numerical references for the closed forms under test.

Everything here deliberately avoids the package's own flow machinery:
zone fields are integrated with scipy's adaptive solvers and switching
events are located on the integrator's dense output.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq


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
        M = sys.zone_matrix(side)
        u = sys.zone_offset(side)

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


def sliding_time(sys, ya, yb):
    """Signed time to slide along x = 0 from (0, ya) to (0, yb).

    Adaptive quadrature of dy / (dy/dt), with dy/dt the y-component of the
    Filippov convex combination of the two zone fields at (0, y).
    """
    def inv_speed(y):
        fp = sys.zone_matrix("plus") @ (0.0, y) + sys.zone_offset("plus")
        fm = sys.zone_matrix("minus") @ (0.0, y) + sys.zone_offset("minus")
        return (fm[0] - fp[0]) / (fm[0] * fp[1] - fp[0] * fm[1])

    value, _err = quad(inv_speed, ya, yb, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def velocity_zeros(M, u, x0, direction, t_end, component, n=4000):
    """Times tau in (0, t_end) at which the coordinate of X' = M X + u
    flowed from x0 over t = direction*tau is stationary.

    The velocity is expm(M t) (M x0 + u), from scipy's matrix exponential;
    sign changes on a dense grid are refined by brentq.
    """
    M = np.asarray(M, dtype=float)
    v0 = M @ np.asarray(x0, dtype=float) + np.asarray(u, dtype=float)

    def velocity(tau):
        return (expm(M * (direction * tau)) @ v0)[component]

    taus = np.linspace(0.0, t_end, n)
    vals = [velocity(tau) for tau in taus]
    return [brentq(velocity, taus[i], taus[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for i in range(n - 1) if vals[i] * vals[i + 1] < 0]
