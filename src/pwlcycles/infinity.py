"""Plane inversion, the induced angular system, and stability of the
periodic orbit at infinity.

Inverting the plane through (u, v) = (x, y)/(x^2+y^2) conjugates a
neighborhood of infinity to a neighborhood of the origin; in polar
coordinates u = r cos(theta), v = r sin(theta) the system becomes

    dr/dt     = -r^2 (f cos(theta) + g sin(theta)),
    dtheta/dt =  r   (g cos(theta) - f sin(theta)),

with (f, g) the planar field evaluated at (cos(theta)/r, sin(theta)/r)
and the zone selected by sign(cos(theta)) (x and u share sign).  For the
two-zone center the angular speed extends to r = 0 and is positive, so
r = 0 is a periodic orbit: the image of infinity.  Its first-order radial
displacement per revolution is

    -(pi/2) * eps * r * ((b11m + b22m) + (b11p + b22p)/xi),

so infinity attracts exactly when xi*(b11m+b22m) + b11p + b22p > 0.

The angular return map is exact: the inversion keeps polar angles, so a
revolution of the angular system is a planar first return to x = 0,
which the event-driven simulator follows on the closed-form zone flows.
The inversion, the polar right-hand side above and the fixed-step RK4 of
dr/dtheta that the simulator replaced stay in the test suite as an
independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PwlSystem
from .flow import _first_return
from .melnikov import MelnikovParams, Stability, infinity_sign, stability_from_sign
from .sigma import normal_components


@dataclass(frozen=True)
class InfinityReport:
    coefficient: float
    stability: Stability

    def to_dict(self) -> dict:
        return {"coefficient": self.coefficient, "stability": self.stability.value}


def infinity_stability(p: MelnikovParams) -> InfinityReport:
    """First-order radial-displacement coefficient at r = 0 and the verdict.

    coefficient = -(pi/2) ((b11m+b22m) + (b11p+b22p)/xi); the periodic
    orbit at infinity is stable (attracting) when
    xi*(b11m+b22m) + b11p+b22p > 0.
    """
    coef = -(math.pi / 2.0) * (p.trace_minus + p.trace_plus / p.xi)
    return InfinityReport(coefficient=coef, stability=stability_from_sign(infinity_sign(p)))


def poincare_displacement(sys: PwlSystem, r0: float) -> float:
    """Radial displacement of the angular return map starting at r0.

    The inversion keeps polar angles and maps radius r to 1/r, so one
    revolution from theta = -pi/2 is the planar first return from
    (0, -1/r0) to {x = 0, y < 0}, run so that theta increases: forward
    when the flow from there enters x > 0, backward otherwise.  The exact
    simulator follows it and records no samples: only the crossing is
    read.  At the unperturbed system the displacement
    vanishes identically (every planar orbit is closed).  An r0 outside
    (0, inf), or one whose 1/r0 overflows, raises ``ValueError``.
    """
    if not 0.0 < r0 < math.inf or not math.isfinite(1.0 / r0):
        raise ValueError(f"polar radius r0 must lie in (0, inf) with a finite 1/r0, got {r0}")
    y0 = -1.0 / r0
    backward = max(normal_components(sys, y0)) < 0
    return 1.0 / abs(_first_return(sys, y0, backward=backward)) - r0


# ---------------------------------------------------------------------------
# first-order radial correction near r = 0 (variational system)
# ---------------------------------------------------------------------------

def left_radial_correction(sys: PwlSystem, rho0: float, theta) -> np.ndarray:
    """Closed form of the left-zone first-order radial correction started
    with value 0 at theta = pi/2 (where the left solution begins):

    rho1(theta) = (rho0/4) (-2 b11 theta - b11 sin 2theta + pi b11
                  + (b12 + b21)(cos 2theta + 1) - 2 b22 theta
                  + b22 sin 2theta + pi b22).
    """
    (b1, _) = sys.order1_minus
    b11, b12, b21, b22 = b1.m11, b1.m12, b1.m21, b1.m22
    th = np.asarray(theta, dtype=float)
    return (rho0 / 4.0) * (
        -2.0 * b11 * th - b11 * np.sin(2 * th) + math.pi * b11
        + (b12 + b21) * (np.cos(2 * th) + 1.0)
        - 2.0 * b22 * th + b22 * np.sin(2 * th) + math.pi * b22
    )
