"""Built-in demonstration systems used by the golden tests and the CLI.

Example 1 is a first-order perturbation of the two-zone center producing
three crossing limit cycles; Example 2 is a second-order perturbation with
a vanishing first-order left trace exhibiting a sliding cycle together
with one crossing cycle.

The constants below record oracle-confirmed values.  Example 1 is quoted
with cycles at amplitudes 1 and 2 and a third zero at 3.82781; those are
the exact zeros of M1 for first-order coefficients v1m and b11p that
``example_one`` carries rounded to two decimals (-2.65 and 0.21).  The
rounded system's M1 vanishes at the EXAMPLE1_M1_ROOTS values instead
(confirmed independently by the finite-difference simulation oracle);
``example_one_unrounded`` recovers the two coefficients by solving
M1(1) = M1(2) = 0, and its third zero is 3.8278054905.  Example 2 ships
with a legacy closed-form displacement expression that does not match its
own parameters (it corresponds to xi = 0.5 and a right first-order trace
of 0.1 rather than the system's xi = 1 and 1.1); both are kept, the system's
own root under EXAMPLE2_SYSTEM_ROOT and the legacy expression under
``example_two_nominal_m1`` with its root EXAMPLE2_NOMINAL_ROOT.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import PwlSystem, canonical_system
from .melnikov import MelnikovParams, m1
from .sliding import SlidingParams

EXAMPLE1_M1_ROOTS = (1.01060799386648, 1.99176809163252, 3.72203555397127)
EXAMPLE1_NOMINAL_ROOTS = (1.0, 2.0, 3.82781)   # quoted zeros of the unrounded system
EXAMPLE2_SYSTEM_ROOT = 2.12882852534382
EXAMPLE2_NOMINAL_ROOT = 7.94621657317126       # root of the legacy expression


def example_one(epsilon: float = 0.0) -> PwlSystem:
    """Three crossing limit cycles from a first-order perturbation."""
    return canonical_system(
        a=1.0, b=-1.0, c=1.01, d=0.1, e=0.55,
        B_minus=[[-1.0, 0.0], [0.0, -1.0]], v_minus=[-2.65, 0.0],
        B_plus=[[0.21, 0.0], [0.0, 0.0]], v_plus=[0.0, 0.0],
        epsilon=epsilon,
    )


def example_one_params() -> MelnikovParams:
    return MelnikovParams.from_system(example_one())


def example_one_unrounded_coefficients() -> tuple[float, float]:
    """The (v1m, b11p) for which example 1's M1 vanishes at amplitudes 1 and 2.

    M1 is affine in v1m and b11p, so the pair solves a 2x2 linear system
    whose columns are the changes of M1(1), M1(2) under a unit step in
    each coefficient.  ``example_one`` carries these values rounded to two
    decimals.
    """
    base = replace(example_one_params(), v1m=0.0, b11p=0.0)
    ys = np.array(EXAMPLE1_NOMINAL_ROOTS[:2])
    f0 = m1(base, ys)
    cols = (m1(replace(base, v1m=1.0), ys) - f0, m1(replace(base, b11p=1.0), ys) - f0)
    v1m, b11p = np.linalg.solve(np.column_stack(cols), -f0)
    return float(v1m), float(b11p)


def example_one_unrounded(epsilon: float = 0.0) -> PwlSystem:
    """``example_one`` with its v1m and b11p at their unrounded values."""
    v1m, b11p = example_one_unrounded_coefficients()
    sys = example_one(epsilon)
    (b_plus, v_plus), (b_minus, v_minus) = sys.order1_plus, sys.order1_minus
    return replace(sys, order1_plus=(replace(b_plus, m11=b11p), v_plus),
                   order1_minus=(b_minus, replace(v_minus, x=v1m)))


def example_one_unrounded_params() -> MelnikovParams:
    return MelnikovParams.from_system(example_one_unrounded())


def example_two(epsilon: float = 0.0) -> PwlSystem:
    """One sliding cycle plus one crossing cycle (second-order data)."""
    return canonical_system(
        a=-1.0, b=-1.0, c=2.0, d=2.0, e=1.0,
        B_minus=[[1.0, 0.0], [0.0, -1.0]], v_minus=[0.2, 0.0],
        B_plus=[[1.5, 0.0], [0.0, -0.4]], v_plus=[-0.5, 0.0],
        C_minus=[[0.03, 0.0], [0.0, 0.02]], w_minus=[0.0, 0.0],
        epsilon=epsilon,
    )


def example_two_params() -> MelnikovParams:
    return MelnikovParams.from_system(example_two())


def example_two_sliding_params(epsilon: float = 1e-2) -> SlidingParams:
    return SlidingParams.from_system(example_two(epsilon))


def example_two_nominal_m1(y0):
    """Example 2's legacy closed-form displacement expression.

    Kept verbatim as a labeled fixture; it does not match the bundled
    system (see module docstring), whose own first-order displacement is
    ``m1_constrained(example_two_params(), y0)``.
    """
    y0 = np.asarray(y0, dtype=float)
    return 2.2 - (0.1 * y0 + 1.6 / y0) * np.arccos(8.0 / (0.25 * y0 * y0 + 4.0) - 1.0)


def type_one_sliding_params(epsilon: float = 1e-2) -> SlidingParams:
    """A constructed parameter set strictly inside the Type-I window,
    with all sign conditions (including 0 < a < d + b*e) satisfied."""
    return SlidingParams(
        a=0.3, b=-1.0, d=1.5, e=1.0, xi=1.0,
        b11m=-0.13, b22m=0.13, b21m=0.11, v1m=0.2, v2m=-0.07, v1p=-0.5,
        c11m=0.03, c22m=0.02, c21m=-0.06, w2m=0.04,
        epsilon=epsilon,
    )
