"""Limit-cycle analysis of planar two-zone piecewise-linear Filippov systems.

Reduce a two-zone system with a real and a virtual linear center to normal
coordinates, evaluate the closed-form first-order displacement (Melnikov)
function and locate its roots, classify cycle and infinity stability,
decide sliding/escaping-cycle existence from second-order data, and
cross-validate every closed form against an event-driven simulator built
on exact affine flows.
"""

from .core import (
    CanonicalParams,
    ChangeOfVariables,
    HypothesisReport,
    Mat2,
    PwlSystem,
    Vec2,
    canonical_system,
    canonicalize,
    check_hypotheses,
)
from .ect import (
    EctVerdict,
    FunctionFamily,
    WronskianProfile,
    amplitude_family,
    check_ect,
    constrained_family,
    wronskian,
)
from .flow import (
    Trajectory,
    displacement,
    melnikov_oracle,
    simulate,
)
from .infinity import (
    InfinityReport,
    infinity_stability,
    poincare_displacement,
)
from .melnikov import (
    MelnikovParams,
    MelnikovReport,
    ReducedParams,
    RootFlag,
    Stability,
    classify_stability,
    find_roots,
    m1,
    m1_constrained,
    m1_reduced,
)
from .sigma import (
    FoldPoint,
    RegionKind,
    Visibility,
    classify_point,
    find_folds,
    sliding_field,
)
from .sliding import (
    CycleKind,
    SlidingParams,
    SlidingReport,
    SimultaneityReport,
    detect_sliding_cycle,
    s_maps,
    simulate_sliding_cycle,
    simultaneity_report,
    thresholds,
)

# the re-exported names above; the submodules stay reachable as attributes
# (``pwlcycles.flow``) but are not part of ``from pwlcycles import *``
__all__ = [
    # core
    "CanonicalParams", "ChangeOfVariables", "HypothesisReport", "Mat2", "PwlSystem",
    "Vec2", "canonical_system", "canonicalize", "check_hypotheses",
    # ect
    "EctVerdict", "FunctionFamily", "WronskianProfile", "amplitude_family",
    "check_ect", "constrained_family", "wronskian",
    # flow
    "Trajectory", "displacement", "melnikov_oracle", "simulate",
    # infinity
    "InfinityReport", "infinity_stability", "poincare_displacement",
    # melnikov
    "MelnikovParams", "MelnikovReport", "ReducedParams", "RootFlag", "Stability",
    "classify_stability", "find_roots", "m1", "m1_constrained", "m1_reduced",
    # sigma
    "FoldPoint", "RegionKind", "Visibility", "classify_point", "find_folds",
    "sliding_field",
    # sliding
    "CycleKind", "SlidingParams", "SlidingReport", "SimultaneityReport",
    "detect_sliding_cycle", "s_maps", "simulate_sliding_cycle", "simultaneity_report",
    "thresholds",
]
__version__ = "0.1.0"
