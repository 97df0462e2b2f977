"""Golden and property acceptance checks, shared by the test suite and the
``verify-examples`` CLI command.

Each criterion returns a CriterionResult; ``run_all`` executes every one.
Criterion 1 checks example 1's golden roots on its unrounded first-order
coefficients (``example_one_unrounded``), since the bundled ``example_one``
rounds v1m and b11p to two decimals and moves the roots by up to 0.11.
Criterion 4 applies its 1% bound to the eps -> 0 extrapolate of the
simulation oracle: the raw estimate at eps = 1e-4 carries a first-order
term eps*M2 of 1.0315% at the top grid amplitude, which the method does
not bound.  See the README for the measured numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ect
from .core import ChangeOfVariables, PwlSystem, canonical_system, canonicalize
from .errors import BoundViolated
from .examples import (
    EXAMPLE1_NOMINAL_ROOTS,
    EXAMPLE2_NOMINAL_ROOT,
    EXAMPLE2_SYSTEM_ROOT,
    example_one,
    example_one_params,
    example_one_unrounded_coefficients,
    example_one_unrounded_params,
    example_two,
    example_two_params,
    example_two_nominal_m1,
    example_two_sliding_params,
    type_one_sliding_params,
)
from .flow import melnikov_oracle, simulate
from .infinity import infinity_stability
from .melnikov import (
    MelnikovParams,
    RootFindOptions,
    Stability,
    classify_stability,
    find_roots,
    infinity_sign_expression,
    m1,
    m1_constrained,
)
from .sliding import (
    CycleKind,
    detect_sliding_cycle,
    s_maps,
    s_maps_simulated,
    simulate_sliding_cycle,
    simultaneity_report,
)
from .svg import PhasePortrait


@dataclass
class CriterionResult:
    ident: str
    description: str
    passed: bool
    details: list = field(default_factory=list)
    runtime: float = 0.0
    svg: str = ""  # the phase portrait of criterion 8, for the CLI

    def add(self, ok: bool, text: str) -> None:
        self.details.append((bool(ok), text))
        if not ok:
            self.passed = False


def criterion_1() -> CriterionResult:
    """Example-1 golden values of the closed-form displacement function.

    Checked on the unrounded coefficients: zeros at exactly 1 and 2 fix M1
    up to a factor, so the third zero is a prediction of the closed form.
    """
    t0 = time.perf_counter()
    res = CriterionResult("1", "example-1 golden roots", True)
    rounded = example_one_params()
    v1m, b11p = example_one_unrounded_coefficients()
    res.add(round(v1m, 2) == rounded.v1m and round(b11p, 2) == rounded.b11p,
            f"solved v1m = {v1m:.10f}, b11p = {b11p:.10f} round to the bundled "
            f"{rounded.v1m}, {rounded.b11p}")
    p = example_one_unrounded_params()
    v1, v2 = abs(m1(p, 1.0)), abs(m1(p, 2.0))
    res.add(v1 < 1e-9, f"|M1(1)| = {v1:.3e} (required < 1e-9)")
    res.add(v2 < 1e-9, f"|M1(2)| = {v2:.3e} (required < 1e-9)")
    roots = [r for r, _ in find_roots(lambda y: m1(p, y), (1e-2, 1e2))]
    third = roots[2] if len(roots) >= 3 else math.nan
    res.add(abs(third - EXAMPLE1_NOMINAL_ROOTS[2]) < 1e-4,
            f"third root {third:.10f} vs nominal {EXAMPLE1_NOMINAL_ROOTS[2]} (tol 1e-4)")
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 1.0, f"runtime {res.runtime:.2f}s < 1s")
    return res


def criterion_2() -> CriterionResult:
    """Example-1 stability labels and the infinity sign expression."""
    t0 = time.perf_counter()
    res = CriterionResult("2", "example-1 stability", True)
    p = example_one_params()
    roots = find_roots(lambda y: m1(p, y), (1e-2, 1e2))
    report = classify_stability(p, roots)
    res.add(report.roots[-1].stability is Stability.UNSTABLE,
            f"highest cycle {report.roots[-1].stability.value} (expected Unstable)")
    res.add(report.infinity_stability is Stability.STABLE,
            f"infinity {report.infinity_stability.value} (expected Stable)")
    expr = float(infinity_sign_expression(p))
    res.add(abs(expr - 0.01) < 1e-15,
            f"sign expression {expr!r} == +0.01 to machine precision")
    inf_rep = infinity_stability(p)
    res.add(inf_rep.stability is Stability.STABLE, "infinity report agrees")
    res.runtime = time.perf_counter() - t0
    return res


def criterion_3() -> CriterionResult:
    """Example-2 golden roots: legacy expression and the system's own."""
    t0 = time.perf_counter()
    res = CriterionResult("3", "example-2 golden roots", True)
    nominal = find_roots(example_two_nominal_m1, (1e-1, 1e2))
    res.add(len(nominal) == 1 and abs(nominal[0][0] - 7.94622) < 1e-3,
            f"legacy-expression root {nominal[0][0]:.6f} within 1e-3 of 7.94622")
    res.add(abs(nominal[0][0] - EXAMPLE2_NOMINAL_ROOT) < 1e-6,
            f"legacy-expression root pinned at {EXAMPLE2_NOMINAL_ROOT}")
    p = example_two_params()
    closed = find_roots(lambda y: m1_constrained(p, y), (1e-1, 1e2))
    res.add(len(closed) == 1 and abs(closed[0][0] - EXAMPLE2_SYSTEM_ROOT) < 1e-6,
            f"system closed-form root {closed[0][0]:.8f} pinned at {EXAMPLE2_SYSTEM_ROOT}")
    sys2 = example_two()
    eps = 1e-4
    fd = find_roots(lambda ys: np.array([melnikov_oracle(sys2, float(y), eps) for y in np.atleast_1d(ys)]),
                    (0.1, 100.0), RootFindOptions(grid=48))
    res.add(len(fd) == 1, f"finite-difference oracle has exactly {len(fd)} root in (0.1, 100)")
    if fd:
        res.add(abs(fd[0][0] - EXAMPLE2_SYSTEM_ROOT) < 5e-3,
                f"oracle root {fd[0][0]:.6f} within 5e-3 of the pinned {EXAMPLE2_SYSTEM_ROOT}")
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 30.0, f"runtime {res.runtime:.1f}s < 30s")
    return res


def criterion_4() -> CriterionResult:
    """Oracle equivalence on example 1: 1% bound and O(eps) decay.

    The oracle -disp/eps equals M1 + eps*M2 + O(eps^2), and the size of M2
    is not bounded by the method, so the 1% bound applies to the eps -> 0
    extrapolate 2*est(eps/2) - est(eps).  The raw errors must still halve
    as eps halves, which tests the first-order rate of the estimator.
    """
    t0 = time.perf_counter()
    res = CriterionResult("4", "oracle equivalence", True)
    sys1 = example_one()
    p = example_one_params()
    grid = np.linspace(0.5, 5.0, 10)
    ref = m1(p, grid)
    scale = np.maximum(1.0, np.abs(ref))
    est1 = np.array([melnikov_oracle(sys1, float(y0), 1e-4) for y0 in grid])
    est2 = np.array([melnikov_oracle(sys1, float(y0), 5e-5) for y0 in grid])

    def max_err(est):
        return float(np.max(np.abs(est - ref) / scale))

    e_lim = max_err(2.0 * est2 - est1)
    res.add(e_lim <= 0.01,
            f"max relative error {e_lim:.3e} of the eps->0 extrapolate (required <= 1%)")
    e1, e2 = max_err(est1), max_err(est2)
    ratio = e1 / e2 if e2 > 0 else math.inf
    res.add(1.6 <= ratio <= 2.4,
            f"raw max relative error {e1:.4%} at eps=1e-4, {e2:.4%} at 5e-5: "
            f"ratio {ratio:.3f} as eps halves (expected ~2)")
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 60.0, f"runtime {res.runtime:.1f}s < 60s")
    return res


def _random_params(rng) -> MelnikovParams:
    return MelnikovParams(
        b=-float(rng.uniform(0.2, 3.0)),
        d=float(rng.uniform(0.1, 3.0)),
        e=float(rng.uniform(0.1, 3.0)),
        xi=float(rng.uniform(0.2, 2.0)),
        b11m=float(rng.uniform(-2, 2)), b22m=float(rng.uniform(-2, 2)),
        v1m=float(rng.uniform(-3, 3)),
        b11p=float(rng.uniform(-2, 2)), b22p=float(rng.uniform(-2, 2)),
        v1p=float(rng.uniform(-3, 3)),
    )


def criterion_5() -> CriterionResult:
    """Root-count bounds over random parameter draws (build-failing)."""
    t0 = time.perf_counter()
    res = CriterionResult("5", "root-count property suite", True)
    rng = np.random.default_rng(20240901)
    domain = (1e-3, 1e3)
    draws = [_random_params(rng) for _ in range(200)]
    constrained_draws = [
        MelnikovParams(b=p.b, d=p.d, e=p.e, xi=p.xi,
                       b11m=p.b11m, b22m=-p.b11m, v1m=p.v1m,
                       b11p=p.b11p, b22p=p.b22p, v1p=p.v1p)
        for p in (_random_params(rng) for _ in range(200))
    ]

    general = [len(find_roots(lambda y: m1(p, y), domain)) for p in draws]
    constrained = [len(find_roots(lambda y: m1_constrained(q, y), domain))
                   for q in constrained_draws]
    res.add(max(general) <= 3,
            f"general case: max {max(general)} roots over 200 draws (bound 3)")
    res.add(max(constrained) <= 1,
            f"constrained case: max {max(constrained)} roots over 200 draws (bound 1)")
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 120.0, f"runtime {res.runtime:.1f}s < 120s")
    return res


def criterion_6() -> CriterionResult:
    """Closed-form Wronskians against numeric determinants; slope sign law."""
    t0 = time.perf_counter()
    res = CriterionResult("6", "wronskian suite", True)
    rng = np.random.default_rng(7)
    worst = 0.0
    slope_ok = True
    for beta in (0.5, 2.0):
        fam = ect.amplitude_family(beta)
        s0 = np.exp(rng.uniform(np.log(0.02), np.log(50.0), 50))
        s0[np.minimum(abs(s0 - 1.0), abs(s0 - 1.0 / beta)) < 1e-3] += 2e-3
        for k, w in enumerate((ect.amplitude_w0, ect.amplitude_w1,
                               ect.amplitude_w2, ect.amplitude_w3)):
            ref = w(beta, s0)
            err = np.abs(ect.wronskian(fam, k, s0) - ref) / np.maximum(np.abs(ref), 1e-30)
            worst = max(worst, float(err.max()))
        want = math.copysign(1.0, beta ** 3 * (beta * beta - 1.0))
        slope_ok &= bool(np.all(np.sign(ect.amplitude_w3_tilde_slope(beta, s0)) == want))
    res.add(worst < 1e-8, f"max relative determinant error {worst:.3e} (required < 1e-8)")
    res.add(slope_ok, "slope of the reduced third Wronskian has sign(beta^3(beta^2-1)) everywhere")
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 10.0, f"runtime {res.runtime:.1f}s < 10s")
    return res


def criterion_7() -> CriterionResult:
    """Section-mark series vs exact simulation; Type-I closed sliding orbit."""
    t0 = time.perf_counter()
    res = CriterionResult("7", "sliding section-mark suite", True)
    p = type_one_sliding_params()
    series = s_maps(p).series()
    errs = {}
    for eps in (1e-2, 5e-3):
        sims = s_maps_simulated(p, eps)
        errs[eps] = [abs(series[i](eps) - sims[i]) for i in range(4)]
    for i, name in enumerate(("S0", "S1", "S2", "S3")):
        ratio = errs[1e-2][i] / errs[5e-3][i] if errs[5e-3][i] > 0 else math.inf
        res.add(6.0 <= ratio <= 10.0,
                f"{name}: residual ratio {ratio:.2f} as eps halves (required in [6, 10])")
    sims = s_maps_simulated(p, 1e-2)
    order = sorted(range(4), key=lambda i: sims[i])
    res.add(order == [3, 2, 1, 0],
            f"ordering at eps=1e-2 is S3 < S2 < S1 < S0 (got {' < '.join('S%d' % i for i in order)})")
    report = detect_sliding_cycle(p)
    res.add(report.cycle is CycleKind.SLIDING_TYPE_I,
            f"window classification {report.cycle.value} (expected SlidingTypeI)")
    _traj, closure, kinds = simulate_sliding_cycle(p, 1e-2)
    res.add(closure < 1e-6 * p.e,
            f"sliding-orbit closure {closure:.2e} < 1e-6*e = {1e-6 * p.e:.1e}")
    res.add("Sliding" in kinds and "ZoneMinus" in kinds and "ZonePlus" not in kinds,
            f"segment kinds {kinds[:4]} match a Type-I loop (one zone + sliding)")
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 60.0, f"runtime {res.runtime:.1f}s < 60s")
    return res


def criterion_8() -> CriterionResult:
    """Simultaneous crossing and sliding cycles on example 2."""
    t0 = time.perf_counter()
    res = CriterionResult("8", "simultaneity", True)
    p = example_two_sliding_params(epsilon=1e-2)
    try:
        report = simultaneity_report(p)
    except BoundViolated as exc:
        res.add(False, f"bound violated: {exc}")
        res.runtime = time.perf_counter() - t0
        return res
    res.add(report.verdict == "simultaneous",
            f"verdict {report.verdict!r} (expected 'simultaneous')")
    res.add(len(report.crossing_roots) == 1
            and abs(report.crossing_roots[0] - EXAMPLE2_SYSTEM_ROOT) < 1e-6,
            f"one crossing root at {report.crossing_roots[0]:.6f}")
    res.add(report.crossing_stability is Stability.UNSTABLE,
            f"crossing cycle {report.crossing_stability.value} (expected Unstable: repels)")
    res.add(report.sliding.cycle is CycleKind.SLIDING_TYPE_I,
            f"sliding cycle {report.sliding.cycle.value}")
    traj, closure, kinds = simulate_sliding_cycle(p, 1e-2)
    res.add(closure < 1e-6 * p.e, f"sliding-orbit closure {closure:.2e}")
    res.add(kinds[:2] == ["ZoneMinus", "Sliding"],
            f"segment kinds start {kinds[:2]}")
    # crossing cycle by simulation: the return displacement changes sign
    # across the root at small eps
    sys2 = example_two(1e-3)
    lo_est = melnikov_oracle(example_two(), 1.8, 1e-3)
    hi_est = melnikov_oracle(example_two(), 2.5, 1e-3)
    res.add(lo_est > 0 > hi_est,
            f"simulated displacement brackets the crossing cycle ({lo_est:+.3f}, {hi_est:+.3f})")
    # qualitative figure: both cycles in one portrait
    portrait = PhasePortrait()
    portrait.add_trajectory(traj)
    cyc = simulate(sys2, (0.0, EXAMPLE2_SYSTEM_ROOT), 9.0, max_segments=16)
    portrait.add_trajectory(cyc)
    for f in (report.sliding.fold_y1, report.sliding.fold_y2):
        portrait.add_fold(f)
    svg = portrait.render()
    res.add(svg.count("<polyline") >= 3 and "#d62728" in svg and "<circle" in svg,
            "emitted SVG contains both cycles, a sliding-colored segment and fold marks")
    res.svg = svg
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 60.0, f"runtime {res.runtime:.1f}s < 60s")
    return res


def criterion_9() -> CriterionResult:
    """Reduction conjugacy on random systems; sign constraints after reduction."""
    t0 = time.perf_counter()
    res = CriterionResult("9", "reduction conjugacy", True)
    rng = np.random.default_rng(42)
    worst = 0.0
    signs_ok = True
    for _ in range(20):
        a = float(rng.uniform(-1.0, 1.0))
        xi = float(rng.uniform(0.3, 1.5))
        b = -float(rng.uniform(0.4, 2.0))
        c = (a * a + xi * xi) / (-b)
        d = float(rng.uniform(0.2, 2.0))
        e = float(rng.uniform(0.2, 2.0))
        canon = canonical_system(a, b, c, d, e)
        raw = _decanonicalize(canon, rng)
        params, change = canonicalize(raw)
        signs_ok &= (params.b < 0 and params.c > 0 and params.d > 0
                     and params.e > 0 and params.a ** 2 + params.b * params.c < 0)
        rebuilt = canonical_system(params.a, params.b, params.c, params.d, params.e)
        for _k in range(2):
            x0 = np.array([float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))])
            t = float(rng.uniform(0.4, 2.5))
            end_raw = simulate(raw, x0, t, max_segments=64).samples[-1]
            mapped_end = change.apply((end_raw[1], end_raw[2]))
            start_mapped = change.apply(x0)
            end_can = simulate(rebuilt, start_mapped, change.map_time(t),
                               max_segments=64).samples[-1]
            err = float(np.hypot(mapped_end[0] - end_can[1], mapped_end[1] - end_can[2]))
            scale = max(1.0, abs(end_can[1]), abs(end_can[2]))
            worst = max(worst, err / scale)
    res.add(worst < 1e-8, f"worst commutation error {worst:.3e} (required < 1e-8)")
    res.add(signs_ok, "all five sign constraints hold after every reduction")
    res.runtime = time.perf_counter() - t0
    res.add(res.runtime < 10.0, f"runtime {res.runtime:.1f}s < 10s")
    return res


def _decanonicalize(canon: PwlSystem, rng) -> PwlSystem:
    """Random affine change preserving the switching line and x-signs,
    composed with a time rescale; the inverse image of the normal form."""
    t11 = float(rng.uniform(0.4, 2.0))
    t21 = float(rng.uniform(-1.0, 1.0))
    t22 = float(rng.uniform(0.4, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    ty = float(rng.uniform(-1.0, 1.0))
    sigma = float(rng.uniform(0.5, 2.0))
    # push through the inverse of Y = T X + (0, ty), t' = sigma t
    tinv = np.linalg.inv(np.array([[t11, 0.0], [t21, t22]]))
    inverse = ChangeOfVariables(linear=tuple(map(tuple, tinv.tolist())),
                                offset=tuple((-tinv @ np.array([0.0, ty])).tolist()),
                                time_scale=1.0 / sigma)
    return inverse.push_system(canon)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8, criterion_9)


def run_all() -> list:
    return [fn() for fn in ALL_CRITERIA]
