"""Seeded workloads of the pwlcycles benchmark.

A run of a workload draws ``passes`` passes of inputs and repeats all of
them, in the same order, once per round.  Pass ``k`` of seed ``s`` draws
its inputs from ``numpy.random.default_rng([s, workload_id, k])``, so the
same seed gives the same inputs, and the package only ever sees the
generated systems.  A pass is a fixed amount of work: its main operations,
which ``ops_per_s`` and ``op_p50_ms`` describe, and a few extra checked
calls, which ``run_s`` (the time of a whole pass) also covers.

Each operation is timed from outside with ``perf_counter`` and its outputs
are checked afterwards, outside the timing.  Its times are scaled to a
reference host speed by the probes of ``speed.py``, and its time in the
run is the median of its scaled times over the rounds.  An operation *fails* when it
raises a ``PwlError`` or when any of its checks does not hold; ``failed``
counts these.  A failed check on an exact closed-form result (a root count
above its proven bound, a normal form that differs from the one drawn, a
stability, S-mark or Wronskian pattern that contradicts the closed form, a
cycle kind other than the window drawn) also marks the run as not
``correct``.  A shortfall of the numerical simulators that verify the
closed forms (a missed return, an open sliding loop, an oracle root off the
closed-form one) is a failure only: those simulators are the verification
side and have known defects.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from time import perf_counter

import numpy as np

import pwlcycles as pw
from pwlcycles.core import ChangeOfVariables
from pwlcycles.errors import NoReturn, PwlError
from pwlcycles.examples import type_one_sliding_params
from pwlcycles.melnikov import RootFindOptions

from speed import Speedometer
from tracing import Tracer

OK, FAILED, WRONG = "ok", "failed", "wrong"
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Recorder:
    """Timings, outcome counts and output-derived counters of one run.

    Operations are keyed ``(pass, slot)``, the same in every round.  The
    output-derived counters are kept per round; those of the first round
    are the run's counts, since every round repeats the same work.
    """

    tracer: Tracer
    speed: Speedometer
    spans: dict = field(default_factory=dict)         # op key -> (start, end) of each round
    mains: set = field(default_factory=set)           # keys of the main operations
    round_times: list = field(default_factory=list)   # seconds of all ops of each round
    attempted: int = 0
    failures: list = field(default_factory=list)      # (status, description) per failed op
    round_counts: list = field(default_factory=lambda: [Counter()])
    maxima: dict = field(default_factory=dict)

    @property
    def counts(self) -> Counter:
        """Counters of the round in progress."""
        return self.round_counts[-1]

    @property
    def first_counts(self) -> Counter:
        return self.round_counts[0]

    @property
    def rounds(self) -> int:
        return len(self.round_times)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op_seconds(self, scaled: bool = True) -> dict:
        """Op key -> median over the rounds of its (scaled) duration."""
        return {key: statistics.median(self.speed.scaled(t0, t1) if scaled else t1 - t0
                                       for t0, t1 in spans)
                for key, spans in self.spans.items()}

    @property
    def wrong(self) -> list:
        """Descriptions of the refuted closed-form results among the failures."""
        return [note for status, note in self.failures if status == WRONG]

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)


def run_op(rec: Recorder, key, kind: str, main: bool, call, check) -> float:
    """Time ``call()`` as operation ``key``, then ``check`` its outputs.

    ``check(out)`` returns ``(status, note)``; ``status`` is OK, FAILED or
    WRONG.  A ``PwlError`` from the package is a failure.  Any other
    exception is reported on stderr and treated as a wrong result.
    Returns the operation's duration in seconds.
    """
    rec.speed.maybe_probe()
    t0 = perf_counter()
    with rec.tracer.op(kind):
        try:
            out, err = call(), None
        except PwlError as exc:
            out, err = None, exc
        except Exception as exc:  # a defect outside the package's error model
            out, err = None, exc
            traceback.print_exc(file=sys.stderr)
    t1 = perf_counter()
    dt = t1 - t0
    rec.spans.setdefault(key, []).append((t0, t1))
    if main:
        rec.mains.add(key)
    rec.attempted += 1
    rec.counts[f"attempted.{kind}"] += 1
    if err is None:
        status, note = check(out)
    elif isinstance(err, PwlError):
        rec.counts[f"error.{type(err).__name__}"] += 1
        status, note = FAILED, f"{type(err).__name__}: {err}"
    else:
        status, note = WRONG, f"{type(err).__name__}: {err}"
    if status != OK:
        rec.failures.append((status, f"{kind}: {note}"))
        rec.counts[f"failed.{kind}"] += 1
    return dt


class Workload:
    """A seeded workload: ``inputs(seed, k)`` draws pass k, ``items`` turns
    them into the pass's main and extra operations (at least one extra).
    A run draws ``passes`` passes and repeats them all in every round."""

    name = ""
    passes = 1

    def run_round(self, rec: Recorder, passes: list) -> None:
        """Run every pass once and record the round's time."""
        if rec.round_times:
            rec.round_counts.append(Counter())
        rec.round_times.append(sum(self.run_pass(rec, inputs, k)
                                   for k, inputs in enumerate(passes)))

    def run_pass(self, rec: Recorder, inputs, k: int) -> float:
        """Run pass ``k``, the extra operations spread evenly between the
        main ones so that both sample the whole pass; return its time."""
        mains, extras = self.items(rec, inputs)
        step = -(-len(mains) // len(extras))
        total, slot = 0.0, 0
        for i, (kind, call, check) in enumerate(extras):
            for main_call, main_check in mains[i * step:(i + 1) * step]:
                total += run_op(rec, (k, slot), self.name, True, main_call, main_check)
                slot += 1
            total += run_op(rec, (k, slot), kind, False, call, check)
            slot += 1
        return total


def counted(rec: Recorder, f):
    """``f`` with each call counted as ``melnikov.find_roots.f_evals``."""
    def g(y):
        rec.counts["melnikov.find_roots.f_evals"] += 1
        return f(y)
    return g


def note_roots(rec: Recorder, roots) -> None:
    rec.counts["melnikov.find_roots.roots"] += len(roots)
    rec.counts["melnikov.find_roots.suspect"] += sum(
        1 for _, flag in roots if flag is pw.RootFlag.SUSPECT)


def ordering_tag(values) -> str:
    """'S3 < S2 < S1 < S0'-style tag of four section-mark values."""
    order = sorted(range(4), key=lambda i: values[i])
    return " < ".join(f"S{i}" for i in order)


def sign_changes(values) -> int:
    """Sign changes of a sampled function, ignoring values within 1e-10 of its scale."""
    v = np.asarray(values, dtype=float)
    scale = max(float(np.abs(v).max()), 1e-300)
    sgn = np.sign(v)
    sgn[np.abs(v) <= 1e-10 * scale] = 0.0
    nz = sgn[sgn != 0.0]
    return int(np.sum(nz[:-1] * nz[1:] < 0)) if len(nz) > 1 else 0


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """A drawn system in normal coordinates with its five scalars."""

    a: float
    b: float
    c: float
    d: float
    e: float
    system: pw.PwlSystem


def draw_normal_form(rng, constrained: bool, epsilon: float = 0.0) -> NormalForm:
    """Normal form with random first- and second-order perturbations.

    Ranges follow the root-count property suite of the acceptance battery;
    ``constrained`` sets b22m = -b11m (vanishing first-order left trace).
    """
    xi = rng.uniform(0.2, 2.0)
    a = rng.uniform(-1.0, 1.0)
    b = -rng.uniform(0.2, 3.0)
    c = -(xi * xi + a * a) / b
    d = rng.uniform(0.1, 3.0)
    e = rng.uniform(0.1, 3.0)
    b11m = rng.uniform(-2.0, 2.0)
    b22m = -b11m if constrained else rng.uniform(-2.0, 2.0)
    off = rng.uniform(-0.5, 0.5, 4)
    system = pw.canonical_system(
        a, b, c, d, e,
        B_minus=[[b11m, off[0]], [off[1], b22m]],
        v_minus=[rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)],
        B_plus=[[rng.uniform(-2.0, 2.0), off[2]], [off[3], rng.uniform(-2.0, 2.0)]],
        v_plus=[rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)],
        C_minus=rng.uniform(-0.1, 0.1, (2, 2)),
        w_minus=[0.0, rng.uniform(-0.1, 0.1)],
        epsilon=epsilon,
    )
    return NormalForm(a, b, c, d, e, system)


def random_change(rng) -> ChangeOfVariables:
    """Affine change keeping x = 0 and its sides, with a time rescale.

    The time scale equals the x scale, so the reduction maps the pushed
    system back to exactly the normal form it came from.
    """
    q11 = rng.uniform(0.5, 2.0)
    q22 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    return ChangeOfVariables(linear=((q11, 0.0), (rng.uniform(-1.0, 1.0), q22)),
                             offset=(0.0, rng.uniform(-1.0, 1.0)), time_scale=q11)


def sliding_params_of(cp: pw.CanonicalParams, sys: pw.PwlSystem) -> pw.SlidingParams:
    """Section-mark parameters read off a system in normal coordinates."""
    (bm, vm), (cm, wm) = sys.order1_minus, sys.order2_minus
    bp, vp = sys.order1_plus
    return pw.SlidingParams(
        a=cp.a, b=cp.b, d=cp.d, e=cp.e, xi=cp.xi,
        b11m=bm.m11, b22m=bm.m22, b21m=bm.m21, v1m=vm.x, v2m=vm.y, v1p=vp.x,
        c11m=cm.m11, c22m=cm.m22, c21m=cm.m21, w2m=wm.y,
        epsilon=sys.epsilon, b11p=bp.m11, b22p=bp.m22)


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------

class ClosedForm(Workload):
    """Reduction, M1 roots, stability, folds and S-marks of raw systems."""

    name = "closed_form"
    ident = 1
    passes = 32
    systems_per_pass = 64     # half general, half trace-constrained
    domain = (1e-3, 1e3)
    grid = 4096

    def inputs(self, seed: int, k: int) -> dict:
        rng = np.random.default_rng([seed, self.ident, k])
        systems = []
        for j in range(self.systems_per_pass):
            constrained = j % 2 == 1
            while True:
                nf = draw_normal_form(rng, constrained, epsilon=rng.uniform(1e-3, 1e-2))
                v1m, v1p = nf.system.order1_minus[1].x, nf.system.order1_plus[1].x
                # keep the S-mark ordering resolvable: |b*v1m + v1p| bounded away from 0
                if not constrained or abs(nf.b * v1m + v1p) > 0.1:
                    break
            raw = random_change(rng).push_system(nf.system)
            systems.append((constrained, nf, raw))
        beta = math.exp(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, math.log(3.0)))
        amp_iv = (math.exp(rng.uniform(math.log(0.01), math.log(2.0))),
                  math.exp(rng.uniform(math.log(10.0), math.log(100.0))))
        con_iv = (math.exp(rng.uniform(math.log(0.01), math.log(2.0))),
                  math.exp(rng.uniform(math.log(10.0), math.log(100.0))))
        return {"systems": systems, "ect": [("amplitude", beta, amp_iv),
                                            ("constrained", None, con_iv)]}

    def items(self, rec: Recorder, inputs: dict):
        mains = [(partial(self._call, rec, raw), partial(self._check, rec, constrained, nf))
                 for constrained, nf, raw in inputs["systems"]]
        extras = [("ect_scan", partial(self._scan, rec, family, beta, interval),
                   partial(self._check_scan, rec, family, beta))
                  for family, beta, interval in inputs["ect"]]
        return mains, extras

    def _call(self, rec: Recorder, raw: pw.PwlSystem) -> dict:
        tr = rec.tracer
        out = {"hyp": tr.call("core.check_hypotheses", pw.check_hypotheses, raw)}
        cp, change = tr.call("core.canonicalize", pw.canonicalize, raw)
        normal = tr.call("core.push_system", change.push_system, raw)
        mp = tr.call("melnikov.from_system", pw.MelnikovParams.from_system, normal)
        m1 = pw.m1_constrained if mp.constrained else pw.m1
        roots = tr.call("melnikov.find_roots", pw.find_roots,
                        counted(rec, lambda y: m1(mp, y)), self.domain,
                        RootFindOptions(grid=self.grid))
        out.update(
            cp=cp, mp=mp, roots=roots,
            report=tr.call("melnikov.classify_stability", pw.classify_stability, mp, roots),
            inf=tr.call("infinity.infinity_stability", pw.infinity_stability, mp),
            folds=tr.call("sigma.find_folds", pw.find_folds, normal))
        if mp.constrained:
            sp = sliding_params_of(cp, normal)
            out["smap"] = tr.call("sliding.s_maps", pw.s_maps, sp)
            out["T"] = tr.call("sliding.thresholds", pw.thresholds, sp)
            out["tau"] = sp.tau
        return out

    def _check(self, rec: Recorder, constrained: bool, nf: NormalForm, out: dict):
        roots = out["roots"]
        note_roots(rec, roots)
        hyp, cp, mp = out["hyp"], out["cp"], out["mp"]
        if not (hyp.h1_real_center and hyp.h2_virtual_center and hyp.h3_global_center):
            return WRONG, f"hypotheses rejected a valid center: {hyp}"
        if not (cp.b < 0 and cp.c > 0 and cp.d > 0 and cp.e > 0
                and cp.a * cp.a + cp.b * cp.c < 0):
            return WRONG, f"sign constraints broken after canonicalize: {cp}"
        drawn = (nf.a, nf.b, nf.c, nf.d, nf.e)
        got = (cp.a, cp.b, cp.c, cp.d, cp.e)
        if any(abs(g - w) > 1e-8 * max(1.0, abs(w)) for g, w in zip(got, drawn)):
            return WRONG, f"normal form {got} differs from the drawn {drawn}"
        if mp.constrained != constrained:
            return WRONG, "trace-constrained flag differs from the draw"
        bound = 1 if constrained else 3
        if len(roots) > bound or out["report"].root_count_bound != bound:
            return WRONG, f"{len(roots)} roots over the bound {bound}"
        if out["inf"].stability is not out["report"].infinity_stability:
            return WRONG, "infinity verdicts of melnikov and infinity disagree"
        if len(out["folds"]) > 2:
            return WRONG, f"{len(out['folds'])} folds"
        if constrained:
            # in units of pi*e*eps^2 the marks sit at S0 - (0, tau, T, 4T)
            tau, T = out["tau"], out["T"]
            want = ordering_tag((0.0, -tau, -T, -4.0 * T))
            got_tag = ordering_tag(out["smap"].values)
            rec.counts[f"sliding.s_maps.{got_tag.replace(' < ', '_')}"] += 1
            if got_tag != want:
                return WRONG, f"S-mark ordering {got_tag} but thresholds give {want}"
        return OK, ""

    def _scan(self, rec: Recorder, family: str, beta, interval):
        fam = (pw.amplitude_family(beta, interval) if family == "amplitude"
               else pw.constrained_family(interval))
        return rec.tracer.call("ect.check_ect", pw.check_ect, fam)

    def _check_scan(self, rec: Recorder, family: str, beta, out):
        profile, verdict = out
        rec.counts[{"ECT": "ect.check_ect.verdict_ect",
                    "ET_withAccuracy": "ect.check_ect.verdict_et",
                    "Inconclusive": "ect.check_ect.verdict_inconclusive"}[verdict.value]] += 1
        grid = profile.grid
        if family == "amplitude":
            closed = [pw.ect.amplitude_w0(beta, grid), pw.ect.amplitude_w1(beta, grid),
                      pw.ect.amplitude_w2(beta, grid), pw.ect.amplitude_w3(beta, grid)]
        else:
            closed = [grid, pw.ect.constrained_w1(grid)]
        want = [sign_changes(w) for w in closed]
        if list(profile.sign_changes) != want:
            return WRONG, f"Wronskian sign changes {profile.sign_changes}, closed forms {want}"
        if verdict is pw.EctVerdict.ECT and any(want):
            return WRONG, "ECT verdict on a family whose Wronskians change sign"
        return OK, ""


# ---------------------------------------------------------------------------
# oracle_crosscheck
# ---------------------------------------------------------------------------

class OracleCrosscheck(Workload):
    """Simulation oracle for M1 against the closed form.

    The main operations compare the oracle with M1 on seeded systems and
    amplitudes.  Every pass also runs one oracle-driven ``find_roots`` and
    one return-map check at infinity.  The root search runs on one fixed
    system, drawn by the same generator from the fixed seed ``[ident]``:
    its oracle calls cost 2-7 s depending on the system, and one seeded
    system per run would make ``run_s`` a draw of that cost.
    """

    name = "oracle_crosscheck"
    ident = 2
    ops_per_pass = 32
    eps = 1e-4
    amplitudes = (0.5, 5.0)
    root_opts = RootFindOptions(grid=12, refine_tol=1e-4)
    inf_eps, inf_r0 = 1e-2, 1e-2

    def inputs(self, seed: int, k: int) -> dict:
        rng = np.random.default_rng([seed, self.ident, k])
        lo, hi = self.amplitudes
        n = self.ops_per_pass
        # one amplitude in each of n equal strata of [lo, hi], in random order
        ys = lo + (hi - lo) * (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
        ops = [(draw_normal_form(rng, False).system, float(y)) for y in ys]
        return {"ops": ops, "roots": self._root_system(np.random.default_rng([self.ident])),
                "inf": self._inf_system(rng)}

    def _root_system(self, rng):
        """General system whose M1 has one simple root well inside the amplitudes."""
        lo, hi = self.amplitudes
        while True:
            sys = draw_normal_form(rng, False).system
            mp = pw.MelnikovParams.from_system(sys)
            roots = pw.find_roots(lambda y: pw.m1(mp, y), (lo, hi))
            if len(roots) != 1:
                continue
            r = roots[0][0]
            h = 1e-4 * r
            slope = (pw.m1(mp, r + h) - pw.m1(mp, r - h)) / (2.0 * h)
            if 1.2 * lo < r < hi / 1.2 and abs(slope) > 0.1:
                return sys, r

    def _inf_system(self, rng):
        """General system whose infinity sign expression is bounded away from 0."""
        while True:
            sys = draw_normal_form(rng, False).system
            if abs(pw.melnikov.infinity_sign_expression(pw.MelnikovParams.from_system(sys))) > 0.5:
                return sys

    def items(self, rec: Recorder, inputs: dict):
        mains = [(partial(self._call, rec, sys, y0), partial(self._check, rec))
                 for sys, y0 in inputs["ops"]]
        sys, r_ref = inputs["roots"]
        extras = [("oracle_roots", partial(self._roots, rec, sys),
                   partial(self._check_roots, rec, r_ref)),
                  ("infinity_return", partial(self._inf, rec, inputs["inf"]),
                   partial(self._check_inf, rec))]
        return mains, extras

    def _oracle(self, rec: Recorder, sys, y0: float) -> float:
        try:
            return rec.tracer.call("flow.melnikov_oracle", pw.melnikov_oracle, sys, y0, self.eps)
        except NoReturn:
            rec.counts["flow.melnikov_oracle.noreturn"] += 1
            raise

    def _call(self, rec: Recorder, sys, y0: float):
        mp = rec.tracer.call("melnikov.from_system", pw.MelnikovParams.from_system, sys)
        ref = rec.tracer.call("melnikov.m1", pw.m1, mp, y0)
        return ref, self._oracle(rec, sys, y0)

    def _check(self, rec: Recorder, out):
        ref, est = out
        if not (math.isfinite(ref) and math.isfinite(est)):
            return WRONG, f"non-finite value: M1 {ref}, oracle {est}"
        rec.note_max("oracle_max_rel_err", abs(est - ref) / max(1.0, abs(ref)))
        return OK, ""

    def _roots(self, rec: Recorder, sys):
        def f(ys):
            return np.array([self._oracle(rec, sys, float(y)) for y in np.atleast_1d(ys)])
        return rec.tracer.call("melnikov.find_roots", pw.find_roots, counted(rec, f),
                               self.amplitudes, self.root_opts)

    def _check_roots(self, rec: Recorder, r_ref: float, roots):
        note_roots(rec, roots)
        if len(roots) != 1:
            return FAILED, f"oracle found {len(roots)} roots, the closed form one"
        if abs(roots[0][0] - r_ref) > 1e-2 * max(1.0, r_ref):
            return FAILED, f"oracle root {roots[0][0]} vs closed-form {r_ref}"
        return OK, ""

    def _inf(self, rec: Recorder, sys):
        mp = rec.tracer.call("melnikov.from_system", pw.MelnikovParams.from_system, sys)
        inf = rec.tracer.call("infinity.infinity_stability", pw.infinity_stability, mp)
        disp = rec.tracer.call("infinity.poincare_displacement", pw.poincare_displacement,
                               sys.with_epsilon(self.inf_eps), self.inf_r0)
        return inf, disp

    def _check_inf(self, rec: Recorder, out):
        inf, disp = out
        # infinity is r = 0 of the inverted plane: it attracts when r shrinks
        want = pw.Stability.STABLE if disp < 0 else pw.Stability.UNSTABLE
        rec.counts[f"infinity.infinity_stability.{inf.stability.value.lower()}"] += 1
        if inf.stability is not want:
            return FAILED, (f"return-map displacement {disp:.3e} but closed form says "
                            f"{inf.stability.value}")
        return OK, ""


# ---------------------------------------------------------------------------
# sliding_cycles
# ---------------------------------------------------------------------------

WINDOWS = (pw.CycleKind.SLIDING_TYPE_I, pw.CycleKind.SLIDING_TYPE_II,
           pw.CycleKind.ESCAPING_TYPE_I, pw.CycleKind.ESCAPING_TYPE_II)
TYPE_ONE = (pw.CycleKind.SLIDING_TYPE_I, pw.CycleKind.ESCAPING_TYPE_I)


class SlidingCycles(Workload):
    """Sliding/escaping cycle detection, and the simulated loop of reference sets.

    The main operations detect the cycle of seeded parameter sets drawn
    across the four windows.  Every pass also runs detection plus the
    simulated loop on two fixed reference sets at the two ends of the eps
    range: sliding Type I at eps 5e-3 (where the loop misses its return)
    and escaping Type II at eps 2e-2.  A simulated loop costs seconds (about
    1.7 s per sliding segment) and its cost swings several-fold with the
    parameters, so a run affords only a few; fixed sets keep those few
    comparable between runs and seeds, and two of them let a run repeat
    each loop in several rounds.
    """

    name = "sliding_cycles"
    ident = 3
    detects_per_pass = 32
    eps_range = (5e-3, 2e-2)
    reference_windows = ((pw.CycleKind.SLIDING_TYPE_I, 5e-3),
                         (pw.CycleKind.ESCAPING_TYPE_II, 2e-2))

    def __init__(self):
        base = type_one_sliding_params()
        T = pw.thresholds(base)
        self.references = [
            (kind, self._place(base, kind, T * (0.5 if kind in TYPE_ONE else 2.5), eps))
            for kind, eps in self.reference_windows]

    @staticmethod
    def _place(p: pw.SlidingParams, kind: pw.CycleKind, tau: float, eps: float,
               **fields) -> pw.SlidingParams:
        """``p`` with c11m + c22m = tau (|tau|, sign set by the window) at eps;
        escaping windows flip the signs of a, v1m and v1p (and so the drift)."""
        if kind in (pw.CycleKind.ESCAPING_TYPE_I, pw.CycleKind.ESCAPING_TYPE_II):
            fields.update(a=-p.a, v1m=-p.v1m, v1p=-p.v1p)
            tau = -tau
        return replace(p, c11m=tau - p.c22m, epsilon=eps, **fields)

    def inputs(self, seed: int, k: int) -> dict:
        # eps follows one golden-ratio sequence over all detections of the
        # seed, so every run covers the eps range evenly
        u0 = np.random.default_rng([seed, self.ident]).uniform()
        rng = np.random.default_rng([seed, self.ident, k])
        lo, hi = self.eps_range
        ops = []
        for j in range(self.detects_per_pass):
            kind = WINDOWS[j % len(WINDOWS)]
            n = self.detects_per_pass * k + j
            ops.append((kind, self._draw(rng, kind, lo + (hi - lo) * ((u0 + n * GOLDEN) % 1.0))))
        return {"detect": ops, "loops": self.references}

    def _draw(self, rng, kind: pw.CycleKind, eps: float) -> pw.SlidingParams:
        """Parameters around the bundled Type-I set, with c11m + c22m drawn
        inside the window of ``kind``."""
        b = -rng.uniform(0.95, 1.05)
        e = rng.uniform(0.95, 1.05)
        v1m = rng.uniform(0.15, 0.25)
        v1p = -rng.uniform(0.4, 0.6)
        T = (b * v1m + v1p) ** 2 / (2.0 * b * b * e * e * math.pi)
        frac = rng.uniform(0.2, 0.8)
        b11m = -rng.uniform(0.1, 0.16)
        p = pw.SlidingParams(
            a=rng.uniform(0.2, 0.32), b=b, d=rng.uniform(1.45, 1.55), e=e,
            xi=rng.uniform(0.9, 1.1), b11m=b11m, b22m=-b11m,
            b21m=rng.uniform(0.08, 0.14), v1m=v1m, v2m=-rng.uniform(0.05, 0.09),
            v1p=v1p, c11m=0.0, c22m=rng.uniform(0.015, 0.025),
            c21m=-rng.uniform(0.045, 0.075), w2m=rng.uniform(0.03, 0.05), epsilon=eps)
        return self._place(p, kind, T * (frac if kind in TYPE_ONE else 1.0 + 3.0 * frac), eps)

    def items(self, rec: Recorder, inputs: dict):
        mains = [(partial(self._detect, rec, p), partial(self._check_detect, rec, kind))
                 for kind, p in inputs["detect"]]
        extras = [("sliding_loop", partial(self._loop, rec, p),
                   partial(self._check_loop, rec, kind, p)) for kind, p in inputs["loops"]]
        return mains, extras

    @staticmethod
    def _detect(rec: Recorder, p: pw.SlidingParams):
        return rec.tracer.call("sliding.detect_sliding_cycle", pw.detect_sliding_cycle, p)

    def _loop(self, rec: Recorder, p: pw.SlidingParams):
        return (self._detect(rec, p),
                rec.tracer.call("sliding.simulate_sliding_cycle", pw.simulate_sliding_cycle,
                                p, p.epsilon))

    @staticmethod
    def _check_detect(rec: Recorder, kind: pw.CycleKind, report):
        rec.counts[f"sliding.detect_sliding_cycle.kind.{report.cycle.value}"] += 1
        rec.counts["sliding.detect_sliding_cycle.consistent"] += int(report.ordering_consistent)
        if report.cycle is not kind:
            return WRONG, f"detected {report.cycle.value} for a {kind.value} draw"
        if not report.ordering_consistent:
            return FAILED, f"S-mark ordering {report.ordering} inconsistent with {kind.value}"
        return OK, ""

    def _check_loop(self, rec: Recorder, kind: pw.CycleKind, p: pw.SlidingParams, out):
        report, (traj, closure, kinds) = out
        c = rec.counts
        c["sliding.traj.segments"] += len(kinds)
        c["sliding.traj.sliding_segments"] += kinds.count("Sliding")
        c["sliding.traj.samples"] += len(traj.samples)
        c[f"sliding.traj.stopped.{traj.stopped}"] += 1
        status, note = self._check_detect(rec, kind, report)
        if status != OK:
            return status, note
        if not closure < 1e-6 * p.e:
            return FAILED, f"closure {closure} at eps {p.epsilon:.4g} ({kind.value})"
        if kind in TYPE_ONE:
            kinds_ok = "Sliding" in kinds and "ZoneMinus" in kinds and "ZonePlus" not in kinds
        else:
            kinds_ok = "Sliding" in kinds and "ZonePlus" in kinds
        if not kinds_ok:
            return FAILED, f"segment kinds {kinds} do not match {kind.value}"
        rec.note_max("sliding_closure_max", closure / p.e)
        return OK, ""


WORKLOADS = {w.name: w for w in (ClosedForm(), OracleCrosscheck(), SlidingCycles())}
