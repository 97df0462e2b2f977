"""Benchmark of the pwlcycles package.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout (nothing is installed), and the run stops with a
nonzero exit code, printing no result, when ``src/pwlcycles`` is missing.
One measuring process, no threads; set-up is timed in child interpreters.

The workloads are in ``workloads.py``.  A run draws a fixed number of
passes of seeded inputs, then repeats all of them once per round, and makes
the whole number of rounds that comes closest to ``--seconds``, at least
one.  Each operation's time is scaled to a reference host speed by a probe
timed between the operations (``speed.py``: the host's speed swings up to
1.9x for whole runs), and is the median of its scaled times over the
rounds.  The report also gives the raw, unscaled times (``*.raw``) and
the host's speed factors.  The lines before the last one are a readable
report; the last line is the JSON result.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over seven fresh interpreters of the time to import
  pwlcycles and build the inputs of the first pass, each scaled by the
  probes this process times just before and after the interpreter runs;
* ``run_s``: time of one pass (main operations plus extra calls), the sum
  of the operations' times divided by the number of passes;
* ``ops_per_s``: main operations per second of their own time;
* ``op_p50_ms``: median time of one main operation;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` runs every round twice on the same inputs, once without and
once with spans around each call into the package (alternating which goes
first), and reports per-layer metrics per round, from the spans and from
counters taken from the outputs of the first round.  ``trace.overhead_s``
is the traced ``run_s`` minus the untraced one.  The spans are written
to ``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

Only process-local clocks (``time.perf_counter``) and ``ru_maxrss`` are
read: no CPU pinning, no cache dropping, no machine-wide tracing.  The
host's speed is read only through the time of the probe in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("closed_form", "oracle_crosscheck", "sliding_cycles")
SETUP_REPEATS = 7

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("melnikov.find_roots.calls", "count"),
    ("melnikov.find_roots.total_s", "s"),
    ("melnikov.find_roots.p50_us", "us"),
    ("melnikov.find_roots.roots", "count"),
    ("melnikov.find_roots.suspect", "count"),
    ("melnikov.find_roots.f_evals", "count"),
    ("melnikov.classify_stability.total_s", "s"),
    ("melnikov.m1.total_s", "s"),
    ("ect.check_ect.calls", "count"),
    ("ect.check_ect.total_s", "s"),
    ("ect.check_ect.verdict_ect", "count"),
    ("ect.check_ect.verdict_et", "count"),
    ("ect.check_ect.verdict_inconclusive", "count"),
    ("core.canonicalize.calls", "count"),
    ("core.canonicalize.total_s", "s"),
    ("core.check_hypotheses.total_s", "s"),
    ("sigma.find_folds.total_s", "s"),
    ("infinity.infinity_stability.total_s", "s"),
    ("sliding.s_maps.total_s", "s"),
    ("flow.melnikov_oracle.calls", "count"),
    ("flow.melnikov_oracle.total_s", "s"),
    ("flow.melnikov_oracle.p50_us", "us"),
    ("flow.melnikov_oracle.noreturn", "count"),
    ("infinity.poincare_displacement.calls", "count"),
    ("infinity.poincare_displacement.total_s", "s"),
    ("sliding.detect_sliding_cycle.calls", "count"),
    ("sliding.detect_sliding_cycle.total_s", "s"),
    ("sliding.detect_sliding_cycle.consistent", "count"),
    ("sliding.detect_sliding_cycle.kind.SlidingTypeI", "count"),
    ("sliding.detect_sliding_cycle.kind.SlidingTypeII", "count"),
    ("sliding.detect_sliding_cycle.kind.EscapingTypeI", "count"),
    ("sliding.detect_sliding_cycle.kind.EscapingTypeII", "count"),
    ("sliding.detect_sliding_cycle.kind.None", "count"),
    ("sliding.simulate_sliding_cycle.calls", "count"),
    ("sliding.simulate_sliding_cycle.total_s", "s"),
    ("sliding.simulate_sliding_cycle.p50_ms", "ms"),
    ("sliding.traj.segments", "count"),
    ("sliding.traj.sliding_segments", "count"),
    ("sliding.traj.samples", "count"),
    ("sliding.traj.stopped.t_max", "count"),
    ("sliding.traj.stopped.sliding_endpoint", "count"),
    ("sliding.traj.stopped.sliding_stall", "count"),
    ("sliding.traj.stopped.double_tangency", "count"),
    ("sliding.traj.stopped.inconsistent_crossing", "count"),
    ("op.self_s", "s"),
    ("core.self_s", "s"),
    ("sigma.self_s", "s"),
    ("flow.self_s", "s"),
    ("melnikov.self_s", "s"),
    ("ect.self_s", "s"),
    ("infinity.self_s", "s"),
    ("sliding.self_s", "s"),
    ("trace.overhead_s", "s"),
)

SPAN_FIELDS = {".calls": ("calls", 1), ".total_s": ("total_s", 1.0),
               ".p50_us": ("p50_s", 1e6), ".p50_ms": ("p50_s", 1e3)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import pwlcycles from ``src/`` of the checkout, never from elsewhere."""
    if not (SRC / "pwlcycles" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'pwlcycles'}; "
                         "run from the root of a pwlcycles checkout")
    sys.path.insert(0, str(SRC))
    import pwlcycles
    if Path(pwlcycles.__file__).resolve().parent != (SRC / "pwlcycles").resolve():
        raise SystemExit(f"perfbench: pwlcycles imported from {pwlcycles.__file__}, not {SRC}")
    return pwlcycles


def setup_probe(args) -> None:
    """Child process: time the import and the first pass's input generation."""
    t0 = perf_counter()
    import_package()
    import workloads
    workloads.WORKLOADS[args.workload].inputs(args.seed, 0)
    print(repr(perf_counter() - t0))


def setup_seconds(args) -> tuple:
    """Raw and scaled set-up times of ``SETUP_REPEATS`` fresh interpreters."""
    from speed import Speedometer
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    meter = Speedometer()
    runs = []
    for _ in range(SETUP_REPEATS):
        meter.probes()
        t0 = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        runs.append((float(done.stdout.strip().splitlines()[-1]), t0, perf_counter()))
    meter.probes()
    return ([elapsed for elapsed, _t0, _t1 in runs],
            [elapsed * meter.factor(t0, t1) for elapsed, t0, t1 in runs])


def measure(workload, seed: int, seconds: float, trace: bool):
    """Draw the run's passes, then run whole rounds of them until the next
    round would end further past ``seconds`` than the run already is short
    of it."""
    from speed import Speedometer
    from tracing import Tracer
    from workloads import Recorder
    passes = [workload.inputs(seed, k) for k in range(workload.passes)]
    speed = Speedometer()
    plain = Recorder(Tracer(False), speed)
    traced = Recorder(Tracer(True), speed) if trace else None
    start = perf_counter()
    r = 0
    while True:
        for rec in ((plain, traced) if r % 2 == 0 else (traced, plain)):
            if rec is not None:
                workload.run_round(rec, passes)
        r += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= seconds:
            speed.probes()
            return plain, traced


def timings(rec, passes: int, scaled: bool = True) -> dict:
    """run_s, ops_per_s and op_p50_ms from each operation's median time."""
    seconds = rec.op_seconds(scaled)
    mains = [seconds[key] for key in sorted(rec.mains)]
    return {"run_s": sum(seconds.values()) / passes,
            "ops_per_s": len(mains) / sum(mains),
            "op_p50_ms": 1e3 * statistics.median(mains),
            "mains": mains}


def end_to_end(rec, setup_times, passes: int) -> dict:
    t = timings(rec, passes)
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": t["run_s"],
        "ops_per_s": t["ops_per_s"],
        "op_p50_ms": t["op_p50_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, passes: int) -> dict:
    """Per-layer metrics of one round: span calls and times summed over the
    traced rounds and divided by their number, durations' medians over all
    of them, and output counters of the first round."""
    summary = traced.tracer.summary()
    names, layers = summary["names"], summary["layer_self_s"]
    rounds = traced.rounds
    out = {}
    for metric, _unit in PER_LAYER:
        if metric == "trace.overhead_s":
            out[metric] = timings(traced, passes)["run_s"] - timings(plain, passes)["run_s"]
            continue
        if metric.endswith(".self_s") and metric.count(".") == 1:
            out[metric] = layers.get(metric.split(".")[0], 0.0) / rounds
            continue
        for suffix, (key, scale) in SPAN_FIELDS.items():
            if metric.endswith(suffix):
                entry = names.get(metric[: -len(suffix)])
                per = rounds if key in ("calls", "total_s") else 1
                out[metric] = (entry[key] / per if entry else 0) * scale
                break
        else:
            out[metric] = traced.first_counts.get(metric, 0)
    return out


def machine_facts(np_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np_version,
        "PWLF_THREADS": os.environ.get("PWLF_THREADS", "unset"),
        "clocks": "time.perf_counter and ru_maxrss of this process only",
        "host_speed": "a fixed probe timed in this process, see speed.py",
    }


def report(args, facts, rec, e2e, layer, extra) -> None:
    print(f"# pwlcycles benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# rounds={rec.rounds} ops per round={len(rec.spans)} "
          f"attempted={rec.attempted} failed={rec.failed} wrong={len(rec.wrong)}")
    units = dict(END_TO_END + PER_LAYER + tuple((k, u) for k, (_v, u) in extra.items()))
    rows = {**e2e, **{k: v for k, (v, _u) in extra.items()}, **layer}
    for name, value in rows.items():
        print(f"{name:48s} {value!r:>24} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    setup_raw, setup_times = setup_seconds(args)
    import numpy as np
    from workloads import WORKLOADS
    plain, traced = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    rec = traced if args.trace else plain
    passes = WORKLOADS[args.workload].passes
    e2e = end_to_end(plain, setup_times, passes)
    raw = timings(plain, passes, scaled=False)
    factors = plain.speed.factors()
    extra = {"setup_s.raw": (statistics.median(setup_raw), "s"),
             "run_s.raw": (raw["run_s"], "s"),
             "ops_per_s.raw": (raw["ops_per_s"], "1/s"),
             "op_p50_ms.raw": (raw["op_p50_ms"], "ms"),
             "host.probes": (len(factors), "count"),
             "host.slowdown_p50": (statistics.median(factors), "ratio"),
             "host.slowdown_min": (min(factors), "ratio"),
             "host.slowdown_max": (max(factors), "ratio"),
             "fail_ratio": (rec.failed / rec.attempted, "ratio")}
    counts = rec.first_counts
    for key, n in sorted(counts.items()):
        if key.startswith("attempted."):
            kind = key.split(".", 1)[1]
            extra[f"fail_ratio.{kind}"] = (counts[f"failed.{kind}"] / n, "ratio")
    if len(rec.mains) >= 100:
        extra["op_p90_ms"] = (1e3 * statistics.quantiles(timings(rec, passes)["mains"],
                                                           n=10)[-1], "ms")
    for name, value in sorted(rec.maxima.items()):
        extra[name] = (value, "ratio")
    layer = per_layer(plain, traced, passes) if args.trace else {}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        traced.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    facts = machine_facts(np.__version__)
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "setup_times_s": setup_times, "setup_raw_s": setup_raw,
                   "end_to_end": e2e,
                   "extra": {k: v for k, (v, _u) in extra.items()}, "per_layer": layer,
                   "counts": dict(sorted(counts.items())), "failures": rec.failures,
                   "round_times_s": rec.round_times,
                   "attempted": rec.attempted, "failed": rec.failed}, fh, indent=1)
    for note in rec.wrong[:10]:
        print(f"perfbench: wrong result: {note}", file=sys.stderr)
    report(args, facts, rec, e2e if not args.trace else {}, layer, extra)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
