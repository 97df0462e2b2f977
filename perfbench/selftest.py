"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

* the counts taken from outputs (roots, suspect roots, ECT verdicts, oracle
  failures, trajectory segments, samples and stop reasons, cycle kinds,
  calls per layer) repeat exactly when the first pass of a seed runs twice;
* the end-to-end and per-layer metric names and units that run.py reports
  are exactly those of ``BENCHMARK.json``, for every workload;
* a real run prints every end-to-end metric with its unit in the report
  and in the JSON result line.

Exits 0 when all checks hold, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import run

SEED = 11


def one_pass(workload, seed: int):
    """A recorder holding one traced round of the first pass of ``seed``."""
    from speed import Speedometer
    from tracing import Tracer
    from workloads import Recorder
    rec = Recorder(Tracer(True), Speedometer())
    workload.run_round(rec, [workload.inputs(seed, 0)])
    return rec


def deterministic(rec) -> dict:
    """Every count of a traced pass: output counters and the count metrics."""
    layer = run.per_layer(rec, rec, 1)
    out = {name: layer[name] for name, unit in run.PER_LAYER if unit == "count"}
    out.update(rec.first_counts)
    out.update(attempted=rec.attempted, failed=rec.failed, ops=len(rec.spans))
    return out


def main() -> int:
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if dict(run.END_TO_END) != want_e2e:
        problems.append(f"end-to-end metrics {dict(run.END_TO_END)} != BENCHMARK.json {want_e2e}")
    if dict(run.PER_LAYER) != want_layer:
        problems.append("per-layer metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("workload names differ from BENCHMARK.json")

    run.import_package()
    from workloads import WORKLOADS
    if list(WORKLOADS) != list(run.WORKLOAD_NAMES):
        problems.append(f"workloads.py defines {list(WORKLOADS)}, "
                        f"run.py names {run.WORKLOAD_NAMES}")
    for name, workload in WORKLOADS.items():
        first, second = one_pass(workload, SEED), one_pass(workload, SEED)
        a, b = deterministic(first), deterministic(second)
        if a != b:
            diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}
            problems.append(f"{name}: counts differ between two runs of seed {SEED}: {diff}")
        if first.wrong:
            problems.append(f"{name}: wrong results {first.wrong}")
        e2e = run.end_to_end(first, [1.0], 1)
        layer = run.per_layer(first, first, 1)
        if set(e2e) != set(want_e2e) or set(layer) != set(want_layer):
            problems.append(f"{name}: reported metric names differ from BENCHMARK.json")
        for metric, value in {**e2e, **layer}.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                problems.append(f"{name}: {metric} = {value!r} is not a finite number")
        print(f"selftest: {name}: {len(a)} counts compared, "
              f"{a['attempted']} attempted, {a['failed']} failed", flush=True)

    done = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", "closed_form",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        problems.append(f"closed_form run failed: {done.stderr[-2000:]}")
    else:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want_e2e:
            problems.append(f"result metrics {got} != {want_e2e}")
        for metric, unit in want_e2e.items():
            if not any(line.split()[:1] == [metric] and line.split()[-1] == unit
                       for line in lines[:-1]):
                problems.append(f"report has no line for {metric} with unit {unit}")

    for p in problems:
        print(f"selftest: FAIL: {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
