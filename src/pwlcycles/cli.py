"""Command-line interface.

Subcommands:
    analyze          full report (hypotheses, normal form, displacement
                     roots and stability, infinity, sliding when applicable)
    melnikov         CSV sampling of the displacement function plus roots
    sliding          sweep of the second-order left trace across the
                     threshold windows (CSV of parameter, ordering, cycle)
    simulate         trajectory CSV and optional SVG phase portrait
    verify-examples  run the built-in acceptance battery

Each command takes only the flags it reads.  Exit codes: 0 success, 1 input
validation failure, 2 a violated bound, a failed built-in check or an
argparse usage error (an unknown flag or a missing argument).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import replace

import numpy as np

from . import acceptance
from .core import PwlSystem, canonicalize, check_hypotheses
from .errors import BoundViolated, PwlError
from .flow import simulate
from .infinity import infinity_stability
from .melnikov import (
    MelnikovParams,
    RootFindOptions,
    analyze as melnikov_analyze,
    m1_csv,
)
from .sigma import find_folds
from .sliding import (
    SlidingParams,
    detect_sliding_cycle,
    simultaneity_report,
    thresholds,
)
from .svg import PhasePortrait


def _load_system(path: str, epsilon: float | None = None) -> PwlSystem:
    """The system in ``path``, at ``epsilon`` when one is given."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    try:
        sys_in = PwlSystem.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return sys_in if epsilon is None else sys_in.with_epsilon(epsilon)


def _domain(args) -> tuple:
    """The checked ``--y0-range``, with ``--grid`` checked alongside."""
    lo, hi = args.y0_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo > 0):
        raise ValueError("y0 range needs finite bounds and lo > 0")
    if lo >= hi:
        raise ValueError("y0 range needs lo < hi")
    if args.grid < 256:
        raise ValueError("grid must be >= 256")
    return (lo, hi)


def _write(output_dir: str, name: str, content: str) -> str:
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, name)
    with open(path, "w") as fh:
        fh.write(content)
    return path


def cmd_analyze(args) -> int:
    domain = _domain(args)
    sys_in = _load_system(args.input, args.epsilon)
    report: dict = {"input": args.input, "epsilon": sys_in.epsilon}
    hyp = check_hypotheses(sys_in)
    report["hypotheses"] = {
        "h1_real_center": hyp.h1_real_center,
        "h2_virtual_center": hyp.h2_virtual_center,
        "h3_global_center": hyp.h3_global_center,
        "singular_minus": [hyp.singular_minus.x, hyp.singular_minus.y],
        "singular_plus": [hyp.singular_plus.x, hyp.singular_plus.y],
    }
    if not hyp.h3_global_center:
        report["note"] = "hypotheses fail; no displacement analysis performed"
        _write(args.output_dir, "report.json", json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        return 0
    params, change = hyp.reduction
    canon = change.push_system(sys_in)
    report["canonical"] = {"a": params.a, "b": params.b, "c": params.c,
                           "d": params.d, "e": params.e, "xi": params.xi,
                           "time_scale": change.time_scale}
    sp = SlidingParams.from_system(canon)
    mel = melnikov_analyze(sp, domain, RootFindOptions(grid=args.grid))
    report["melnikov"] = mel.to_dict()
    report["infinity"] = infinity_stability(sp).to_dict()
    try:
        folds = find_folds(canon)
        report["folds"] = [{"y": f.y, "side": f.side, "visibility": f.visibility.value}
                           for f in folds]
    except PwlError:
        report["folds"] = []
    if sp.constrained:
        sim = simultaneity_report(sp, domain=domain, opts=RootFindOptions(grid=args.grid))
        report["sliding"] = sim.to_dict()
    else:
        report["sliding"] = {"note": "first-order left trace is nonzero; "
                                     "no sliding cycle exists"}
    _write(args.output_dir, "report.json", json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


def cmd_melnikov(args) -> int:
    domain = _domain(args)
    sys_in = _load_system(args.input)
    _, change = canonicalize(sys_in)
    canon = change.push_system(sys_in)
    mp_ = MelnikovParams.from_system(canon)
    _write(args.output_dir, "m1.csv", m1_csv(mp_, domain, n=args.grid))
    mel = melnikov_analyze(mp_, domain, RootFindOptions(grid=args.grid))
    out = {"roots": [{"y0": r.y0, "flag": r.flag.value} for r in mel.roots]}
    _write(args.output_dir, "roots.json", json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    return 0


def cmd_sliding(args) -> int:
    sys_in = _load_system(args.input, args.epsilon)
    _, change = canonicalize(sys_in)
    base = SlidingParams.from_system(change.push_system(sys_in))
    if not base.constrained:
        print("first-order left trace is nonzero; no sliding cycle exists", file=_sys.stderr)
        _write(args.output_dir, "sweep.csv", "tau,ordering,cycle\n")
        return 0
    T = thresholds(base)
    taus = np.linspace(-5.0 * T, 5.0 * T, 41)
    lines = ["tau,ordering,cycle"]
    for tau in taus:
        rep = detect_sliding_cycle(replace(base, c11m=float(tau) - base.c22m))
        lines.append(f"{tau:.17g},{rep.ordering.replace(' ', '')},{rep.cycle.value}")
    _write(args.output_dir, "sweep.csv", "\n".join(lines) + "\n")
    print(f"swept {len(taus)} values of the second-order left trace "
          f"across ({-5 * T:.6g}, {5 * T:.6g})")
    return 0


def cmd_simulate(args) -> int:
    sys_in = _load_system(args.input, args.epsilon)
    traj = simulate(sys_in, tuple(args.start), args.t_max)
    _write(args.output_dir, "trajectory.csv", traj.to_csv())
    if args.svg:
        portrait = PhasePortrait()
        portrait.add_trajectory(traj)
        try:
            for f in find_folds(sys_in):
                portrait.add_fold(f.y)
        except PwlError:
            pass
        _write(args.output_dir, "phase.svg", portrait.render())
    print(f"simulated {len(traj.segments)} segments, stopped: {traj.stopped}")
    return 0


def cmd_verify_examples(args) -> int:
    results = acceptance.run_all()
    all_ok = True
    for r in results:
        print(f"[{r.ident}] {r.description}: {'PASS' if r.passed else 'FAIL'} "
              f"({r.runtime:.1f}s)")
        for ok, text in r.details:
            print(f"    {'pass' if ok else 'FAIL'}  {text}")
        all_ok &= r.passed
        if args.svg and r.svg:
            _write(args.output_dir, f"criterion_{r.ident}.svg", r.svg)
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the arguments it reads."""
    flags = {
        "input": (("input",), {"help": "system JSON file"}),
        "epsilon": (("--epsilon",), {"type": float, "default": None,
                                     "help": "override the perturbation size"}),
        "y0_range": (("--y0-range",), {"type": float, "nargs": 2, "default": (1e-2, 1e2),
                                       "metavar": ("LO", "HI")}),
        "grid": (("--grid",), {"type": int, "default": 4096}),
        "start": (("--start",), {"type": float, "nargs": 2, "required": True,
                                 "metavar": ("X", "Y")}),
        "t_max": (("--t-max",), {"type": float, "default": 20.0}),
        "svg": (("--svg",), {"action": "store_true", "help": "emit SVG output"}),
        "output_dir": (("-o", "--output-dir"), {"default": "."}),
    }
    commands = {
        "analyze": (cmd_analyze, "full analysis report",
                    ("input", "epsilon", "y0_range", "grid")),
        "melnikov": (cmd_melnikov, "displacement-function sampling and roots",
                     ("input", "y0_range", "grid")),
        "sliding": (cmd_sliding, "threshold sweep of the sliding windows",
                    ("input", "epsilon")),
        "simulate": (cmd_simulate, "event-driven trajectory",
                     ("input", "epsilon", "start", "t_max", "svg")),
        "verify-examples": (cmd_verify_examples, "run the built-in checks", ("svg",)),
    }
    ap = argparse.ArgumentParser(prog="pwlcycles",
                                 description="limit cycles of planar two-zone "
                                             "piecewise-linear systems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_, dests) in commands.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for dest in (*dests, "output_dir"):
            names, kwargs = flags[dest]
            p.add_argument(*names, **kwargs)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except BoundViolated as exc:
        print(f"bound violated: {exc}", file=_sys.stderr)
        return 2
    except PwlError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
