"""Command-line interface.

Subcommands:
    analyze          full report (hypotheses, normal form, displacement
                     roots and stability, infinity, sliding when applicable)
    melnikov         CSV sampling of the displacement function plus roots
    sliding          sweep of the second-order left trace across the
                     threshold windows (CSV of parameter, ordering, cycle)
    simulate         trajectory CSV and optional SVG phase portrait
    verify-examples  run the built-in acceptance battery

Exit codes: 0 success, 1 input validation failure, 2 a violated bound or
failed built-in check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class AnalysisConfig:
    input_path: str
    epsilon_override: float | None = None
    y0_range: tuple = (1e-2, 1e2)
    grid: int = 4096
    output_dir: str = "."
    emit_svg: bool = False

    def __post_init__(self):
        if self.y0_range[0] >= self.y0_range[1]:
            raise ValueError("y0 range needs lo < hi")
        if self.grid < 256:
            raise ValueError("grid must be >= 256")


def _load_system(path: str) -> PwlSystem:
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
        return PwlSystem.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write(cfg: AnalysisConfig, name: str, content: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w") as fh:
        fh.write(content)
    return path


def _sliding_params_from(sys_canon: PwlSystem, params, eps: float) -> SlidingParams:
    (b1m, v1m) = sys_canon.order1_minus
    (b1p, v1p) = sys_canon.order1_plus
    (c2m, w2m) = sys_canon.order2_minus
    return SlidingParams(
        a=params.a, b=params.b, d=params.d, e=params.e, xi=params.xi,
        b11m=b1m.m11, b22m=b1m.m22, b21m=b1m.m21, v1m=v1m.x, v2m=v1m.y,
        v1p=v1p.x, c11m=c2m.m11, c22m=c2m.m22, c21m=c2m.m21, w2m=w2m.y,
        epsilon=eps, b11p=b1p.m11, b22p=b1p.m22,
    )


def cmd_analyze(cfg: AnalysisConfig) -> int:
    sys_in = _load_system(cfg.input_path)
    eps = cfg.epsilon_override if cfg.epsilon_override is not None else sys_in.epsilon
    report: dict = {"input": cfg.input_path, "epsilon": eps}
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
        _write(cfg, "report.json", json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        return 0
    params, change = hyp.reduction
    canon = change.push_system(sys_in).with_epsilon(eps)
    report["canonical"] = {"a": params.a, "b": params.b, "c": params.c,
                           "d": params.d, "e": params.e, "xi": params.xi,
                           "time_scale": change.time_scale}
    mp_ = MelnikovParams.from_system(canon)
    mel = melnikov_analyze(mp_, cfg.y0_range, RootFindOptions(grid=cfg.grid))
    report["melnikov"] = mel.to_dict()
    report["infinity"] = infinity_stability(mp_).to_dict()
    try:
        folds = find_folds(canon)
        report["folds"] = [{"y": f.y, "side": f.side, "visibility": f.visibility.value}
                           for f in folds]
    except PwlError:
        report["folds"] = []
    if mp_.constrained:
        sp = _sliding_params_from(canon, params, eps if eps > 0 else 1e-2)
        sim = simultaneity_report(sp, domain=cfg.y0_range,
                                  opts=RootFindOptions(grid=cfg.grid))
        report["sliding"] = sim.to_dict()
    else:
        report["sliding"] = {"note": "first-order left trace is nonzero; "
                                     "no sliding cycle exists"}
    _write(cfg, "report.json", json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


def cmd_melnikov(cfg: AnalysisConfig) -> int:
    sys_in = _load_system(cfg.input_path)
    _, change = canonicalize(sys_in)
    canon = change.push_system(sys_in)
    mp_ = MelnikovParams.from_system(canon)
    _write(cfg, "m1.csv", m1_csv(mp_, cfg.y0_range, n=cfg.grid))
    mel = melnikov_analyze(mp_, cfg.y0_range, RootFindOptions(grid=cfg.grid))
    out = {"roots": [{"y0": r.y0, "flag": r.flag.value} for r in mel.roots]}
    _write(cfg, "roots.json", json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    return 0


def cmd_sliding(cfg: AnalysisConfig) -> int:
    sys_in = _load_system(cfg.input_path)
    eps = cfg.epsilon_override if cfg.epsilon_override is not None else sys_in.epsilon
    params, change = canonicalize(sys_in)
    canon = change.push_system(sys_in)
    base = _sliding_params_from(canon, params, eps if eps > 0 else 1e-2)
    if not base.trace_constrained:
        print("first-order left trace is nonzero; no sliding cycle exists", file=_sys.stderr)
        _write(cfg, "sweep.csv", "tau,ordering,cycle\n")
        return 0
    T = thresholds(base)
    taus = np.linspace(-5.0 * T, 5.0 * T, 41)
    lines = ["tau,ordering,cycle"]
    for tau in taus:
        rep = detect_sliding_cycle(replace(base, c11m=float(tau) - base.c22m))
        lines.append(f"{tau:.17g},{rep.ordering.replace(' ', '')},{rep.cycle.value}")
    _write(cfg, "sweep.csv", "\n".join(lines) + "\n")
    print(f"swept {len(taus)} values of the second-order left trace "
          f"across ({-5 * T:.6g}, {5 * T:.6g})")
    return 0


def cmd_simulate(cfg: AnalysisConfig, start, t_max: float) -> int:
    sys_in = _load_system(cfg.input_path)
    if cfg.epsilon_override is not None:
        sys_in = sys_in.with_epsilon(cfg.epsilon_override)
    traj = simulate(sys_in, start, t_max)
    _write(cfg, "trajectory.csv", traj.to_csv())
    if cfg.emit_svg:
        portrait = PhasePortrait()
        portrait.add_trajectory(traj)
        try:
            for f in find_folds(sys_in):
                portrait.add_fold(f.y)
        except PwlError:
            pass
        _write(cfg, "phase.svg", portrait.render())
    print(f"simulated {len(traj.segments)} segments, stopped: {traj.stopped}")
    return 0


def cmd_verify_examples(cfg: AnalysisConfig) -> int:
    results = acceptance.run_all()
    all_ok = True
    for r in results:
        print(f"[{r.ident}] {r.description}: {'PASS' if r.passed else 'FAIL'} "
              f"({r.runtime:.1f}s)")
        for ok, text in r.details:
            print(f"    {'pass' if ok else 'FAIL'}  {text}")
        all_ok &= r.passed
        if cfg.emit_svg and r.svg:
            _write(cfg, f"criterion_{r.ident}.svg", r.svg)
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pwlcycles",
                                 description="limit cycles of planar two-zone "
                                             "piecewise-linear systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="system JSON file")
        p.add_argument("--epsilon", type=float, default=None,
                       help="override the perturbation size")
        p.add_argument("--y0-range", type=float, nargs=2, default=(1e-2, 1e2),
                       metavar=("LO", "HI"))
        p.add_argument("--grid", type=int, default=4096)
        p.add_argument("-o", "--output-dir", default=".")
        p.add_argument("--svg", action="store_true", help="emit SVG output")

    common(sub.add_parser("analyze", help="full analysis report"))
    common(sub.add_parser("melnikov", help="displacement-function sampling and roots"))
    common(sub.add_parser("sliding", help="threshold sweep of the sliding windows"))
    psim = sub.add_parser("simulate", help="event-driven trajectory")
    common(psim)
    psim.add_argument("--start", type=float, nargs=2, required=True, metavar=("X", "Y"))
    psim.add_argument("--t-max", type=float, default=20.0)
    pver = sub.add_parser("verify-examples", help="run the built-in checks")
    common(pver, needs_input=False)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = AnalysisConfig(
            input_path=getattr(args, "input", ""),
            epsilon_override=args.epsilon,
            y0_range=tuple(args.y0_range),
            grid=args.grid,
            output_dir=args.output_dir,
            emit_svg=args.svg,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    try:
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "melnikov":
            return cmd_melnikov(cfg)
        if args.command == "sliding":
            return cmd_sliding(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, tuple(args.start), args.t_max)
        if args.command == "verify-examples":
            return cmd_verify_examples(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except BoundViolated as exc:
        print(f"bound violated: {exc}", file=_sys.stderr)
        return 2
    except PwlError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
