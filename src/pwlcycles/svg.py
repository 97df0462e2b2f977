"""Minimal deterministic SVG emitter for phase portraits.

One polyline per trajectory segment, colored by segment kind, the
switching line x = 0 drawn through the frame, and fold points marked.
No timestamps or other run-dependent metadata are written, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import math

from .flow import Trajectory

_COLORS = {"ZonePlus": "#1f77b4", "ZoneMinus": "#2ca02c", "Sliding": "#d62728"}


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class PhasePortrait:
    WIDTH = 640     # pixels
    HEIGHT = 640
    MARGIN = 0.08   # padding around the data, as a fraction of its span

    def __init__(self):
        self._trajectories: list[Trajectory] = []
        self._folds: list[float] = []

    def add_trajectory(self, traj: Trajectory) -> None:
        self._trajectories.append(traj)

    def add_fold(self, y: float) -> None:
        self._folds.append(y)

    def _bounds(self):
        xs, ys = [0.0], [0.0] + list(self._folds)
        for traj in self._trajectories:
            for (_t, x, y) in traj.samples:
                xs.append(x)
                ys.append(y)
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        span_x = max(x_hi - x_lo, 1e-9)
        span_y = max(y_hi - y_lo, 1e-9)
        pad_x, pad_y = self.MARGIN * span_x, self.MARGIN * span_y
        return (x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y)

    def render(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._bounds()

        def to_px(x, y):
            px = (x - x_lo) / (x_hi - x_lo) * self.WIDTH
            py = (1.0 - (y - y_lo) / (y_hi - y_lo)) * self.HEIGHT
            return px, py

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.WIDTH}" '
            f'height="{self.HEIGHT}" viewBox="0 0 {self.WIDTH} {self.HEIGHT}">',
            f'<rect width="{self.WIDTH}" height="{self.HEIGHT}" fill="white"/>',
        ]
        # switching line x = 0
        sx, _ = to_px(0.0, 0.0)
        parts.append(
            f'<line x1="{_fmt(sx)}" y1="0" x2="{_fmt(sx)}" y2="{self.HEIGHT}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>')
        for traj in self._trajectories:
            for seg, pts in traj.segment_samples():
                if len(pts) < 2:
                    continue
                coords = " ".join(
                    f"{_fmt(to_px(x, y)[0])},{_fmt(to_px(x, y)[1])}"
                    for (_t, x, y) in pts
                    if math.isfinite(x) and math.isfinite(y))
                color = _COLORS.get(seg.kind, "#000000")
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    'stroke-width="1.4"/>')
        for y in self._folds:
            px, py = to_px(0.0, y)
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.5" fill="#000000"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
