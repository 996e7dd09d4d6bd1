"""Static SVG rendering of the decision geometry.

One picture: the weight annulus, the unit circle, and the images of the
annulus boundary circles under the map, with a legend of certified values.
Sampling counts are fixed so the output is byte-identical across runs.
"""
from __future__ import annotations

import math

import numpy as np

from .jclass import Verdict
from .spectra import OperatorSpec

__all__ = ["render_svg", "contour_csv_rows"]

_N_SAMPLES = 512
_SIZE = 640  # picture width and height in pixels


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _circle_points(f, radius: float, n: int) -> np.ndarray:
    theta = np.arange(n + 1) * (2.0 * math.pi / n)
    return np.asarray(f.eval(radius * np.exp(1j * theta)))


def _path(points: np.ndarray, sx, sy) -> str:
    cmds = [f"M {_fmt(sx(points[0].real))} {_fmt(sy(points[0].imag))}"]
    cmds.extend(
        f"L {_fmt(sx(p.real))} {_fmt(sy(p.imag))}" for p in points[1:]
    )
    return " ".join(cmds) + " Z"


def render_svg(op: OperatorSpec, verdict: Verdict | None = None) -> str:
    prof = op.profile() if verdict is None else verdict.profile
    curves = {
        "inner image": _circle_points(op.map, prof.r2, _N_SAMPLES),
        "outer image": _circle_points(op.map, prof.r1, _N_SAMPLES),
    }
    extent = max(
        prof.r1,
        1.0,
        max(float(np.max(np.abs(c))) for c in curves.values()),
    ) * 1.1

    scale = _SIZE / (2.0 * extent)

    def sx(x: float) -> float:
        return (x + extent) * scale

    def sy(y: float) -> float:
        return (extent - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        # weight annulus: outer disk filled, inner disk cut back to white
        f'<circle cx="{_fmt(sx(0))}" cy="{_fmt(sy(0))}" r="{_fmt(prof.r1 * scale)}" '
        f'fill="#dce9f5" stroke="#4878a8" stroke-width="1"/>',
        f'<circle cx="{_fmt(sx(0))}" cy="{_fmt(sy(0))}" r="{_fmt(prof.r2 * scale)}" '
        f'fill="white" stroke="#4878a8" stroke-width="1"/>',
        # closed unit disk
        f'<circle cx="{_fmt(sx(0))}" cy="{_fmt(sy(0))}" r="{_fmt(scale)}" '
        f'fill="none" stroke="#c03030" stroke-width="1.5" stroke-dasharray="6 3"/>',
        f'<path d="{_path(curves["inner image"], sx, sy)}" fill="none" '
        f'stroke="#2f8f4e" stroke-width="1.5"/>',
        f'<path d="{_path(curves["outer image"], sx, sy)}" fill="none" '
        f'stroke="#7a4ea8" stroke-width="1.5"/>',
    ]

    legend = [
        f"outer radius r1 = {_fmt(prof.r1)}",
        f"inner radius r2 = {_fmt(prof.r2)}",
        "annulus (blue), unit circle (red dashed)",
        "map image of inner/outer circle (green/purple)",
    ]
    if verdict is not None:
        legend.insert(0, f"decision: {verdict.decision} [{verdict.route}]")
        if verdict.condition_a is not None:
            legend.append(
                f"certified min |f| on annulus >= {_fmt(verdict.condition_a.lower_bound)}"
            )
        if verdict.condition_b is not None:
            legend.append(f"winding about 0 = {verdict.condition_b.winding.winding}")
    for i, line in enumerate(legend):
        parts.append(
            f'<text x="8" y="{16 + 14 * i}" font-family="monospace" '
            f'font-size="11" fill="#202020">{line}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def contour_csv_rows(f, radius: float):
    """(theta, Re f, Im f) at _N_SAMPLES points of the image of |z| = radius."""
    theta = np.arange(_N_SAMPLES) * (2.0 * math.pi / _N_SAMPLES)
    vals = np.asarray(f.eval(radius * np.exp(1j * theta)))
    for t, v in zip(theta, vals):
        yield float(t), float(v.real), float(v.imag)
