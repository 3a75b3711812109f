"""Deterministic top-down SVG rendering of environments and plans.

All coordinates are emitted with fixed 4-decimal formatting so identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

from ..geometry import Pose2, bounding_box
from ..lattice import from_frame

_BG = "#f7fafc"
_LOW_RGB = (214, 228, 214)
_HIGH_RGB = (150, 128, 96)
_WALL_COLOR = "#4a5568"
_SIDE_FILL = {"left": "#2b6cb0", "right": "#c05621"}
_CROP_FILL = "#2f855a"
_SCALE = 160.0  # pixels per meter
_PAD = 0.4  # meters of margin around the drawn bounds


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _points(points) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


def _height_color(z: float, z_lo: float, z_hi: float) -> str:
    t = 0.5 if z_hi - z_lo < 1e-9 else (z - z_lo) / (z_hi - z_lo)
    rgb = [round(a + (b - a) * t) for a, b in zip(_LOW_RGB, _HIGH_RGB)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


class _Canvas:
    def __init__(self, bounds):
        x0, y0, x1, y1 = bounds
        self.x0, self.y1 = x0 - _PAD, y1 + _PAD
        self.scale = _SCALE
        self.width = (x1 - x0 + 2 * _PAD) * _SCALE
        self.height = (y1 - y0 + 2 * _PAD) * _SCALE

    def to_px(self, x: float, y: float):
        return (x - self.x0) * self.scale, (self.y1 - y) * self.scale


def _pose_marker(canvas: _Canvas, pose: Pose2, color: str, label: str) -> list[str]:
    cx, cy = canvas.to_px(pose.x, pose.y)
    hx, hy = canvas.to_px(*from_frame(pose, 0.18, 0.0))
    radius = 0.06 * canvas.scale
    return [
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" fill="none" '
        f'stroke="{color}" stroke-width="2"/>',
        f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(hx)}" y2="{_fmt(hy)}" '
        f'stroke="{color}" stroke-width="2"/>',
        f'<text x="{_fmt(cx + 6.0)}" y="{_fmt(cy - 6.0)}" font-size="12" '
        f'font-family="sans-serif" fill="{color}">{label}</text>',
    ]


def render_svg(env, steps=(), start: Pose2 | None = None, goal: Pose2 | None = None) -> str:
    """Render regions (height-colored), footholds, and start/goal markers."""
    corners = [c for r in env.regions for c in (r.bounds_xy[:2], r.bounds_xy[2:])]
    corners += [(pose.x, pose.y) for pose in (start, goal) if pose is not None]
    canvas = _Canvas(bounding_box(corners) if corners else (0.0, 0.0, 1.0, 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(canvas.width)} '
        f'{_fmt(canvas.height)}" width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}">',
        f'<rect x="0" y="0" width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" '
        f'fill="{_BG}"/>',
    ]

    z_lo = min((r.z_min for r in env.regions), default=0.0)
    z_hi = max((r.z_max for r in env.regions), default=0.0)
    for region in sorted(env.regions, key=lambda r: (r.z_max, r.region_id)):
        for piece in region.projected_pieces:
            px = [canvas.to_px(x, y) for x, y in piece]
            if region.snappable:
                color = _height_color((region.z_min + region.z_max) / 2.0, z_lo, z_hi)
                parts.append(
                    f'<polygon points="{_points(px)}" fill="{color}" '
                    f'stroke="#718096" stroke-width="1"/>'
                )
            else:
                # Vertical surfaces project to a segment; draw them as a bar.
                parts.append(
                    f'<polyline points="{_points(px)}" fill="none" '
                    f'stroke="{_WALL_COLOR}" stroke-width="5" stroke-linecap="round"/>'
                )

    for index, step in enumerate(steps, start=1):
        snap = step.snap
        sole_px = [canvas.to_px(x, y) for x, y in snap.sole]
        fill = _SIDE_FILL[step.side.value]
        parts.append(
            f'<polygon points="{_points(sole_px)}" fill="{fill}" fill-opacity="0.55" '
            f'stroke="{fill}" stroke-width="1"/>'
        )
        if snap.cropped_foothold is not None:
            crop_px = [canvas.to_px(x, y) for x, y in snap.crop]
            parts.append(
                f'<polygon points="{_points(crop_px)}" fill="{_CROP_FILL}" '
                f'fill-opacity="0.45" stroke="none"/>'
            )
        tx, ty = canvas.to_px(snap.x, snap.y)
        parts.append(
            f'<text x="{_fmt(tx)}" y="{_fmt(ty + 3.0)}" font-size="9" '
            f'font-family="sans-serif" text-anchor="middle" fill="#1a202c">{index}</text>'
        )

    if start is not None:
        parts.extend(_pose_marker(canvas, start, "#2c5282", "start"))
    if goal is not None:
        parts.extend(_pose_marker(canvas, goal, "#9b2c2c", "goal"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
