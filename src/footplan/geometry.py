"""2D convex polygons, half-plane sets, plan-view boxes, poses and 3D rigid transforms.

Everything is pure Python over float tuples: the polygons involved are tiny
(4-8 vertices) and sit on the planner's hottest path, where tuple math beats
array round-trips. A 3D rotation is three row tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    BOUNDARY_SLACK,
    CONVEXITY_TOL,
    DUPLICATE_VERTEX_TOL,
    MIN_POLYGON_AREA,
    ROTATION_TOL,
)

Point2 = tuple[float, float]
Vector3 = tuple[float, float, float]
Rotation3 = tuple[Vector3, Vector3, Vector3]  # row-major


class GeometryError(ValueError):
    """Raised when a polygon or transform invariant is violated."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = angle % math.tau
    if a > math.pi:
        a -= math.tau
    return a


def _signed_area(vertices) -> float:
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def _dedupe(vertices) -> list[Point2]:
    out: list[Point2] = []
    for v in vertices:
        p = (float(v[0]), float(v[1]))
        if out and abs(p[0] - out[-1][0]) <= DUPLICATE_VERTEX_TOL and abs(p[1] - out[-1][1]) <= DUPLICATE_VERTEX_TOL:
            continue
        out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= DUPLICATE_VERTEX_TOL and abs(out[0][1] - out[-1][1]) <= DUPLICATE_VERTEX_TOL:
        out.pop()
    return out


class ConvexPolygon2:
    """Convex polygon with counter-clockwise winding, validated on construction.

    Vertices are stored as a tuple of (x, y) float tuples. Consecutive
    duplicates are merged; fewer than three distinct vertices, clockwise
    winding, concavity beyond tolerance, or near-zero area raise
    GeometryError.
    """

    __slots__ = ("vertices", "area", "_circumradius")

    def __init__(self, vertices):
        verts = _dedupe(vertices)
        if len(verts) < 3:
            raise GeometryError(f"polygon needs >= 3 distinct vertices, got {len(verts)}")
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GeometryError("polygon vertex is not finite")
        area = _signed_area(verts)
        if area <= MIN_POLYGON_AREA:
            if area < 0:
                raise GeometryError("polygon winding is clockwise, expected counter-clockwise")
            raise GeometryError(f"polygon area {area:g} is degenerate")
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            cx, cy = verts[(i + 2) % n]
            e1x, e1y = bx - ax, by - ay
            e2x, e2y = cx - bx, cy - by
            cross = e1x * e2y - e1y * e2x
            scale = max(1.0, math.hypot(e1x, e1y) * math.hypot(e2x, e2y))
            if cross < -CONVEXITY_TOL * scale:
                raise GeometryError("polygon is not convex")
        self.vertices: tuple[Point2, ...] = tuple(verts)
        self.area: float = area

    def __eq__(self, other):
        return isinstance(other, ConvexPolygon2) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"ConvexPolygon2({list(self.vertices)!r})"

    @property
    def circumradius(self) -> float:
        """Distance from the origin to the farthest vertex, computed once."""
        try:
            return self._circumradius
        except AttributeError:
            self._circumradius = max(math.hypot(x, y) for x, y in self.vertices)
            return self._circumradius

    def centroid(self) -> Point2:
        cx = cy = 0.0
        n = len(self.vertices)
        for i in range(n):
            x0, y0 = self.vertices[i]
            x1, y1 = self.vertices[(i + 1) % n]
            w = x0 * y1 - x1 * y0
            cx += (x0 + x1) * w
            cy += (y0 + y1) * w
        k = 1.0 / (6.0 * self.area)
        return cx * k, cy * k


def rectangle_polygon(length: float, width: float, center: Point2 = (0.0, 0.0)) -> ConvexPolygon2:
    """Axis-aligned rectangle, length along x and width along y."""
    hx, hy = length / 2.0, width / 2.0
    cx, cy = center
    return ConvexPolygon2(
        [(cx + hx, cy - hy), (cx + hx, cy + hy), (cx - hx, cy + hy), (cx - hx, cy - hy)]
    )


def polygon_half_planes(polygon: ConvexPolygon2) -> tuple[tuple[Point2, ...], tuple[float, ...]]:
    """Edge half-planes normal . p <= offset of a CCW convex polygon, as
    (normals, offsets) with unit outward normals."""
    normals = []
    offsets = []
    verts = polygon.vertices
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        nx, ny = ey / length, -ex / length
        normals.append((nx, ny))
        offsets.append(nx * ax + ny * ay)
    return tuple(normals), tuple(offsets)


def point_in_polygon(point, polygon: ConvexPolygon2, slack: float = BOUNDARY_SLACK) -> bool:
    """Boundary-inclusive containment test."""
    x, y = point
    verts = polygon.vertices
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        # outward normal is (ey, -ex); allow `slack` meters outside the edge
        d = (ey * (x - ax) - ex * (y - ay)) / math.hypot(ex, ey)
        if d > slack:
            return False
    return True


def clip_vertices(subject, clip_verts, slack: float = BOUNDARY_SLACK) -> list[Point2]:
    """Sutherland-Hodgman clip of `subject` against convex CCW `clip_verts`.

    Operates on raw vertex sequences so hot paths can skip polygon
    re-validation. Returns a (possibly empty) vertex list. A vertex up to
    `slack` outside an edge is kept. A side running from a kept vertex to one
    beyond the slack is cut where it meets the edge, or at the kept vertex
    when that lies outside the edge, so every vertex returned lies within
    `slack` outside each edge.
    """
    output = list(subject)
    n = len(clip_verts)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip_verts[i]
        bx, by = clip_verts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        scale = math.hypot(ex, ey)
        if scale <= DUPLICATE_VERTEX_TOL:
            continue
        input_verts = output
        output = []
        prev = input_verts[-1]
        prev_d = (ey * (prev[0] - ax) - ex * (prev[1] - ay)) / scale
        for cur in input_verts:
            cur_d = (ey * (cur[0] - ax) - ex * (cur[1] - ay)) / scale
            if cur_d <= slack:
                if prev_d > slack:
                    t = min(1.0, prev_d / (prev_d - cur_d))
                    output.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
                output.append(cur)
            elif prev_d <= slack:
                t = max(0.0, prev_d / (prev_d - cur_d))
                output.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            prev, prev_d = cur, cur_d
    return output


def clip_area(vertices) -> float:
    """Area of a raw clip output; 0.0 for degenerate results."""
    verts = _dedupe(vertices)
    if len(verts) < 3:
        return 0.0
    return max(0.0, _signed_area(verts))


@dataclass(frozen=True)
class Pose2:
    """Planar pose; yaw normalized to (-pi, pi]."""

    x: float
    y: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


# ---------------------------------------------------------------------------
# Separation / distance helpers (2D)

Box2 = tuple[float, float, float, float]  # plan-view (x_lo, y_lo, x_hi, y_hi)


def bounding_box(points) -> Box2:
    """The plan-view box (x_lo, y_lo, x_hi, y_hi) of a non-empty point sequence."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def box_gap(a: Box2, b: Box2) -> tuple[float, float]:
    """The gaps (gx, gy) between two boxes along x and y, 0.0 where they
    overlap or touch. (0.0, 0.0) exactly when the closed boxes meet, and
    hypot(gx, gy) is their distance, a lower bound on the distance between
    anything inside them."""
    return max(a[0] - b[2], b[0] - a[2], 0.0), max(a[1] - b[3], b[1] - a[3], 0.0)


def _project_interval(verts, ax, ay):
    lo = hi = ax * verts[0][0] + ay * verts[0][1]
    for x, y in verts[1:]:
        d = ax * x + ay * y
        if d < lo:
            lo = d
        elif d > hi:
            hi = d
    return lo, hi


def polygons_overlap(verts_a, verts_b, slack: float = BOUNDARY_SLACK) -> bool:
    """Separating-axis overlap test; touching within `slack` counts as disjoint."""
    for verts in (verts_a, verts_b):
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            ex, ey = bx - ax, by - ay
            length = math.hypot(ex, ey)
            if length < 1e-15:
                continue
            nx, ny = ey / length, -ex / length
            lo_a, hi_a = _project_interval(verts_a, nx, ny)
            lo_b, hi_b = _project_interval(verts_b, nx, ny)
            if hi_a <= lo_b + slack or hi_b <= lo_a + slack:
                return False
    return True


def point_segment_distance(p, a, b) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    ex, ey = bx - ax, by - ay
    denom = ex * ex + ey * ey
    if denom < 1e-30:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * ex + (py - ay) * ey) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(px - (ax + t * ex), py - (ay + t * ey))


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def convex_hull(points) -> tuple[Point2, ...]:
    """Counter-clockwise convex hull (Andrew's monotone chain).

    Collinear and repeated points are dropped, so collinear input gives two
    points and a single distinct point gives one.
    """
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)

    def half(seq):
        chain: list[Point2] = []
        for p in seq:
            while len(chain) >= 2 and _orient(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return tuple(half(pts) + half(reversed(pts)))


def convex_sets_distance(verts_a, verts_b) -> float:
    """Distance between two convex vertex sets (0 when they overlap).

    Two disjoint convex sets are nearest at a vertex of one of them, so the
    distance is the least vertex-to-set distance in either direction. The
    overlap test is the separating-axis test over both sets' edge normals,
    which is complete when at most one set is degenerate (a point or a
    segment), as every caller's pair is; with two degenerate sets it may
    miss a separating axis, and the answer can then only read low (in the
    region check that only adds links).
    """
    if polygons_overlap(verts_a, verts_b, slack=0.0):
        return 0.0
    return min(
        min(point_to_convex_distance(p, verts_b) for p in verts_a),
        min(point_to_convex_distance(p, verts_a) for p in verts_b),
    )


def point_to_convex_distance(point, verts) -> float:
    """Distance from a point to a convex vertex set (0 inside).

    A set of three or more vertices is counter-clockwise, as every caller's
    is (`ConvexPolygon2`, `PlanarRegion`'s pieces, `convex_hull`).
    """
    n = len(verts)
    if n >= 3 and _signed_area(verts) > MIN_POLYGON_AREA:
        for i in range(n):
            if _orient(verts[i], verts[(i + 1) % n], point) < 0:
                break
        else:
            return 0.0
    if n == 1:
        return math.hypot(point[0] - verts[0][0], point[1] - verts[0][1])
    best = math.inf
    for i in range(n):
        d = point_segment_distance(point, verts[i], verts[(i + 1) % n])
        if d < best:
            best = d
    return best


# ---------------------------------------------------------------------------
# 3D rigid transforms


@dataclass(frozen=True, eq=False)
class RigidTransform3:
    """Proper rigid transform: rotation (three orthonormal rows, det +1) + translation.

    Any 3x3 and length-3 sequences are accepted; both are stored as float tuples.
    """

    rotation: Rotation3
    translation: Vector3

    def __post_init__(self):
        rot = tuple(tuple(float(v) for v in row) for row in self.rotation)
        tr = tuple(float(v) for v in self.translation)
        if len(rot) != 3 or any(len(row) != 3 for row in rot):
            shape = (len(rot), *sorted({len(row) for row in rot}))
            raise GeometryError(f"rotation must be 3x3, got {shape}")
        if len(tr) != 3:
            raise GeometryError(f"translation must be length 3, got {(len(tr),)}")
        if not all(math.isfinite(v) for v in (*rot[0], *rot[1], *rot[2], *tr)):
            raise GeometryError("transform entries must be finite")
        columns = tuple(zip(*rot))
        err = max(
            abs(sum(a * b for a, b in zip(columns[i], columns[j])) - (i == j))
            for i in range(3)
            for j in range(3)
        )
        if err > ROTATION_TOL * 10:
            raise GeometryError(f"rotation is not orthonormal (error {err:g})")
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
        det = (
            r00 * (r11 * r22 - r12 * r21)
            - r01 * (r10 * r22 - r12 * r20)
            + r02 * (r10 * r21 - r11 * r20)
        )
        if abs(det - 1.0) > ROTATION_TOL * 10:
            raise GeometryError(f"rotation determinant {det:g} != 1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)


def rotation_z(yaw: float) -> Rotation3:
    c, s = math.cos(yaw), math.sin(yaw)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def yaw_of_rotation(rotation: Rotation3) -> float:
    """Yaw of a Rz(yaw) @ Ry(pitch) @ Rx(roll) factorization (|pitch| < pi/2)."""
    return math.atan2(rotation[1][0], rotation[0][0])
