"""Edge validity battery: every reason a parent-to-child step can be rejected.

Checks run in a fixed, short-circuiting order so rejection statistics are
stable: snap failure, incline, support area, step geometry (self overlap,
stance bounds, height change, tall-step shrink), cliff clearance, step-over
obstacle, body box.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import chain

from .constants import BOUNDARY_SLACK
from .geometry import (
    ConvexPolygon2,
    bounding_box,
    box_gap,
    convex_sets_distance,
    polygons_overlap,
    rectangle_polygon,
)
from .lattice import Side, from_frame, midstance_pose, to_frame, transform_points
from .snapping import FootPolygon, SnapFailure, SnapResult
from .world import Environment, plane_height_at


class RejectionReason(enum.Enum):
    UNSNAPPABLE = "unsnappable"
    TOO_STEEP = "too_steep"
    INSUFFICIENT_AREA = "insufficient_area"
    BAD_STANCE_GEOMETRY = "bad_stance_geometry"
    STEP_TOO_HIGH_OR_LOW = "step_too_high_or_low"
    TALL_STEP_TOO_LONG = "tall_step_too_long"
    CLIFF_TOO_CLOSE = "cliff_too_close"
    STEP_OVER_OBSTACLE = "step_over_obstacle"
    BODY_BOX_COLLISION = "body_box_collision"
    SELF_OVERLAP = "self_overlap"


# The verdicts of the checks that read the child's foothold alone. They run
# first, so a child that gets one gets it from every parent.
FOOTHOLD_REASONS = frozenset(
    (RejectionReason.UNSNAPPABLE, RejectionReason.TOO_STEEP, RejectionReason.INSUFFICIENT_AREA)
)


def _default_clearance() -> ConvexPolygon2:
    return rectangle_polygon(0.23, 0.115)


@dataclass(frozen=True)
class CheckerParams:
    max_incline: float = math.radians(40.0)
    min_area_fraction: float = 0.75
    stance_clearance: ConvexPolygon2 = field(default_factory=_default_clearance)
    max_forward: float = 0.45
    max_backward: float = 0.25
    max_inward: float = 0.0
    max_outward: float = 0.40
    max_reach: float = 0.50
    max_step_up: float = 0.35
    max_step_down: float = 0.35
    tall_step_height: float = 0.20
    tall_step_max_length: float = 0.32
    tall_step_max_width: float = 0.25
    cliff_height: float = 0.10
    cliff_clearance: float = 0.05
    step_over_height: float = 0.35
    body_box_width: float = 0.60
    body_box_depth: float = 0.40
    body_box_bottom: float = 0.30
    body_box_top: float = 1.50

    def __post_init__(self):
        if not 0.0 < self.min_area_fraction <= 1.0:
            raise ValueError("min_area_fraction must lie in (0, 1]")
        for name in (
            "max_incline",
            "max_reach",
            "max_step_up",
            "max_step_down",
            "tall_step_height",
            "cliff_height",
            "cliff_clearance",
            "step_over_height",
            "body_box_width",
            "body_box_depth",
        ):
            if not getattr(self, name) > 0:  # NaN too
                raise ValueError(f"{name} must be positive")
        for name in (  # a bound may be negative, but NaN would turn it off
            "max_forward",
            "max_backward",
            "max_inward",
            "max_outward",
            "tall_step_max_length",
            "tall_step_max_width",
        ):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        if not self.body_box_top > self.body_box_bottom:
            raise ValueError("body_box_top must exceed body_box_bottom")


def too_steep(roll: float, pitch: float, params: CheckerParams) -> bool:
    """Whether a sole with this roll and pitch tilts past max_incline."""
    cos_r, sin_r = math.cos(roll), math.sin(roll)
    cos_p, sin_p = math.cos(pitch), math.sin(pitch)
    tilt = math.atan2(math.hypot(sin_p * cos_r, sin_r), cos_p * cos_r)
    return tilt > params.max_incline + BOUNDARY_SLACK


def too_little_area(fraction: float, params: CheckerParams) -> bool:
    """Whether a sole supported over this fraction of its area has too little."""
    return fraction < params.min_area_fraction - BOUNDARY_SLACK


def check_incline(snap: SnapResult, params: CheckerParams) -> RejectionReason | None:
    if too_steep(snap.surface_roll, snap.surface_pitch, params):
        return RejectionReason.TOO_STEEP
    return None


def check_area(snap: SnapResult, params: CheckerParams) -> RejectionReason | None:
    if too_little_area(snap.area_fraction, params):
        return RejectionReason.INSUFFICIENT_AREA
    return None


def check_step_geometry(
    parent_snap: SnapResult,
    child_snap: SnapResult,
    stance_side: Side,
    params: CheckerParams,
    foot: FootPolygon,
) -> RejectionReason | None:
    parent = parent_snap.planar_pose
    child = child_snap.planar_pose

    # Bounding circles screen out the far-apart majority before the exact test.
    reach_limit = params.stance_clearance.circumradius + foot.circumradius
    if math.hypot(child.x - parent.x, child.y - parent.y) <= reach_limit:
        child_outline = transform_points(foot.sole.vertices, child)
        clearance = transform_points(params.stance_clearance.vertices, parent)
        if polygons_overlap(child_outline, clearance):
            return RejectionReason.SELF_OVERLAP

    ox, oy = child.x - parent.x, child.y - parent.y
    dx, dy = to_frame(parent.yaw, ox, oy)
    lateral = stance_side.mirror_sign * dy
    slack = BOUNDARY_SLACK
    if (
        dx > params.max_forward + slack
        or -dx > params.max_backward + slack
        or lateral > params.max_outward + slack
        or -lateral > params.max_inward + slack
        or math.hypot(ox, oy) > params.max_reach + slack
    ):
        return RejectionReason.BAD_STANCE_GEOMETRY

    dz = child_snap.z - parent_snap.z
    if dz > params.max_step_up + slack or -dz > params.max_step_down + slack:
        return RejectionReason.STEP_TOO_HIGH_OR_LOW

    if abs(dz) >= params.tall_step_height - slack:
        if dx > params.tall_step_max_length + slack or lateral > params.tall_step_max_width + slack:
            return RejectionReason.TALL_STEP_TOO_LONG
    return None


def check_cliff_clearance(
    child_snap: SnapResult, env: Environment, params: CheckerParams
) -> RejectionReason | None:
    foot_z = child_snap.z
    outline = child_snap.sole
    outline_box = bounding_box(outline)
    limit = params.cliff_clearance - BOUNDARY_SLACK
    for region in env.regions:
        height = plane_height_at(region, child_snap.x, child_snap.y)
        if height is None or height < foot_z + params.cliff_height - BOUNDARY_SLACK:
            continue
        for piece, box in zip(region.projected_pieces, region.piece_bounds_xy):
            # Box separation lower-bounds the exact distance, so a clear box
            # gap can skip `convex_sets_distance` without changing the verdict.
            gx, gy = box_gap(box, outline_box)
            if gx * gx + gy * gy >= limit * limit:
                continue
            if convex_sets_distance(outline, piece) < limit:
                return RejectionReason.CLIFF_TOO_CLOSE
    return None


def _prism_hits_piece(corners, z_lo, z_hi, face_axes, edge_dirs, solid, normal) -> bool:
    """Separating-axis test of a prism, the plan-view polygon `corners` swept
    over [z_lo, z_hi], against one piece solid of a region with up normal
    `normal`. The candidate axes are the prism's face normals, the piece
    normal, the piece's rim normals and every prism-edge x piece-edge cross
    product (Ericson, Real-Time Collision Detection, ch. 5). The two touch
    unless some axis parts their projections by more than BOUNDARY_SLACK.
    """
    verts, edges, rims = solid
    crosses = (
        (dy * ez - dz * ey, dz * ex - dx * ez, dx * ey - dy * ex)
        for dx, dy, dz in edge_dirs
        for ex, ey, ez in edges
    )
    for ax, ay, az in chain(face_axes, (normal,), rims, crosses):
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        if norm < 1e-12:
            continue
        ux, uy, uz = ax / norm, ay / norm, az / norm
        flat = [x * ux + y * uy for x, y in corners]
        za, zb = z_lo * uz, z_hi * uz
        if za > zb:
            za, zb = zb, za
        pa_lo, pa_hi = min(flat) + za, max(flat) + zb
        proj = [x * ux + y * uy + z * uz for x, y, z in verts]
        if pa_hi < min(proj) - BOUNDARY_SLACK or max(proj) < pa_lo - BOUNDARY_SLACK:
            return False
    return True


def _regions_in_slab(env: Environment, z_lo: float, z_hi: float) -> list:
    """The regions whose z range meets [z_lo, z_hi], widened by BOUNDARY_SLACK."""
    return [
        region
        for region in env.regions
        if not (region.z_min > z_hi + BOUNDARY_SLACK or region.z_max < z_lo - BOUNDARY_SLACK)
    ]


def _prism_hits_regions(regions, corners, z_lo, z_hi, face_axes, edge_dirs) -> bool:
    """Whether the prism `corners` x [z_lo, z_hi] touches a piece of any of
    `regions`; a region whose plan-view box misses the prism's is skipped."""
    box = bounding_box(corners)
    for region in regions:
        if box_gap(region.bounds_xy, box) != (0.0, 0.0):
            continue
        for solid in region.piece_solids:
            if _prism_hits_piece(
                corners, z_lo, z_hi, face_axes, edge_dirs, solid, region.up_normal
            ):
                return True
    return False


def check_step_over(
    parent_snap: SnapResult,
    child_snap: SnapResult,
    env: Environment,
    params: CheckerParams,
    foot: FootPolygon,
) -> RejectionReason | None:
    """Swept-leg proxy: a horizontal rectangle between the feet must be clear."""
    z = max(parent_snap.z, child_snap.z) + params.step_over_height
    near = _regions_in_slab(env, z, z)
    if not near:
        return None
    ax, ay = parent_snap.x, parent_snap.y
    bx, by = child_snap.x, child_snap.y
    length = math.hypot(bx - ax, by - ay)
    if length < 1e-12:
        direction = (1.0, 0.0)
    else:
        direction = ((bx - ax) / length, (by - ay) / length)
    perp = (-direction[1], direction[0])
    _, min_w, _, max_w = bounding_box(foot.sole.vertices)
    half = (max_w - min_w) / 2.0
    corners = [
        (ax + perp[0] * half, ay + perp[1] * half),
        (ax - perp[0] * half, ay - perp[1] * half),
        (bx - perp[0] * half, by - perp[1] * half),
        (bx + perp[0] * half, by + perp[1] * half),
    ]
    rect_edges = ((direction[0], direction[1], 0.0), (perp[0], perp[1], 0.0))
    # the rectangle's up normal and its two rims, edge x up
    rect_faces = ((0.0, 0.0, 1.0), (direction[1], -direction[0], 0.0), (perp[1], -perp[0], 0.0))
    if _prism_hits_regions(near, corners, z, z, rect_faces, rect_edges):
        return RejectionReason.STEP_OVER_OBSTACLE
    return None


def check_body_box(
    parent_snap: SnapResult,
    child_snap: SnapResult,
    env: Environment,
    params: CheckerParams,
) -> RejectionReason | None:
    mid_z = (parent_snap.z + child_snap.z) / 2.0
    z_lo = mid_z + params.body_box_bottom
    z_hi = mid_z + params.body_box_top
    near = _regions_in_slab(env, z_lo, z_hi)
    if not near:
        return None
    mid = midstance_pose(parent_snap.planar_pose, child_snap.planar_pose)
    half_d = params.body_box_depth / 2.0
    half_w = params.body_box_width / 2.0
    corners_2d = [
        from_frame(mid, sx * half_d, sy * half_w)
        for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1))
    ]
    cos_y, sin_y = math.cos(mid.yaw), math.sin(mid.yaw)
    box_axes = ((cos_y, sin_y, 0.0), (-sin_y, cos_y, 0.0), (0.0, 0.0, 1.0))
    if _prism_hits_regions(near, corners_2d, z_lo, z_hi, box_axes, box_axes):
        return RejectionReason.BODY_BOX_COLLISION
    return None


def validate_edge(
    parent_snap: SnapResult,
    child_snap: SnapResult | SnapFailure,
    stance_side: Side,
    env: Environment,
    params: CheckerParams,
    foot: FootPolygon,
) -> RejectionReason | None:
    """First failing check in battery order, or None when the edge is valid."""
    if isinstance(child_snap, SnapFailure):
        return RejectionReason.UNSNAPPABLE
    verdict = check_incline(child_snap, params)
    if verdict is None:
        verdict = check_area(child_snap, params)
    if verdict is None:
        verdict = check_step_geometry(parent_snap, child_snap, stance_side, params, foot)
    if verdict is None:
        verdict = check_cliff_clearance(child_snap, env, params)
    if verdict is None:
        verdict = check_step_over(parent_snap, child_snap, env, params, foot)
    if verdict is None:
        verdict = check_body_box(parent_snap, child_snap, env, params)
    return verdict
