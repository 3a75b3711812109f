"""Snapping: lift a planar lattice node to a full 6-DoF foothold on a region.

The foot drops vertically onto each candidate region plane; the winner is the
transform whose snapped sole attains the highest vertex. Yaw about world z is
preserved; pitch and roll come from aligning the sole to the plane.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .constants import SLIVER_AREA, SNAP_HEIGHT_TIE
from .geometry import (
    ConvexPolygon2,
    GeometryError,
    Pose2,
    RigidTransform3,
    clip_area,
    clip_vertices,
    rectangle_polygon,
    point_in_polygon,
    polygons_overlap,
    rotation_z,
)
from .lattice import FootstepNode, LatticeParams, node_to_pose
from .world import Environment, PlanarRegion, plane_height_at, regions_overlapping_disc


@dataclass(frozen=True)
class FootPolygon:
    """Sole outline in the foot frame: origin at sole center, x forward."""

    sole: ConvexPolygon2

    def __post_init__(self):
        if not point_in_polygon((0.0, 0.0), self.sole):
            raise GeometryError("sole polygon must contain the foot-frame origin")

    @property
    def circumradius(self) -> float:
        return self.sole.circumradius


def default_foot() -> FootPolygon:
    return FootPolygon(rectangle_polygon(0.22, 0.11))


@dataclass(frozen=True)
class SnapResult:
    foothold_pose: RigidTransform3
    region_id: int
    cropped_foothold: ConvexPolygon2 | None
    area_fraction: float
    surface_roll: float
    surface_pitch: float

    @property
    def center(self) -> np.ndarray:
        return self.foothold_pose.translation

    @cached_property
    def yaw(self) -> float:
        r = self.foothold_pose.rotation
        return math.atan2(r[1, 0], r[0, 0])

    @cached_property
    def planar_pose(self) -> Pose2:
        t = self.foothold_pose.translation
        return Pose2(float(t[0]), float(t[1]), self.yaw)


class SnapFailureReason(enum.Enum):
    NO_REGION_UNDER_FOOT = "no_region_under_foot"
    REGION_NEARLY_VERTICAL = "region_nearly_vertical"


@dataclass(frozen=True)
class SnapFailure:
    reason: SnapFailureReason


@lru_cache(maxsize=4096)
def _align_cached(yaw: float, nx: float, ny: float, nz: float):
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    mx = cos_y * nx + sin_y * ny
    my = -sin_y * nx + cos_y * ny
    mz = nz
    roll = -math.asin(max(-1.0, min(1.0, my)))
    pitch = math.atan2(mx, mz)
    cos_p, sin_p = math.cos(pitch), math.sin(pitch)
    cos_r, sin_r = math.cos(roll), math.sin(roll)
    tilt = np.array(
        [
            [cos_p, sin_p * sin_r, sin_p * cos_r],
            [0.0, cos_r, -sin_r],
            [-sin_p, cos_p * sin_r, cos_p * cos_r],
        ]
    )
    return rotation_z(yaw) @ tilt, roll, pitch


def align_to_normal(yaw: float, up_normal) -> tuple[np.ndarray, float, float]:
    """Rotation Rz(yaw)*Ry(pitch)*Rx(roll) whose z-axis equals up_normal.

    Results are cached per (yaw, normal); the returned rotation is shared and
    must not be mutated.
    """
    return _align_cached(
        yaw, float(up_normal[0]), float(up_normal[1]), float(up_normal[2])
    )


def _footprint_xy(pose: Pose2, foot: FootPolygon) -> list[tuple[float, float]]:
    cos_y, sin_y = math.cos(pose.yaw), math.sin(pose.yaw)
    return [
        (pose.x + cos_y * u - sin_y * v, pose.y + sin_y * u + cos_y * v)
        for u, v in foot.sole.vertices
    ]


def crop_foothold(
    foothold_pose: RigidTransform3, region: PlanarRegion, foot: FootPolygon
) -> tuple[ConvexPolygon2 | None, float]:
    """Cropped foothold (foot frame) and area fraction for a snapped pose.

    The intersection is computed in plan view; both the sole and the crop pick
    up the same plane-tilt area factor there, so the fraction transfers
    unchanged. A non-convex multi-piece intersection keeps every piece for the
    fraction but only the largest piece as the polygon.
    """
    rot = foothold_pose.rotation
    l00, l01 = float(rot[0, 0]), float(rot[0, 1])
    l10, l11 = float(rot[1, 0]), float(rot[1, 1])
    cx = float(foothold_pose.translation[0])
    cy = float(foothold_pose.translation[1])
    sole_xy = [
        (cx + l00 * u + l01 * v, cy + l10 * u + l11 * v) for u, v in foot.sole.vertices
    ]
    det = l00 * l11 - l01 * l10
    if det <= 0.0:
        return None, 0.0

    best_piece: list | None = None
    best_area = 0.0
    total = 0.0
    for piece in region.projected_pieces:
        clipped = clip_vertices(sole_xy, piece)
        area = clip_area(clipped)
        total += area
        if area > best_area:
            best_area = area
            best_piece = clipped

    fraction = total / (foot.sole.area * det)
    fraction = max(0.0, min(1.0, fraction))
    if best_piece is None or best_area <= SLIVER_AREA:
        return None, fraction

    foot_frame = [
        ((l11 * (px - cx) - l01 * (py - cy)) / det, (l00 * (py - cy) - l10 * (px - cx)) / det)
        for px, py in best_piece
    ]
    try:
        return ConvexPolygon2(foot_frame), fraction
    except GeometryError:
        return None, fraction


def snap_pose(pose: Pose2, env: Environment, foot: FootPolygon) -> SnapResult | SnapFailure:
    """Snap a planar foot pose onto the highest intersecting region."""
    footprint = _footprint_xy(pose, foot)
    candidate_ids = regions_overlapping_disc(env, (pose.x, pose.y), foot.circumradius + 1e-9)

    touching = []
    saw_vertical = False
    for rid in candidate_ids:
        region = env.region(rid)
        if not any(polygons_overlap(footprint, piece) for piece in region.projected_pieces):
            continue
        if not region.snappable:
            saw_vertical = True
            continue
        touching.append(region)
    if not touching:
        if saw_vertical:
            return SnapFailure(SnapFailureReason.REGION_NEARLY_VERTICAL)
        return SnapFailure(SnapFailureReason.NO_REGION_UNDER_FOOT)

    candidates = []
    for region in touching:
        center_z = plane_height_at(region, pose.x, pose.y)
        rotation, roll, pitch = align_to_normal(pose.yaw, region.up_normal)
        r20, r21 = float(rotation[2, 0]), float(rotation[2, 1])
        top_z = center_z + max(r20 * u + r21 * v for u, v in foot.sole.vertices)
        candidates.append((top_z, region.region_id, region, rotation, roll, pitch, center_z))

    best_z = max(c[0] for c in candidates)
    # Near-ties resolve to the lowest region id for determinism.
    chosen = min(
        (c for c in candidates if c[0] >= best_z - SNAP_HEIGHT_TIE), key=lambda c: c[1]
    )
    _, region_id, region, rotation, roll, pitch, center_z = chosen

    foothold_pose = RigidTransform3.trusted(rotation, np.array([pose.x, pose.y, center_z]))
    cropped, fraction = crop_foothold(foothold_pose, region, foot)
    return SnapResult(foothold_pose, region_id, cropped, fraction, roll, pitch)


def snap_node(
    node: FootstepNode, lattice: LatticeParams, env: Environment, foot: FootPolygon
) -> SnapResult | SnapFailure:
    return snap_pose(node_to_pose(node, lattice), env, foot)
