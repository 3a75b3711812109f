"""Snapping: lift a planar lattice node to a full 6-DoF foothold on a region.

The foot drops vertically onto each candidate region plane; the winner is the
transform whose snapped sole attains the highest vertex. Yaw about world z is
preserved; pitch and roll come from aligning the sole to the plane.

A snapped foothold is a SnapResult of plain floats plus its sole in world xy.
`crop_foothold` builds every SnapResult, for the search and for the wiggle,
and is the one place a snapped sole is put in world coordinates.

The regions a foot may touch depend only on its center, so a caller that
snaps many yaws at one (x, y) computes them once (`regions_near`) and passes
them to `snap_pose`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .constants import DUPLICATE_VERTEX_TOL, SLIVER_AREA, SNAP_HEIGHT_TIE
from .geometry import (
    ConvexPolygon2,
    GeometryError,
    Point2,
    Pose2,
    Rotation3,
    clip_area,
    clip_vertices,
    rectangle_polygon,
    point_in_polygon,
    polygons_overlap,
    rotation_z,
    yaw_of_rotation,
)
from .lattice import FootstepNode, LatticeParams, node_to_pose, to_frame, transform_points
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

    @cached_property
    def centrally_symmetric(self) -> bool:
        """Whether reflecting the sole through the foot-frame origin maps it
        onto itself (every vertex has its negation among the vertices)."""
        verts = self.sole.vertices
        tol = DUPLICATE_VERTEX_TOL
        return all(any(abs(x + u) <= tol and abs(y + v) <= tol for u, v in verts) for x, y in verts)


def default_foot() -> FootPolygon:
    return FootPolygon(rectangle_polygon(0.22, 0.11))


@dataclass(frozen=True, eq=False)
class SnapResult:
    """A foothold: the sole center (x, y, z) on region `region_id`, its yaw
    about world z and the plane's roll and pitch.

    `rotation` holds the rows of `align_to_normal`'s rotation.
    `sole` is the snapped sole in world xy and `piece_index` the region piece
    it overlaps most (None when it overlaps none). `crop` is the sole clipped
    to that piece, in world xy, or None when no clip is above a sliver;
    `cropped_foothold` is the same crop in the foot frame, built when read.
    """

    x: float
    y: float
    z: float
    yaw: float
    surface_roll: float
    surface_pitch: float
    region_id: int
    crop: tuple[Point2, ...] | None
    area_fraction: float
    rotation: Rotation3
    sole: tuple[Point2, ...]
    piece_index: int | None

    @property
    def center(self) -> tuple[float, float, float]:
        return self.x, self.y, self.z

    @cached_property
    def planar_pose(self) -> Pose2:
        return Pose2(self.x, self.y, self.yaw)

    @cached_property
    def cropped_foothold(self) -> ConvexPolygon2 | None:
        """`crop` in the foot frame: the supported part of the sole. None
        when there is no crop or it is not a valid polygon."""
        if self.crop is None:
            return None
        (l00, l01, _), (l10, l11, _), _ = self.rotation
        det = l00 * l11 - l01 * l10
        x, y = self.x, self.y
        try:
            return ConvexPolygon2([
                ((l11 * (px - x) - l01 * (py - y)) / det, (l00 * (py - y) - l10 * (px - x)) / det)
                for px, py in self.crop
            ])
        except GeometryError:
            return None


class SnapFailureReason(enum.Enum):
    NO_REGION_UNDER_FOOT = "no_region_under_foot"
    REGION_NEARLY_VERTICAL = "region_nearly_vertical"


@dataclass(frozen=True)
class SnapFailure:
    reason: SnapFailureReason


@lru_cache(maxsize=4096)
def align_to_normal(
    yaw: float, up_normal: tuple[float, float, float]
) -> tuple[Rotation3, float, float]:
    """Rotation Rz(yaw)*Ry(pitch)*Rx(roll) whose z-axis equals up_normal.

    Results are cached per (yaw, normal).
    """
    nx, ny, nz = up_normal
    mx, my = to_frame(yaw, nx, ny)
    roll = -math.asin(max(-1.0, min(1.0, my)))
    pitch = math.atan2(mx, nz)
    cos_p, sin_p = math.cos(pitch), math.sin(pitch)
    cos_r, sin_r = math.cos(roll), math.sin(roll)
    tilt = (
        (cos_p, sin_p * sin_r, sin_p * cos_r),
        (0.0, cos_r, -sin_r),
        (-sin_p, cos_p * sin_r, cos_p * cos_r),
    )
    # Rz(yaw) @ tilt in plain floats, so the rounding does not depend on which
    # BLAS kernel the CPU gets; + 0.0 turns a -0.0 entry into 0.0, as a BLAS
    # product writes it.
    rotation = tuple(
        tuple(a * t0 + b * t1 + c * t2 + 0.0 for t0, t1, t2 in zip(*tilt))
        for a, b, c in rotation_z(yaw)
    )
    return rotation, roll, pitch


def crop_foothold(
    region: PlanarRegion, x: float, y: float, yaw: float, foot: FootPolygon
) -> SnapResult:
    """The foot centered at (x, y) with heading yaw, on the region's plane and
    cropped to its pieces.

    The intersection is computed in plan view; both the sole and the crop pick
    up the same plane-tilt area factor there, so the fraction transfers
    unchanged. A non-convex multi-piece intersection keeps every piece for the
    fraction but only the largest piece as the crop.
    """
    z = plane_height_at(region, x, y)
    rotation, roll, pitch = align_to_normal(yaw, region.up_normal)
    (l00, l01, _), (l10, l11, _), _ = rotation
    sole = tuple((x + l00 * u + l01 * v, y + l10 * u + l11 * v) for u, v in foot.sole.vertices)
    det = l00 * l11 - l01 * l10

    crop = None
    fraction = 0.0
    best_index = None
    if det > 0.0:
        best_piece: list | None = None
        best_area = 0.0
        total = 0.0
        for index, piece in enumerate(region.projected_pieces):
            clipped = clip_vertices(sole, piece)
            area = clip_area(clipped)
            total += area
            if area > best_area:
                best_area = area
                best_piece = clipped
                best_index = index
        fraction = max(0.0, min(1.0, total / (foot.sole.area * det)))
        if best_piece is not None and best_area > SLIVER_AREA:
            crop = tuple(best_piece)
    return SnapResult(
        x, y, z, yaw_of_rotation(rotation), roll, pitch, region.region_id,
        crop, fraction, rotation, sole, best_index,
    )


def regions_near(
    x: float, y: float, env: Environment, foot: FootPolygon
) -> tuple[PlanarRegion, ...]:
    """The regions a foot centered at (x, y) can touch at any yaw: those whose
    plan-view pieces come within its circumradius."""
    return tuple(regions_overlapping_disc(env, (x, y), foot.circumradius + 1e-9))


def snap_pose(
    pose: Pose2,
    env: Environment,
    foot: FootPolygon,
    regions: tuple[PlanarRegion, ...] | None = None,
) -> SnapResult | SnapFailure:
    """Snap a planar foot pose onto the highest intersecting region.

    `regions` are `regions_near(pose.x, pose.y, env, foot)`, computed here
    unless the caller kept them for the pose's (x, y).
    """
    if regions is None:
        regions = regions_near(pose.x, pose.y, env, foot)
    footprint = transform_points(foot.sole.vertices, pose)

    touching = []
    saw_vertical = False
    for region in regions:
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
        rotation, _, _ = align_to_normal(pose.yaw, region.up_normal)
        r20, r21, _ = rotation[2]
        top_z = center_z + max(r20 * u + r21 * v for u, v in foot.sole.vertices)
        candidates.append((top_z, region.region_id, region))

    best_z = max(c[0] for c in candidates)
    # Near-ties resolve to the lowest region id for determinism.
    _, _, region = min(
        (c for c in candidates if c[0] >= best_z - SNAP_HEIGHT_TIE), key=lambda c: c[1]
    )
    return crop_foothold(region, pose.x, pose.y, pose.yaw, foot)


def snap_node(
    node: FootstepNode, lattice: LatticeParams, env: Environment, foot: FootPolygon
) -> SnapResult | SnapFailure:
    return snap_pose(node_to_pose(node, lattice), env, foot)
