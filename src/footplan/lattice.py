"""Footstep lattice: discrete node set, the stance frame and the
reachability-box expansion."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .constants import EXPANSION_BOUND_SLACK, YAW_DIVISION_TOL
from .geometry import Pose2, wrap_angle


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"

    # Members are singletons, so identity hashing is exact; it runs in C,
    # where Enum's own hash is a Python call on every node lookup.
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT

    @property
    def mirror_sign(self) -> float:
        """+1 when the swing foot sits at positive stance-frame y, else -1."""
        return -1.0 if self is Side.LEFT else 1.0


class FootstepNode(NamedTuple):
    """One lattice vertex: grid position, yaw bin, and which foot stands there.

    A tuple, so that building, hashing and comparing the many nodes a search
    makes runs in C.
    """

    x_index: int
    y_index: int
    yaw_index: int
    side: Side


@dataclass(frozen=True, slots=True)
class LatticeParams:
    xy_resolution: float = 0.05
    yaw_resolution: float = math.tau / 36.0

    def __post_init__(self):
        if not (self.xy_resolution > 0 and self.yaw_resolution > 0):  # NaN too
            raise ValueError("lattice resolutions must be positive")
        count = math.tau / self.yaw_resolution
        if math.isinf(count) or abs(count - round(count)) > YAW_DIVISION_TOL:
            raise ValueError("yaw_resolution must evenly divide a full turn")

    @property
    def yaw_count(self) -> int:
        return round(math.tau / self.yaw_resolution)


@dataclass(frozen=True, slots=True)
class ExpansionParams:
    """Reachability box for child placement, in the parent's stance frame.

    Lengths run along the stance foot's heading (negative = backward). Widths
    are measured toward the swing side and mirror automatically for the other
    foot, as do the yaw bounds.
    """

    min_length: float = -0.25
    max_length: float = 0.45
    min_width: float = 0.125
    max_width: float = 0.40
    min_yaw_delta: float = -math.pi / 6.0
    max_yaw_delta: float = math.pi / 6.0
    max_reach: float = 0.55

    def __post_init__(self):
        if not self.min_length <= self.max_length:
            raise ValueError("min_length must not exceed max_length")
        if not self.min_width <= self.max_width:
            raise ValueError("min_width must not exceed max_width")
        if not self.min_yaw_delta <= self.max_yaw_delta:
            raise ValueError("min_yaw_delta must not exceed max_yaw_delta")
        if not self.max_reach > 0:
            raise ValueError("max_reach must be positive")


def node_to_pose(node: FootstepNode, params: LatticeParams) -> Pose2:
    return Pose2(
        node.x_index * params.xy_resolution,
        node.y_index * params.xy_resolution,
        wrap_angle(node.yaw_index * params.yaw_resolution),
    )


def _round_half_away(value: float) -> int:
    if value >= 0.0:
        return int(math.floor(value + 0.5))
    return int(math.ceil(value - 0.5))


def pose_to_node(pose: Pose2, side: Side, params: LatticeParams) -> FootstepNode:
    """Nearest lattice vertex, rounding half away from zero on each axis."""
    return FootstepNode(
        _round_half_away(pose.x / params.xy_resolution),
        _round_half_away(pose.y / params.xy_resolution),
        _round_half_away(pose.yaw / params.yaw_resolution) % params.yaw_count,
        side,
    )


def to_frame(yaw: float, ox: float, oy: float) -> tuple[float, float]:
    """The world offset (ox, oy) as (forward, left) in a frame headed `yaw`."""
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    return ox * cos_y + oy * sin_y, -ox * sin_y + oy * cos_y


def from_frame(origin: Pose2, forward: float, left: float) -> tuple[float, float]:
    """The world point `forward` ahead of and `left` to the left of `origin`."""
    cos_y, sin_y = math.cos(origin.yaw), math.sin(origin.yaw)
    return origin.x + forward * cos_y - left * sin_y, origin.y + forward * sin_y + left * cos_y


def transform_points(points, origin: Pose2) -> list[tuple[float, float]]:
    """`from_frame` over each (forward, left) point, with one cos/sin per call."""
    cos_y, sin_y = math.cos(origin.yaw), math.sin(origin.yaw)
    return [(origin.x + cos_y * x - sin_y * y, origin.y + sin_y * x + cos_y * y) for x, y in points]


def midstance_pose(parent: Pose2, child: Pose2) -> Pose2:
    """The pose halfway between two feet, headed halfway between them."""
    return Pose2(
        (parent.x + child.x) / 2.0,
        (parent.y + child.y) / 2.0,
        parent.yaw + wrap_angle(child.yaw - parent.yaw) / 2.0,
    )


def feet_from_midstance(mid: Pose2, stance_width: float) -> tuple[Pose2, Pose2]:
    """The left and right foot poses of a nominal stance around `mid`."""
    half = stance_width / 2.0
    left = Pose2(*from_frame(mid, 0.0, half), mid.yaw)
    right = Pose2(*from_frame(mid, 0.0, -half), mid.yaw)
    return left, right


def _scan_radius(expansion: ExpansionParams) -> float:
    """How far from the stance foot a child may land: the reach box's
    farthest corner, capped at max_reach."""
    return min(
        expansion.max_reach,
        max(
            math.hypot(length, width)
            for length in (expansion.min_length, expansion.max_length)
            for width in (expansion.min_width, expansion.max_width)
        ),
    )


def expansion_scan_bound(lattice: LatticeParams, expansion: ExpansionParams) -> float:
    """An upper bound on the work of one `_expansion_offsets` scan: the cells
    of its square, whose side holds at most 2 `_scan_radius` / xy_resolution
    + 3 cells, times its yaw steps (at least one). Computed in floats, so no
    params overflow it.
    """
    side = 2.0 * _scan_radius(expansion) / lattice.xy_resolution + 4.0
    yaw_span = (expansion.max_yaw_delta - expansion.min_yaw_delta) / lattice.yaw_resolution
    return side * side * (yaw_span + 1.0 + 2.0 * EXPANSION_BOUND_SLACK)


@lru_cache(maxsize=512)
def _expansion_offsets(
    lattice: LatticeParams, expansion: ExpansionParams, side: Side, yaw_index: int
) -> tuple[tuple[int, int, int], ...]:
    """Child index offsets (dx_index, dy_index, dyaw_steps) for one yaw bin.

    Offsets are translation-invariant: the reachability box depends only on
    the stance side and the parent's yaw bin, so the scan runs once per
    (side, yaw) and is cached.
    """
    res = lattice.xy_resolution
    yaw = wrap_angle(yaw_index * lattice.yaw_resolution)
    sign = side.mirror_sign
    slack = EXPANSION_BOUND_SLACK

    # The steps are consecutive integers, so the first yaw_count of them hold
    # each yaw bin once, however wide the window.
    yaw_steps = sorted(
        int(sign) * k
        for k in range(
            math.ceil(expansion.min_yaw_delta / lattice.yaw_resolution - slack),
            math.floor(expansion.max_yaw_delta / lattice.yaw_resolution + slack) + 1,
        )
    )[: lattice.yaw_count]

    # Every child lies within _scan_radius (plus slack) of the stance foot:
    # scan the square of cells around that disc, with a cell of margin.
    span = math.floor(_scan_radius(expansion) / res + slack) + 1
    cells = []
    for jx in range(-span, span + 1):
        for jy in range(-span, span + 1):
            dx, dy = to_frame(yaw, jx * res, jy * res)
            lateral = sign * dy
            if not (expansion.min_length - slack <= dx <= expansion.max_length + slack):
                continue
            if not (expansion.min_width - slack <= lateral <= expansion.max_width + slack):
                continue
            if math.hypot(dx, dy) > expansion.max_reach + slack:
                continue
            cells.append((dx, dy, jx, jy))
    return tuple((jx, jy, step) for _, _, jx, jy in sorted(cells) for step in yaw_steps)


def expand_node(
    parent: FootstepNode, lattice: LatticeParams, expansion: ExpansionParams
) -> list[FootstepNode]:
    """All opposite-side lattice vertices inside the parent's reachability box.

    Candidates come from scanning the square of cells around the disc of
    `_scan_radius`, keeping cells whose stance-frame offset satisfies the
    length, width, and Euclidean-reach bounds, then crossing with the allowed
    yaw offsets. The result is sorted by stance-frame (dx, dy, dyaw) and
    duplicate-free.
    """
    count = lattice.yaw_count
    offsets = _expansion_offsets(lattice, expansion, parent.side, parent.yaw_index % count)
    child_side = parent.side.opposite
    return [
        FootstepNode(
            parent.x_index + jx, parent.y_index + jy, (parent.yaw_index + step) % count, child_side
        )
        for jx, jy, step in offsets
    ]
