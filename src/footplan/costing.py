"""Edge costs and the inflated cost-to-go heuristic with blended goal heading."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .constants import COST_BOUND_EPS, COST_EPS
from .geometry import Point2, Pose2, wrap_angle
from .lattice import (
    ExpansionParams,
    FootstepNode,
    LatticeParams,
    Side,
    expand_node,
    from_frame,
    midstance_pose,
    node_to_pose,
)
from .snapping import SnapResult


@dataclass(frozen=True)
class CostParams:
    w_distance: float = 1.0
    w_height: float = 2.0
    w_yaw: float = 0.3
    w_area: float = 1.0
    w_roll_pitch: float = 0.5
    cost_per_step: float = 0.15
    inflation: float = 1.5
    final_turn_radius: float = 0.5
    max_step_length_for_heuristic: float = 0.45
    nominal_stance_width: float = 0.25

    def __post_init__(self):
        for name in ("w_distance", "w_height", "w_yaw", "w_area", "w_roll_pitch", "cost_per_step"):
            if not getattr(self, name) >= 0:  # NaN too
                raise ValueError(f"{name} must be non-negative")
        if not self.inflation >= 1.0:
            raise ValueError("inflation must be at least 1")
        if not self.final_turn_radius > 0:
            raise ValueError("final_turn_radius must be positive")
        if not self.max_step_length_for_heuristic > 0:
            raise ValueError("max_step_length_for_heuristic must be positive")
        if not self.nominal_stance_width > 0:
            raise ValueError("nominal_stance_width must be positive")


def _planar_terms(
    parent: Pose2, child: Pose2, stance_side: Side, stance_width: float
) -> tuple[float, float]:
    """A step's midstance displacement from the parent's nominal midstance
    and its midstance yaw change."""
    nominal_mid = from_frame(parent, 0.0, stance_side.mirror_sign * stance_width / 2.0)
    mid = midstance_pose(parent, child)
    d_mid = math.hypot(mid.x - nominal_mid[0], mid.y - nominal_mid[1])
    d_yaw = abs(wrap_angle(mid.yaw - parent.yaw))
    return d_mid, d_yaw


def edge_cost(
    parent_snap: SnapResult,
    child_snap: SnapResult,
    stance_side: Side,
    params: CostParams,
) -> float:
    """Step cost: midstance displacement from the parent's nominal midstance,
    height change, midstance yaw change, uncovered foothold area, and surface
    roll/pitch, plus a constant per-step charge."""
    d_mid, d_yaw = _planar_terms(
        parent_snap.planar_pose, child_snap.planar_pose, stance_side, params.nominal_stance_width
    )
    dz = abs(child_snap.z - parent_snap.z)
    return (
        params.w_distance * d_mid
        + params.w_height * dz
        + params.w_yaw * d_yaw
        + params.w_area * (1.0 - child_snap.area_fraction)
        + params.w_roll_pitch * (abs(child_snap.surface_roll) + abs(child_snap.surface_pitch))
        + params.cost_per_step
    )


@lru_cache(maxsize=512)
def cell_cost_bounds(
    lattice: LatticeParams,
    expansion: ExpansionParams,
    params: CostParams,
    side: Side,
    yaw_index: int,
) -> tuple[tuple[tuple[int, int, int, float, tuple[tuple[int, float], ...]], ...], int]:
    """A lower bound on `edge_cost` for each step `expand_node` makes from a
    `side` parent in yaw bin `yaw_index`, grouped by lattice cell, and the
    number of steps.

    There is one row per run of `expand_node`'s children that share an
    (x, y) index offset, in `expand_node`'s order. A row is (dx_index,
    dy_index, first, least, members): `first` is the position of the run's
    first child in `expand_node`'s order, `least` the run's smallest bound,
    and `members` the (yaw_index, bound) of each child of the run in order.
    `expand_node` sorts by stance-frame offset, so each cell's children form
    one run.

    The bound is the planar part of the cost (midstance displacement, yaw
    change, per-step charge) on lattice poses, less COST_BOUND_EPS; the
    height, area and roll/pitch terms are never negative. The planar part
    depends only on the child's index offset, so the parent is placed at the
    origin. The eps covers the rounding that differs from the snapped poses:
    their yaw comes from `yaw_of_rotation` and their midstance from absolute
    positions.
    """
    parent = FootstepNode(0, 0, yaw_index, side)
    parent_pose = node_to_pose(parent, lattice)
    children = expand_node(parent, lattice, expansion)
    runs: list[tuple[int, int, int, list]] = []
    for first, child in enumerate(children):
        d_mid, d_yaw = _planar_terms(
            parent_pose, node_to_pose(child, lattice), side, params.nominal_stance_width
        )
        bound = (
            params.w_distance * d_mid + params.w_yaw * d_yaw + params.cost_per_step
            - COST_BOUND_EPS
        )
        if not runs or runs[-1][:2] != (child.x_index, child.y_index):
            runs.append((child.x_index, child.y_index, first, []))
        runs[-1][3].append((child.yaw_index, bound))
    rows = tuple(
        (dx, dy, first, min(bound for _, bound in members), tuple(members))
        for dx, dy, first, members in runs
    )
    return rows, len(children)


def reference_yaw(position: Point2, goal: Pose2, params: CostParams) -> float:
    """Desired heading at a position: toward the goal far away, blending into
    the goal's own yaw inside the final turn radius, and the goal's yaw on
    the goal itself."""
    dx = goal.x - position[0]
    dy = goal.y - position[1]
    distance = math.hypot(dx, dy)
    if distance < 1e-12:
        return goal.yaw
    heading = math.atan2(dy, dx)
    if distance >= params.final_turn_radius:
        return heading
    blend = 1.0 - distance / params.final_turn_radius
    return wrap_angle(heading + wrap_angle(goal.yaw - heading) * blend)


def _goal_terms(x: float, y: float, goal: Pose2, params: CostParams) -> tuple[float, int]:
    """The distance from (x, y) to the goal and the fewest heuristic steps
    that cover it."""
    distance = math.hypot(goal.x - x, goal.y - y)
    steps = math.ceil(distance / params.max_step_length_for_heuristic - COST_EPS)
    return distance, max(0, steps)


def heuristic_cost(pose: Pose2, goal: Pose2, params: CostParams) -> float:
    distance, steps = _goal_terms(pose.x, pose.y, goal, params)
    yaw_error = abs(wrap_angle(pose.yaw - reference_yaw((pose.x, pose.y), goal, params)))
    return params.inflation * (
        params.w_distance * distance
        + params.w_yaw * yaw_error
        + steps * params.cost_per_step
    )


def position_heuristic(x: float, y: float, goal: Pose2, params: CostParams) -> float:
    """`heuristic_cost` without its yaw term, for every pose at (x, y).

    It shares the distance and step terms and drops a term that is never
    negative from the same sum, so it is at most `heuristic_cost` exactly in
    floats: rounded addition and multiplication are monotone.
    """
    distance, steps = _goal_terms(x, y, goal, params)
    return params.inflation * (params.w_distance * distance + steps * params.cost_per_step)
