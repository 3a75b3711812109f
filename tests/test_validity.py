"""Validity battery tests: every rejection reason, orders, and mirror symmetry."""

import math
import random

import numpy as np
import pytest

from footplan.geometry import Pose2, RigidTransform3, rectangle_polygon
from footplan.lattice import Side
from footplan.snapping import SnapFailure, SnapResult, default_foot, snap_pose
from footplan.validity import (
    CheckerParams,
    RejectionReason,
    check_area,
    check_body_box,
    check_cliff_clearance,
    check_incline,
    check_step_geometry,
    check_step_over,
    midstance_pose,
    validate_edge,
)
from footplan.world import Environment, PlanarRegion

from test_snapping import rotation_about_y
from test_world import flat_region

FOOT = default_foot()
PARAMS = CheckerParams()
FLAT = Environment([flat_region(0, 20.0, 20.0)])


def snap(x, y, yaw=0.0, env=FLAT):
    result = snap_pose(Pose2(x, y, yaw), env, FOOT)
    assert isinstance(result, SnapResult)
    return result


def validate(parent_xyyaw, child_xyyaw, side, env=FLAT, params=PARAMS):
    parent = snap_pose(Pose2(*parent_xyyaw), env, FOOT)
    child = snap_pose(Pose2(*child_xyyaw), env, FOOT)
    assert isinstance(parent, SnapResult)
    return validate_edge(parent, child, side, env, params, FOOT)


# ---------------------------------------------------------------------------
# Single checks


def test_nominal_step_is_valid():
    # left stance foot, right swing lands forward and to its own side
    assert validate((0.0, 0.125, 0.0), (0.3, -0.125, 0.0), Side.LEFT) is None


def test_unsnappable_child():
    env = Environment([flat_region(0, 1.0, 1.0)])
    parent = snap(0.0, 0.0, env=env)
    child = snap_pose(Pose2(5.0, 0.0, 0.0), env, FOOT)
    assert isinstance(child, SnapFailure)
    assert (
        validate_edge(parent, child, Side.LEFT, env, PARAMS, FOOT)
        is RejectionReason.UNSNAPPABLE
    )


def test_incline_boundary():
    for degrees, expected in ((39.9, None), (40.5, RejectionReason.TOO_STEEP)):
        pitch = math.radians(degrees)
        region = PlanarRegion(
            0,
            RigidTransform3(rotation_about_y(pitch), np.zeros(3)),
            [rectangle_polygon(4.0, 4.0)],
        )
        tilted = snap(0.0, 0.0, env=Environment([region]))
        assert check_incline(tilted, PARAMS) is expected


def test_incline_combines_roll_and_pitch():
    # 30 deg of pitch and 30 deg of roll together exceed a 40 deg budget
    combined = SnapResult(
        x=0.0,
        y=0.0,
        z=0.0,
        yaw=0.0,
        surface_roll=math.radians(30.0),
        surface_pitch=math.radians(30.0),
        region_id=0,
        cropped_foothold=None,
        area_fraction=1.0,
        rotation=np.eye(3),
        sole=(),
        piece_index=None,
    )
    assert check_incline(combined, PARAMS) is RejectionReason.TOO_STEEP


def test_area_threshold():
    env = Environment([flat_region(0, 3.0, 0.1016, center=(0.0, 0.025))])
    partial = snap(0.0, 0.0, env=env)
    assert 0.70 < partial.area_fraction < 0.75
    assert check_area(partial, PARAMS) is RejectionReason.INSUFFICIENT_AREA
    relaxed = CheckerParams(min_area_fraction=0.70)
    assert check_area(partial, relaxed) is None


def test_coincident_child_is_self_overlap():
    assert (
        validate((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Side.LEFT)
        is RejectionReason.SELF_OVERLAP
    )


def test_stance_bounds_each_direction():
    # too far forward
    assert (
        validate((0.0, 0.125, 0.0), (0.5, -0.125, 0.0), Side.LEFT)
        is RejectionReason.BAD_STANCE_GEOMETRY
    )
    # too far backward
    assert (
        validate((0.0, 0.125, 0.0), (-0.3, -0.125, 0.0), Side.LEFT)
        is RejectionReason.BAD_STANCE_GEOMETRY
    )
    # crossing to the wrong side of the stance foot (inward > max_inward 0)
    assert (
        validate((0.0, 0.0, 0.0), (0.2, 0.15, 0.0), Side.LEFT)
        is RejectionReason.BAD_STANCE_GEOMETRY
    )
    # too far outward
    assert (
        validate((0.0, 0.2, 0.0), (0.1, -0.25, 0.0), Side.LEFT)
        is RejectionReason.BAD_STANCE_GEOMETRY
    )
    # inside the box but beyond the euclidean reach cap
    tight = CheckerParams(max_forward=0.45, max_outward=0.40, max_reach=0.45)
    assert (
        validate((0.0, 0.125, 0.0), (0.4, -0.2, 0.0), Side.LEFT, params=tight)
        is RejectionReason.BAD_STANCE_GEOMETRY
    )


def test_step_height_limits():
    low = Environment([flat_region(0, 2.0, 2.0), flat_region(1, 1.0, 1.0, center=(0.55, -0.45), z=0.4)])
    assert (
        validate((0.0, 0.125, 0.0), (0.3, -0.125, 0.0), Side.LEFT, env=low)
        is RejectionReason.STEP_TOO_HIGH_OR_LOW
    )
    drop = Environment([flat_region(0, 1.0, 2.0, z=0.4), flat_region(1, 1.0, 2.0, center=(1.0, 0.0))])
    assert (
        validate((0.3, 0.125, 0.0), (0.7, -0.125, 0.0), Side.LEFT, env=drop)
        is RejectionReason.STEP_TOO_HIGH_OR_LOW
    )


def test_tall_step_shrinks_reach():
    env = Environment(
        [flat_region(0, 2.0, 2.0), flat_region(1, 1.2, 1.2, center=(0.8, -0.4), z=0.25)]
    )
    # 0.25 m up is allowed, but not combined with a 0.4 m stride
    assert (
        validate((0.0, 0.125, 0.0), (0.4, -0.125, 0.0), Side.LEFT, env=env)
        is RejectionReason.TALL_STEP_TOO_LONG
    )
    assert validate((0.3, 0.125, 0.0), (0.6, -0.125, 0.0), Side.LEFT, env=env) is None


def test_cliff_clearance():
    # a 0.2 m riser ahead: footholds must keep 0.05 m from its base
    def world(edge_x):
        return Environment(
            [
                flat_region(0, 4.0, 2.0),
                flat_region(1, 2.0, 2.0, center=(edge_x + 1.0, 0.0), z=0.2),
            ]
        )

    near = world(0.3 + 0.11 + 0.02)  # outline 0.02 m from the riser base
    assert (
        validate((0.0, 0.125, 0.0), (0.3, -0.125, 0.0), Side.LEFT, env=near)
        is RejectionReason.CLIFF_TOO_CLOSE
    )
    far = world(0.3 + 0.11 + 0.06)
    assert validate((0.0, 0.125, 0.0), (0.3, -0.125, 0.0), Side.LEFT, env=far) is None


def test_low_riser_is_not_a_cliff():
    env = Environment(
        [flat_region(0, 4.0, 2.0), flat_region(1, 2.0, 2.0, center=(1.43, 0.0), z=0.08)]
    )
    assert validate((0.0, 0.125, 0.0), (0.3, -0.125, 0.0), Side.LEFT, env=env) is None


def test_step_over_wall_between_feet():
    # thin tall wall crossing the swing line between parent and child
    wall = PlanarRegion(
        1,
        RigidTransform3(rotation_about_y(math.pi / 2.0), np.array([0.45, 0.0, 0.0])),
        [rectangle_polygon(2.0, 1.0, center=(-1.0, 0.0))],  # spans z in [0, 2]
    )
    env = Environment([flat_region(0, 4.0, 2.0), wall])
    verdict = validate((0.3, 0.125, 0.0), (0.6, 0.125, 0.0), Side.LEFT, env=env)
    assert verdict in (RejectionReason.STEP_OVER_OBSTACLE, RejectionReason.BODY_BOX_COLLISION)
    # the explicit check flags it as a step-over conflict
    parent = snap(0.3, 0.125, env=env)
    child = snap(0.6, 0.125, env=env)
    assert (
        check_step_over(parent, child, env, PARAMS, FOOT)
        is RejectionReason.STEP_OVER_OBSTACLE
    )


def test_step_over_clears_low_obstacle():
    env = Environment(
        [flat_region(0, 4.0, 2.0), flat_region(1, 0.1, 2.0, center=(0.45, 0.0), z=0.2)]
    )
    parent = snap(0.2, 0.125, env=env)
    child = snap(0.7, 0.125, env=env)
    assert check_step_over(parent, child, env, PARAMS, FOOT) is None


def test_body_box_blocked_square_on_but_clear_rotated():
    # two solid posts leave a 0.5 m slot: wider than the box depth (0.4),
    # narrower than its width (0.6)
    from footplan.toolkit.generators import generate_environment

    env = generate_environment("narrow-gap", 0)
    square = (
        snap(-0.2, 0.125, 0.0, env=env),
        snap(0.2, -0.125, 0.0, env=env),
    )
    assert (
        check_body_box(square[0], square[1], env, PARAMS)
        is RejectionReason.BODY_BOX_COLLISION
    )
    rotated = (
        snap(0.0, 0.0, math.pi / 2.0, env=env),
        snap(0.25, 0.0, math.pi / 2.0, env=env),
    )
    assert check_body_box(rotated[0], rotated[1], env, PARAMS) is None


def test_midstance_pose_averages_and_wraps():
    mid = midstance_pose(Pose2(0.0, 0.0, math.radians(170)), Pose2(1.0, 0.0, math.radians(-170)))
    assert mid.x == pytest.approx(0.5)
    assert abs(mid.yaw) == pytest.approx(math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# Battery order and symmetry


def test_battery_order_area_before_geometry():
    # child both on a sliver of support and coincident with the parent:
    # area runs first
    env = Environment([flat_region(0, 3.0, 0.1016, center=(0.0, 0.025))])
    parent = snap(0.0, 0.0, env=env)
    child = snap(0.0, 0.0, env=env)
    assert (
        validate_edge(parent, child, Side.LEFT, env, PARAMS, FOOT)
        is RejectionReason.INSUFFICIENT_AREA
    )


def test_battery_order_self_overlap_before_stance_bounds():
    # coincident child violates the lateral bounds too; self overlap wins
    assert (
        validate((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Side.RIGHT)
        is RejectionReason.SELF_OVERLAP
    )


def test_mirrored_scenes_agree():
    rng = random.Random(61)
    for _ in range(60):
        px, py = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        pyaw = rng.uniform(-math.pi, math.pi)
        cx, cy = px + rng.uniform(-0.6, 0.6), py + rng.uniform(-0.6, 0.6)
        cyaw = pyaw + rng.uniform(-0.8, 0.8)
        left = validate((px, py, pyaw), (cx, cy, cyaw), Side.LEFT)
        right = validate((px, -py, -pyaw), (cx, -cy, -cyaw), Side.RIGHT)
        assert left is right, ((px, py, pyaw), (cx, cy, cyaw))


def test_checker_params_validation():
    with pytest.raises(ValueError):
        CheckerParams(min_area_fraction=0.0)
    with pytest.raises(ValueError):
        CheckerParams(min_area_fraction=1.2)
    with pytest.raises(ValueError):
        CheckerParams(max_reach=-0.1)
    with pytest.raises(ValueError):
        CheckerParams(body_box_top=0.2, body_box_bottom=0.3)
