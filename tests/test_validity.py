"""Validity battery tests: every rejection reason, orders, and mirror symmetry."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.constants import BOUNDARY_SLACK
from footplan.geometry import (
    ConvexPolygon2,
    GeometryError,
    Pose2,
    RigidTransform3,
    bounding_box,
    rectangle_polygon,
    rotation_z,
)
from footplan.lattice import Side, midstance_pose
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
        crop=None,
        area_fraction=1.0,
        rotation=np.eye(3),
        sole=(),
        piece_index=None,
    )
    assert check_incline(combined, PARAMS) is RejectionReason.TOO_STEEP


@pytest.mark.parametrize("over, passes", [(0.5, True), (2.0, False)])
def test_incline_and_area_pass_within_the_boundary_slack(over, passes):
    # a foothold over a bound by half the slack passes, by twice it fails
    excess = over * BOUNDARY_SLACK
    snap = SnapResult(
        0.0, 0.0, 0.0, 0.0, 0.0, PARAMS.max_incline + excess, 0, None,
        PARAMS.min_area_fraction - excess, np.eye(3), (), None,
    )
    assert (check_incline(snap, PARAMS) is None) is passes
    assert (check_area(snap, PARAMS) is None) is passes


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


# ---------------------------------------------------------------------------
# Differential test: the plain-float separating-axis checks against the numpy
# separating-axis test they replaced, kept here as the oracle


def oracle_sat_disjoint(verts_a: np.ndarray, verts_b: np.ndarray, axes) -> bool:
    for axis in axes:
        norm = float(np.linalg.norm(axis))
        if norm < 1e-12:
            continue
        unit = axis / norm
        pa = verts_a @ unit
        pb = verts_b @ unit
        if pa.max() < pb.min() - BOUNDARY_SLACK or pb.max() < pa.min() - BOUNDARY_SLACK:
            return True
    return False


def oracle_piece_axes(piece: np.ndarray, normal: np.ndarray):
    edges = np.roll(piece, -1, axis=0) - piece
    rim = [np.cross(e, normal) for e in edges]
    return edges, rim


def oracle_polytope_hits_piece(
    verts: np.ndarray, face_normals, edge_dirs, piece: np.ndarray, piece_normal: np.ndarray
) -> bool:
    piece_edges, piece_rim = oracle_piece_axes(piece, piece_normal)
    axes = list(face_normals) + [piece_normal] + piece_rim
    for d in edge_dirs:
        for e in piece_edges:
            axes.append(np.cross(d, e))
    return not oracle_sat_disjoint(verts, piece, axes)


def oracle_world_pieces(region):
    """The region's pieces lifted to world with numpy, and its upward normal."""
    rotation = np.array(region.transform_to_world.rotation)
    normal = rotation[:, 2].copy()
    if normal[2] < 0:
        normal = -normal
    pieces = []
    for piece in region.pieces:
        verts2 = np.array(piece.vertices, dtype=float)
        verts3 = np.column_stack([verts2, np.zeros(len(verts2))])
        pieces.append(verts3 @ rotation.T + region.transform_to_world.translation)
    return pieces, normal


def oracle_step_over_hits(parent_snap, child_snap, env, params, foot) -> bool:
    z = max(parent_snap.z, child_snap.z) + params.step_over_height
    ax, ay = parent_snap.x, parent_snap.y
    bx, by = child_snap.x, child_snap.y
    length = math.hypot(bx - ax, by - ay)
    direction = (1.0, 0.0) if length < 1e-12 else ((bx - ax) / length, (by - ay) / length)
    perp = (-direction[1], direction[0])
    _, min_w, _, max_w = bounding_box(foot.sole.vertices)
    half = (max_w - min_w) / 2.0
    corners = [
        (ax + perp[0] * half, ay + perp[1] * half),
        (ax - perp[0] * half, ay - perp[1] * half),
        (bx - perp[0] * half, by - perp[1] * half),
        (bx + perp[0] * half, by + perp[1] * half),
    ]
    x_lo, y_lo = min(c[0] for c in corners), min(c[1] for c in corners)
    x_hi, y_hi = max(c[0] for c in corners), max(c[1] for c in corners)
    rect = np.array([(cx, cy, z) for cx, cy in corners])
    up = np.array([0.0, 0.0, 1.0])
    rect_edges = [np.array([direction[0], direction[1], 0.0]), np.array([perp[0], perp[1], 0.0])]
    rect_axes = [up] + [np.cross(e, up) for e in rect_edges]
    for region in env.regions:
        if region.z_min > z + BOUNDARY_SLACK or region.z_max < z - BOUNDARY_SLACK:
            continue
        rx0, ry0, rx1, ry1 = region.bounds_xy
        if rx1 < x_lo or rx0 > x_hi or ry1 < y_lo or ry0 > y_hi:
            continue
        pieces, normal = oracle_world_pieces(region)
        for piece in pieces:
            if oracle_polytope_hits_piece(rect, rect_axes, rect_edges, piece, normal):
                return True
    return False


def oracle_body_box_hits(parent_snap, child_snap, env, params) -> bool:
    mid_z = (parent_snap.z + child_snap.z) / 2.0
    z_lo = mid_z + params.body_box_bottom
    z_hi = mid_z + params.body_box_top
    mid = midstance_pose(parent_snap.planar_pose, child_snap.planar_pose)
    cos_y, sin_y = math.cos(mid.yaw), math.sin(mid.yaw)
    half_d = params.body_box_depth / 2.0
    half_w = params.body_box_width / 2.0
    corners_2d = [
        (mid.x + cos_y * sx * half_d - sin_y * sy * half_w,
         mid.y + sin_y * sx * half_d + cos_y * sy * half_w)
        for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1))
    ]
    x_lo, y_lo = min(c[0] for c in corners_2d), min(c[1] for c in corners_2d)
    x_hi, y_hi = max(c[0] for c in corners_2d), max(c[1] for c in corners_2d)
    verts = np.array([(x, y, z) for z in (z_lo, z_hi) for x, y in corners_2d])
    axes_box = [
        np.array([cos_y, sin_y, 0.0]),
        np.array([-sin_y, cos_y, 0.0]),
        np.array([0.0, 0.0, 1.0]),
    ]
    for region in env.regions:
        if region.z_min > z_hi + BOUNDARY_SLACK or region.z_max < z_lo - BOUNDARY_SLACK:
            continue
        rx0, ry0, rx1, ry1 = region.bounds_xy
        if rx1 < x_lo or rx0 > x_hi or ry1 < y_lo or ry0 > y_hi:
            continue
        pieces, normal = oracle_world_pieces(region)
        for piece in pieces:
            if oracle_polytope_hits_piece(verts, axes_box, axes_box, piece, normal):
                return True
    return False


def bare_snap(x, y, z, yaw):
    """A foothold record carrying only the pose the collision checks read."""
    return SnapResult(
        x=x, y=y, z=z, yaw=yaw, surface_roll=0.0, surface_pitch=0.0, region_id=0,
        crop=None, area_fraction=1.0, rotation=np.eye(3), sole=(), piece_index=None,
    )


@st.composite
def collision_scenes(draw):
    """A step, and a random convex piece on a flat, tilted or vertical plane
    that passes close to its body box and its step-over rectangle."""
    near = st.floats(-0.5, 0.5)
    parent = bare_snap(
        draw(near), draw(near), draw(st.floats(-0.3, 0.3)), draw(st.floats(-math.pi, math.pi))
    )
    child = bare_snap(
        parent.x + draw(near),
        parent.y + draw(near),
        parent.z + draw(st.floats(-0.3, 0.3)),
        parent.yaw + draw(st.floats(-1.0, 1.0)),
    )
    kind = draw(st.sampled_from(["flat", "tilted", "vertical"]))
    pitch = {
        "flat": 0.0,
        "tilted": draw(st.floats(-2.6, 2.6)),
        "vertical": draw(st.sampled_from([-1.0, 1.0])) * math.pi / 2.0,
    }[kind]
    rotation = rotation_z(draw(st.floats(-math.pi, math.pi))) @ rotation_about_y(pitch)
    rect_z = max(parent.z, child.z) + PARAMS.step_over_height
    if not draw(st.booleans()):
        z = draw(st.floats(-0.2, 1.5))
    elif kind == "flat":
        # a flat piece meets the step-over rectangle only at its height, where
        # a gap inside BOUNDARY_SLACK still counts as contact
        touching = 0.5 * BOUNDARY_SLACK
        z = draw(st.sampled_from([rect_z, rect_z + touching, rect_z - touching]))
    else:
        z = draw(st.floats(rect_z - 0.2, rect_z + 0.2))
    offset = st.floats(-0.3, 0.3)
    center = (
        (parent.x + child.x) / 2.0 + draw(offset),
        (parent.y + child.y) / 2.0 + draw(offset),
        z,
    )
    # points on an ellipse, in angle order, are always convex
    rx, ry = draw(st.floats(0.05, 0.8)), draw(st.floats(0.05, 0.8))
    angles = sorted(draw(st.lists(st.floats(0.0, math.tau), min_size=3, max_size=7)))
    try:
        piece = ConvexPolygon2([(rx * math.cos(a), ry * math.sin(a)) for a in angles])
    except GeometryError:
        piece = rectangle_polygon(2.0 * rx, 2.0 * ry)
    region = PlanarRegion(0, RigidTransform3(rotation, np.array(center)), [piece])
    return Environment([region]), parent, child


@settings(max_examples=400)
@given(collision_scenes())
def test_collision_checks_match_the_numpy_separating_axis_oracle(scene):
    env, parent, child = scene
    body_hit = oracle_body_box_hits(parent, child, env, PARAMS)
    assert check_body_box(parent, child, env, PARAMS) is (
        RejectionReason.BODY_BOX_COLLISION if body_hit else None
    )
    over_hit = oracle_step_over_hits(parent, child, env, PARAMS, FOOT)
    assert check_step_over(parent, child, env, PARAMS, FOOT) is (
        RejectionReason.STEP_OVER_OBSTACLE if over_hit else None
    )
