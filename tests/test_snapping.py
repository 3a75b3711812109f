"""Snapping tests: vertical projection, tilt alignment, foothold cropping."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.geometry import (
    ConvexPolygon2,
    Pose2,
    RigidTransform3,
    point_in_polygon,
    rectangle_polygon,
    rotation_z,
)
from footplan.lattice import FootstepNode, LatticeParams, Side
from footplan.planner import PlanStep
from footplan.snapping import (
    FootPolygon,
    SnapFailure,
    SnapFailureReason,
    SnapResult,
    align_to_normal,
    crop_foothold,
    default_foot,
    snap_node,
    snap_pose,
)
from footplan.wiggle import WiggleParams, wiggle_step
from footplan.world import Environment, PlanarRegion

from test_acceptance import foothold_pose, sole_vertices_world
from test_world import flat_region, rotation_about_y


def rotation_about_x(roll: float) -> np.ndarray:
    c, s = math.cos(roll), math.sin(roll)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def recompose(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Independent yaw-pitch-roll product used as the alignment oracle."""
    return rotation_z(yaw) @ rotation_about_y(pitch) @ rotation_about_x(roll)


FOOT = default_foot()


# ---------------------------------------------------------------------------
# Alignment


@settings(max_examples=300)
@given(
    st.floats(-math.pi, math.pi),
    # a unit normal tilted well away from horizontal
    st.floats(-0.6, 0.6),
    st.floats(-0.6, 0.6),
)
def test_align_recomposes_and_matches_normal(yaw, nx, ny):
    nz = math.sqrt(1.0 - nx * nx - ny * ny)
    rows, roll, pitch = align_to_normal(yaw, (nx, ny, nz))
    rotation = np.array(rows)
    # the numpy product of the same factors, up to its rounding
    tilt = rotation_about_y(pitch) @ rotation_about_x(roll)
    np.testing.assert_allclose(rotation, np.array(rotation_z(yaw)) @ tilt, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rotation @ rotation.T, np.eye(3), rtol=0, atol=1e-12)
    np.testing.assert_allclose(rotation[:, 2], [nx, ny, nz], rtol=0, atol=1e-12)
    # yaw about world z is preserved
    assert math.atan2(rows[1][0], rows[0][0]) == pytest.approx(yaw, abs=1e-12)


def test_align_flat_is_pure_yaw():
    rotation, roll, pitch = align_to_normal(0.7, (0.0, 0.0, 1.0))
    assert roll == 0.0
    assert pitch == 0.0
    assert np.allclose(rotation, rotation_z(0.7), atol=1e-15)


# ---------------------------------------------------------------------------
# Plain snaps


def test_snap_flat_platform():
    env = Environment([flat_region(4, 2.0, 2.0, z=0.3)])
    snap = snap_pose(Pose2(0.2, -0.1, 0.5), env, FOOT)
    assert isinstance(snap, SnapResult)
    assert snap.region_id == 4
    assert snap.center == pytest.approx([0.2, -0.1, 0.3], abs=1e-12)
    assert snap.yaw == pytest.approx(0.5)
    assert snap.area_fraction == pytest.approx(1.0, abs=1e-9)
    assert snap.surface_roll == 0.0
    assert snap.surface_pitch == 0.0
    assert snap.cropped_foothold is not None
    assert snap.cropped_foothold.area == pytest.approx(FOOT.sole.area, abs=1e-9)


def test_snap_picks_higher_layer():
    env = Environment([flat_region(0, 4.0, 4.0, z=0.0), flat_region(1, 1.0, 1.0, z=0.2)])
    high = snap_pose(Pose2(0.0, 0.0, 0.0), env, FOOT)
    assert high.region_id == 1
    assert high.center[2] == pytest.approx(0.2)
    low = snap_pose(Pose2(1.5, 1.5, 0.0), env, FOOT)
    assert low.region_id == 0
    assert low.center[2] == pytest.approx(0.0)


def test_snap_tie_breaks_to_lower_id():
    env = Environment(
        [flat_region(7, 1.0, 1.0, center=(0.4, 0.0)), flat_region(2, 1.0, 1.0, center=(-0.4, 0.0))]
    )
    snap = snap_pose(Pose2(0.0, 0.0, 0.0), env, FOOT)
    assert snap.region_id == 2


def test_snap_ten_degree_incline():
    pitch = math.radians(10.0)
    region = PlanarRegion(
        0,
        RigidTransform3(rotation_about_y(pitch), np.zeros(3)),
        [rectangle_polygon(2.0, 2.0)],
    )
    env = Environment([region])
    snap = snap_pose(Pose2(0.3, 0.0, 0.0), env, FOOT)
    assert isinstance(snap, SnapResult)
    assert snap.surface_pitch == pytest.approx(pitch, abs=1e-9)
    assert snap.surface_roll == pytest.approx(0.0, abs=1e-9)
    # center sits on the plane: z = -tan(pitch) * x
    assert snap.center[2] == pytest.approx(-math.tan(pitch) * 0.3, abs=1e-9)
    assert np.allclose(snap.rotation, recompose(0.0, pitch, 0.0), atol=1e-9)


def test_snap_failure_reasons():
    env = Environment([flat_region(0, 1.0, 1.0)])
    missed = snap_pose(Pose2(5.0, 5.0, 0.0), env, FOOT)
    assert isinstance(missed, SnapFailure)
    assert missed.reason is SnapFailureReason.NO_REGION_UNDER_FOOT

    wall = PlanarRegion(
        1,
        RigidTransform3(rotation_about_y(math.pi / 2.0), np.array([5.0, 5.0, 0.0])),
        [rectangle_polygon(1.0, 1.0)],
    )
    vertical_only = snap_pose(Pose2(5.0, 5.0, 0.0), env.with_region(wall), FOOT)
    assert isinstance(vertical_only, SnapFailure)
    assert vertical_only.reason is SnapFailureReason.REGION_NEARLY_VERTICAL


def test_snap_node_matches_snap_pose():
    lattice = LatticeParams()
    env = Environment([flat_region(0, 2.0, 2.0)])
    node = FootstepNode(3, -2, 9, Side.LEFT)
    via_node = snap_node(node, lattice, env, FOOT)
    via_pose = snap_pose(Pose2(0.15, -0.10, 9 * lattice.yaw_resolution), env, FOOT)
    assert via_node.center == pytest.approx(via_pose.center)
    assert via_node.area_fraction == pytest.approx(via_pose.area_fraction, abs=1e-12)


# ---------------------------------------------------------------------------
# Cropping


def test_beam_fraction_centered_and_offset():
    beam_width = 0.1016
    # centered: the full beam width is covered, length fully on the beam
    env = Environment([flat_region(0, 3.0, beam_width)])
    centered = snap_pose(Pose2(1.0, 0.0, 0.0), env, FOOT)
    assert centered.area_fraction == pytest.approx(beam_width / 0.11, abs=1e-9)

    # offset by 0.025: sole [-0.055, 0.055] against beam [-0.0258, 0.0758]
    env_off = Environment([flat_region(0, 3.0, beam_width, center=(1.5, 0.025))])
    offset = snap_pose(Pose2(1.0, 0.0, 0.0), env_off, FOOT)
    expected = (0.055 - (0.025 - beam_width / 2.0)) / 0.11
    assert offset.area_fraction == pytest.approx(expected, abs=1e-9)
    assert 0.70 <= offset.area_fraction < 0.75


def test_cropped_foothold_contained_in_sole():
    rng = random.Random(19)
    env = Environment([flat_region(0, 0.6, 0.25, center=(0.0, 0.05), yaw=0.3)])
    for _ in range(30):
        pose = Pose2(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2), rng.uniform(-3, 3))
        snap = snap_pose(pose, env, FOOT)
        if isinstance(snap, SnapFailure):
            continue
        assert 0.0 <= snap.area_fraction <= 1.0
        if snap.cropped_foothold is None:
            continue
        for v in snap.cropped_foothold.vertices:
            assert point_in_polygon(v, FOOT.sole, slack=1e-6)
        assert snap.cropped_foothold.area <= FOOT.sole.area + 1e-9


def test_fraction_slides_monotonically_off_an_edge():
    env = Environment([flat_region(0, 1.0, 1.0)])
    fractions = []
    for y in np.linspace(0.40, 0.60, 11):
        snap = snap_pose(Pose2(0.0, float(y), 0.0), env, FOOT)
        fractions.append(snap.area_fraction if isinstance(snap, SnapResult) else 0.0)
    assert fractions[0] == pytest.approx(1.0, abs=1e-9)
    for a, b in zip(fractions, fractions[1:]):
        assert b <= a + 1e-12
    assert fractions[-1] < 0.2


def test_multi_piece_fraction_sums_but_polygon_is_largest_piece():
    # two touching pieces under one region, seam at x = 0.03 under the sole
    pieces = [
        rectangle_polygon(0.4, 0.4, center=(-0.17, 0.0)),
        rectangle_polygon(0.4, 0.4, center=(0.23, 0.0)),
    ]
    region = PlanarRegion(0, RigidTransform3(np.eye(3), np.zeros(3)), pieces)
    snap = snap_pose(Pose2(0.0, 0.0, 0.0), Environment([region]), FOOT)
    assert snap.area_fraction == pytest.approx(1.0, abs=1e-6)
    assert snap.cropped_foothold is not None
    # the polygon keeps only the larger covered piece, left of the seam
    assert snap.cropped_foothold.area == pytest.approx(0.14 * 0.11, abs=1e-9)


def test_snap_z_translates_with_world():
    rng = random.Random(31)
    base = Environment([flat_region(0, 2.0, 2.0, z=0.0), flat_region(1, 1.0, 1.0, z=0.25)])
    lifted = Environment([flat_region(0, 2.0, 2.0, z=0.4), flat_region(1, 1.0, 1.0, z=0.65)])
    for _ in range(20):
        pose = Pose2(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9), rng.uniform(-3, 3))
        a = snap_pose(pose, base, FOOT)
        b = snap_pose(pose, lifted, FOOT)
        assert isinstance(a, SnapResult) and isinstance(b, SnapResult)
        assert b.center[2] - a.center[2] == pytest.approx(0.4, abs=1e-9)
        assert a.region_id == b.region_id
        assert a.area_fraction == pytest.approx(b.area_fraction, abs=1e-12)


def test_foot_polygon_requires_origin_inside():
    from footplan.geometry import GeometryError

    with pytest.raises(GeometryError):
        FootPolygon(rectangle_polygon(0.2, 0.1, center=(0.3, 0.0)))


# ---------------------------------------------------------------------------
# The foothold record


@st.composite
def tilted_snaps(draw):
    """A tilted region of one or two touching pieces, and a pose over it."""
    angle = st.floats(-0.6, 0.6)
    rotation = recompose(draw(st.floats(-math.pi, math.pi)), draw(angle), draw(angle))
    center = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.0, 1.0)))
    width = draw(st.floats(0.08, 0.8))
    left = draw(st.floats(0.1, 0.8))
    pieces = [rectangle_polygon(left, width, center=(-left / 2.0, 0.0))]
    if draw(st.booleans()):
        right = draw(st.floats(0.1, 0.8))
        pieces.append(rectangle_polygon(right, width, center=(right / 2.0, 0.0)))
    region = PlanarRegion(0, RigidTransform3(rotation, np.array(center)), pieces)
    offset = st.floats(-0.4, 0.4)
    pose = Pose2(center[0] + draw(offset), center[1] + draw(offset), draw(st.floats(-math.pi, math.pi)))
    return region, pose


@settings(max_examples=150)
@given(tilted_snaps())
def test_snap_result_is_one_consistent_foothold(case):
    region, pose = case
    env = Environment([region])
    snap = snap_pose(pose, env, FOOT)
    if isinstance(snap, SnapFailure):
        return
    # the stored sole is the sole placed by the snapped rigid transform
    for placed, oracle in zip(snap.sole, sole_vertices_world(snap), strict=True):
        assert placed == pytest.approx(oracle, abs=1e-12)
    # a validated rigid transform carries the plain floats and the rotation unchanged
    transform = foothold_pose(snap)
    assert transform.translation == snap.center
    assert transform.rotation == snap.rotation
    assert math.atan2(transform.rotation[1][0], transform.rotation[0][0]) == snap.yaw
    assert snap.planar_pose == Pose2(snap.x, snap.y, snap.yaw)

    outcome = wiggle_step(PlanStep(Side.LEFT, snap), env, FOOT, WiggleParams())
    if outcome.inset_used is None:
        assert outcome.step.snap is snap
        return
    moved = outcome.step.snap
    fresh = crop_foothold(region, moved.x, moved.y, snap.yaw + outcome.rotation, FOOT)
    for name in (
        "x", "y", "z", "yaw", "surface_roll", "surface_pitch", "region_id",
        "cropped_foothold", "area_fraction", "sole", "piece_index",
    ):
        assert getattr(moved, name) == getattr(fresh, name), name
    assert np.array_equal(moved.rotation, fresh.rotation)
