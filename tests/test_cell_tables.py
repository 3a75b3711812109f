"""Work done once per lattice cell, or only when read, against the per-node
work it replaced: the regions near a cell, and the crop polygon."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.constants import SLIVER_AREA
from footplan.geometry import (
    ConvexPolygon2,
    GeometryError,
    Pose2,
    RigidTransform3,
    clip_area,
    clip_vertices,
    rectangle_polygon,
    rotation_z,
)
from footplan.lattice import FootstepNode, LatticeParams, Side, node_to_pose
from footplan.planner import PlannerRequest, SearchMemo, _Search, plan
from footplan.snapping import FootPolygon, SnapResult, default_foot, snap_pose
from footplan.validity import CheckerParams
from footplan.world import Environment, PlanarRegion

from test_search_memo import snap_fields
from test_snapping import recompose
from test_world import flat_region, rotation_about_y

# The default sole, one that is neither centered nor symmetric, and one whose
# origin lies on its edge.
FEET = (
    default_foot(),
    FootPolygon(ConvexPolygon2([(-0.05, -0.03), (0.2, -0.06), (0.1, 0.08)])),
    FootPolygon(rectangle_polygon(0.2, 0.1, center=(0.0, 0.05))),
)


def eager_crop(snap: SnapResult, region: PlanarRegion, foot: FootPolygon):
    """The crop polygon as every snap used to build it: the sole clipped to
    each piece, the largest clip above a sliver taken to the foot frame."""
    (l00, l01, _), (l10, l11, _), _ = snap.rotation
    det = l00 * l11 - l01 * l10
    if det <= 0.0:
        return None
    best, best_area = None, 0.0
    for piece in region.projected_pieces:
        clipped = clip_vertices(snap.sole, piece)
        area = clip_area(clipped)
        if area > best_area:
            best, best_area = clipped, area
    if best is None or best_area <= SLIVER_AREA:
        return None
    x, y = snap.x, snap.y
    foot_frame = [
        ((l11 * (px - x) - l01 * (py - y)) / det, (l00 * (py - y) - l10 * (px - x)) / det)
        for px, py in best
    ]
    try:
        return ConvexPolygon2(foot_frame)
    except GeometryError:
        return None


@st.composite
def worlds(draw):
    """One to four regions around the origin, flat, tilted or vertical, each
    of one or two touching pieces; they often overlap in plan view."""
    regions = []
    for region_id in range(draw(st.integers(1, 4))):
        yaw = draw(st.floats(-math.pi, math.pi))
        kind = draw(st.sampled_from(("flat", "tilted", "vertical")))
        if kind == "flat":
            rotation = np.array(rotation_z(yaw))
        elif kind == "tilted":
            rotation = recompose(yaw, draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6)))
        else:
            rotation = np.array(rotation_z(yaw)) @ rotation_about_y(math.pi / 2.0)
        center = np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
                           draw(st.floats(-0.3, 0.3))])
        width = draw(st.floats(0.1, 0.9))
        left = draw(st.floats(0.1, 0.9))
        pieces = [rectangle_polygon(left, width, center=(-left / 2.0, 0.0))]
        if draw(st.booleans()):
            right = draw(st.floats(0.1, 0.9))
            pieces.append(rectangle_polygon(right, width, center=(right / 2.0, 0.0)))
        regions.append(PlanarRegion(region_id, RigidTransform3(rotation, center), pieces))
    return Environment(regions)


lattices = st.builds(
    lambda res, count: LatticeParams(res, math.tau / count),
    st.sampled_from((0.05, 0.1)),
    st.sampled_from((4, 8, 36)),
)


@st.composite
def cell_nodes(draw, lattice):
    """Nodes of a few cells, several yaw bins and both sides in each, so most
    snaps repeat a cell."""
    cells = draw(st.lists(st.tuples(st.integers(-14, 14), st.integers(-14, 14)),
                          min_size=1, max_size=4))
    yaws = draw(st.lists(st.integers(0, lattice.yaw_count - 1), min_size=1, max_size=5))
    return [FootstepNode(x, y, yaw, side) for x, y in cells for yaw in yaws for side in Side]


@st.composite
def snap_cases(draw):
    lattice = draw(lattices)
    return draw(worlds()), lattice, draw(st.sampled_from(FEET)), draw(cell_nodes(lattice))


def request_in(env, lattice=LatticeParams(), foot=FEET[0], memo=None):
    return PlannerRequest(
        env=env,
        start_left=Pose2(-1.0, 0.125, 0.0),
        start_right=Pose2(-1.0, -0.125, 0.0),
        goal_midstance=Pose2(1.0, 0.0, 0.0),
        lattice=lattice,
        foot=foot,
        memo=memo,
    )


@settings(max_examples=150)
@given(snap_cases())
def test_a_snap_through_the_cell_table_equals_a_fresh_snap(case):
    env, lattice, foot, nodes = case
    search = _Search(request_in(env, lattice, foot))
    for node in nodes:
        got = search.snap(node)
        pose = node_to_pose(node, lattice)
        assert snap_fields(got) == snap_fields(snap_pose(pose, env, foot))
        if isinstance(got, SnapResult):
            assert got.cropped_foothold == eager_crop(got, env.region(got.region_id), foot)
    assert set(search.near) == {(node.x_index, node.y_index) for node in nodes}


@settings(max_examples=60)
@given(worlds(), worlds(), lattices, st.data())
def test_a_memo_taken_to_another_world_snaps_as_fresh(env_a, env_b, lattice, data):
    nodes = data.draw(cell_nodes(lattice))
    memo = SearchMemo()
    for env in (env_a, env_b, env_a):
        search = _Search(request_in(env, lattice, memo=memo))
        for node in nodes:
            fresh = snap_pose(node_to_pose(node, lattice), env, FEET[0])
            assert snap_fields(search.snap(node)) == snap_fields(fresh)


def test_the_cell_table_empties_with_the_world_or_params():
    env = Environment([flat_region(0, 3.0, 2.0)])
    memo = SearchMemo()
    request = request_in(env, LatticeParams(0.1, math.tau / 8), memo=memo)
    others = [
        dataclasses.replace(request, env=Environment([flat_region(0, 3.0, 2.0)])),
        dataclasses.replace(request, lattice=LatticeParams(0.05, math.tau / 8)),
        dataclasses.replace(request, foot=FEET[1]),
        dataclasses.replace(request, checker=CheckerParams(max_reach=0.45)),
    ]
    for other in others:
        plan(request)
        kept = dict(memo.regions)
        assert kept
        memo.bind(dataclasses.replace(request, goal_midstance=Pose2(0.5, 0.2, 0.0)))
        assert memo.regions == kept  # same world and params, another goal
        memo.bind(other)
        assert memo.regions == {} and memo.snaps == {}
    plan(request)
    memo.clear()
    assert memo.regions == {}
