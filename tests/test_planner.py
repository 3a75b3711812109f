"""Search behavior: solutions, failures, best-effort output, and determinism."""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan import planner
from footplan.constants import BOUNDARY_SLACK
from footplan.costing import CostParams, edge_cost
from footplan.geometry import (
    Pose2,
    RigidTransform3,
    point_to_convex_distance,
    rectangle_polygon,
    wrap_angle,
)
from footplan.lattice import (
    ExpansionParams,
    LatticeParams,
    Side,
    feet_from_midstance,
    node_to_pose,
    pose_to_node,
)
from footplan.params import ParamsBundle
from footplan.planner import PlannerRequest, PlanStatus, plan
from footplan.snapping import FootPolygon, SnapResult, default_foot, snap_pose
from footplan.toolkit.generators import generate_environment
from footplan.validity import CheckerParams, validate_edge
from footplan.world import Environment, PlanarRegion

from test_snapping import recompose
from test_world import flat_region

# forward-only action box: ten children per node keeps these searches quick
NARROW = ExpansionParams(
    min_length=0.0,
    max_length=0.4,
    min_width=0.15,
    max_width=0.35,
    min_yaw_delta=0.0,
    max_yaw_delta=0.0,
)


def make_request(env, start_x, goal, **kwargs):
    return PlannerRequest(
        env=env,
        start_left=Pose2(start_x, 0.1, 0.0),
        start_right=Pose2(start_x, -0.1, 0.0),
        goal_midstance=goal,
        expansion=NARROW,
        **kwargs,
    )


def goal_foot_target(goal, side, width=0.25):
    half = width / 2.0 * (1.0 if side is Side.LEFT else -1.0)
    return (goal.x - math.sin(goal.yaw) * half, goal.y + math.cos(goal.yaw) * half)


def chain_snaps(request, result):
    """Snap results along the full path, root stance foot first."""
    root_side = Side.RIGHT if result.steps[0].side is Side.LEFT else Side.LEFT
    root_pose = request.start_left if root_side is Side.LEFT else request.start_right
    root_node = pose_to_node(root_pose, root_side, request.lattice)
    root_snap = snap_pose(node_to_pose(root_node, request.lattice), request.env, request.foot)
    assert isinstance(root_snap, SnapResult)
    return [(root_side, root_snap)] + [(s.side, s.snap) for s in result.steps]


def test_start_at_goal_needs_no_steps():
    env = Environment([flat_region(0, 2.0, 2.0)])
    request = make_request(env, 0.0, Pose2(0.0, 0.0, 0.0))
    result = plan(request)
    assert result.status is PlanStatus.FOUND_SOLUTION
    assert result.steps == []
    assert result.stats.path_cost == 0.0


def test_flat_walk_reaches_the_goal():
    env = Environment([flat_region(0, 6.0, 2.0)])
    goal = Pose2(1.0, 0.0, 0.0)
    request = make_request(env, -1.0, goal)
    result = plan(request)
    assert result.status is PlanStatus.FOUND_SOLUTION
    assert len(result.steps) >= 4

    final = result.steps[-1].snap.planar_pose
    target = goal_foot_target(goal, result.steps[-1].side)
    assert math.hypot(final.x - target[0], final.y - target[1]) <= request.goal_tolerance + 1e-9
    assert abs(wrap_angle(final.yaw - goal.yaw)) <= request.goal_tolerance_yaw + 1e-9

    assert result.stats.nodes_expanded > 0
    assert result.stats.children_considered >= result.stats.nodes_expanded
    assert 1.6 < result.stats.path_distance_m < 4.0


def test_solution_steps_alternate_sides_and_revalidate():
    env = Environment([flat_region(0, 6.0, 2.0)])
    request = make_request(env, -1.0, Pose2(1.0, 0.0, 0.0))
    result = plan(request)
    assert result.status is PlanStatus.FOUND_SOLUTION

    sides = [s.side for s in result.steps]
    for before, after in zip(sides, sides[1:]):
        assert after is not before

    chain = chain_snaps(request, result)
    total = 0.0
    for (stance_side, stance_snap), (_, swing_snap) in zip(chain, chain[1:]):
        verdict = validate_edge(
            stance_snap, swing_snap, stance_side, env, request.checker, request.foot
        )
        assert verdict is None
        total += edge_cost(stance_snap, swing_snap, stance_side, request.cost)
    assert total == pytest.approx(result.stats.path_cost, abs=1e-9)


def test_unreachable_goal_is_ruled_out_before_the_search():
    env = Environment([flat_region(0, 1.0, 1.0)])
    request = make_request(env, 0.0, Pose2(3.0, 0.0, 0.0))
    result = plan(request)
    assert result.status is PlanStatus.NO_PATH_EXISTS
    assert result.steps == []
    assert result.stats.nodes_expanded == 0
    assert result.stats.no_path_reason == "no standable region within 0.20 m of a goal foot"


def test_platform_gap_probe_answers_without_a_search():
    # the default-params 0.8 m platform gap, which used to exhaust its timeout
    env = generate_environment("platform-gap", 0)
    bundle = ParamsBundle()
    left, right = feet_from_midstance(Pose2(-0.75, 0.0, 0.0), bundle.cost.nominal_stance_width)
    result = plan(bundle.planner_request(env, left, right, Pose2(1.55, 0.0, 0.0), 1.0))
    assert result.status is PlanStatus.NO_PATH_EXISTS
    assert result.stats.nodes_expanded == 0
    assert result.stats.no_path_reason == (
        "no region chain within reach: nearest gap 0.80 m > bound 0.50 m"
    )


def platform_step_world(height):
    # in plan view the platform is one short step away from the start island
    return Environment([
        flat_region(0, 1.0, 1.0),
        flat_region(1, 1.0, 1.0, center=(1.1, 0.0), z=height),
    ])


def test_platform_above_step_height_is_ruled_out_before_the_search():
    result = plan(make_request(platform_step_world(0.5), 0.0, Pose2(1.1, 0.0, 0.0)))
    assert result.status is PlanStatus.NO_PATH_EXISTS
    assert result.stats.nodes_expanded == 0
    assert result.stats.no_path_reason == (
        "no region chain within step height: least rise 0.50 m > limit 0.35 m"
    )


def test_platform_below_step_height_is_ruled_out_before_the_search():
    result = plan(make_request(platform_step_world(-0.5), 0.0, Pose2(1.1, 0.0, 0.0)))
    assert result.status is PlanStatus.NO_PATH_EXISTS
    assert result.stats.nodes_expanded == 0
    assert result.stats.no_path_reason == (
        "no region chain within step height: least drop 0.50 m > limit 0.35 m"
    )


def test_region_check_passes_a_start_foot_already_within_the_goal_bound():
    # With 30% support a foothold center may lie a circumradius (0.123 m)
    # outside its region, so the goal bound is 0.2 + 0.123 m. The start feet
    # stand 0.05 m past the platform's edge and 0.3 m short of the goal feet:
    # inside the bound, while the platform itself lies 0.35 m from them.
    env = Environment([flat_region(0, 1.0, 1.0)])
    request = make_request(
        env, 0.55, Pose2(0.85, 0.0, 0.0), checker=CheckerParams(min_area_fraction=0.3)
    )
    starts = [
        snap_pose(node_to_pose(pose_to_node(pose, side, request.lattice), request.lattice), env,
                  request.foot)
        for pose, side in ((request.start_left, Side.LEFT), (request.start_right, Side.RIGHT))
    ]
    goals = [(p.x, p.y) for p in feet_from_midstance(request.goal_midstance, 0.25)]
    bound = request.goal_tolerance + request.foot.circumradius
    assert all(isinstance(start, SnapResult) for start in starts)
    assert min(math.hypot(s.x - gx, s.y - gy) for s in starts for gx, gy in goals) <= bound
    assert min(point_to_convex_distance(g, env.regions[0].hull_xy) for g in goals) > bound
    assert planner.no_region_chain(request, starts, goals) is None


def test_platform_within_step_height_is_searched_and_reached():
    result = plan(make_request(platform_step_world(0.3), 0.0, Pose2(1.1, 0.0, 0.0)))
    assert result.status is PlanStatus.FOUND_SOLUTION
    assert result.stats.nodes_expanded > 0
    assert result.stats.no_path_reason is None
    assert result.steps[-1].snap.region_id == 1
    assert result.steps[-1].snap.z == pytest.approx(0.3)


def test_timeout_returns_best_effort_progress():
    # 200 km of 0.4 m strides is half a million expansions, far more than
    # any machine makes in the half-second timeout
    env = Environment([flat_region(0, 200_020.0, 2.0)])
    goal = Pose2(100_000.0, 0.0, 0.0)
    request = make_request(env, -100_000.0, goal, timeout=0.5)
    result = plan(request)
    assert result.status is PlanStatus.TIMED_OUT_BEST_EFFORT
    assert len(result.steps) >= 1

    final = result.steps[-1].snap.planar_pose
    start_gap = math.hypot(goal.x - (-100_000.0), goal.y)
    final_gap = math.hypot(goal.x - final.x, goal.y - final.y)
    assert final_gap < start_gap

    chain = chain_snaps(request, result)
    for (stance_side, stance_snap), (_, swing_snap) in zip(chain, chain[1:]):
        assert (
            validate_edge(stance_snap, swing_snap, stance_side, env, request.checker, request.foot)
            is None
        )


def test_tracker_history_is_monotone_non_increasing():
    env = Environment([flat_region(0, 6.0, 2.0)])
    request = make_request(env, -1.0, Pose2(1.0, 0.0, 0.0))
    result = plan(request)
    history = result.tracker_history
    assert history
    for before, after in zip(history, history[1:]):
        assert after <= before + 1e-12


def test_start_off_the_map_is_invalid():
    env = Environment([flat_region(0, 1.0, 1.0)])
    request = make_request(env, 5.0, Pose2(0.0, 0.0, 0.0))
    result = plan(request)
    assert result.status is PlanStatus.INVALID_START
    assert result.steps == []


def test_identical_requests_plan_identically():
    env = Environment([flat_region(0, 6.0, 2.0)])
    first = plan(make_request(env, -1.0, Pose2(1.0, 0.0, 0.0)))
    second = plan(make_request(env, -1.0, Pose2(1.0, 0.0, 0.0)))
    assert first.status is second.status

    def signature(result):
        return [
            (s.side, s.snap.planar_pose.x, s.snap.planar_pose.y, s.snap.planar_pose.yaw)
            for s in result.steps
        ]

    assert signature(first) == signature(second)
    assert first.stats.path_cost == second.stats.path_cost
    assert first.stats.nodes_expanded == second.stats.nodes_expanded


def test_request_validation():
    env = Environment([flat_region(0, 1.0, 1.0)])
    for timeout in (0.0, float("nan")):
        with pytest.raises(ValueError):
            PlannerRequest(
                env=env,
                start_left=Pose2(0.0, 0.1, 0.0),
                start_right=Pose2(0.0, -0.1, 0.0),
                goal_midstance=Pose2(0.0, 0.0, 0.0),
                timeout=timeout,
            )
    with pytest.raises(ValueError):
        PlannerRequest(
            env=env,
            start_left=Pose2(0.0, 0.1, 0.0),
            start_right=Pose2(0.0, -0.1, 0.0),
            goal_midstance=Pose2(0.0, 0.0, 0.0),
            goal_tolerance=-0.1,
        )


def test_larger_per_step_charge_prefers_fewer_steps():
    env = Environment([flat_region(0, 6.0, 2.0)])
    cheap = plan(make_request(env, -1.0, Pose2(1.0, 0.0, 0.0), cost=CostParams(cost_per_step=0.01)))
    dear = plan(make_request(env, -1.0, Pose2(1.0, 0.0, 0.0), cost=CostParams(cost_per_step=1.0)))
    assert cheap.status is PlanStatus.FOUND_SOLUTION
    assert dear.status is PlanStatus.FOUND_SOLUTION
    assert len(dear.steps) <= len(cheap.steps)


def test_trench_crossing_depends_on_reach():
    def trench_world(half_gap):
        length = 1.0 - half_gap
        left = flat_region(0, length, 1.2, center=(-(half_gap + length / 2.0), 0.0))
        right = flat_region(1, length, 1.2, center=(half_gap + length / 2.0, 0.0))
        return Environment([left, right])

    goal = Pose2(0.7, 0.0, 0.0)
    # a 0.2 m trench is within the 0.4 m stride
    crossed = plan(make_request(trench_world(0.1), -0.7, goal))
    assert crossed.status is PlanStatus.FOUND_SOLUTION
    xs = [s.snap.planar_pose.x for s in crossed.steps]
    assert max(xs) > 0.2

    # a 0.5 m trench is not: no foothold pair spans it
    blocked = plan(make_request(trench_world(0.25), -0.7, goal))
    assert blocked.status is PlanStatus.NO_PATH_EXISTS


def test_support_below_one_half_lets_feet_overhang_a_gap_wider_than_the_reach():
    # with 30% support each foot center may sit 0.044 m past its platform's
    # edge, so a 0.32 m gap is crossed with a 0.3 m reach
    env = Environment([flat_region(0, 0.6, 0.8), flat_region(1, 0.6, 0.8, center=(0.92, 0.0))])
    request = PlannerRequest(
        env=env,
        start_left=Pose2(0.0, 0.1, 0.0),
        start_right=Pose2(0.0, -0.1, 0.0),
        goal_midstance=Pose2(1.02, 0.0, 0.0),
        lattice=LatticeParams(xy_resolution=0.05, yaw_resolution=math.tau / 4),
        expansion=replace(NARROW, min_width=0.0),
        checker=CheckerParams(min_area_fraction=0.3, max_reach=0.3),
    )
    result = plan(request)
    assert result.status is PlanStatus.FOUND_SOLUTION
    assert max(step.snap.x for step in result.steps) > 0.62


def test_region_check_keeps_a_request_solvable_at_its_bounds():
    # 50.5% support lets a foot center sit 1.1 mm inside an edge. The lattice
    # puts centers 2 mm inside both edges of a 0.296 m gap, 0.3 m apart, and
    # the goal foot lies 0.188 m past the far platform, 0.19 m from a center.
    env = Environment([
        flat_region(0, 0.602, 0.8, center=(0.001, 0.0)),
        flat_region(1, 0.404, 0.8, center=(0.8, 0.0)),
    ])
    request = PlannerRequest(
        env=env,
        start_left=Pose2(0.0, 0.1, 0.0),
        start_right=Pose2(0.0, -0.1, 0.0),
        goal_midstance=Pose2(1.19, 0.0, 0.0),
        lattice=LatticeParams(xy_resolution=0.05, yaw_resolution=math.tau / 4),
        expansion=replace(NARROW, min_width=0.0),
        checker=CheckerParams(min_area_fraction=0.505, max_reach=0.3),
    )
    result = plan(request)
    assert result.status is PlanStatus.FOUND_SOLUTION
    assert [step.snap.region_id for step in result.steps][:2] == [0, 1]


def bridged_gap(*bridge):
    """Two 1 x 1 m platforms 1.2 m apart with the `bridge` regions between
    them, and a default-params request from one to the other."""
    platforms = [flat_region(0, 1.0, 1.0), flat_region(1, 1.0, 1.0, center=(2.2, 0.0))]
    return PlannerRequest(
        env=Environment(platforms + list(bridge)),
        start_left=Pose2(0.0, 0.125, 0.0),
        start_right=Pose2(0.0, -0.125, 0.0),
        goal_midstance=Pose2(2.2, 0.0, 0.0),
        timeout=3.0,
    )


def tilted_region(region_id, length, width, center, roll=0.0) -> PlanarRegion:
    transform = RigidTransform3(recompose(0.0, 0.0, roll), np.array([*center, 0.0]))
    return PlanarRegion(region_id, transform, [rectangle_polygon(length, width)])


# Three 6 x 6 cm stones, too small for the foot, and a 0.3 m strip rolled 60
# degrees, too steep: each links the platforms for the region check alone.
UNSTANDABLE_BRIDGES = {
    "stones": [flat_region(2 + i, 0.06, 0.06, center=(0.8 + 0.3 * i, 0.0)) for i in range(3)],
    "strip": [tilted_region(2, 1.2, 0.3, (1.1, 0.0), roll=math.radians(60.0))],
}


@pytest.mark.parametrize("bridge", sorted(UNSTANDABLE_BRIDGES))
def test_a_gap_bridged_only_by_unstandable_regions_has_no_path_at_once(bridge):
    result = plan(bridged_gap(*UNSTANDABLE_BRIDGES[bridge]))
    assert result.status is PlanStatus.NO_PATH_EXISTS
    assert result.stats.nodes_expanded == 0
    kind = "too small for the foot" if bridge == "stones" else "too steep"
    assert result.stats.no_path_reason.endswith(kind)


@pytest.mark.parametrize("bridge", sorted(UNSTANDABLE_BRIDGES))
def test_the_command_line_answers_an_unstandable_bridge_with_exit_3(bridge, tmp_path):
    from footplan.toolkit.cli import main as cli_main
    from footplan.world import environment_to_json

    env_path, out_path = tmp_path / "env.json", tmp_path / "plan.json"
    env_path.write_text(environment_to_json(bridged_gap(*UNSTANDABLE_BRIDGES[bridge]).env))
    argv = ["plan", "--env", str(env_path), "--start", "0,0,0", "--goal", "2.2,0,0",
            "--timeout", "3", "--out", str(out_path)]
    assert cli_main(argv) == 3
    stats = json.loads(out_path.read_text())["stats"]
    assert stats["nodes_expanded"] == 0
    assert "left out" in stats["no_path_reason"]


# Bridges at the edge of standable for the default checker and foot, over a
# 0.6 m gap that the 0.5 m reach cannot cross. A foot centered on the bridge
# at (0.3, 0) holds all of it but for the narrow stone, whose long edges lie
# half a BOUNDARY_SLACK inside the sole's: the clip keeps the sole's corners
# there. SUPPORT is the least area a flat foothold may keep.
FOOT_AREA = default_foot().sole.area
SUPPORT = (CheckerParams().min_area_fraction - BOUNDARY_SLACK) * FOOT_AREA
MAX_INCLINE = CheckerParams().max_incline


def stone(length, width, roll=0.0) -> PlanarRegion:
    return tilted_region(2, length, width, (0.3, 0.0), roll)


def gap_request(bridge) -> PlannerRequest:
    return PlannerRequest(
        env=Environment([
            flat_region(0, 0.6, 0.8, center=(-0.3, 0.0)),
            bridge,
            flat_region(1, 0.6, 0.8, center=(0.9, 0.0)),
        ]),
        start_left=Pose2(-0.1, 0.1, 0.0),
        start_right=Pose2(-0.1, -0.1, 0.0),
        goal_midstance=Pose2(0.9, 0.0, 0.0),
        lattice=LatticeParams(xy_resolution=0.05, yaw_resolution=math.tau / 4),
        expansion=replace(NARROW, min_width=0.0),
    )


STANDABLE_BRIDGES = {
    # tilted within the check's slack
    "ramp": stone(0.3, 0.3, roll=MAX_INCLINE + 0.5e-9),
    # its area is below SUPPORT, but the clip keeps the sole's full width
    "narrow stone": stone((SUPPORT + 5e-11) / 0.11, 0.11 - BOUNDARY_SLACK),
    # rolled 30 degrees: its plan-view area is 0.69 of the sole's, and the
    # tilted sole's plan view shrinks by the same factor
    "tilted stone": stone(0.2, 0.8 * FOOT_AREA / 0.2, roll=math.radians(30.0)),
}
# Just past the edge: even with BOUNDARY_SLACK all round, the stone keeps
# 1e-10 m^2 less than SUPPORT.
HAIR_WIDTH = (SUPPORT - 1e-10 - 2.0 * BOUNDARY_SLACK * 0.2) / (0.2 + 2.0 * BOUNDARY_SLACK)
UNSTANDABLE_BY_A_HAIR = {
    "ramp": stone(0.3, 0.3, roll=MAX_INCLINE + 1.5e-9),
    "stone": stone(0.2, HAIR_WIDTH),
}


@pytest.mark.parametrize("bridge", sorted(STANDABLE_BRIDGES))
def test_a_bridge_at_the_edge_of_standable_stays_in_the_region_check(bridge):
    request = gap_request(STANDABLE_BRIDGES[bridge])
    result = plan(request)
    assert result.status is PlanStatus.FOUND_SOLUTION, result.stats.no_path_reason
    assert 2 in [step.snap.region_id for step in result.steps]
    assert plan(replace(request, env=request.env.without_region(2))).status is (
        PlanStatus.NO_PATH_EXISTS
    )


@pytest.mark.parametrize("bridge", sorted(UNSTANDABLE_BY_A_HAIR))
def test_a_bridge_just_past_the_edge_of_standable_is_left_out(bridge):
    result = plan(gap_request(UNSTANDABLE_BY_A_HAIR[bridge]))
    assert result.status is PlanStatus.NO_PATH_EXISTS
    assert result.stats.nodes_expanded == 0
    assert "; left out 1 region" in result.stats.no_path_reason


@st.composite
def stone_bridges(draw):
    """A request whose only bridge over a gap wider than the reach is one
    stone at the area bound, flat or rolled, in reach of a start foot.

    As with the fixed narrow stone, a sole centered on the stone's lattice
    point overhangs the stone's long edges by half a BOUNDARY_SLACK in plan
    view, so the clip keeps the sole's full width, and the stone's length
    sets the foothold's support to (min_area_fraction - BOUNDARY_SLACK) x
    (1 + jitter), jitter within +-1e-9. Only `_unstandable`'s perimeter
    allowance keeps such a stone, and for a rolled one its normal z factor.
    """
    sole_length, sole_width = draw(st.floats(0.1, 0.18)), draw(st.floats(0.06, 0.12))
    foot = FootPolygon(rectangle_polygon(sole_length, sole_width))
    fraction = draw(st.floats(0.55, 0.9))
    reach = draw(st.sampled_from((0.25, 0.3, 0.35, 0.4)))
    roll = draw(st.one_of(st.just(0.0), st.floats(0.1, 0.6)))
    jitter = draw(st.sampled_from((1e-9, 5e-10, -5e-10, -1e-9)))
    length = (fraction - BOUNDARY_SLACK) * sole_length * (1.0 + jitter)
    width = sole_width - BOUNDARY_SLACK / math.cos(roll)
    # a lattice point within reach of a start foot at (0, +-0.1)
    center = draw(st.integers(4, math.floor(math.sqrt(reach**2 - 0.01) / 0.05))) * 0.05
    shift = draw(st.floats(-0.9, 0.9)) * (sole_length - length) / 2.0
    # past the reach from the start platform's edge at 0.05, clear of a foot on the stone
    near_edge = max(0.06 + reach, center + sole_length / 2.0 + 0.01)
    return PlannerRequest(
        env=Environment([
            flat_region(0, 0.55, 0.6, center=(-0.225, 0.0)),
            tilted_region(2, length, width, (center + shift, 0.0), roll),
            flat_region(1, 0.6, 0.6, center=(near_edge + 0.3, 0.0)),
        ]),
        start_left=Pose2(0.0, 0.1, 0.0),
        start_right=Pose2(0.0, -0.1, 0.0),
        goal_midstance=Pose2(near_edge + 0.3, 0.0, 0.0),
        timeout=30.0,
        lattice=LatticeParams(xy_resolution=0.05, yaw_resolution=math.tau / 4),
        expansion=replace(NARROW, min_width=0.0),
        checker=CheckerParams(min_area_fraction=fraction, max_reach=reach),
        foot=foot,
    )


@st.composite
def region_worlds(draw):
    """A plan request along a chain of 1-4 regions: a start platform, then
    tilted, multi-piece or wall regions whose gaps lie near the step reach
    and whose heights are often near the step height limits, a symmetric or
    lopsided sole and a support fraction on either side of one half. Flat
    edges and gaps often fall on the lattice, so footholds can sit right at
    an edge. Some regions are tilted, or small, to within 1e-9 of the most a
    foothold may be (`check_incline`) or the least it may keep
    (`check_area`). One draw in five is a `stone_bridges` request instead."""
    if draw(st.integers(0, 4)) == 0:
        return draw(stone_bridges())
    sole_length, sole_width = draw(st.floats(0.1, 0.25)), draw(st.floats(0.06, 0.12))
    shift = 0.0 if draw(st.booleans()) else draw(st.floats(-0.3, 0.3)) * sole_length
    foot = FootPolygon(rectangle_polygon(sole_length, sole_width, center=(shift, 0.0)))
    fraction = draw(st.one_of(st.floats(0.3, 0.5), st.floats(0.501, 0.55), st.floats(0.55, 0.9)))
    near = st.sampled_from((-1e-9, -5e-10, 0.0, 5e-10, 1e-9, 1.5e-9, 2e-8, 0.2))
    grid = st.integers(2, 10).map(lambda k: 0.05 * k)
    reach = draw(st.sampled_from((0.25, 0.3, 0.35, 0.4)))
    first = 0.1 * draw(st.integers(2, 6))
    regions = [flat_region(0, first, draw(st.floats(0.3, 0.6)))]
    edge = first / 2.0
    for region_id in range(1, draw(st.integers(1, 4))):
        width, left = draw(st.floats(0.1, 0.8)), draw(grid)
        if draw(st.integers(0, 4)) == 0:  # small: its area near the least that passes
            left = draw(st.floats(0.5, 1.0)) * sole_length
            area = (fraction - BOUNDARY_SLACK) * foot.sole.area * (1.0 - draw(near))
            width = area / left
        pieces = [rectangle_polygon(left, width, center=(-left / 2.0, 0.0))]
        length = left
        if draw(st.booleans()):
            right = draw(grid)
            pieces.append(rectangle_polygon(right, width, center=(right / 2.0, 0.0)))
            length += right
        offset = draw(st.one_of(st.sampled_from((-0.05, 0.0, 0.05)), st.floats(-0.1, 0.2)))
        x = edge + reach + offset + length / 2.0
        z = draw(st.one_of(st.floats(-0.1, 0.1), st.floats(-0.6, 0.6)))
        center = np.array([x, draw(st.floats(-0.2, 0.2)), z])
        kind = draw(st.integers(0, 9))
        if kind <= 1:
            rotation = recompose(draw(st.floats(-math.pi, math.pi)), math.pi / 2.0, 0.0)
        else:
            tilt = st.one_of(st.just(0.0), st.floats(-0.4, 0.4))
            yaw = draw(st.sampled_from((0.0, math.pi / 2.0)))
            if kind == 2:  # steep: its tilt near the most that passes
                rotation = recompose(yaw, MAX_INCLINE + draw(near), 0.0)
            else:
                rotation = recompose(yaw, draw(tilt), draw(tilt))
            edge = x + length / 2.0
        regions.append(PlanarRegion(region_id, RigidTransform3(rotation, center), pieces))
    up, down = draw(st.sampled_from((0.25, 0.35))), draw(st.sampled_from((0.25, 0.35)))
    goal = Pose2(edge - draw(st.floats(0.0, 0.3)), draw(st.floats(-0.4, 0.4)), 0.0)
    return PlannerRequest(
        env=Environment(regions),
        start_left=Pose2(0.0, 0.1, 0.0),
        start_right=Pose2(0.0, -0.1, 0.0),
        goal_midstance=goal,
        timeout=30.0,
        lattice=LatticeParams(xy_resolution=0.05, yaw_resolution=math.tau / 4),
        # straight-ahead steps, so the reach rather than the stance width binds
        expansion=replace(NARROW, min_width=0.0),
        checker=CheckerParams(
            min_area_fraction=fraction, max_reach=reach, max_step_up=up, max_step_down=down
        ),
        foot=foot,
    )


@settings(max_examples=375)
@given(region_worlds())
def test_region_check_rules_out_only_requests_the_search_cannot_solve(request):
    # the check's inputs exactly as `plan` builds them
    starts = [
        snap_pose(
            node_to_pose(pose_to_node(pose, side, request.lattice), request.lattice),
            request.env,
            request.foot,
        )
        for pose, side in ((request.start_left, Side.LEFT), (request.start_right, Side.RIGHT))
    ]
    goals = feet_from_midstance(request.goal_midstance, request.cost.nominal_stance_width)
    if planner.no_region_chain(request, starts, [(p.x, p.y) for p in goals]) is None:
        return
    with mock.patch.object(planner, "no_region_chain", return_value=None):
        eager = plan(request)
    assert eager.status is PlanStatus.NO_PATH_EXISTS
