"""Search behavior: solutions, failures, best-effort output, and determinism."""

import math

import pytest

from footplan.costing import CostParams, edge_cost
from footplan.geometry import Pose2, wrap_angle
from footplan.lattice import ExpansionParams, LatticeParams, Side, node_to_pose, pose_to_node
from footplan.planner import PlannerRequest, PlanStatus, plan
from footplan.snapping import SnapResult, default_foot, snap_pose
from footplan.validity import validate_edge
from footplan.world import Environment

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


def test_unreachable_goal_exhausts_the_island():
    env = Environment([flat_region(0, 1.0, 1.0)])
    request = make_request(env, 0.0, Pose2(3.0, 0.0, 0.0))
    result = plan(request)
    assert result.status is PlanStatus.NO_PATH_EXISTS
    assert result.steps == []


def test_timeout_returns_best_effort_progress():
    env = Environment([flat_region(0, 420.0, 2.0)])
    goal = Pose2(100.0, 0.0, 0.0)
    request = make_request(env, -100.0, goal, timeout=0.5)
    result = plan(request)
    assert result.status is PlanStatus.TIMED_OUT_BEST_EFFORT
    assert len(result.steps) >= 1

    final = result.steps[-1].snap.planar_pose
    start_gap = math.hypot(goal.x - (-100.0), goal.y)
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
