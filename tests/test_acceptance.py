"""Acceptance gate: nine numbered end-to-end criteria, one verdict line each."""

import heapq
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

from footplan.constants import QP_KKT_TOL
from footplan.costing import CostParams, edge_cost
from footplan.geometry import (
    Pose2,
    RigidTransform3,
    rectangle_polygon,
    rotation_z,
    wrap_angle,
)
from footplan.lattice import (
    ExpansionParams,
    LatticeParams,
    Side,
    expand_node,
    midstance_pose,
    node_to_pose,
    pose_to_node,
)
from footplan.params import load_params
from footplan.planner import PlannerRequest, PlanStatus, PlanStep, plan
from footplan.snapping import SnapFailure, SnapResult, default_foot, snap_node, snap_pose
from footplan.toolkit.generators import generate_environment
from footplan.toolkit.scenario import load_scenario_script, run_anytime_scenario
from footplan.validity import CheckerParams, check_body_box, validate_edge
from footplan.wiggle import WiggleParams, kkt_residual, solve_qp3, wiggle_step
from footplan.world import Environment, PlanarRegion, environment_to_dict

from test_geometry import min_inside_distance, random_convex_polygon
from test_wiggle import build_wiggle_qp

FOOT = default_foot()

# Pinned verdict thresholds.
OPTIMALITY_INSTANCES = 20
OPTIMALITY_BUDGET_S = 10.0
SUBOPTIMALITY_FACTOR = 1.5
SUBOPTIMALITY_MARGIN = 1e-9
QP_CASES = 100
QP_OBJECTIVE_MARGIN = 1e-9
IDEMPOTENCE_CASES = 25
IDEMPOTENCE_TOL = 1e-9
MARGIN_SHORTFALL_TOL = 1e-6
BEAM_TIME_BUDGET_S = 2.0
REJECTION_BAND = (0.05, 0.40)
BREADTH_BAND = (400, 800)
TRACKER_TOL = 1e-12
SIDEWAYS_YAW_MIN = math.radians(45.0)


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def flat(region_id, length, width, center=(0.0, 0.0), z=0.0):
    pose = RigidTransform3(rotation_z(0.0), np.array([center[0], center[1], z]))
    return PlanarRegion(region_id, pose, [rectangle_polygon(length, width)])


def foothold_pose(snap):
    """Oracle helper: the snapped foothold as a validated rigid transform."""
    return RigidTransform3(snap.rotation, snap.center)


def sole_vertices_world(snap):
    pose = foothold_pose(snap)
    rotation = np.array(pose.rotation)[:2, :2]
    offset = np.array(pose.translation)[:2]
    return [tuple(rotation @ (u, v) + offset) for u, v in FOOT.sole.vertices]


def step_pose(step):
    return Pose2(float(step.snap.center[0]), float(step.snap.center[1]), step.snap.yaw)


# ---------------------------------------------------------------------------
# 1. Inflation 1.0 reproduces uniform-cost optima, 1.5 stays within the factor

LATTICE_COARSE = LatticeParams(0.1, math.tau / 4)
EXPANSION_FORWARD = ExpansionParams(0.0, 0.4, 0.15, 0.35, 0.0, 0.0)


def step_count_cost(inflation):
    # zero term weights make every edge cost exactly one step charge
    return CostParams(
        w_distance=0.0,
        w_height=0.0,
        w_yaw=0.0,
        w_area=0.0,
        w_roll_pitch=0.0,
        cost_per_step=0.3,
        inflation=inflation,
        max_step_length_for_heuristic=0.55,
    )


def uniform_cost_optimum(env, start_left, start_right, goal, tolerance, tolerance_yaw, cost):
    """Heuristic-free best-first twin of the search, sharing one snap cache."""
    half = cost.nominal_stance_width / 2.0
    cos_y, sin_y = math.cos(goal.yaw), math.sin(goal.yaw)
    targets = {
        Side.LEFT: Pose2(goal.x - sin_y * half, goal.y + cos_y * half, goal.yaw),
        Side.RIGHT: Pose2(goal.x + sin_y * half, goal.y - cos_y * half, goal.yaw),
    }
    snaps = {}

    def snap(node):
        if node not in snaps:
            snaps[node] = snap_node(node, LATTICE_COARSE, env, FOOT)
        return snaps[node]

    checker = CheckerParams()
    g, closed, frontier, seq = {}, set(), [], 0
    for node in (
        pose_to_node(start_left, Side.LEFT, LATTICE_COARSE),
        pose_to_node(start_right, Side.RIGHT, LATTICE_COARSE),
    ):
        assert not isinstance(snap(node), SnapFailure)
        g[node] = 0.0
        heapq.heappush(frontier, (0.0, seq, node))
        seq += 1
    while frontier:
        node_g, _, node = heapq.heappop(frontier)
        if node in closed:
            continue
        closed.add(node)
        pose = node_to_pose(node, LATTICE_COARSE)
        target = targets[node.side]
        if (
            math.hypot(pose.x - target.x, pose.y - target.y) <= tolerance + 1e-12
            and abs(wrap_angle(pose.yaw - target.yaw)) <= tolerance_yaw + 1e-12
        ):
            return node_g
        parent_snap = snap(node)
        for child in expand_node(node, LATTICE_COARSE, EXPANSION_FORWARD):
            if child in closed:
                continue
            child_snap = snap(child)
            if validate_edge(parent_snap, child_snap, node.side, env, checker, FOOT) is not None:
                continue
            candidate = node_g + edge_cost(parent_snap, child_snap, node.side, cost)
            if candidate < g.get(child, math.inf):
                g[child] = candidate
                heapq.heappush(frontier, (candidate, seq, child))
                seq += 1
    return None


def test_criterion_1_inflated_search_against_uniform_cost_twin():
    rng = random.Random(20260816)
    failures = []
    start_time = time.monotonic()
    for index in range(OPTIMALITY_INSTANCES):
        length = rng.choice([1.2, 1.4, 1.6, 1.8, 2.0])
        width = rng.choice([1.0, 1.2, 1.4, 1.6])

        def grid(value):
            return round(value / 0.1) * 0.1

        start_y = grid(rng.uniform(-(width / 2 - 0.35), width / 2 - 0.35))
        goal_y = grid(rng.uniform(-(width / 2 - 0.35), width / 2 - 0.35))
        start_x, goal_x = grid(-(length / 2 - 0.3)), grid(length / 2 - 0.3)
        env = Environment([flat(0, length, width)])
        start_left = Pose2(start_x, start_y + 0.125, 0.0)
        start_right = Pose2(start_x, start_y - 0.125, 0.0)
        goal = Pose2(goal_x, goal_y, 0.0)
        optimum = uniform_cost_optimum(
            env, start_left, start_right, goal, 0.05, 0.3, step_count_cost(1.0)
        )
        if optimum is None:
            failures.append(f"instance {index}: no route")
            continue
        results = {}
        for inflation in (1.0, SUBOPTIMALITY_FACTOR):
            request = PlannerRequest(
                env=env,
                start_left=start_left,
                start_right=start_right,
                goal_midstance=goal,
                goal_tolerance=0.05,
                lattice=LATTICE_COARSE,
                expansion=EXPANSION_FORWARD,
                cost=step_count_cost(inflation),
            )
            results[inflation] = plan(request)
        exact = results[1.0].stats.path_cost
        bounded = results[SUBOPTIMALITY_FACTOR].stats.path_cost
        if results[1.0].status is not PlanStatus.FOUND_SOLUTION:
            failures.append(f"instance {index}: inflation 1.0 {results[1.0].status.value}")
        elif exact != optimum:
            failures.append(f"instance {index}: cost {exact} != optimum {optimum}")
        if results[SUBOPTIMALITY_FACTOR].status is not PlanStatus.FOUND_SOLUTION:
            failures.append(
                f"instance {index}: inflation 1.5 {results[SUBOPTIMALITY_FACTOR].status.value}"
            )
        elif bounded > SUBOPTIMALITY_FACTOR * optimum + SUBOPTIMALITY_MARGIN:
            failures.append(f"instance {index}: cost {bounded} exceeds 1.5 x {optimum}")
    elapsed = time.monotonic() - start_time
    if elapsed >= OPTIMALITY_BUDGET_S:
        failures.append(f"took {elapsed:.2f}s, budget {OPTIMALITY_BUDGET_S}s")
    report(
        1,
        not failures,
        "; ".join(failures)
        or f"{OPTIMALITY_INSTANCES} instances exact at 1.0 and bounded at 1.5 in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Adjustment QPs certify optimality; the step adjuster is idempotent


def test_criterion_2_adjustment_qps_certified_and_idempotent():
    rng = random.Random(97)
    failures = []
    solved = 0
    while solved < QP_CASES:
        piece = random_convex_polygon(rng, radius=rng.uniform(0.3, 0.6), sides=rng.randrange(4, 8))
        center_x, center_y = piece.centroid()
        angle = rng.uniform(0.0, math.tau)
        reach = rng.uniform(0.0, 0.25)
        sole = rectangle_polygon(
            0.06, 0.04, center=(center_x + reach * math.cos(angle), center_y + reach * math.sin(angle))
        )
        params = WiggleParams(inset_distance=0.005, max_translation=0.05)
        qp = build_wiggle_qp(sole, piece, params)
        q = solve_qp3(qp)
        if q is None:
            continue
        solved += 1
        residual = kkt_residual(qp, q)
        if residual > QP_KKT_TOL:
            failures.append(f"case {solved}: kkt {residual:.2e}")
        axes = [np.linspace(qp.lower[i], qp.upper[i], 21) for i in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        feasible = grid[np.all(qp.rows @ grid.T <= qp.rhs[:, None] + 1e-9, axis=0)]
        if len(feasible):
            grid_best = float(np.min(np.einsum("ij,jk,ik->i", feasible, qp.weights, feasible)))
            objective = float(q @ qp.weights @ q)
            if objective > grid_best + QP_OBJECTIVE_MARGIN:
                failures.append(f"case {solved}: objective {objective:.3e} > grid {grid_best:.3e}")

    settled = 0
    for index in range(IDEMPOTENCE_CASES):
        length = rng.uniform(0.34, 0.60)
        width = rng.uniform(0.23, 0.50)
        # keep the needed shift under the translation cap so the full inset solves
        slack_x = length / 2 - 0.11 - 0.02
        slack_y = width / 2 - 0.055 - 0.02
        pose = Pose2(
            rng.uniform(-(slack_x + 0.015), slack_x + 0.015),
            rng.uniform(-(slack_y + 0.015), slack_y + 0.015),
            0.0,
        )
        env = Environment([flat(0, length, width)])
        snap = snap_pose(pose, env, FOOT)
        assert isinstance(snap, SnapResult)
        params = WiggleParams()
        first = wiggle_step(PlanStep(Side.LEFT, snap), env, FOOT, params)
        if first.inset_used != params.inset_distance:
            failures.append(f"settle {index}: inset {first.inset_used}")
            continue
        second = wiggle_step(first.step, env, FOOT, params)
        shift = math.hypot(*second.translation)
        if shift > IDEMPOTENCE_TOL or abs(second.rotation) > IDEMPOTENCE_TOL:
            failures.append(f"settle {index}: moved again {shift:.2e}")
        else:
            settled += 1
    report(
        2,
        not failures,
        "; ".join(failures)
        or f"{solved} QPs within kkt {QP_KKT_TOL:g} and grid margin, {settled} idempotent",
    )


# ---------------------------------------------------------------------------
# 3. A foothold short of the safety margin is pushed past it


def test_criterion_3_shallow_foothold_regains_margin():
    margin = 0.02
    plate = flat(0, 0.30, 0.154, center=(0.0, 0.015))
    env = Environment([plate])
    outline = [(0.15, 0.092), (-0.15, 0.092), (-0.15, -0.062), (0.15, -0.062)]
    snap = snap_pose(Pose2(0.0, 0.0, 0.0), env, FOOT)
    assert isinstance(snap, SnapResult)
    before = min(min_inside_distance(v, outline) for v in sole_vertices_world(snap))
    outcome = wiggle_step(PlanStep(Side.LEFT, snap), env, FOOT, WiggleParams(inset_distance=margin))
    after = min(min_inside_distance(v, outline) for v in sole_vertices_world(outcome.step.snap))
    failures = []
    if not before < margin:
        failures.append(f"pre-adjust margin {before:.4f} not short of {margin}")
    if outcome.inset_used != margin:
        failures.append(f"inset used {outcome.inset_used}")
    if after < margin - MARGIN_SHORTFALL_TOL:
        failures.append(f"post-adjust margin {after:.6f} below {margin}")
    report(3, not failures, "; ".join(failures) or f"margin {before:.4f} -> {after:.4f}")


# ---------------------------------------------------------------------------
# 4. A beam crossing is found by accepting partial footholds


def test_criterion_4_beam_crossing_uses_partial_footholds():
    env = generate_environment("beam", 7)
    request = PlannerRequest(
        env=env,
        start_left=Pose2(-0.75, 0.125, 0.0),
        start_right=Pose2(-0.75, -0.125, 0.0),
        goal_midstance=Pose2(3.75, 0.0, 0.0),
        lattice=LATTICE_COARSE,
        expansion=ExpansionParams(0.0, 0.45, 0.0, 0.30, 0.0, 0.0),
        checker=CheckerParams(min_area_fraction=0.70),
    )
    result = plan(request)
    fractions = [step.snap.area_fraction for step in result.steps]
    failures = []
    if result.status is not PlanStatus.FOUND_SOLUTION:
        failures.append(f"status {result.status.value}")
    if not 6 <= len(result.steps) <= 14:
        failures.append(f"{len(result.steps)} steps")
    if not any(fraction < 0.75 for fraction in fractions):
        failures.append("no partial foothold")
    if result.stats.duration_s >= BEAM_TIME_BUDGET_S:
        failures.append(f"{result.stats.duration_s:.2f}s")
    report(
        4,
        not failures,
        "; ".join(failures)
        or f"{len(result.steps)} steps, min fraction {min(fractions):.4f}, "
        f"{result.stats.duration_s:.3f}s",
    )


# ---------------------------------------------------------------------------
# 5. Default expansion on open flat ground rejects a moderate share


def test_criterion_5_flat_ground_rejection_share():
    bundle = load_params({})
    env = Environment([flat(0, 6.0, 6.0)])
    node = pose_to_node(Pose2(0.0, -0.125, 0.0), Side.RIGHT, bundle.lattice)
    parent = snap_node(node, bundle.lattice, env, bundle.foot)
    assert isinstance(parent, SnapResult)
    children = expand_node(node, bundle.lattice, bundle.expansion)
    rejected = 0
    for child in children:
        child_snap = snap_node(child, bundle.lattice, env, bundle.foot)
        if validate_edge(parent, child_snap, node.side, env, bundle.checker, bundle.foot) is not None:
            rejected += 1
    share = rejected / len(children)
    low, high = REJECTION_BAND
    report(
        5,
        low <= share <= high,
        f"{rejected}/{len(children)} rejected ({share:.1%}), band {low:.0%}..{high:.0%}",
    )


# ---------------------------------------------------------------------------
# 6. Default expansion breadth stays in the expected band


def test_criterion_6_default_expansion_breadth():
    bundle = load_params({})
    counts = {}
    for side in (Side.LEFT, Side.RIGHT):
        node = pose_to_node(Pose2(0.0, -side.mirror_sign * 0.125, 0.0), side, bundle.lattice)
        counts[side] = len(expand_node(node, bundle.lattice, bundle.expansion))
    low, high = BREADTH_BAND
    ok = all(low <= count <= high for count in counts.values())
    ok = ok and counts[Side.LEFT] == counts[Side.RIGHT]
    report(6, ok, f"children {counts[Side.LEFT]}/{counts[Side.RIGHT]}, band {low}..{high}")


# ---------------------------------------------------------------------------
# 7. Replanning re-verifies each plan and routes around inserted regions

WALL_ROTATION = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_criterion_7_replanning_verifies_and_avoids_inserted_region():
    ground = flat(0, 2.6, 2.0)
    wall = PlanarRegion(
        9,
        RigidTransform3(WALL_ROTATION, np.array([0.0, 0.325, 0.9])),
        [rectangle_polygon(1.35, 1.0)],
    )
    wall_env = Environment([wall])
    goal = Pose2(1.0, 0.0, 0.0)
    left, right = Pose2(-1.0, 0.125, 0.0), Pose2(-1.0, -0.125, 0.0)
    checker = CheckerParams()

    def request(env, left_pose, right_pose):
        return PlannerRequest(
            env=env,
            start_left=left_pose,
            start_right=right_pose,
            goal_midstance=goal,
            goal_tolerance=0.15,
            timeout=5.0,
            lattice=LATTICE_COARSE,
            expansion=EXPANSION_FORWARD,
        )

    failures = []
    ticks = []
    env = Environment([ground])
    pre_insert_conflict = False
    post_insert_clear = None
    detour_y = 0.0
    arrived = False
    for tick in range(40):
        if tick == 1:
            env = env.with_region(wall)
        req = request(env, left, right)
        result = plan(req)
        history = result.tracker_history
        if any(b > a + TRACKER_TOL for a, b in zip(history, history[1:])):
            failures.append(f"tick {tick}: tracker increased")
        if result.status is PlanStatus.FOUND_SOLUTION and not result.steps:
            arrived = True
            ticks.append((result.status.value, 0, None, history))
            break
        if result.status is not PlanStatus.FOUND_SOLUTION:
            failures.append(f"tick {tick}: {result.status.value}")
            break
        root_side = result.steps[0].side.opposite
        root_pose = left if root_side is Side.LEFT else right
        root_snap = snap_node(
            pose_to_node(root_pose, root_side, req.lattice), req.lattice, env, req.foot
        )
        assert isinstance(root_snap, SnapResult)
        snaps = [root_snap] + [step.snap for step in result.steps]
        side = root_side
        conflicts = False
        for parent_snap, child_snap in zip(snaps, snaps[1:]):
            if validate_edge(parent_snap, child_snap, side, env, checker, req.foot) is not None:
                failures.append(f"tick {tick}: emitted edge re-validation failed")
            if check_body_box(parent_snap, child_snap, wall_env, checker) is not None:
                conflicts = True
            side = side.opposite
        if tick == 0:
            pre_insert_conflict = conflicts
        else:
            if post_insert_clear is None:
                post_insert_clear = not conflicts
            if conflicts:
                failures.append(f"tick {tick}: plan clips the inserted region")
        advanced = result.steps[0]
        pose = step_pose(advanced)
        detour_y = min(detour_y, pose.y)
        ticks.append((result.status.value, len(result.steps), (advanced.side.value, pose), history))
        if advanced.side is Side.LEFT:
            left = pose
        else:
            right = pose
    if not arrived:
        failures.append("never arrived")
    if not pre_insert_conflict:
        failures.append("initial route never conflicted with the inserted region")
    if post_insert_clear is not True:
        failures.append("first replan after insertion still conflicted")
    if detour_y > -0.5:
        failures.append(f"no detour, min y {detour_y:.2f}")

    document = {
        "environment": environment_to_dict(Environment([ground])),
        "start_left": [-1.0, 0.125, 0.0],
        "start_right": [-1.0, -0.125, 0.0],
        "goal": [goal.x, goal.y, goal.yaw],
        "params": {
            "xy_resolution": 0.1,
            "yaw_resolution": math.tau / 4,
            "expansion_min_length": 0.0,
            "expansion_max_length": 0.4,
            "expansion_min_width": 0.15,
            "expansion_max_width": 0.35,
            "expansion_min_yaw_delta": 0.0,
            "expansion_max_yaw_delta": 0.0,
            "goal_tolerance": 0.15,
        },
        "timeout": 5.0,
        "max_ticks": 40,
        "events": [
            {
                "time": 1.0,
                "action": "add-region",
                "region": environment_to_dict(wall_env)["regions"][0],
            }
        ],
    }
    trace = run_anytime_scenario(load_scenario_script(document))
    if trace["arrived"] is not True:
        failures.append("runner never arrived")
    if len(trace["ticks"]) != len(ticks):
        failures.append(f"runner took {len(trace['ticks'])} ticks, direct loop {len(ticks)}")
    else:
        for index, (record, mine) in enumerate(zip(trace["ticks"], ticks)):
            status, steps, advanced, history = mine
            if record["status"] != status or record["plan_steps"] != steps:
                failures.append(f"runner tick {index} diverged")
                break
            if record["tracker_history"] != history:
                failures.append(f"runner tick {index} tracker diverged")
                break
            if advanced is None:
                if record["advanced"] is not None:
                    failures.append(f"runner tick {index} advanced unexpectedly")
                    break
            elif record["advanced"]["side"] != advanced[0] or record["advanced"]["pose"] != [
                advanced[1].x,
                advanced[1].y,
                advanced[1].yaw,
            ]:
                failures.append(f"runner tick {index} advanced differently")
                break
    report(
        7,
        not failures,
        "; ".join(failures)
        or f"{len(ticks)} ticks, replans clear the inserted wall, detour to y {detour_y:.2f}",
    )


# ---------------------------------------------------------------------------
# 8. A shoulder-width corridor forces a sideways gait; a narrower one is refused

CORRIDOR_LATTICE = LatticeParams(0.1, math.tau / 24)
CORRIDOR_EXPANSION = ExpansionParams(-0.1, 0.4, 0.15, 0.35, -math.tau / 12, math.tau / 12, 0.55)


def corridor_request(spacing, timeout, post_side=0.3):
    env = generate_environment("narrow-gap", 0, {"spacing": spacing, "post_side": post_side})
    return PlannerRequest(
        env=env,
        start_left=Pose2(-0.9, 0.125, 0.0),
        start_right=Pose2(-0.9, -0.125, 0.0),
        goal_midstance=Pose2(0.9, 0.0, 0.0),
        timeout=timeout,
        lattice=CORRIDOR_LATTICE,
        expansion=CORRIDOR_EXPANSION,
        cost=CostParams(inflation=5.0),
    )


def test_criterion_8_corridor_sideways_gait_and_refusal():
    failures = []
    open_result = plan(corridor_request(0.5, 60.0))
    if open_result.status is not PlanStatus.FOUND_SOLUTION:
        failures.append(f"open corridor {open_result.status.value}")
    poses = [step_pose(step) for step in open_result.steps]
    sideways = []
    for first, second in zip(poses, poses[1:]):
        mid = midstance_pose(first, second)
        if abs(mid.x) <= 0.25 and abs(wrap_angle(mid.yaw)) >= SIDEWAYS_YAW_MIN:
            sideways.append(abs(wrap_angle(mid.yaw)))
    if not sideways:
        failures.append("no sideways stance inside the corridor")

    # 0.65 m posts reach past the ground's 0.8 m half-width, so no path leads
    # around the outside of the bollards
    blocked = plan(corridor_request(0.35, 10.0, post_side=0.65))
    if blocked.status not in (PlanStatus.NO_PATH_EXISTS, PlanStatus.TIMED_OUT_BEST_EFFORT):
        failures.append(f"blocked corridor {blocked.status.value}")
    intrusions = [
        float(step.snap.center[0]) for step in blocked.steps if float(step.snap.center[0]) > -0.15
    ]
    if intrusions:
        failures.append(f"blocked corridor entered the gap at x {max(intrusions):.2f}")
    report(
        8,
        not failures,
        "; ".join(failures)
        or f"{len(sideways)} sideways stances up to "
        f"{math.degrees(max(sideways)):.1f} deg, blocked run {blocked.status.value}",
    )


# ---------------------------------------------------------------------------
# 9. The command line produces byte-identical artifacts across runs

CLI_PARAMS = {
    "xy_resolution": 0.1,
    "yaw_resolution": math.tau / 4,
    "expansion_min_length": 0.0,
    "expansion_max_length": 0.4,
    "expansion_min_width": 0.15,
    "expansion_max_width": 0.35,
    "expansion_min_yaw_delta": 0.0,
    "expansion_max_yaw_delta": 0.0,
}


def run_cli_suite(workdir, hash_seed):
    environ = dict(os.environ, FSP_STABLE_TIMING="1", PYTHONHASHSEED=hash_seed)
    environ.pop("FSP_LOG", None)
    (workdir / "params.json").write_text(json.dumps(CLI_PARAMS))
    base = [sys.executable, "-m", "footplan"]
    gen = subprocess.run(
        base + ["gen", "--kind", "flat", "--seed", "5", "--out", str(workdir / "env.json")],
        capture_output=True,
        env=environ,
    )
    planned = subprocess.run(
        base
        + [
            "plan",
            "--env",
            str(workdir / "env.json"),
            "--params",
            str(workdir / "params.json"),
            "--start=-0.5,0,0",
            "--goal",
            "0.5,0,0",
            "--out",
            str(workdir / "plan.json"),
            "--svg",
            str(workdir / "plan.svg"),
        ],
        capture_output=True,
        env=environ,
    )
    assert gen.returncode == 0, gen.stderr.decode()
    assert planned.returncode == 0, planned.stderr.decode()
    return {
        "gen_stdout": gen.stdout,
        "plan_stdout": planned.stdout,
        "env": (workdir / "env.json").read_bytes(),
        "plan": (workdir / "plan.json").read_bytes(),
        "svg": (workdir / "plan.svg").read_bytes(),
    }


def test_criterion_9_cli_outputs_are_byte_identical(tmp_path):
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    first_dir.mkdir()
    second_dir.mkdir()
    first = run_cli_suite(first_dir, "0")
    second = run_cli_suite(second_dir, "1")
    mismatched = [name for name in first if first[name] != second[name]]
    sizes = ", ".join(f"{name} {len(first[name])}B" for name in ("env", "plan", "svg"))
    report(9, not mismatched, f"mismatched: {mismatched}" if mismatched else sizes)
