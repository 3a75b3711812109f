"""Output checks and behaviour fingerprints for benchmark requests.

Checks run after a pass, never inside a timed request. Each planner answer is
checked against its expected status; every emitted edge is re-validated with
`validate_edge` from the start stance (as acceptance criterion 7 does); and
the written plan JSON must agree with the planner's raw answer, up to the
bounded foothold adjustment.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from footplan.geometry import Pose2, wrap_angle
from footplan.lattice import Side, pose_to_node
from footplan.params import load_params
from footplan.planner import PlanStatus
from footplan.snapping import snap_node
from footplan.validity import validate_edge

KKT_TOL = 1e-8  # acceptance criterion 2's certificate tolerance
EXIT_CODES = {
    PlanStatus.FOUND_SOLUTION.value: 0,
    PlanStatus.TIMED_OUT_BEST_EFFORT.value: 2,
    PlanStatus.NO_PATH_EXISTS.value: 3,
    PlanStatus.INVALID_START.value: 4,
}


@lru_cache(maxsize=None)
def _params(path: str):
    with open(path) as handle:
        return load_params(handle.read())


def fingerprint(result) -> dict:
    """Counters that any behaviour change moves. A timed-out search's counts
    depend on machine speed, so it records only its status."""
    status = result.status.value
    if result.status is PlanStatus.TIMED_OUT_BEST_EFFORT:
        return {"status": status}
    stats = result.stats
    return {
        "status": status,
        "steps": len(result.steps),
        "nodes_expanded": stats.nodes_expanded,
        "children_considered": stats.children_considered,
        "rejected": {reason.value: n for reason, n in sorted(
            stats.children_rejected.items(), key=lambda item: item[0].value)},
        "path_cost": repr(stats.path_cost),
    }


def _goal_foot(goal: Pose2, side: Side, stance_width: float) -> Pose2:
    half = stance_width / 2.0 if side is Side.LEFT else -stance_width / 2.0
    return Pose2(goal.x - math.sin(goal.yaw) * half, goal.y + math.cos(goal.yaw) * half, goal.yaw)


def plan_problems(request, result) -> list[str]:
    """Re-validate a FOUND_SOLUTION chain from the start stance and its goal."""
    if result.status is not PlanStatus.FOUND_SOLUTION or not result.steps:
        return []
    problems = []
    side = result.steps[0].side.opposite
    start = request.start_left if side is Side.LEFT else request.start_right
    parent = snap_node(pose_to_node(start, side, request.lattice), request.lattice,
                       request.env, request.foot)
    for index, step in enumerate(result.steps):
        if step.side is side:
            problems.append(f"step {index} repeats the {side.value} foot")
        verdict = validate_edge(parent, step.snap, side, request.env, request.checker,
                                request.foot)
        if verdict is not None:
            problems.append(f"step {index} fails re-validation: {verdict.value}")
        parent, side = step.snap, step.side
    last = result.steps[-1]
    target = _goal_foot(request.goal_midstance, last.side, request.cost.nominal_stance_width)
    pose = last.snap.planar_pose
    if (
        math.hypot(pose.x - target.x, pose.y - target.y) > request.goal_tolerance + 1e-9
        or abs(wrap_angle(pose.yaw - target.yaw)) > request.goal_tolerance_yaw + 1e-9
    ):
        problems.append("last step is outside the goal tolerance")
    return problems


def document_problems(case, code: int, document: dict, result) -> list[str]:
    """Compare a written plan document with the planner's raw answer."""
    problems = []
    status = result.status.value
    if document["status"] != status:
        problems.append(f"document status {document['status']} but planner {status}")
    if code != EXIT_CODES[status]:
        problems.append(f"exit code {code} for {status}")
    if document["stats"]["path_cost"] != result.stats.path_cost:
        problems.append("document path_cost differs from the planner's")
    steps = document["steps"]
    if len(steps) != len(result.steps):
        problems.append(f"document has {len(steps)} steps, planner {len(result.steps)}")
        return problems
    params = _params(case.params_path)
    reach = math.sqrt(2.0) * params.wiggle.max_translation + (
        params.wiggle.max_rotation * params.foot.circumradius
    ) + 1e-9
    for index, (written, raw) in enumerate(zip(steps, result.steps)):
        x, y = written["translation"][0], written["translation"][1]
        yaw = math.atan2(written["rotation"][3], written["rotation"][0])
        pose = raw.snap.planar_pose
        if written["side"] != raw.side.value:
            problems.append(f"document step {index} has the wrong side")
        if math.hypot(x - pose.x, y - pose.y) > reach:
            problems.append(f"document step {index} moved beyond the adjustment bound")
        if abs(wrap_angle(yaw - pose.yaw)) > params.wiggle.max_rotation + 1e-9:
            problems.append(f"document step {index} turned beyond the adjustment bound")
    return problems


def scenario_problems(code: int, document: dict, results: list) -> list[str]:
    """Compare an anytime trace with the plans the runner saw, tick by tick."""
    problems = []
    if code != 0 or document["arrived"] is not True:
        problems.append(f"scenario did not arrive (exit code {code})")
    ticks = document["ticks"]
    if len(ticks) != len(results):
        problems.append(f"trace has {len(ticks)} ticks, runner planned {len(results)}")
    for index, (tick, result) in enumerate(zip(ticks, results)):
        if tick["status"] != result.status.value or tick["plan_steps"] != len(result.steps):
            problems.append(f"trace tick {index} differs from its plan")
    return problems


def qp_certified(qp, q) -> bool:
    """Exact KKT certificate for a wiggle QP solution q.

    q must be feasible and minus the objective gradient must lie in the cone
    of the active constraint rows. In three dimensions some three of those
    rows suffice (Caratheodory), so every subset of at most three is tried.
    `footplan.wiggle.kkt_residual` takes least-squares multipliers instead,
    which can come out negative when the active rows are dependent, and then
    reports a residual for an optimal q.
    """
    rows = np.vstack([qp.rows, np.eye(3), -np.eye(3)])
    rhs = np.concatenate([qp.rhs, qp.upper, -qp.lower])
    slack = rhs - rows @ q
    if slack.min() < -KKT_TOL:
        return False
    gradient = 2.0 * qp.weights @ q
    if np.linalg.norm(gradient) <= KKT_TOL:
        return True
    active = [i for i in range(len(rows)) if slack[i] <= 1e-7]
    for size in (1, 2, 3):
        for subset in combinations(active, size):
            basis = rows[list(subset)].T
            lam = np.linalg.lstsq(basis, -gradient, rcond=None)[0]
            if lam.min() >= -KKT_TOL and np.linalg.norm(gradient + basis @ lam) <= KKT_TOL:
                return True
    return False


def read_document(path) -> dict:
    with open(path) as handle:
        return json.load(handle)
