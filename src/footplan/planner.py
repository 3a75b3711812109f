"""Weighted A* search over the footstep lattice with anytime best-effort output."""

from __future__ import annotations

import enum
import heapq
import math
import time
from collections import Counter
from dataclasses import dataclass, field

from .costing import CostParams, edge_cost, heuristic_cost
from .geometry import Pose2, wrap_angle
from .lattice import (
    ExpansionParams,
    FootstepNode,
    LatticeParams,
    Side,
    expand_node,
    node_to_pose,
    pose_to_node,
)
from .snapping import FootPolygon, SnapFailure, SnapResult, default_foot, snap_pose
from .validity import CheckerParams, midstance_pose, validate_edge
from .world import Environment


class PlanStatus(enum.Enum):
    FOUND_SOLUTION = "found_solution"
    TIMED_OUT_BEST_EFFORT = "timed_out_best_effort"
    NO_PATH_EXISTS = "no_path_exists"
    INVALID_START = "invalid_start"


@dataclass(frozen=True)
class PlannerRequest:
    env: Environment
    start_left: Pose2
    start_right: Pose2
    goal_midstance: Pose2
    goal_tolerance: float = 0.2
    goal_tolerance_yaw: float = 0.3
    timeout: float = 10.0
    lattice: LatticeParams = field(default_factory=LatticeParams)
    expansion: ExpansionParams = field(default_factory=ExpansionParams)
    checker: CheckerParams = field(default_factory=CheckerParams)
    cost: CostParams = field(default_factory=CostParams)
    foot: FootPolygon = field(default_factory=default_foot)

    def __post_init__(self):
        if not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be positive")
        if self.goal_tolerance <= 0 or self.goal_tolerance_yaw <= 0:
            raise ValueError("goal tolerances must be positive")


@dataclass(frozen=True)
class PlanStep:
    side: Side
    snap: SnapResult


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    children_considered: int = 0
    children_rejected: Counter = field(default_factory=Counter)
    duration_s: float = 0.0
    path_cost: float = 0.0
    path_distance_m: float = 0.0

    @property
    def total_rejected(self) -> int:
        return sum(self.children_rejected.values())

    @property
    def percent_rejected(self) -> float:
        if self.children_considered == 0:
            return 0.0
        return 100.0 * self.total_rejected / self.children_considered


@dataclass
class PlannerResult:
    status: PlanStatus
    steps: list[PlanStep]
    stats: SearchStats
    tracker_history: list[float] = field(default_factory=list)


def feet_from_midstance(mid: Pose2, stance_width: float) -> tuple[Pose2, Pose2]:
    """The left and right foot poses of a nominal stance around `mid`."""
    half = stance_width / 2.0
    cos_y, sin_y = math.cos(mid.yaw), math.sin(mid.yaw)
    left = Pose2(mid.x - sin_y * half, mid.y + cos_y * half, mid.yaw)
    right = Pose2(mid.x + sin_y * half, mid.y - cos_y * half, mid.yaw)
    return left, right


def _within_goal(pose: Pose2, target: Pose2, request: PlannerRequest) -> bool:
    if math.hypot(pose.x - target.x, pose.y - target.y) > request.goal_tolerance + 1e-12:
        return False
    return abs(wrap_angle(pose.yaw - target.yaw)) <= request.goal_tolerance_yaw + 1e-12


class _Search:
    """Single-search mutable state: scores, parents, frontier, and memo caches."""

    def __init__(self, request: PlannerRequest):
        self.request = request
        self.g: dict[FootstepNode, float] = {}
        self.parent: dict[FootstepNode, FootstepNode | None] = {}
        self.closed: set[FootstepNode] = set()
        self.frontier: list = []
        self.seq = 0
        self.snap_memo: dict[FootstepNode, SnapResult | SnapFailure] = {}
        self.h_memo: dict[FootstepNode, float] = {}
        self.stats = SearchStats()
        self.best_node: FootstepNode | None = None
        self.best_key: tuple[float, float] | None = None
        self.tracker_history: list[float] = []
        self.start_mid = midstance_pose(request.start_left, request.start_right)
        left, right = feet_from_midstance(request.goal_midstance, request.cost.nominal_stance_width)
        self.goal_feet = {Side.LEFT: left, Side.RIGHT: right}

    def snap(self, node: FootstepNode) -> SnapResult | SnapFailure:
        cached = self.snap_memo.get(node)
        if cached is None:
            pose = node_to_pose(node, self.request.lattice)
            cached = snap_pose(pose, self.request.env, self.request.foot)
            self.snap_memo[node] = cached
        return cached

    def heuristic(self, node: FootstepNode) -> float:
        cached = self.h_memo.get(node)
        if cached is None:
            pose = node_to_pose(node, self.request.lattice)
            cached = heuristic_cost(
                pose, self.request.goal_midstance, self.start_mid, self.request.cost
            )
            self.h_memo[node] = cached
        return cached

    def score(self, node: FootstepNode, g: float, parent: FootstepNode | None):
        old = self.g.get(node)
        if old is not None and g >= old - 1e-12:
            return
        self.g[node] = g
        self.parent[node] = parent
        h = self.heuristic(node)
        key = (h, g)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_node = node
            self.tracker_history.append(h)
        heapq.heappush(self.frontier, (g + h, h, self.seq, node))
        self.seq += 1

    def chain(self, end: FootstepNode) -> list[FootstepNode]:
        nodes = [end]
        while self.parent[nodes[-1]] is not None:
            nodes.append(self.parent[nodes[-1]])
        nodes.reverse()
        return nodes

    def steps_for(self, end: FootstepNode) -> list[PlanStep]:
        nodes = self.chain(end)
        return [PlanStep(n.side, self.snap_memo[n]) for n in nodes[1:]]

    def path_distance(self, end: FootstepNode) -> float:
        nodes = self.chain(end)
        poses = [node_to_pose(n, self.request.lattice) for n in nodes]
        mid = self.start_mid
        total = 0.0
        for stance, swing in zip(poses, poses[1:]):
            nxt = midstance_pose(stance, swing)
            total += math.hypot(nxt.x - mid.x, nxt.y - mid.y)
            mid = nxt
        return total


def plan(request: PlannerRequest) -> PlannerResult:
    t0 = time.monotonic()
    search = _Search(request)
    stats = search.stats

    start_nodes = (
        pose_to_node(request.start_left, Side.LEFT, request.lattice),
        pose_to_node(request.start_right, Side.RIGHT, request.lattice),
    )
    for node in start_nodes:
        if isinstance(search.snap(node), SnapFailure):
            stats.duration_s = time.monotonic() - t0
            return PlannerResult(PlanStatus.INVALID_START, [], stats)
    for node in start_nodes:
        search.score(node, 0.0, None)

    def finish(status: PlanStatus, end: FootstepNode | None) -> PlannerResult:
        stats.duration_s = time.monotonic() - t0
        steps: list[PlanStep] = []
        if end is not None:
            steps = search.steps_for(end)
            stats.path_cost = search.g[end]
            stats.path_distance_m = search.path_distance(end)
        return PlannerResult(status, steps, stats, search.tracker_history)

    while search.frontier:
        _, _, _, node = heapq.heappop(search.frontier)
        if node in search.closed:
            continue
        if time.monotonic() - t0 > request.timeout:
            return finish(PlanStatus.TIMED_OUT_BEST_EFFORT, search.best_node)
        search.closed.add(node)
        pose = node_to_pose(node, request.lattice)
        if _within_goal(pose, search.goal_feet[node.side], request):
            return finish(PlanStatus.FOUND_SOLUTION, node)

        stats.nodes_expanded += 1
        parent_snap = search.snap(node)
        assert isinstance(parent_snap, SnapResult)
        node_g = search.g[node]
        for child in expand_node(node, request.lattice, request.expansion):
            if child in search.closed:
                continue
            stats.children_considered += 1
            child_snap = search.snap(child)
            verdict = validate_edge(
                parent_snap, child_snap, node.side, request.env, request.checker, request.foot
            )
            if verdict is not None:
                stats.children_rejected[verdict] += 1
                continue
            assert isinstance(child_snap, SnapResult)
            cost = edge_cost(parent_snap, child_snap, node.side, request.cost)
            search.score(child, node_g + cost, node)

    return finish(PlanStatus.NO_PATH_EXISTS, None)
