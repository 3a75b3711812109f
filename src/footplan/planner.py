"""Lazy weighted A* search over the footstep lattice with anytime best-effort output."""

from __future__ import annotations

import enum
import heapq
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field

from .costing import CostParams, cell_cost_bounds, edge_cost, heuristic_cost, position_heuristic
from .geometry import Pose2, wrap_angle
from .lattice import (
    ExpansionParams,
    FootstepNode,
    LatticeParams,
    Side,
    expand_node,  # not called here; perfbench/spans.py traces it by this name
    feet_from_midstance,
    midstance_pose,
    node_to_pose,
    pose_to_node,
)
from .region_chain import no_region_chain
from .snapping import FootPolygon, SnapFailure, SnapResult, default_foot, regions_near, snap_pose
from .validity import (
    FOOTHOLD_REASONS,
    CheckerParams,
    RejectionReason,
    validate_edge,
)
from .world import Environment, PlanarRegion

log = logging.getLogger("footplan.planner")

_UNSEEN = object()  # no verdict kept for an edge


class PlanStatus(enum.Enum):
    FOUND_SOLUTION = "found_solution"
    TIMED_OUT_BEST_EFFORT = "timed_out_best_effort"
    NO_PATH_EXISTS = "no_path_exists"
    INVALID_START = "invalid_start"


class SearchMemo:
    """Snaps, the regions near each lattice cell and edge verdicts, kept from
    one search to the next, for a replanning loop that plans again and again
    in one world.

    A snap depends only on its node, the lattice, the world and the foot; the
    regions near a cell (x_index, y_index), `regions_near` at its center,
    only on the cell, the lattice, the world and the foot; and an edge's
    verdict only on its two snaps, the world, the checker and the foot. So
    the memo holds while the request's `env` is the same object and its
    `lattice`, `foot` and `checker` are equal; `bind` empties it on any other
    request. Costs and heuristics are not kept: they depend on the request's
    cost params, and the heuristic on its goal.
    """

    def __init__(self):
        self.snaps: dict[FootstepNode, SnapResult | SnapFailure] = {}
        self.regions: dict[tuple[int, int], tuple[PlanarRegion, ...]] = {}
        self.verdicts: dict[tuple[FootstepNode, FootstepNode], RejectionReason | None] = {}
        self._env: Environment | None = None
        self._params: tuple = ()

    def bind(self, request: PlannerRequest):
        """Keep the memo for `request`, or empty it if its world or params differ."""
        params = (request.lattice, request.foot, request.checker)
        if request.env is not self._env or params != self._params:
            self.clear()
            self._env, self._params = request.env, params

    def clear(self):
        self.snaps.clear()
        self.regions.clear()
        self.verdicts.clear()
        self._env, self._params = None, ()


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
    memo: SearchMemo | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be positive")
        if not (self.goal_tolerance > 0 and self.goal_tolerance_yaw > 0):
            raise ValueError("goal tolerances must be positive")


@dataclass(frozen=True)
class PlanStep:
    side: Side
    snap: SnapResult


@dataclass
class SearchStats:
    """Counters of one search.

    The search is lazy: an edge is snapped and validated only when it reaches
    the front of the queue (see `_Search`). `children_considered` counts the
    edges evaluated so, `children_rejected` those of them a check rejected,
    by reason, and `percent_rejected` is their share. Edges never evaluated
    are not counted: those into a node closed first, those whose lower bound
    cannot beat the child's score, and those into a child whose own foothold
    failed (no snap, too steep, too little support) before the edge's cell
    was opened. The expansion order, so `nodes_expanded` and the path, are
    those of an eager search that evaluates every child of a node when it
    expands the node.
    """

    nodes_expanded: int = 0
    children_considered: int = 0
    children_rejected: Counter = field(default_factory=Counter)
    duration_s: float = 0.0
    path_cost: float = 0.0
    path_distance_m: float = 0.0
    no_path_reason: str | None = None  # set when the region check rules the request out

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
    """A search's answer. On a timeout, `steps` lead to the best-effort node:
    the scored node of least heuristic (ties to the lower g), so one whose
    edge was evaluated. `tracker_history` holds that node's heuristic each
    time it changed."""

    status: PlanStatus
    steps: list[PlanStep]
    stats: SearchStats
    tracker_history: list[float] = field(default_factory=list)


def _within_goal(pose: Pose2, target: Pose2, request: PlannerRequest) -> bool:
    if math.hypot(pose.x - target.x, pose.y - target.y) > request.goal_tolerance + 1e-12:
        return False
    return abs(wrap_angle(pose.yaw - target.yaw)) <= request.goal_tolerance_yaw + 1e-12


class _Search:
    """Single-search mutable state: scores, parents, frontier, and memo caches.

    The frontier holds three kinds of entries, ordered by (f, h, seq):
    - a scored node, (g + h, h, seq, node, None);
    - a lazy edge, (g(parent) + lb + h(child), h(child), seq, child, parent),
      where lb is the step's lower bound on its cost from `cell_cost_bounds`;
    - a cell, (g(parent) + least lb + h_pos, -1.0, seq, parent, row): the
      edges from an expanded parent into one lattice cell (x, y), where row
      is the cell's `cell_cost_bounds` row and h_pos its
      `position_heuristic`.
    Expanding a node reserves one seq per child, in `expand_node`'s order,
    and pushes one cell per (x, y); a cell with one child is opened at once.
    A cell's key is at most each of its edges' keys (h_pos <= h, and h = -1
    sorts first on an f tie), so it pops before any of them could. Opening a
    cell hands its edges, with their seqs, to `admit`, the one loop that
    admits edges. An edge is snapped, validated and costed only when it is
    popped, and a scored node keeps the seq of the edge that scored it, so
    the expansion order and ties are those of an eager search.

    The snap memo, the regions near each cell and the verdict memo,
    (parent, child) -> `validate_edge`'s answer, live in a `SearchMemo`: the
    request's, kept from earlier searches in the same world, or a fresh one.
    A verdict read from the memo counts as an evaluation, as a fresh one
    does, so the counters and the search are those of a search with an empty
    memo.
    """

    def __init__(self, request: PlannerRequest):
        self.request = request
        self.g: dict[FootstepNode, float] = {}
        self.parent: dict[FootstepNode, FootstepNode | None] = {}
        self.node_seq: dict[FootstepNode, int] = {}
        self.closed: set[FootstepNode] = set()
        self.frontier: list = []
        self.seq = 0
        memo = request.memo or SearchMemo()
        memo.bind(request)
        self.snap_memo, self.near, self.verdicts = memo.snaps, memo.regions, memo.verdicts
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
            request = self.request
            pose = node_to_pose(node, request.lattice)
            cell = node.x_index, node.y_index
            regions = self.near.get(cell)
            if regions is None:
                regions = self.near[cell] = regions_near(pose.x, pose.y, request.env, request.foot)
            cached = snap_pose(pose, request.env, request.foot, regions)
            self.snap_memo[node] = cached
        return cached

    def heuristic(self, node: FootstepNode) -> float:
        cached = self.h_memo.get(node)
        if cached is None:
            pose = node_to_pose(node, self.request.lattice)
            cached = heuristic_cost(pose, self.request.goal_midstance, self.request.cost)
            self.h_memo[node] = cached
        return cached

    def score(self, node: FootstepNode, g: float, parent: FootstepNode | None, seq: int):
        """Give `node` the score g through `parent` unless its score is lower
        by more than 1e-12, or within 1e-12 and set by an edge of smaller seq
        (the one an eager search would have scored first)."""
        old = self.g.get(node)
        if old is not None:
            if g > old + 1e-12 or (g >= old - 1e-12 and seq > self.node_seq[node]):
                return
        self.g[node] = g
        self.parent[node] = parent
        self.node_seq[node] = seq
        h = self.heuristic(node)
        key = (h, g)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_node = node
            self.tracker_history.append(h)
        heapq.heappush(self.frontier, (g + h, h, seq, node, None))

    def push_edges(self, node: FootstepNode):
        """Reserve a seq per child of an expanded node, push its cells of
        more than one child, and admit the edges into the others at once."""
        request = self.request
        cells, count = cell_cost_bounds(
            request.lattice, request.expansion, request.cost, node.side, node.yaw_index
        )
        node_g = self.g[node]
        x, y, side, frontier = node.x_index, node.y_index, node.side.opposite, self.frontier
        res, goal, cost = request.lattice.xy_resolution, request.goal_midstance, request.cost
        base = self.seq
        edges = []
        for row in cells:
            dx, dy, first, least, members = row
            if len(members) > 1:
                h = position_heuristic((x + dx) * res, (y + dy) * res, goal, cost)
                heapq.heappush(frontier, (node_g + least + h, -1.0, base + first, node, row))
            else:
                (yaw, bound), = members
                edges.append((base + first, FootstepNode(x + dx, y + dy, yaw, side), bound))
        self.admit(node, edges)
        self.seq = base + count

    def open_cell(self, parent: FootstepNode, row: tuple, seq: int):
        dx, dy, _, _, members = row
        x, y, side = parent.x_index + dx, parent.y_index + dy, parent.side.opposite
        self.admit(parent, [
            (seq, FootstepNode(x, y, yaw, side), bound)
            for seq, (yaw, bound) in enumerate(members, seq)
        ])

    def admit(self, parent: FootstepNode, edges: list):
        """Push a lazy edge from `parent` for each (seq, child, bound) unless
        the child is closed, the bound cannot beat its score, or its own
        foothold failed a check (h = inf)."""
        node_g = self.g[parent]
        closed, g, h_memo, frontier = self.closed, self.g, self.h_memo, self.frontier
        for seq, child, bound in edges:
            if child in closed:
                continue
            lower = node_g + bound
            old = g.get(child)
            if old is not None and lower >= old - 1e-12:
                continue
            h = h_memo.get(child)
            if h is None:
                h = self.heuristic(child)
            elif h == math.inf:
                continue  # its foothold failed a check of its own
            heapq.heappush(frontier, (lower + h, h, seq, child, parent))

    def evaluate(self, parent: FootstepNode, child: FootstepNode, seq: int):
        """Snap and validate a popped lazy edge; score its child if it is valid."""
        request, stats = self.request, self.stats
        stats.children_considered += 1
        verdict = self.verdicts.get((parent, child), _UNSEEN)
        if verdict is _UNSEEN:
            verdict = validate_edge(
                self.snap(parent), self.snap(child), parent.side,
                request.env, request.checker, request.foot,
            )
            self.verdicts[parent, child] = verdict
        if verdict is not None:
            stats.children_rejected[verdict] += 1
            if verdict in FOOTHOLD_REASONS:
                self.h_memo[child] = math.inf  # no edge into it is pushed again
            return
        cost = edge_cost(self.snap(parent), self.snap(child), parent.side, request.cost)
        self.score(child, self.g[parent] + cost, parent, seq)

    def path_distance(self, nodes: list[FootstepNode]) -> float:
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

    def finish(status: PlanStatus, end: FootstepNode | None) -> PlannerResult:
        stats.duration_s = time.monotonic() - t0
        steps: list[PlanStep] = []
        if end is not None:
            nodes = [end]
            while search.parent[nodes[-1]] is not None:
                nodes.append(search.parent[nodes[-1]])
            nodes.reverse()
            steps = [PlanStep(n.side, search.snap_memo[n]) for n in nodes[1:]]
            stats.path_cost = search.g[end]
            stats.path_distance_m = search.path_distance(nodes)
        return PlannerResult(status, steps, stats, search.tracker_history)

    start_nodes = (
        pose_to_node(request.start_left, Side.LEFT, request.lattice),
        pose_to_node(request.start_right, Side.RIGHT, request.lattice),
    )
    start_feet = [search.snap(node) for node in start_nodes]
    if any(isinstance(snap, SnapFailure) for snap in start_feet):
        return finish(PlanStatus.INVALID_START, None)
    goal_points = [(p.x, p.y) for p in search.goal_feet.values()]
    stats.no_path_reason = no_region_chain(request, start_feet, goal_points)
    if stats.no_path_reason is not None:
        log.info("no path: %s", stats.no_path_reason)
        return finish(PlanStatus.NO_PATH_EXISTS, None)
    for seq, node in enumerate(start_nodes):
        search.score(node, 0.0, None, seq)
    search.seq = len(start_nodes)

    frontier, closed, g = search.frontier, search.closed, search.g
    while frontier:
        f, h, seq, node, parent = heapq.heappop(frontier)
        if h < 0.0:  # a cell: node is its expanded parent, parent its row
            search.open_cell(node, parent, seq)
            continue
        if node in closed:
            continue
        if parent is None:
            if seq != search.node_seq[node]:
                continue  # superseded by a better score
        elif f - h >= g.get(node, math.inf) - 1e-12:
            continue  # the edge's lower bound can no longer beat the node's score
        if time.monotonic() - t0 > request.timeout:
            return finish(PlanStatus.TIMED_OUT_BEST_EFFORT, search.best_node)
        if parent is not None:
            search.evaluate(parent, node, seq)
            continue

        closed.add(node)
        pose = node_to_pose(node, request.lattice)
        if _within_goal(pose, search.goal_feet[node.side], request):
            return finish(PlanStatus.FOUND_SOLUTION, node)
        stats.nodes_expanded += 1
        search.push_edges(node)

    return finish(PlanStatus.NO_PATH_EXISTS, None)
