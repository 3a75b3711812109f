"""Lazy weighted A* search over the footstep lattice with anytime best-effort output."""

from __future__ import annotations

import enum
import heapq
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field

from .constants import BOUNDARY_SLACK, REACH_SLACK
from .costing import (
    CostParams,
    cell_cost_bounds,
    edge_cost,
    heuristic_cost,
    position_heuristic,
)
from .geometry import Point2, Pose2, convex_sets_distance, point_to_convex_distance, wrap_angle
from .lattice import (
    ExpansionParams,
    FootstepNode,
    LatticeParams,
    Side,
    expand_node,  # not called here; perfbench/spans.py traces it by this name
    node_to_pose,
    pose_to_node,
)
from .snapping import FootPolygon, SnapFailure, SnapResult, default_foot, snap_pose
from .validity import FOOTHOLD_REASONS, CheckerParams, midstance_pose, validate_edge
from .world import Environment, PlanarRegion

log = logging.getLogger("footplan.planner")


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


def _box_gap(a, b) -> float:
    """Distance between two (x_lo, y_lo, x_hi, y_hi) boxes: a lower bound on
    the distance between any sets inside them."""
    return math.hypot(max(a[0] - b[2], b[0] - a[2], 0.0), max(a[1] - b[3], b[1] - a[3], 0.0))


def _no_region_chain(
    request: PlannerRequest, start_feet: list[SnapResult], goal_points: list[Point2]
) -> str | None:
    """Why no path can exist, or None when a chain of regions may link a start
    foot to the goal.

    Every foothold the search accepts lies near its region's plan-view hull:
    - With a centrally symmetric sole and min_area_fraction - BOUNDARY_SLACK
      above 1/2, its center is inside the hull, up to rounding (`grow` =
      REACH_SLACK). Suppose the center lies outside a half-plane that holds
      the hull. Reflecting the sole through its center maps the part inside
      that half-plane to a part outside it, so at most half the sole is
      supported and the foothold fails `check_area`.
    - Otherwise the snapped sole overlaps the region, so its center is within
      the foot's circumradius of the hull (`grow`).
    A foothold's z is its region's plane height at the center, so it lies
    within grow x the plane's slope of the region's [z_min, z_max].
    Every accepted edge also passes `check_step_geometry`'s max_reach and
    step height limits. So a path is a chain from a start foot (a snapped
    lattice point, never area-checked) through regions whose hulls lie within
    max_reach + BOUNDARY_SLACK + 2 grow of each other (one grow from a start
    foot), each region's height range within max_step_up above or
    max_step_down below the one before, ending on a region within
    goal_tolerance + grow of a goal foot. The height limits make the links
    directed. Walls cannot be stood on and are left out.
    """
    foot, checker = request.foot, request.checker
    if foot.centrally_symmetric and checker.min_area_fraction - BOUNDARY_SLACK > 0.5:
        grow = REACH_SLACK
    else:
        grow = foot.circumradius
    goal_bound = request.goal_tolerance + grow
    for start in start_feet:
        if any(math.hypot(start.x - gx, start.y - gy) <= goal_bound for gx, gy in goal_points):
            return None
    step = checker.max_reach + BOUNDARY_SLACK + grow

    def bound(item) -> float:
        return step + grow if isinstance(item, PlanarRegion) else step

    def gap(item, region: PlanarRegion, cutoff: float = math.inf) -> float:
        """Distance from a start foot or a region to a region's hull, or a
        lower bound on it above `cutoff`."""
        if isinstance(item, PlanarRegion):
            box = item.bounds_xy
        else:
            box = (item.x, item.y, item.x, item.y)
        lower = _box_gap(box, region.bounds_xy)
        if lower > cutoff:
            return lower
        if isinstance(item, PlanarRegion):
            return convex_sets_distance(item.hull_xy, region.hull_xy)
        return point_to_convex_distance((item.x, item.y), region.hull_xy)

    def heights(item) -> tuple[float, float]:
        if isinstance(item, PlanarRegion):
            a, b, _ = item.plane_coeffs
            margin = grow * math.hypot(a, b) + REACH_SLACK
            return item.z_min - margin, item.z_max + margin
        return item.z, item.z

    def climb(item, region: PlanarRegion) -> tuple[float, float, str]:
        """The least rise or drop a step from `item` onto `region` takes
        beyond its limit, that limit and the limit's name; the excess is at
        most 0 when the step height allows the step."""
        lo, hi = heights(item)
        region_lo, region_hi = heights(region)
        rise = region_lo - hi
        if rise - checker.max_step_up > lo - region_hi - checker.max_step_down:
            return rise - checker.max_step_up, checker.max_step_up, "rise"
        return lo - region_hi - checker.max_step_down, checker.max_step_down, "drop"

    def linked(item, region: PlanarRegion) -> bool:
        limit = bound(item)
        return gap(item, region, limit) <= limit and climb(item, region)[0] <= BOUNDARY_SLACK

    def at_goal(region: PlanarRegion) -> bool:
        return any(point_to_convex_distance(g, region.hull_xy) <= goal_bound for g in goal_points)

    unreached = [region for region in request.env.regions if region.snappable]
    reached = list(start_feet)
    stack = list(start_feet)
    while stack:
        item = stack.pop()
        if isinstance(item, PlanarRegion) and at_goal(item):
            return None
        links = [region for region in unreached if linked(item, region)]
        unreached = [region for region in unreached if region not in links]
        reached += links
        stack += links

    if not any(at_goal(region) for region in unreached):
        return f"no standable region within {goal_bound:.2f} m of a goal foot"
    pairs = [(item, region) for item in reached for region in unreached]
    nearest, limit = min(
        ((gap(item, region), bound(item)) for item, region in pairs),
        key=lambda pair: pair[0] - pair[1],
    )
    if nearest > limit:
        return f"no region chain within reach: nearest gap {nearest:.2f} m > bound {limit:.2f} m"
    excess, height_limit, kind = min(
        climb(item, region) for item, region in pairs if gap(item, region) <= bound(item)
    )
    return (
        f"no region chain within step height: least {kind} {excess + height_limit:.2f} m"
        f" > limit {height_limit:.2f} m"
    )


class _Search:
    """Single-search mutable state: scores, parents, frontier, and memo caches.

    The frontier holds three kinds of entries, ordered by (f, h, seq):
    - a scored node, (g + h, h, seq, node, None);
    - a lazy edge, (g(parent) + lb + h(child), h(child), seq, child, parent),
      where lb is `edge_cost_bounds`' lower bound on the step's cost;
    - a cell, (g(parent) + least lb + h_pos, -1.0, seq, parent, row): the
      edges from an expanded parent into one lattice cell (x, y), where row
      is the cell's `cell_cost_bounds` row and h_pos its
      `position_heuristic`.
    Expanding a node reserves one seq per child, in `expand_node`'s order,
    and pushes one cell per (x, y); a cell with one child pushes its edge at
    once. A cell's key is at most each of its edges' keys (h_pos <= h, and
    h = -1 sorts first on an f tie), so it pops before any of them could.
    Popping it pushes its edges with their reserved seqs. An edge is snapped,
    validated and costed only when it is popped, and a scored node keeps the
    seq of the edge that scored it, so the expansion order and ties are
    those of an eager search that scores every child on expansion. A child
    whose foothold fails a check of its own gets h = inf, and no edge into
    it is pushed again.
    """

    def __init__(self, request: PlannerRequest):
        self.request = request
        self.g: dict[FootstepNode, float] = {}
        self.parent: dict[FootstepNode, FootstepNode | None] = {}
        self.node_seq: dict[FootstepNode, int] = {}
        self.closed: set[FootstepNode] = set()
        self.frontier: list = []
        self.seq = 0
        self.snap_memo: dict[FootstepNode, SnapResult | SnapFailure] = {}
        self.h_memo: dict[FootstepNode, float] = {}
        self.cells: dict[tuple[Side, int], tuple[tuple, int]] = {}  # rows, child count
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
        """Reserve a seq per child of an expanded node and push a cell per
        lattice cell, or the edge itself for a cell with one child."""
        request = self.request
        table = self.cells.get((node.side, node.yaw_index))
        if table is None:
            rows = cell_cost_bounds(
                request.lattice, request.expansion, request.cost, node.side, node.yaw_index
            )
            table = self.cells[node.side, node.yaw_index] = (rows, sum(len(r[4]) for r in rows))
        cells, count = table
        node_g = self.g[node]
        x, y, side = node.x_index, node.y_index, node.side.opposite
        closed, g, h_memo, frontier = self.closed, self.g, self.h_memo, self.frontier
        res, goal, cost = request.lattice.xy_resolution, request.goal_midstance, request.cost
        base = self.seq
        for row in cells:
            dx, dy, first, least, members = row
            if len(members) > 1:
                h = position_heuristic((x + dx) * res, (y + dy) * res, goal, cost)
                heapq.heappush(frontier, (node_g + least + h, -1.0, base + first, node, row))
                continue
            (yaw, bound), = members
            child = FootstepNode(x + dx, y + dy, yaw, side)
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
            heapq.heappush(frontier, (lower + h, h, base + first, child, node))
        self.seq = base + count

    def open_cell(self, parent: FootstepNode, row: tuple, seq: int):
        """Push a lazy edge from `parent` to each open child in a popped cell
        that its lower bound does not already rule out."""
        dx, dy, _, _, members = row
        x, y, side = parent.x_index + dx, parent.y_index + dy, parent.side.opposite
        node_g = self.g[parent]
        closed, g, h_memo, frontier = self.closed, self.g, self.h_memo, self.frontier
        for seq, (yaw, bound) in enumerate(members, seq):
            child = FootstepNode(x, y, yaw, side)
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
        parent_snap = self.snap(parent)
        child_snap = self.snap(child)
        verdict = validate_edge(
            parent_snap, child_snap, parent.side, request.env, request.checker, request.foot
        )
        if verdict is not None:
            stats.children_rejected[verdict] += 1
            if verdict in FOOTHOLD_REASONS:
                self.h_memo[child] = math.inf  # no edge into it is pushed again
            return
        cost = edge_cost(parent_snap, child_snap, parent.side, request.cost)
        self.score(child, self.g[parent] + cost, parent, seq)

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

    def finish(status: PlanStatus, end: FootstepNode | None) -> PlannerResult:
        stats.duration_s = time.monotonic() - t0
        steps: list[PlanStep] = []
        if end is not None:
            steps = search.steps_for(end)
            stats.path_cost = search.g[end]
            stats.path_distance_m = search.path_distance(end)
        return PlannerResult(status, steps, stats, search.tracker_history)

    start_nodes = (
        pose_to_node(request.start_left, Side.LEFT, request.lattice),
        pose_to_node(request.start_right, Side.RIGHT, request.lattice),
    )
    for node in start_nodes:
        if isinstance(search.snap(node), SnapFailure):
            return finish(PlanStatus.INVALID_START, None)
    start_feet = [search.snap(node) for node in start_nodes]
    goal_points = [(p.x, p.y) for p in search.goal_feet.values()]
    stats.no_path_reason = _no_region_chain(request, start_feet, goal_points)
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
