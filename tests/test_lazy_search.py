"""The lazy search against the eager search it replaced, and the lower bound
on a step's cost that keeps the lazy search exact."""

import heapq
import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.costing import (
    CostParams,
    cell_cost_bounds,
    edge_cost,
    heuristic_cost,
    position_heuristic,
)
from footplan.geometry import Pose2, RigidTransform3, rectangle_polygon
from footplan.lattice import (
    ExpansionParams,
    FootstepNode,
    LatticeParams,
    Side,
    expand_node,
    feet_from_midstance,
    node_to_pose,
    pose_to_node,
)
from footplan.params import ParamsBundle
from footplan.planner import (
    PlannerRequest,
    PlannerResult,
    PlanStatus,
    PlanStep,
    SearchStats,
    _Search,
    _within_goal,
    plan,
)
from footplan.region_chain import no_region_chain
from footplan.snapping import SnapFailure, SnapResult, default_foot, snap_pose
from footplan.toolkit import cli, scenario
from footplan.toolkit.generators import generate_environment
from footplan.validity import CheckerParams, validate_edge
from footplan.world import Environment, PlanarRegion

from test_snapping import recompose

ROOT = Path(__file__).resolve().parent.parent


def eager_plan(request: PlannerRequest) -> PlannerResult:
    """The oracle: the eager weighted A* that snaps, validates and scores
    every child of a node when the node is expanded. The first parent to
    score a child keeps it unless a later one is cheaper by more than 1e-12.
    """
    t0 = time.monotonic()
    lattice = request.lattice
    stats = SearchStats()
    g: dict = {}
    parent: dict = {}
    closed: set = set()
    frontier: list = []
    snaps: dict = {}
    h_memo: dict = {}
    history: list[float] = []
    best: list = [None, None]  # (h, g) key, node
    goal_feet = dict(
        zip((Side.LEFT, Side.RIGHT),
            feet_from_midstance(request.goal_midstance, request.cost.nominal_stance_width))
    )

    def snap(node):
        if node not in snaps:
            snaps[node] = snap_pose(node_to_pose(node, lattice), request.env, request.foot)
        return snaps[node]

    def score(node, value, via):
        old = g.get(node)
        if old is not None and value >= old - 1e-12:
            return
        g[node], parent[node] = value, via
        if node not in h_memo:
            h_memo[node] = heuristic_cost(
                node_to_pose(node, lattice), request.goal_midstance, request.cost
            )
        h = h_memo[node]
        if best[0] is None or (h, value) < best[0]:
            best[:] = [(h, value), node]
            history.append(h)
        heapq.heappush(frontier, (value + h, h, score.seq, node))
        score.seq += 1

    score.seq = 0

    def finish(status, end):
        steps = []
        if end is not None:
            nodes = [end]
            while parent[nodes[-1]] is not None:
                nodes.append(parent[nodes[-1]])
            steps = [PlanStep(n.side, snaps[n]) for n in reversed(nodes[:-1])]
            stats.path_cost = g[end]
        return PlannerResult(status, steps, stats, history)

    start_nodes = (
        pose_to_node(request.start_left, Side.LEFT, lattice),
        pose_to_node(request.start_right, Side.RIGHT, lattice),
    )
    if any(isinstance(snap(node), SnapFailure) for node in start_nodes):
        return finish(PlanStatus.INVALID_START, None)
    goal_points = [(p.x, p.y) for p in goal_feet.values()]
    stats.no_path_reason = no_region_chain(
        request, [snap(node) for node in start_nodes], goal_points
    )
    if stats.no_path_reason is not None:
        return finish(PlanStatus.NO_PATH_EXISTS, None)
    for node in start_nodes:
        score(node, 0.0, None)

    while frontier:
        _, _, _, node = heapq.heappop(frontier)
        if node in closed:
            continue
        if time.monotonic() - t0 > request.timeout:
            return finish(PlanStatus.TIMED_OUT_BEST_EFFORT, best[1])
        closed.add(node)
        if _within_goal(node_to_pose(node, lattice), goal_feet[node.side], request):
            return finish(PlanStatus.FOUND_SOLUTION, node)
        stats.nodes_expanded += 1
        parent_snap = snap(node)
        for child in expand_node(node, lattice, request.expansion):
            if child in closed:
                continue
            stats.children_considered += 1
            child_snap = snap(child)
            verdict = validate_edge(
                parent_snap, child_snap, node.side, request.env, request.checker, request.foot
            )
            if verdict is not None:
                stats.children_rejected[verdict] += 1
                continue
            cost = edge_cost(parent_snap, child_snap, node.side, request.cost)
            score(child, g[node] + cost, node)
    return finish(PlanStatus.NO_PATH_EXISTS, None)


def assert_same_search(lazy: PlannerResult, eager: PlannerResult):
    assert lazy.status is eager.status
    assert [(s.side, s.snap.x, s.snap.y, s.snap.z, s.snap.yaw) for s in lazy.steps] == [
        (s.side, s.snap.x, s.snap.y, s.snap.z, s.snap.yaw) for s in eager.steps
    ]
    assert lazy.stats.nodes_expanded == eager.stats.nodes_expanded
    assert lazy.stats.path_cost == eager.stats.path_cost
    assert lazy.stats.children_considered <= eager.stats.children_considered
    assert lazy.stats.no_path_reason == eager.stats.no_path_reason


# ---------------------------------------------------------------------------
# Generated worlds


def slab(region_id, x_lo, x_hi, width, z, pitch=0.0, roll=0.0):
    center = np.array([(x_lo + x_hi) / 2.0, 0.0, z])
    rotation = recompose(0.0, pitch, roll)
    return PlanarRegion(
        region_id, RigidTransform3(rotation, center), [rectangle_polygon(x_hi - x_lo, width)]
    )


@st.composite
def terrain_requests(draw):
    """A walk along x over 1-4 slabs: flat ground, steps up and down near
    the step height limits, gaps near the step reach, gentle tilts. The
    lattice, the action box and the cost weights are drawn too; inflation
    1.0 and the symmetric lattice make many exact cost ties."""
    kind = draw(st.sampled_from(("flat", "stepped", "gapped")))
    regions = []
    x = -0.4
    for region_id in range(draw(st.integers(1, 4))):
        length = draw(st.sampled_from((0.4, 0.5, 0.6, 0.8)))
        z = 0.0
        gap = 0.0
        if region_id and kind == "stepped":
            z = draw(st.sampled_from((-0.4, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4)))
        if region_id and kind == "gapped":
            gap = draw(st.sampled_from((0.05, 0.1, 0.2, 0.3)))
        tilt = st.one_of(st.just(0.0), st.floats(-0.15, 0.15))
        x += gap
        regions.append(slab(region_id, x, x + length, draw(st.floats(0.5, 0.8)), z,
                            draw(tilt), draw(tilt)))
        x += length
    # lattices coarse enough that an exhausted search takes under a second
    xy_resolution, yaw_count = draw(st.sampled_from(((0.05, 4), (0.05, 8), (0.1, 8), (0.1, 12))))
    lattice = LatticeParams(xy_resolution, math.tau / yaw_count)
    turn = draw(st.sampled_from((0.0, math.tau / 8)))
    expansion = ExpansionParams(
        min_length=draw(st.sampled_from((-0.1, 0.0))),
        max_length=draw(st.sampled_from((0.3, 0.4))),
        min_width=0.15,
        max_width=draw(st.sampled_from((0.25, 0.35))),
        min_yaw_delta=-turn,
        max_yaw_delta=turn,
    )
    cost = CostParams(
        w_distance=draw(st.sampled_from((0.5, 1.0))),
        w_height=draw(st.sampled_from((0.0, 2.0))),
        w_yaw=draw(st.sampled_from((0.0, 0.3))),
        cost_per_step=draw(st.sampled_from((0.0, 0.15))),
        inflation=draw(st.sampled_from((1.0, 1.5, 3.0))),
    )
    goal = Pose2(x - draw(st.floats(0.15, 0.3)), draw(st.floats(-0.1, 0.1)), 0.0)
    return PlannerRequest(
        env=Environment(regions),
        start_left=Pose2(-0.2, 0.125, 0.0),
        start_right=Pose2(-0.2, -0.125, 0.0),
        goal_midstance=goal,
        timeout=60.0,
        lattice=lattice,
        expansion=expansion,
        checker=CheckerParams(max_reach=0.45),
        cost=cost,
    )


@settings(max_examples=100)
@given(terrain_requests())
def test_lazy_search_matches_the_eager_search_on_generated_worlds(request):
    assert_same_search(plan(request), eager_plan(request))


def test_equal_cost_ties_keep_the_parent_the_eager_search_scored_first():
    # two parents reach a node at costs within 1e-12 of each other; the lazy
    # search must keep the one the eager search scored first, whichever edge
    # it evaluates first
    env = Environment([
        slab(0, -0.4, 0.0, 1.0, 0.0), slab(1, 0.0, 0.6, 1.0, 0.0), slab(2, 0.6, 1.0, 1.0, 0.0)
    ])
    request = PlannerRequest(
        env=env,
        start_left=Pose2(-0.2, 0.125, 0.0),
        start_right=Pose2(-0.2, -0.125, 0.0),
        goal_midstance=Pose2(0.75, 0.125, 0.0),
        lattice=LatticeParams(0.1, math.tau / 8),
        expansion=ExpansionParams(
            min_length=-0.1, max_length=0.3, min_width=0.15, max_width=0.25,
            min_yaw_delta=0.0, max_yaw_delta=0.0,
        ),
        checker=CheckerParams(max_reach=0.45),
        cost=CostParams(w_distance=0.5, w_height=0.0, cost_per_step=0.0, inflation=1.0),
    )
    assert_same_search(plan(request), eager_plan(request))


# ---------------------------------------------------------------------------
# Benchmark corpora


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["terrain", "replan", "infeasible"])
def test_lazy_search_matches_the_eager_search_on_the_bench_corpora(
    workload, tmp_path, monkeypatch
):
    workloads = load_workloads()
    cases, probe = workloads.build_cases(workload, 1, 30.0, tmp_path / "cases")
    unique = {case.label: case for case in cases + ([probe] if probe else [])}
    compared = []

    def both(request):
        lazy = plan(request)
        assert_same_search(lazy, eager_plan(request))
        compared.append(lazy.status)
        return lazy

    monkeypatch.setattr(cli, "plan", both)
    monkeypatch.setattr(scenario, "plan", both)
    for case in unique.values():
        extra = ["--no-wiggle"] if case.argv[0] == "plan" else []
        cli.main(list(case.argv) + extra + ["--out", str(tmp_path / "out.json")])
    assert len(compared) >= len(unique)


# ---------------------------------------------------------------------------
# The lower bound on a step's cost


def edge_bounds(lattice, expansion, cost, side, yaw_index) -> list[float]:
    """`cell_cost_bounds`' lower bound on each step's cost, flattened from its
    rows back into `expand_node`'s order."""
    rows, count = cell_cost_bounds(lattice, expansion, cost, side, yaw_index)
    bounds = [bound for *_, members in rows for _, bound in members]
    assert len(bounds) == count
    return bounds


@st.composite
def lattices_and_boxes(draw):
    """A lattice and an action box, each drawn over a wide range."""
    yaw_count = draw(st.sampled_from((4, 8, 12, 36, 72)))
    lattice = LatticeParams(draw(st.sampled_from((0.02, 0.05, 0.1))), math.tau / yaw_count)
    lo_len = draw(st.floats(-0.3, 0.1))
    lo_wid = draw(st.floats(0.0, 0.2))
    lo_yaw = draw(st.floats(-math.pi / 3, 0.0))
    expansion = ExpansionParams(
        min_length=lo_len,
        max_length=lo_len + draw(st.floats(0.05, 0.4)),
        min_width=lo_wid,
        max_width=lo_wid + draw(st.floats(0.05, 0.3)),
        min_yaw_delta=lo_yaw,
        max_yaw_delta=lo_yaw + draw(st.floats(0.0, math.pi / 2)),
        max_reach=draw(st.floats(0.2, 0.6)),
    )
    return lattice, expansion


@st.composite
def tilted_steps(draw):
    """A parent node on a tilted slab, possibly far from the origin, with a
    drawn lattice, action box and cost weights; a second slab at another
    height and tilt takes part of the children."""
    lattice, expansion = draw(lattices_and_boxes())
    weights = st.floats(0.0, 3.0)
    cost = CostParams(
        w_distance=draw(weights),
        w_height=draw(weights),
        w_yaw=draw(weights),
        w_area=draw(weights),
        w_roll_pitch=draw(weights),
        cost_per_step=draw(weights),
        nominal_stance_width=draw(st.floats(0.1, 0.4)),
    )
    side = draw(st.sampled_from((Side.LEFT, Side.RIGHT)))
    far = draw(st.sampled_from((0, 1000, 100_000)))
    node = FootstepNode(
        draw(st.integers(-far - 3, far + 3)),
        draw(st.integers(-far - 3, far + 3)),
        draw(st.integers(0, lattice.yaw_count - 1)),
        side,
    )
    pose = node_to_pose(node, lattice)
    tilt = st.floats(-0.6, 0.6)
    regions = []
    for region_id, (dx, dz) in enumerate(((0.0, 0.0), (draw(st.floats(0.0, 0.6)),
                                                      draw(st.floats(-0.3, 0.3))))):
        rotation = recompose(draw(st.floats(-math.pi, math.pi)), draw(tilt), draw(tilt))
        center = np.array([pose.x + dx, pose.y, draw(st.floats(-1.0, 1.0)) + dz])
        regions.append(
            PlanarRegion(region_id, RigidTransform3(rotation, center), [rectangle_polygon(
                draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0)))])
        )
    return Environment(regions), lattice, expansion, cost, node


@settings(max_examples=150)
@given(tilted_steps())
def test_edge_cost_bounds_never_exceed_the_edge_cost(draw_args):
    env, lattice, expansion, cost, node = draw_args
    foot = default_foot()
    parent_snap = snap_pose(node_to_pose(node, lattice), env, foot)
    if not isinstance(parent_snap, SnapResult):
        return
    children = expand_node(node, lattice, expansion)
    bounds = edge_bounds(lattice, expansion, cost, node.side, node.yaw_index)
    assert len(bounds) == len(children)
    for child, bound in zip(children, bounds):
        child_snap = snap_pose(node_to_pose(child, lattice), env, foot)
        if isinstance(child_snap, SnapResult):
            assert bound <= edge_cost(parent_snap, child_snap, node.side, cost)


def test_edge_cost_bounds_are_tight_on_flat_ground():
    # on flat ground with full support only the planar terms are charged,
    # so the bound sits exactly its margin below the cost
    env = Environment([slab(0, -2.0, 2.0, 4.0, 0.3)])
    lattice, expansion, cost = LatticeParams(), ExpansionParams(), CostParams()
    for side in (Side.LEFT, Side.RIGHT):
        node = FootstepNode(3, -2, 7, side)
        parent_snap = snap_pose(node_to_pose(node, lattice), env, default_foot())
        children = expand_node(node, lattice, expansion)
        bounds = edge_bounds(lattice, expansion, cost, side, node.yaw_index)
        for child, bound in zip(children, bounds):
            child_snap = snap_pose(node_to_pose(child, lattice), env, default_foot())
            assert edge_cost(parent_snap, child_snap, side, cost) - bound == pytest.approx(
                1e-9, abs=1e-12
            )


# ---------------------------------------------------------------------------
# Cells: the frontier entry that stands for an expanded node's edges into one
# lattice cell until the cell reaches the front


@st.composite
def cell_expansions(draw):
    """An expanded node up to 100 km from the origin, with its score, a goal,
    a drawn lattice, action box and cost weights (zeros and inflation 1-3
    included)."""
    lattice, expansion = draw(lattices_and_boxes())
    weight = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    cost = CostParams(
        w_distance=draw(weight),
        w_yaw=draw(weight),
        cost_per_step=draw(weight),
        inflation=draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0))),
        final_turn_radius=draw(st.floats(0.1, 1.0)),
        max_step_length_for_heuristic=draw(st.floats(0.1, 0.6)),
        nominal_stance_width=draw(st.floats(0.1, 0.4)),
    )
    far = round(draw(st.sampled_from((0.0, 1e3, 1e5))) / lattice.xy_resolution)
    node = FootstepNode(
        draw(st.integers(-far - 3, far + 3)),
        draw(st.integers(-far - 3, far + 3)),
        draw(st.integers(0, lattice.yaw_count - 1)),
        draw(st.sampled_from((Side.LEFT, Side.RIGHT))),
    )
    pose = node_to_pose(node, lattice)
    heading = draw(st.floats(-math.pi, math.pi))
    distance = draw(st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e3)))
    goal = Pose2(pose.x + distance * math.cos(heading), pose.y + distance * math.sin(heading),
                 draw(st.floats(-math.pi, math.pi)))
    request = PlannerRequest(
        env=Environment([]),
        start_left=Pose2(pose.x, pose.y + 0.1, 0.0),
        start_right=Pose2(pose.x, pose.y - 0.1, 0.0),
        goal_midstance=goal,
        lattice=lattice,
        expansion=expansion,
        cost=cost,
    )
    return request, node, draw(st.floats(0.0, 1e4))


@settings(max_examples=300)
@given(cell_expansions())
def test_a_cell_key_never_exceeds_the_key_of_an_edge_in_it(draw_args):
    request, node, node_g = draw_args
    search = _Search(request)
    search.g[node] = node_g
    search.seq = base = 7
    search.push_edges(node)
    lattice, goal, cost = request.lattice, request.goal_midstance, request.cost

    def h(child):
        return heuristic_cost(node_to_pose(child, lattice), goal, cost)

    bounds = edge_bounds(lattice, request.expansion, cost, node.side, node.yaw_index)
    children = expand_node(node, lattice, request.expansion)
    edges = {}  # seq -> child, over the edges pushed at once and those in cells
    for f, h_slot, seq, first, via in search.frontier:
        if h_slot >= 0.0:
            assert via == node and (f, h_slot) == (node_g + bounds[seq - base] + h(first), h(first))
            edges[seq] = first
            continue
        dx, dy, _, _, members = via
        x, y = node.x_index + dx, node.y_index + dy
        h_pos = position_heuristic(x * lattice.xy_resolution, y * lattice.xy_resolution, goal, cost)
        for yaw_index in range(lattice.yaw_count):
            assert h_pos <= h(FootstepNode(x, y, yaw_index, node.side.opposite))
        for k, (yaw_index, bound) in enumerate(members):
            child = FootstepNode(x, y, yaw_index, node.side.opposite)
            assert (f, h_slot, seq) <= (node_g + bound + h(child), h(child), seq + k)
            edges[seq + k] = child
    assert search.seq == base + len(children)
    assert edges == {base + k: child for k, child in enumerate(children)}


def test_a_multi_yaw_expansion_pushes_and_scores_a_fraction_of_its_children(monkeypatch):
    # a seed-1 cinder field with the default parameters: over 500 children
    # per expansion, each of which used to be heap-pushed with its heuristic
    params = ParamsBundle()
    env = generate_environment("cinder-field", 1, {"cols": 2})
    left, right = feet_from_midstance(Pose2(-0.6, 0.0, 0.0), params.cost.nominal_stance_width)
    request = params.planner_request(env, left, right, Pose2(1.35, 0.0, 0.0), 60.0)
    counts = {"heuristic_cost": 0, "heappush": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr("footplan.planner.heuristic_cost", counted("heuristic_cost", heuristic_cost))
    monkeypatch.setattr(heapq, "heappush", counted("heappush", heapq.heappush))
    result = plan(request)
    assert result.status is PlanStatus.FOUND_SOLUTION
    expansions = result.stats.nodes_expanded
    least_children = min(
        len(expand_node(FootstepNode(0, 0, yaw_index, side), request.lattice, request.expansion))
        for yaw_index in range(request.lattice.yaw_count) for side in Side
    )
    assert expansions > 5 and least_children > 500
    assert counts["heuristic_cost"] < 0.2 * least_children * expansions
    assert counts["heappush"] < 0.5 * least_children * expansions
