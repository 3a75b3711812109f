"""Edge cost and heuristic behavior, checked against independent recomputations."""

import math
import random

import pytest

from footplan.costing import CostParams, edge_cost, heuristic_cost, reference_yaw
from footplan.geometry import Pose2, rotation_z
from footplan.lattice import Side
from footplan.snapping import SnapResult

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Oracles


def circular_mean(a, b):
    return math.atan2(math.sin(a) + math.sin(b), math.cos(a) + math.cos(b))


def wrap(angle):
    wrapped = math.fmod(angle, TAU)
    if wrapped > math.pi:
        wrapped -= TAU
    elif wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


def oracle_edge_cost(parent, child, side, params):
    """Recompute every term straight from its definition.

    The nominal midstance sits half a stance width from the stance foot,
    toward the swing side (stance-frame y sign given by the side's mirror
    sign).  Yaw terms use the circular mean of the two foot headings.
    """
    px, py, pyaw, pz = parent
    cx, cy, cyaw, cz = child
    sign = -1.0 if side is Side.LEFT else 1.0
    half = params.nominal_stance_width / 2.0
    nominal = (
        px + math.cos(pyaw) * 0.0 - math.sin(pyaw) * sign * half,
        py + math.sin(pyaw) * 0.0 + math.cos(pyaw) * sign * half,
    )
    mid = ((px + cx) / 2.0, (py + cy) / 2.0)
    mid_yaw = circular_mean(pyaw, cyaw)
    return (
        params.w_distance * math.hypot(mid[0] - nominal[0], mid[1] - nominal[1])
        + params.w_height * abs(cz - pz)
        + params.w_yaw * abs(wrap(mid_yaw - pyaw))
        + params.cost_per_step
    )


def fake_snap(x, y, yaw=0.0, z=0.0, fraction=1.0, roll=0.0, pitch=0.0):
    return SnapResult(
        x=x,
        y=y,
        z=z,
        yaw=yaw,
        surface_roll=roll,
        surface_pitch=pitch,
        region_id=0,
        crop=None,
        area_fraction=fraction,
        rotation=rotation_z(yaw),
        sole=(),
        piece_index=None,
    )


PARAMS = CostParams()


# ---------------------------------------------------------------------------
# Edge cost


def test_step_to_nominal_stance_costs_only_the_step_charge():
    # left stance at the origin, swing foot placed exactly one stance width
    # to its right: the midstance does not move
    parent = fake_snap(0.0, 0.0)
    child = fake_snap(0.0, -PARAMS.nominal_stance_width)
    assert edge_cost(parent, child, Side.LEFT, PARAMS) == pytest.approx(
        PARAMS.cost_per_step, abs=1e-12
    )
    # and mirrored for a right stance
    child_left = fake_snap(0.0, PARAMS.nominal_stance_width)
    assert edge_cost(parent, child_left, Side.RIGHT, PARAMS) == pytest.approx(
        PARAMS.cost_per_step, abs=1e-12
    )


def test_forward_step_charges_midstance_travel():
    parent = fake_snap(0.0, 0.125)
    child = fake_snap(0.5, -0.125)
    expected = PARAMS.w_distance * 0.25 + PARAMS.cost_per_step
    assert edge_cost(parent, child, Side.LEFT, PARAMS) == pytest.approx(expected, abs=1e-12)


def test_height_change_is_charged_symmetrically():
    parent = fake_snap(0.0, 0.125)
    up = fake_snap(0.0, -0.125, z=0.3)
    down = fake_snap(0.0, -0.125, z=-0.3)
    base = edge_cost(parent, fake_snap(0.0, -0.125), Side.LEFT, PARAMS)
    lifted = edge_cost(parent, up, Side.LEFT, PARAMS)
    dropped = edge_cost(parent, down, Side.LEFT, PARAMS)
    assert lifted == pytest.approx(base + PARAMS.w_height * 0.3, abs=1e-12)
    assert dropped == pytest.approx(lifted, abs=1e-12)


def test_yaw_term_uses_midstance_heading_change():
    parent = fake_snap(0.0, 0.125)
    child = fake_snap(0.0, -0.125, yaw=math.radians(30.0))
    base = edge_cost(parent, fake_snap(0.0, -0.125), Side.LEFT, PARAMS)
    turned = edge_cost(parent, child, Side.LEFT, PARAMS)
    assert turned == pytest.approx(base + PARAMS.w_yaw * math.radians(15.0), abs=1e-12)


def test_partial_foothold_and_tilt_penalties():
    parent = fake_snap(0.0, 0.125)
    child = fake_snap(0.0, -0.125, fraction=0.8, roll=0.1, pitch=-0.2)
    base = edge_cost(parent, fake_snap(0.0, -0.125), Side.LEFT, PARAMS)
    got = edge_cost(parent, child, Side.LEFT, PARAMS)
    extra = PARAMS.w_area * 0.2 + PARAMS.w_roll_pitch * (0.1 + 0.2)
    assert got == pytest.approx(base + extra, abs=1e-12)


def test_edge_cost_matches_term_by_term_oracle():
    rng = random.Random(20260816)
    for _ in range(200):
        pyaw = rng.uniform(-math.pi, math.pi)
        # keep the headings well within a half turn of each other so the
        # circular mean is unambiguous
        cyaw = pyaw + rng.uniform(-1.2, 1.2)
        parent = (rng.uniform(-1, 1), rng.uniform(-1, 1), pyaw, rng.uniform(-0.3, 0.3))
        child = (
            parent[0] + rng.uniform(-0.5, 0.5),
            parent[1] + rng.uniform(-0.5, 0.5),
            cyaw,
            rng.uniform(-0.3, 0.3),
        )
        side = rng.choice([Side.LEFT, Side.RIGHT])
        expected = oracle_edge_cost(parent, child, side, PARAMS)
        got = edge_cost(
            fake_snap(parent[0], parent[1], yaw=parent[2], z=parent[3]),
            fake_snap(child[0], child[1], yaw=child[2], z=child[3]),
            side,
            PARAMS,
        )
        assert got == pytest.approx(expected, abs=1e-9)


def test_edge_cost_is_rigid_motion_invariant():
    rng = random.Random(7)
    for _ in range(50):
        parent = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-2, 2))
        child = (
            parent[0] + rng.uniform(-0.4, 0.4),
            parent[1] + rng.uniform(-0.4, 0.4),
            parent[2] + rng.uniform(-0.8, 0.8),
        )
        side = rng.choice([Side.LEFT, Side.RIGHT])
        base = edge_cost(fake_snap(*parent), fake_snap(*child), side, PARAMS)
        tx, ty, theta = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def moved(pose):
            x, y, yaw = pose
            return (tx + cos_t * x - sin_t * y, ty + sin_t * x + cos_t * y, yaw + theta)

        shifted = edge_cost(fake_snap(*moved(parent)), fake_snap(*moved(child)), side, PARAMS)
        assert shifted == pytest.approx(base, abs=1e-9)


def test_edge_cost_mirror_symmetry():
    rng = random.Random(99)
    for _ in range(50):
        parent = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-2, 2))
        child = (
            parent[0] + rng.uniform(-0.4, 0.4),
            parent[1] + rng.uniform(-0.4, 0.4),
            parent[2] + rng.uniform(-0.8, 0.8),
        )
        left = edge_cost(fake_snap(*parent), fake_snap(*child), Side.LEFT, PARAMS)
        flipped = edge_cost(
            fake_snap(parent[0], -parent[1], yaw=-parent[2]),
            fake_snap(child[0], -child[1], yaw=-child[2]),
            Side.RIGHT,
            PARAMS,
        )
        assert flipped == pytest.approx(left, abs=1e-9)


# ---------------------------------------------------------------------------
# Reference heading


def test_reference_yaw_points_at_the_goal_when_far():
    goal = Pose2(2.0, 2.0, math.pi / 2.0)
    assert reference_yaw((0.0, 0.0), goal, PARAMS) == pytest.approx(math.pi / 4.0)
    assert reference_yaw((2.0, 0.0), goal, PARAMS) == pytest.approx(math.pi / 2.0)


def test_reference_yaw_blends_inside_the_final_turn():
    goal = Pose2(1.0, 0.0, math.pi / 2.0)
    # halfway into the turn radius: halfway between approach heading and goal yaw
    position = (1.0 - PARAMS.final_turn_radius / 2.0, 0.0)
    assert reference_yaw(position, goal, PARAMS) == pytest.approx(math.pi / 4.0)
    # at the goal position the heading is the goal's own yaw
    assert reference_yaw((1.0, 0.0), goal, PARAMS) == pytest.approx(math.pi / 2.0)


def test_reference_yaw_is_continuous_at_the_turn_radius():
    goal = Pose2(1.0, 0.0, math.radians(80.0))
    r = PARAMS.final_turn_radius
    just_out = reference_yaw((1.0 - r - 1e-9, 0.0), goal, PARAMS)
    just_in = reference_yaw((1.0 - r + 1e-9, 0.0), goal, PARAMS)
    assert abs(just_out - just_in) < 1e-6


def test_reference_yaw_degenerate_start_and_goal():
    goal = Pose2(1.0, 1.0, 0.7)
    assert reference_yaw((1.0, 1.0), goal, PARAMS) == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# Heuristic


def test_heuristic_worked_example():
    # one metre out, already facing the goal: distance plus three step charges,
    # all inflated
    pose = Pose2(0.0, 0.0, 0.0)
    goal = Pose2(1.0, 0.0, 0.0)
    steps = 3  # ceil(1.0 / 0.45)
    expected = PARAMS.inflation * (1.0 + steps * PARAMS.cost_per_step)
    assert heuristic_cost(pose, goal, PARAMS) == pytest.approx(expected, abs=1e-12)


def test_heuristic_step_count_does_not_overshoot_on_exact_multiples():
    pose = Pose2(0.0, 0.0, 0.0)
    goal = Pose2(0.9, 0.0, 0.0)
    expected = PARAMS.inflation * (0.9 + 2 * PARAMS.cost_per_step)
    assert heuristic_cost(pose, goal, PARAMS) == pytest.approx(expected, abs=1e-9)


def test_heuristic_vanishes_at_the_goal():
    goal = Pose2(1.0, 2.0, 0.4)
    assert heuristic_cost(Pose2(1.0, 2.0, 0.4), goal, PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_heuristic_charges_heading_error():
    goal = Pose2(10.0, 0.0, 0.0)
    aligned = heuristic_cost(Pose2(0.0, 0.0, 0.0), goal, PARAMS)
    skewed = heuristic_cost(Pose2(0.0, 0.0, 1.0), goal, PARAMS)
    assert skewed == pytest.approx(aligned + PARAMS.inflation * PARAMS.w_yaw * 1.0, abs=1e-9)


def test_heuristic_scales_with_inflation():
    tight = CostParams(inflation=1.0)
    loose = CostParams(inflation=2.0)
    pose = Pose2(0.0, 0.0, 0.3)
    goal = Pose2(2.0, 1.0, -0.5)
    assert heuristic_cost(pose, goal, loose) == pytest.approx(
        2.0 * heuristic_cost(pose, goal, tight), abs=1e-12
    )


def test_heuristic_grows_with_distance():
    goal = Pose2(0.0, 0.0, 0.0)
    values = [heuristic_cost(Pose2(-d, 0.0, 0.0), goal, PARAMS) for d in (0.5, 1.0, 2.0)]
    assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------------------
# Parameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"w_distance": -0.1},
        {"w_yaw": -1.0},
        {"cost_per_step": -0.01},
        {"inflation": 0.99},
        {"final_turn_radius": 0.0},
        {"max_step_length_for_heuristic": 0.0},
        {"nominal_stance_width": -0.25},
    ],
)
def test_cost_params_validation(kwargs):
    with pytest.raises(ValueError):
        CostParams(**kwargs)
