"""Foothold adjustment QP: constraint assembly, optimality, and fallbacks."""

import json
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.constants import QP_FEAS_TOL, QP_KKT_TOL
from footplan.geometry import ConvexPolygon2, Pose2, RigidTransform3, rectangle_polygon
from footplan.lattice import Side
from footplan.planner import PlannerResult, PlanStatus, PlanStep, SearchStats
from footplan.snapping import SnapResult, crop_foothold, default_foot, snap_pose
from footplan.toolkit import cli
from footplan.wiggle import (
    WiggleParams,
    _inset_qps,
    kkt_residual,
    solve_qp3,
    wiggle_plan,
    wiggle_step,
)
from footplan.world import Environment, PlanarRegion, environment_to_json

from test_geometry import min_inside_distance, random_convex_polygon
from test_world import flat_region

FOOT = default_foot()


def snapped_step(x, y, yaw, env, side=Side.LEFT):
    snap = snap_pose(Pose2(x, y, yaw), env, FOOT)
    assert isinstance(snap, SnapResult)
    return PlanStep(side, snap)


def build_wiggle_qp(foothold, region_piece, params):
    """Oracle helper: the vertex-containment QP at params.inset_distance."""
    return _inset_qps(foothold, region_piece, params)(params.inset_distance)


def objective(qp, q):
    return float(q @ qp.weights @ q)


def polygon_min_inset(sole_vertices, piece_vertices):
    return min(min_inside_distance(v, piece_vertices) for v in sole_vertices)


# ---------------------------------------------------------------------------
# Constraint assembly


def test_qp_rows_encode_translated_containment_exactly():
    # with zero rotation the linearization is exact: row satisfaction must
    # coincide with every shifted vertex sitting inset-deep inside the piece
    rng = random.Random(5)
    piece = rectangle_polygon(1.0, 0.8)
    sole = rectangle_polygon(0.2, 0.1, center=(0.2, 0.1))
    params = WiggleParams(inset_distance=0.03, max_translation=0.5, max_rotation=0.1)
    qp = build_wiggle_qp(sole, piece, params)
    assert qp.rows.shape == (len(sole.vertices) * 4, 3)
    for _ in range(200):
        shift = (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        q = np.array([shift[0], shift[1], 0.0])
        rows_ok = bool(np.all(qp.rows @ q <= qp.rhs + 1e-12))
        moved = [(vx + shift[0], vy + shift[1]) for vx, vy in sole.vertices]
        geom_ok = polygon_min_inset(moved, piece.vertices) >= params.inset_distance - 1e-12
        assert rows_ok == geom_ok


def test_qp_rows_match_small_rotations():
    piece = rectangle_polygon(1.0, 1.0)
    sole = rectangle_polygon(0.22, 0.11)
    params = WiggleParams(inset_distance=0.01, max_translation=0.1, max_rotation=0.1)
    qp = build_wiggle_qp(sole, piece, params)
    theta = 1e-4
    q = np.array([0.0, 0.0, theta])
    cx, cy = sole.centroid()
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rotated = [
        (cx + cos_t * (vx - cx) - sin_t * (vy - cy), cy + sin_t * (vx - cx) + cos_t * (vy - cy))
        for vx, vy in sole.vertices
    ]
    linear_margin = float((qp.rhs - qp.rows @ q).min())
    exact_margin = polygon_min_inset(rotated, piece.vertices) - params.inset_distance
    assert linear_margin == pytest.approx(exact_margin, abs=1e-7)


def test_qp_bounds_are_the_shift_caps():
    params = WiggleParams(max_translation=0.03, max_rotation=math.radians(4.0))
    qp = build_wiggle_qp(rectangle_polygon(0.1, 0.1), rectangle_polygon(1.0, 1.0), params)
    assert np.allclose(qp.upper, [0.03, 0.03, math.radians(4.0)])
    assert np.allclose(qp.lower, -qp.upper)


# ---------------------------------------------------------------------------
# Solver


def test_already_inset_foothold_stays_put():
    qp = build_wiggle_qp(
        rectangle_polygon(0.2, 0.2), rectangle_polygon(1.0, 1.0), WiggleParams()
    )
    q = solve_qp3(qp)
    assert q is not None
    assert float(np.linalg.norm(q)) <= 1e-9
    assert kkt_residual(qp, q) <= 1e-8


def test_single_violated_side_has_closed_form_shift():
    # the sole pokes 0.01 past the inset line on +x only: the cheapest fix is
    # a pure -x translation, rotation cannot help both corners at once
    params = WiggleParams(inset_distance=0.02, max_translation=0.05)
    sole = rectangle_polygon(0.2, 0.2, center=(0.39, 0.0))
    qp = build_wiggle_qp(sole, rectangle_polygon(1.0, 1.0), params)
    q = solve_qp3(qp)
    assert q is not None
    assert q[0] == pytest.approx(-0.01, abs=1e-9)
    assert q[1] == pytest.approx(0.0, abs=1e-9)
    assert q[2] == pytest.approx(0.0, abs=1e-9)
    assert kkt_residual(qp, q) <= 1e-8


def test_infeasible_containment_returns_none():
    # the sole is wider than the strip, no shift can contain it
    qp = build_wiggle_qp(
        rectangle_polygon(0.22, 0.11),
        rectangle_polygon(1.0, 0.1),
        WiggleParams(inset_distance=0.0),
    )
    assert solve_qp3(qp) is None


def test_random_qps_reach_grid_scan_optimum():
    rng = random.Random(20260816)
    checked = 0
    while checked < 40:
        piece = random_convex_polygon(rng, radius=rng.uniform(0.3, 0.6), sides=rng.randrange(4, 8))
        px, py = piece.centroid()
        angle = rng.uniform(0, 2 * math.pi)
        reach = rng.uniform(0.0, 0.25)
        sole = rectangle_polygon(
            0.06, 0.04, center=(px + reach * math.cos(angle), py + reach * math.sin(angle))
        )
        params = WiggleParams(inset_distance=0.005, max_translation=0.05)
        qp = build_wiggle_qp(sole, piece, params)
        q = solve_qp3(qp)
        if q is None:
            continue
        checked += 1
        assert kkt_residual(qp, q) <= 1e-8

        axes = [np.linspace(qp.lower[i], qp.upper[i], 21) for i in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        feasible = grid[np.all(qp.rows @ grid.T <= qp.rhs[:, None] + 1e-9, axis=0)]
        if len(feasible):
            grid_best = float(np.min(np.einsum("ij,jk,ik->i", feasible, qp.weights, feasible)))
            assert objective(qp, q) <= grid_best + 1e-9


def feasible_vertices(qp):
    """Every point where three rows (box included) meet and all rows hold.

    The box bounds the feasible set, so it is empty iff this list is.
    """
    rows = np.vstack([qp.rows, np.eye(3), -np.eye(3)])
    rhs = np.concatenate([qp.rhs, qp.upper, -qp.lower])
    triples = np.array(list(combinations(range(len(rows)), 3)))
    systems = rows[triples]
    regular = np.abs(np.linalg.det(systems)) > 1e-12
    points = np.linalg.solve(systems[regular], rhs[triples[regular]][..., None])[..., 0]
    return points[np.all(points @ rows.T - rhs <= QP_FEAS_TOL, axis=1)]


@st.composite
def wiggle_qps(draw):
    unit = st.floats(0.0, 1.0)
    sides = draw(st.integers(3, 8))
    gaps = np.cumsum([0.2 + draw(unit) for _ in range(sides)])
    turn = draw(unit) * math.tau
    radius = draw(st.floats(0.05, 0.5))
    piece = ConvexPolygon2(
        [(radius * math.cos(turn + math.tau * g / gaps[-1]),
          radius * math.sin(turn + math.tau * g / gaps[-1])) for g in gaps]
    )
    yaw = draw(unit) * math.tau
    center = (draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)))
    outline = rectangle_polygon(draw(st.floats(0.02, 0.25)), draw(st.floats(0.02, 0.12)))
    sole = ConvexPolygon2(
        [(center[0] + math.cos(yaw) * x - math.sin(yaw) * y,
          center[1] + math.sin(yaw) * x + math.cos(yaw) * y) for x, y in outline.vertices]
    )
    params = WiggleParams(
        inset_distance=draw(st.floats(0.0, 0.03)),
        max_translation=draw(st.floats(0.005, 0.1)),
        max_rotation=draw(st.floats(0.01, 0.3)),
        weights=(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)), draw(st.floats(0.01, 1.0))),
    )
    return build_wiggle_qp(sole, piece, params)


@settings(max_examples=150)
@given(wiggle_qps())
def test_solve_qp3_matches_vertex_enumeration(qp):
    vertices = feasible_vertices(qp)
    q = solve_qp3(qp)
    assert (q is None) == (len(vertices) == 0)
    if q is not None:
        assert kkt_residual(qp, q) <= QP_KKT_TOL
        best = float(np.min(np.einsum("ij,jk,ik->i", vertices, qp.weights, vertices)))
        assert objective(qp, q) <= best + 1e-9


# ---------------------------------------------------------------------------
# Certificate


def test_kkt_residual_certifies_the_optimum_on_an_exact_fit_strip():
    # sole width + 2 * inset = strip width: four dependent rows are active at
    # the optimum, and one least-squares fit over all of them would give two
    # negative multipliers and a residual near 1e-2
    inset = 0.0105
    sole = rectangle_polygon(0.22, 0.11, center=(0.1, 0.01))
    strip = rectangle_polygon(1.0, 0.11 + 2 * inset)
    qp = build_wiggle_qp(sole, strip, WiggleParams(inset_distance=inset))
    q = solve_qp3(qp)
    assert q is not None
    np.testing.assert_allclose(q, [0.0, -0.01, 0.0], atol=1e-12)
    assert kkt_residual(qp, q) <= 1e-8
    # still feasible, but the slide along the strip buys nothing
    assert kkt_residual(qp, q + np.array([0.001, 0.0, 0.0])) > 1e-8


# ---------------------------------------------------------------------------
# Step-level behavior


def test_wiggle_pulls_an_overhanging_foot_inside():
    env = Environment([flat_region(0, 1.0, 1.0)])
    step = snapped_step(0.40, 0.0, 0.0, env)
    outcome = wiggle_step(step, env, FOOT, WiggleParams())
    # the full 0.02 inset needs a 0.03 shift, over the cap; half succeeds
    assert outcome.inset_used == pytest.approx(0.01, abs=1e-15)
    assert outcome.translation[0] == pytest.approx(-0.02, abs=1e-9)
    assert outcome.translation[1] == pytest.approx(0.0, abs=1e-9)
    assert outcome.rotation == pytest.approx(0.0, abs=1e-9)

    snap = outcome.step.snap
    rotation = np.array(snap.rotation)[:2, :2]
    sole = [tuple(rotation @ (u, v) + snap.center[:2]) for u, v in FOOT.sole.vertices]
    region_outline = [(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)]
    outline = ConvexPolygon2(region_outline)
    assert polygon_min_inset(sole, outline.vertices) >= 0.01 - 1e-9


def test_wiggle_is_idempotent_once_settled():
    env = Environment([flat_region(0, 1.0, 1.0)])
    params = WiggleParams()
    first = wiggle_step(snapped_step(0.35, 0.05, 0.0, env), env, FOOT, params)
    assert first.inset_used == pytest.approx(params.inset_distance, abs=1e-15)
    second = wiggle_step(first.step, env, FOOT, params)
    assert second.inset_used == pytest.approx(params.inset_distance, abs=1e-15)
    assert math.hypot(*second.translation) <= 1e-9
    assert abs(second.rotation) <= 1e-9
    np.testing.assert_allclose(second.step.snap.center, first.step.snap.center, atol=1e-9)


def test_inset_halves_until_the_strip_admits_it():
    # strip half-width 0.0655 minus sole half-width 0.055 leaves room for a
    # 0.0105 inset: the 0.02 request fails, its first halving fits
    env = Environment([flat_region(0, 2.0, 0.131)])
    outcome = wiggle_step(snapped_step(0.0, 0.0, 0.0, env), env, FOOT, WiggleParams())
    assert outcome.inset_used == pytest.approx(0.01, abs=1e-15)
    assert math.hypot(*outcome.translation) <= 1e-9


def test_sole_wider_than_the_beam_is_left_alone():
    env = Environment([flat_region(0, 3.0, 0.1016)])
    step = snapped_step(0.0, 0.0, 0.0, env)
    outcome = wiggle_step(step, env, FOOT, WiggleParams())
    assert outcome.inset_used is None
    assert outcome.step is step
    assert outcome.translation == (0.0, 0.0)


def test_a_step_off_its_region_is_returned_unchanged_and_written_without_foothold(
    tmp_path, monkeypatch
):
    env = Environment([flat_region(0, 1.0, 1.0)])
    snap = crop_foothold(env.region(0), 2.0, 0.0, 0.0, FOOT)  # 1.5 m past the edge
    assert snap.piece_index is None and snap.cropped_foothold is None
    step = PlanStep(Side.LEFT, snap)
    outcome = wiggle_step(step, env, FOOT, WiggleParams())
    assert outcome.step is step
    assert outcome.inset_used is None
    assert outcome.translation == (0.0, 0.0) and outcome.rotation == 0.0

    # The plan command wiggles such a step and writes it with an empty foothold.
    found = PlannerResult(PlanStatus.FOUND_SOLUTION, [step], SearchStats())
    monkeypatch.setattr(cli, "plan", lambda request: found)
    env_path, out = tmp_path / "env.json", tmp_path / "plan.json"
    env_path.write_text(environment_to_json(env))
    argv = ["plan", "--env", str(env_path), "--start", "0,0,0", "--goal", "0.3,0,0",
            "--out", str(out)]
    assert cli.main(argv) == 0
    (written,) = json.loads(out.read_text())["steps"]
    assert written["foothold"] == []
    assert written["translation"] == [2.0, 0.0, 0.0]


def test_nearly_opposed_rows_leave_the_step_alone():
    # A sole half off a slightly tilted piece needs a 0.13 shift against a
    # 0.02 cap. Its containment rows are nearly opposed, the dual steps grow
    # until the active rows are numerically dependent, and the solve must
    # then answer None rather than raise.
    rotation = np.array([
        [0.99999237061517, 0.0004870094387547913, 0.003875762281023836],
        [0.0, 0.992197667229329, -0.12467473338522769],
        [-0.0039062400659001166, 0.12467378219370812, 0.9921900973714983],
    ])
    piece = ConvexPolygon2([(0.0, -0.25), (0.0, 0.25), (-0.125, 0.25), (-0.125, -0.25)])
    env = Environment([PlanarRegion(0, RigidTransform3(rotation, np.zeros(3)), [piece])])
    step = snapped_step(0.0, 0.0, 0.0, env)
    outcome = wiggle_step(step, env, FOOT, WiggleParams())
    assert outcome.inset_used is None
    assert outcome.step is step


def test_wiggle_rotates_with_the_scene():
    # off-center on a strip: the unique fix is a lateral nudge, which must
    # follow the strip when the whole scene is yawed
    straight_env = Environment([flat_region(0, 2.0, 0.14)])
    straight = wiggle_step(snapped_step(0.0, 0.01, 0.0, straight_env), straight_env, FOOT, WiggleParams())
    assert straight.inset_used == pytest.approx(0.01, abs=1e-15)
    assert straight.translation[0] == pytest.approx(0.0, abs=1e-7)
    assert straight.translation[1] == pytest.approx(-0.005, abs=1e-7)

    phi = math.radians(50.0)
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    turned_env = Environment([flat_region(0, 2.0, 0.14, yaw=phi)])
    turned = wiggle_step(
        snapped_step(-sin_p * 0.01, cos_p * 0.01, phi, turned_env), turned_env, FOOT, WiggleParams()
    )
    assert turned.inset_used == pytest.approx(0.01, abs=1e-15)
    assert turned.translation[0] == pytest.approx(sin_p * 0.005, abs=1e-7)
    assert turned.translation[1] == pytest.approx(-cos_p * 0.005, abs=1e-7)
    assert abs(turned.rotation) <= 1e-7


def test_wiggle_plan_preserves_order_and_sides():
    env = Environment([flat_region(0, 2.0, 2.0)])
    steps = [
        snapped_step(0.0, 0.1, 0.0, env, Side.LEFT),
        snapped_step(0.2, -0.1, 0.0, env, Side.RIGHT),
        snapped_step(0.4, 0.1, 0.0, env, Side.LEFT),
    ]
    outcomes = wiggle_plan(steps, env, FOOT, WiggleParams())
    assert [o.step.side for o in outcomes] == [Side.LEFT, Side.RIGHT, Side.LEFT]
    for outcome in outcomes:
        assert outcome.inset_used == pytest.approx(0.02, abs=1e-15)


# ---------------------------------------------------------------------------
# Parameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"inset_distance": -0.01},
        {"max_translation": 0.0},
        {"max_rotation": 0.0},
        {"weights": np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 0.05]])},
        {"weights": (1.0, -1.0, 0.05)},
        {"weights": (1.0, math.inf, 0.05)},
        {"weights": (1.0, math.nan, 0.05)},
        {"weights": (1.0, 1.0)},
        {"weights": 5.0},
    ],
)
def test_wiggle_params_validation(kwargs):
    with pytest.raises(ValueError):
        WiggleParams(**kwargs)
