"""Lattice discretization and reachability expansion tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.geometry import Pose2, wrap_angle
from footplan.lattice import (
    ExpansionParams,
    FootstepNode,
    LatticeParams,
    Side,
    expand_node,
    node_to_pose,
    pose_to_node,
)


# ---------------------------------------------------------------------------
# Oracle: exhaustive scan straight from the reachability-box definition


def oracle_children(parent, lattice, expansion):
    """Every opposite-side vertex whose stance-frame offset obeys the box,
    mapped to that offset (dx, dy, dyaw).

    Scans a grid square generously wider than the reach cap, so nothing the
    cached implementation could emit lies outside the scan, and yaw-index
    changes over whole turns beyond the window. A window of a full turn or
    more admits a yaw bin at several changes; each bin counts once, at the
    first change that admits it.
    """
    res = lattice.xy_resolution
    count = lattice.yaw_count
    yaw = wrap_angle(parent.yaw_index * lattice.yaw_resolution)
    sign = parent.side.mirror_sign
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    span = math.ceil(expansion.max_reach / res) + 3
    tol = 1e-9
    widest = max(abs(expansion.min_yaw_delta), abs(expansion.max_yaw_delta))
    turns = math.ceil(widest / math.tau) + 1
    first_change = {}
    for k in range(-turns * count, turns * count + 1):
        delta = sign * k * lattice.yaw_resolution
        if expansion.min_yaw_delta - tol <= delta <= expansion.max_yaw_delta + tol:
            first_change.setdefault(k % count, k)
    kids = {}
    for jx in range(-span, span + 1):
        for jy in range(-span, span + 1):
            ox, oy = jx * res, jy * res
            dx = ox * cos_y + oy * sin_y
            dy = -ox * sin_y + oy * cos_y
            if not (expansion.min_length - tol <= dx <= expansion.max_length + tol):
                continue
            lateral = sign * dy
            if not (expansion.min_width - tol <= lateral <= expansion.max_width + tol):
                continue
            if math.hypot(dx, dy) > expansion.max_reach + tol:
                continue
            for k in first_change.values():
                child = FootstepNode(
                    parent.x_index + jx,
                    parent.y_index + jy,
                    (parent.yaw_index + k) % count,
                    parent.side.opposite,
                )
                kids[child] = (dx, dy, k * lattice.yaw_resolution)
    return kids


# ---------------------------------------------------------------------------
# Discretization


def test_node_pose_round_trip():
    lattice = LatticeParams()
    node = FootstepNode(3, -7, 5, Side.LEFT)
    pose = node_to_pose(node, lattice)
    assert pose_to_node(pose, Side.LEFT, lattice) == node


def test_worked_rounding_example():
    lattice = LatticeParams()
    node = pose_to_node(Pose2(0.024, 0.026, math.radians(4.0)), Side.RIGHT, lattice)
    assert (node.x_index, node.y_index, node.yaw_index) == (0, 1, 0)


def test_rounding_half_away_from_zero():
    lattice = LatticeParams(xy_resolution=0.05)
    assert pose_to_node(Pose2(0.025, -0.025, 0.0), Side.LEFT, lattice).x_index == 1
    assert pose_to_node(Pose2(0.025, -0.025, 0.0), Side.LEFT, lattice).y_index == -1


def test_yaw_index_wraps():
    lattice = LatticeParams()
    node = pose_to_node(Pose2(0, 0, -math.radians(10.0)), Side.LEFT, lattice)
    assert node.yaw_index == lattice.yaw_count - 1
    pose = node_to_pose(node, lattice)
    assert pose.yaw == pytest.approx(-math.radians(10.0))


def test_lattice_params_validation():
    with pytest.raises(ValueError):
        LatticeParams(xy_resolution=0.0)
    with pytest.raises(ValueError):
        LatticeParams(yaw_resolution=1.0)  # does not divide a full turn
    assert LatticeParams(yaw_resolution=math.tau / 4.0).yaw_count == 4


def test_expansion_params_validation():
    with pytest.raises(ValueError):
        ExpansionParams(min_length=0.5, max_length=0.4)
    with pytest.raises(ValueError):
        ExpansionParams(min_width=0.3, max_width=0.2)
    with pytest.raises(ValueError):
        ExpansionParams(min_yaw_delta=0.2, max_yaw_delta=-0.2)
    with pytest.raises(ValueError):
        ExpansionParams(max_reach=0.0)
    # a collapsed box is legal
    ExpansionParams(min_length=0.0, max_length=0.0, min_width=0.25, max_width=0.25)


# ---------------------------------------------------------------------------
# Expansion


def test_default_expansion_count_band():
    lattice = LatticeParams()
    expansion = ExpansionParams()
    children = expand_node(FootstepNode(0, 0, 0, Side.LEFT), lattice, expansion)
    assert 400 <= len(children) <= 800


def test_expansion_matches_oracle_on_axis():
    lattice = LatticeParams()
    expansion = ExpansionParams()
    parent = FootstepNode(2, -1, 0, Side.LEFT)
    children = expand_node(parent, lattice, expansion)
    assert set(children) == oracle_children(parent, lattice, expansion).keys()
    assert len(children) == len(set(children))


def test_expansion_matches_oracle_rotated_bins():
    lattice = LatticeParams()
    expansion = ExpansionParams()
    for yaw_index in (1, 5, 9, 17, 26):
        for side in (Side.LEFT, Side.RIGHT):
            parent = FootstepNode(0, 0, yaw_index, side)
            children = expand_node(parent, lattice, expansion)
            assert set(children) == oracle_children(parent, lattice, expansion).keys(), (
                yaw_index,
                side,
            )


def test_expansion_matches_oracle_asymmetric_window():
    lattice = LatticeParams(xy_resolution=0.1, yaw_resolution=math.tau / 24.0)
    expansion = ExpansionParams(
        min_length=-0.1,
        max_length=0.4,
        min_width=0.15,
        max_width=0.35,
        min_yaw_delta=-math.radians(15.0),
        max_yaw_delta=math.radians(30.0),
        max_reach=0.5,
    )
    for side in (Side.LEFT, Side.RIGHT):
        parent = FootstepNode(1, 1, 3, side)
        children = expand_node(parent, lattice, expansion)
        assert set(children) == oracle_children(parent, lattice, expansion).keys(), side


@st.composite
def lattices_and_boxes(draw):
    """A lattice and a reach box: lengths and widths of either sign, often on
    the lattice to within half the slack, a reach below or above the box's
    farthest corner, and a yaw window that is empty (between two bins), full
    (every bin once), drawn (at least a bin wide, under a full turn), exactly
    a full turn (both ends on one bin when they lie on bins) or beyond a full
    turn."""
    lattice = LatticeParams(draw(st.floats(0.02, 0.125)), math.tau / draw(st.integers(1, 72)))
    res = lattice.xy_resolution

    def bound(lo, hi):
        on_lattice = st.builds(
            lambda k, jitter: k * res + jitter,
            st.integers(math.ceil(lo / res), math.floor(hi / res)),
            st.sampled_from((-5e-10, 0.0, 5e-10)),
        )
        return draw(st.one_of(st.floats(lo, hi), on_lattice))

    lengths = sorted((bound(-0.4, 0.5), bound(-0.4, 0.5)))
    widths = sorted((bound(-0.3, 0.45), bound(-0.3, 0.45)))
    corner = max(math.hypot(length, width) for length in lengths for width in widths)
    reach = bound(0.0, corner) if draw(st.booleans()) else corner * draw(st.floats(0.5, 1.5))
    reach = max(0.01, reach)
    window = draw(st.sampled_from(("drawn", "empty", "full", "turn", "beyond")))
    step = lattice.yaw_resolution
    if window == "empty":
        yaw_lo = yaw_hi = step * (draw(st.integers(-3, 3)) + 0.5)
    elif window == "full":
        yaw_lo, yaw_hi = -math.pi + step / 2.0, math.pi
    elif window == "turn":
        yaw_lo = draw(st.sampled_from((-math.pi, 0.0)) | st.floats(-math.pi, 0.0))
        yaw_hi = yaw_lo + math.tau
    elif window == "beyond":
        yaw_lo = draw(st.floats(-math.tau, 0.0))
        yaw_hi = yaw_lo + draw(st.floats(math.tau, 2.0 * math.tau))
    else:
        yaw_lo = draw(st.floats(-math.pi, 0.0))
        yaw_hi = yaw_lo + draw(st.floats(min(step, math.pi), max(math.tau - step, math.pi)))
    expansion = ExpansionParams(
        min_length=lengths[0],
        max_length=lengths[1],
        min_width=widths[0],
        max_width=widths[1],
        min_yaw_delta=yaw_lo,
        max_yaw_delta=yaw_hi,
        max_reach=reach,
    )
    return lattice, expansion


@settings(max_examples=300, deadline=None)
@given(lattices_and_boxes(), st.sampled_from(Side), st.integers(0, 71))
def test_expansion_matches_the_oracle_in_stance_frame_order(case, side, yaw_index):
    lattice, expansion = case
    parent = FootstepNode(3, -2, yaw_index % lattice.yaw_count, side)
    children = expand_node(parent, lattice, expansion)
    oracle = oracle_children(parent, lattice, expansion)
    assert len(children) == len(set(children))
    assert set(children) == oracle.keys()
    assert children == sorted(oracle, key=oracle.get)


def test_children_are_opposite_side_and_in_range():
    lattice = LatticeParams()
    children = expand_node(FootstepNode(0, 0, 35, Side.RIGHT), lattice, ExpansionParams())
    assert children
    for child in children:
        assert child.side is Side.LEFT
        assert 0 <= child.yaw_index < lattice.yaw_count


def test_mirror_symmetry():
    # mirroring the world about the x axis swaps sides and negates y and yaw
    lattice = LatticeParams()
    expansion = ExpansionParams()
    count = lattice.yaw_count
    for yaw_index in (0, 3, 13):
        left = expand_node(FootstepNode(0, 0, yaw_index, Side.LEFT), lattice, expansion)
        right = expand_node(
            FootstepNode(0, 0, (-yaw_index) % count, Side.RIGHT), lattice, expansion
        )
        mirrored = {
            (c.x_index, -c.y_index, (-c.yaw_index) % count) for c in left
        }
        assert {(c.x_index, c.y_index, c.yaw_index) for c in right} == mirrored


def test_collapsed_box_single_child():
    lattice = LatticeParams()
    expansion = ExpansionParams(
        min_length=0.0,
        max_length=0.0,
        min_width=0.25,
        max_width=0.25,
        min_yaw_delta=0.0,
        max_yaw_delta=0.0,
    )
    children = expand_node(FootstepNode(0, 0, 0, Side.LEFT), lattice, expansion)
    assert len(children) == 1
    child = children[0]
    # stance foot LEFT: the right foot lands at negative stance-frame y
    assert (child.x_index, child.y_index, child.yaw_index) == (0, -5, 0)
    assert child.side is Side.RIGHT


def test_expansion_deterministic_order():
    lattice = LatticeParams()
    expansion = ExpansionParams()
    parent = FootstepNode(4, 4, 7, Side.LEFT)
    assert expand_node(parent, lattice, expansion) == expand_node(parent, lattice, expansion)


def test_reach_cap_prunes_far_corner():
    lattice = LatticeParams()
    base = ExpansionParams(max_reach=10.0)
    capped = ExpansionParams(max_reach=0.45)
    parent = FootstepNode(0, 0, 0, Side.LEFT)
    wide = expand_node(parent, lattice, base)
    tight = expand_node(parent, lattice, capped)
    assert len(tight) < len(wide)
    res = lattice.xy_resolution
    for child in tight:
        dist = math.hypot(child.x_index * res, child.y_index * res)
        assert dist <= 0.45 + 1e-9
