"""Planar geometry kernel tests.

Oracles come first: every derived quantity (areas, containment, distances)
is recomputed here by an independent method before the library's answer is
trusted anywhere else in the suite.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.constants import BOUNDARY_SLACK
from footplan.geometry import (
    ConvexPolygon2,
    GeometryError,
    Pose2,
    RigidTransform3,
    bounding_box,
    box_gap,
    clip_area,
    clip_vertices,
    convex_hull,
    convex_sets_distance,
    point_in_polygon,
    point_segment_distance,
    point_to_convex_distance,
    polygons_overlap,
    rectangle_polygon,
    rotation_z,
    wrap_angle,
    yaw_of_rotation,
)
from footplan.lattice import transform_points


# ---------------------------------------------------------------------------
# Oracles


def shoelace(vertices) -> float:
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def ray_cast_inside(point, vertices) -> bool:
    """Even-odd ray casting, independent of the half-plane code path."""
    x, y = point
    inside = False
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            t = (y - y0) / (y1 - y0)
            if x < x0 + t * (x1 - x0):
                inside = not inside
    return inside


def monte_carlo_intersection_area(a, b, rng, samples=40000) -> float:
    xs = [v[0] for v in a.vertices + b.vertices]
    ys = [v[1] for v in a.vertices + b.vertices]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    hits = 0
    for _ in range(samples):
        p = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        if ray_cast_inside(p, a.vertices) and ray_cast_inside(p, b.vertices):
            hits += 1
    return hits / samples * (x1 - x0) * (y1 - y0)


def min_inside_distance(point, vertices) -> float:
    """Smallest signed distance inside any edge line (negative outside)."""
    best = math.inf
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        d = -(ey * (point[0] - ax) - ex * (point[1] - ay)) / length
        best = min(best, d)
    return best


def random_convex_polygon(rng, radius=1.0, sides=6) -> ConvexPolygon2:
    """Points on a circle at sorted angles are convex and CCW by construction."""
    angles = sorted(rng.uniform(0.0, math.tau) for _ in range(sides))
    center = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    verts = []
    for a in angles:
        r = radius * rng.uniform(0.5, 1.0)
        verts.append((center[0] + r * math.cos(a), center[1] + r * math.sin(a)))
    try:
        return ConvexPolygon2(verts)
    except GeometryError:
        return random_convex_polygon(rng, radius, sides)


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_intersect(a0, a1, b0, b1) -> bool:
    d1 = _orient(b0, b1, a0)
    d2 = _orient(b0, b1, a1)
    d3 = _orient(a0, a1, b0)
    d4 = _orient(a0, a1, b1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def segment_segment_distance(a0, a1, b0, b1) -> float:
    if segments_intersect(a0, a1, b0, b1):
        return 0.0
    return min(
        point_segment_distance(a0, b0, b1),
        point_segment_distance(a1, b0, b1),
        point_segment_distance(b0, a0, a1),
        point_segment_distance(b1, a0, a1),
    )


def edge_pair_distance(verts_a, verts_b) -> float:
    """Distance between two convex vertex sets by every pair of their closed
    chains' edges: 0 when the sets overlap, one holds a point of the other,
    or two edges cross."""
    if len(verts_a) >= 3 and len(verts_b) >= 3:
        if polygons_overlap(verts_a, verts_b, slack=0.0):
            return 0.0
    elif (
        point_to_convex_distance(verts_a[0], verts_b) == 0.0
        or point_to_convex_distance(verts_b[0], verts_a) == 0.0
    ):
        return 0.0
    na, nb = len(verts_a), len(verts_b)
    return min(
        segment_segment_distance(verts_a[i], verts_a[(i + 1) % na], verts_b[j], verts_b[(j + 1) % nb])
        for i in range(na)
        for j in range(nb)
    )


# ---------------------------------------------------------------------------
# Polygon construction


def test_rectangle_area_and_bounds():
    rect = rectangle_polygon(0.22, 0.11)
    assert rect.area == pytest.approx(0.22 * 0.11, abs=1e-15)
    assert bounding_box(rect.vertices) == pytest.approx((-0.11, -0.055, 0.11, 0.055))
    assert rect.centroid() == pytest.approx((0.0, 0.0), abs=1e-15)


def test_area_matches_shoelace_on_random_polygons():
    rng = random.Random(7)
    for _ in range(50):
        poly = random_convex_polygon(rng)
        assert poly.area == pytest.approx(abs(shoelace(poly.vertices)), rel=1e-12)


def test_clockwise_rejected():
    with pytest.raises(GeometryError):
        ConvexPolygon2([(0, 0), (0, 1), (1, 1), (1, 0)])


def test_nonconvex_rejected():
    with pytest.raises(GeometryError):
        ConvexPolygon2([(0, 0), (2, 0), (2, 2), (1, 0.2), (0, 2)])


def test_degenerate_rejected():
    with pytest.raises(GeometryError):
        ConvexPolygon2([(0, 0), (1, 0)])
    with pytest.raises(GeometryError):
        ConvexPolygon2([(0, 0), (1, 0), (2, 0)])


def test_duplicate_vertices_deduped():
    poly = ConvexPolygon2([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert len(poly.vertices) == 4
    assert poly.area == pytest.approx(1.0)


def test_centroid_matches_moment_integral():
    rng = random.Random(11)
    for _ in range(20):
        poly = random_convex_polygon(rng)
        cx = cy = 0.0
        verts = poly.vertices
        n = len(verts)
        for i in range(n):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % n]
            cross = x0 * y1 - x1 * y0
            cx += (x0 + x1) * cross
            cy += (y0 + y1) * cross
        area = shoelace(verts)
        cx /= 6.0 * area
        cy /= 6.0 * area
        assert poly.centroid() == pytest.approx((cx, cy), abs=1e-12)


# ---------------------------------------------------------------------------
# Containment and half-planes


def test_point_in_polygon_matches_ray_cast():
    rng = random.Random(3)
    for _ in range(25):
        poly = random_convex_polygon(rng)
        for _ in range(40):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(min_inside_distance(p, poly.vertices)) < 1e-6:
                continue
            assert point_in_polygon(p, poly) == ray_cast_inside(p, poly.vertices)


def test_point_on_boundary_is_inside():
    rect = rectangle_polygon(2.0, 1.0)
    assert point_in_polygon((1.0, 0.0), rect)
    assert point_in_polygon((1.0, 0.5), rect)
    assert not point_in_polygon((1.0 + 1e-6, 0.0), rect)


# ---------------------------------------------------------------------------
# Clipping


def test_clip_identical_and_disjoint():
    a = rectangle_polygon(1.0, 1.0)
    assert clip_area(clip_vertices(a.vertices, a.vertices)) == pytest.approx(1.0)
    b = rectangle_polygon(1.0, 1.0, center=(3.0, 0.0))
    assert clip_area(clip_vertices(a.vertices, b.vertices)) == 0.0


def test_clip_half_overlap_exact():
    a = rectangle_polygon(1.0, 1.0)
    b = rectangle_polygon(1.0, 1.0, center=(0.5, 0.0))
    assert clip_area(clip_vertices(a.vertices, b.vertices)) == pytest.approx(0.5, abs=1e-12)


def test_clip_area_matches_monte_carlo():
    rng = random.Random(29)
    checked = 0
    while checked < 8:
        a = random_convex_polygon(rng)
        b = random_convex_polygon(rng)
        exact = clip_area(clip_vertices(a.vertices, b.vertices))
        if exact < 0.05:
            continue
        estimate = monte_carlo_intersection_area(a, b, rng)
        # binomial noise: generous 5% relative + small absolute band
        assert exact == pytest.approx(estimate, rel=0.05, abs=0.02)
        checked += 1


def test_clip_commutes():
    rng = random.Random(31)
    for _ in range(30):
        a = random_convex_polygon(rng)
        b = random_convex_polygon(rng)
        ab = clip_area(clip_vertices(a.vertices, b.vertices))
        ba = clip_area(clip_vertices(b.vertices, a.vertices))
        assert ab == pytest.approx(ba, abs=1e-12)


def test_clip_contained_in_both():
    rng = random.Random(37)
    for _ in range(15):
        a = random_convex_polygon(rng)
        b = random_convex_polygon(rng)
        out = clip_vertices(a.vertices, b.vertices)
        for p in out:
            assert point_in_polygon(p, a, slack=1e-7)
            assert point_in_polygon(p, b, slack=1e-7)


@pytest.mark.parametrize(
    "left_xs",
    [(-1.0001e-9, -1e-9), (-1e-9, -1.0001e-9)],
    ids=["leaves_a_kept_vertex", "enters_a_kept_vertex"],
)
def test_clip_never_extrapolates_past_a_vertex_kept_within_the_slack(left_xs):
    # one left vertex lies just inside the slack, the other just beyond it, so
    # the side between them never meets the clip edge x = 0
    (low_x, high_x), slack = left_xs, 1e-9
    subject = [(low_x, 0.1), (0.5, 0.1), (0.5, 0.9), (high_x, 0.9)]
    unit = rectangle_polygon(1.0, 1.0, center=(0.5, 0.5))
    out = clip_vertices(subject, unit.vertices, slack)
    for x, y in out:
        assert -slack <= x <= 0.5 and 0.1 - 1e-12 <= y <= 0.9 + 1e-12
    assert 0.4 <= clip_area(out) <= 0.4 + slack * 0.8


def test_clip_tolerates_duplicate_clip_vertices():
    # degenerate clip chains appear when vertical regions project to plan view
    a = rectangle_polygon(1.0, 1.0)
    degenerate = [(0.0, -0.5), (0.0, -0.5), (0.0, 0.5), (0.0, 0.5)]
    assert clip_area(clip_vertices(a.vertices, degenerate)) == 0.0


# ---------------------------------------------------------------------------
# Overlap and distances


def test_overlap_agrees_with_clip():
    rng = random.Random(41)
    for _ in range(60):
        a = random_convex_polygon(rng)
        b = random_convex_polygon(rng)
        area = clip_area(clip_vertices(a.vertices, b.vertices, slack=0.0))
        if area > 1e-6:
            assert polygons_overlap(a.vertices, b.vertices)
        elif area == 0.0 and convex_sets_distance(a.vertices, b.vertices) > 1e-6:
            assert not polygons_overlap(a.vertices, b.vertices)


def test_touching_squares_do_not_overlap():
    a = rectangle_polygon(1.0, 1.0)
    b = rectangle_polygon(1.0, 1.0, center=(1.0, 0.0))
    assert not polygons_overlap(a.vertices, b.vertices)
    shifted = rectangle_polygon(1.0, 1.0, center=(0.999, 0.0))
    assert polygons_overlap(a.vertices, shifted.vertices)


def test_segment_distances_hand_values():
    assert point_segment_distance((0, 1), (0, 0), (1, 0)) == pytest.approx(1.0)
    assert point_segment_distance((2, 1), (0, 0), (1, 0)) == pytest.approx(math.sqrt(2))
    assert segment_segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)
    # crossing segments touch
    assert segment_segment_distance((0, 0), (1, 1), (0, 1), (1, 0)) == 0.0


def test_convex_sets_distance_matches_the_edge_pair_oracle():
    """Bit for bit against every edge pair, on pairs drawn apart, touching at
    a vertex, overlapping, a single vertex or one edge against a polygon, and
    a segment crossing a polygon with both ends outside it, deep or cutting a
    corner by less than BOUNDARY_SLACK."""
    rng = random.Random(47)
    kinds = Counter()
    for _ in range(600):
        a = random_convex_polygon(rng).vertices
        b = random_convex_polygon(rng).vertices
        angle = rng.uniform(0.0, math.tau)
        far = rng.uniform(3.5, 5.0)  # beyond both polygons' reach
        apart = tuple((x + far * math.cos(angle), y + far * math.sin(angle)) for x, y in b)
        # the point reflection through a vertex meets `a` at that vertex only
        vx, vy = a[rng.randrange(len(a))]
        touching = tuple((2.0 * vx - x, 2.0 * vy - y) for x, y in a)
        i = rng.randrange(len(b))
        draws = {
            "apart": apart,
            "touching": touching,
            "overlapping": b,
            "vertex": apart[i : i + 1],
            "vertex near": b[i : i + 1],
            "edge": (apart[i], apart[(i + 1) % len(b)]),
            "edge near": (b[i], b[(i + 1) % len(b)]),
        }
        cx, cy = ConvexPolygon2(a).centroid()
        dx, dy = math.cos(angle), math.sin(angle)
        draws["crossing"] = ((cx - 3.0 * dx, cy - 3.0 * dy), (cx + 3.0 * dx, cy + 3.0 * dy))
        # a segment across a vertex's bisector, cutting that corner
        # 0.5 BOUNDARY_SLACK deep, ends 1 m either side
        j = rng.randrange(len(a))
        q = a[j]
        bx = by = 0.0
        for p in (a[j - 1], a[(j + 1) % len(a)]):  # unit vectors along both sides
            bx += (p[0] - q[0]) / math.dist(p, q)
            by += (p[1] - q[1]) / math.dist(p, q)
        scale = math.hypot(bx, by)
        nx, ny = bx / scale, by / scale
        mx, my = q[0] + 0.5 * BOUNDARY_SLACK * nx, q[1] + 0.5 * BOUNDARY_SLACK * ny
        draws["corner cut"] = ((mx - ny, my + nx), (mx + ny, my - nx))
        for kind, other in draws.items():
            for first, second in ((a, other), (other, a)):
                got = convex_sets_distance(first, second)
                assert got == edge_pair_distance(first, second), (kind, first, second)
            if kind in ("crossing", "corner cut"):
                assert all(point_to_convex_distance(p, a) > 0.0 for p in other)
                assert got == 0.0
            kinds[kind, got == 0.0] += 1
    assert kinds["apart", False] == kinds["touching", True] == 600
    assert kinds["vertex", False] == kinds["edge", False] == 600
    assert kinds["overlapping", True] >= 400 and kinds["overlapping", False] >= 10
    assert kinds["vertex near", True] >= 50 and kinds["edge near", True] >= 100


def test_convex_sets_distance_known_gaps():
    a = rectangle_polygon(1.0, 1.0)
    b = rectangle_polygon(1.0, 1.0, center=(1.7, 0.0))
    assert convex_sets_distance(a.vertices, b.vertices) == pytest.approx(0.7, abs=1e-12)
    c = rectangle_polygon(1.0, 1.0, center=(1.5, 1.5))
    # corner to corner along the diagonal
    assert convex_sets_distance(a.vertices, c.vertices) == pytest.approx(math.hypot(0.5, 0.5), abs=1e-12)
    d = rectangle_polygon(1.0, 1.0, center=(0.5, 0.5))
    assert convex_sets_distance(a.vertices, d.vertices) == 0.0


def test_convex_hull_is_the_smallest_convex_cover():
    rng = random.Random(29)
    for _ in range(20):
        points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randrange(3, 30))]
        hull = ConvexPolygon2(convex_hull(points))  # validates CCW winding and convexity
        assert set(hull.vertices) <= set(points)
        assert all(point_in_polygon(p, hull) for p in points)
        n = len(hull.vertices)
        for i in range(n):  # strict left turns: no collinear or reflex vertex is kept
            (ax, ay), (bx, by), (cx, cy) = (hull.vertices[(i + k) % n] for k in range(3))
            assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0
    assert convex_hull([(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (1.0, 1.0)]) == ((0.0, 0.0), (1.0, 1.0))
    assert convex_hull([(2.0, 3.0), (2.0, 3.0)]) == ((2.0, 3.0),)


def test_convex_sets_distance_degenerate_chain():
    a = rectangle_polygon(1.0, 1.0)
    segment = [(2.0, -1.0), (2.0, 1.0)]
    assert convex_sets_distance(a.vertices, segment) == pytest.approx(1.5, abs=1e-12)
    inside = [(-0.2, 0.1), (0.3, 0.1)]
    assert convex_sets_distance(inside, a.vertices) == 0.0
    assert convex_sets_distance(a.vertices, [(0.1, 0.1)]) == 0.0


def test_point_to_convex_distance_dense_oracle():
    rng = random.Random(43)
    inside_seen = 0
    for _ in range(10):
        poly = random_convex_polygon(rng)
        verts = poly.vertices
        n = len(verts)
        # a convex combination with positive weights lies strictly inside
        weights = [rng.uniform(0.1, 1.0) for _ in verts]
        inside = tuple(
            sum(w * v[k] for w, v in zip(weights, verts)) / sum(weights) for k in range(2)
        )
        for p in ((rng.uniform(-3, 3), rng.uniform(-3, 3)), inside):
            got = point_to_convex_distance(p, verts)
            if ray_cast_inside(p, verts):
                inside_seen += 1
                assert got == 0.0
                continue
            best = min(
                point_segment_distance(p, verts[i], verts[(i + 1) % n]) for i in range(n)
            )
            assert got == pytest.approx(best, abs=1e-12)
    assert inside_seen >= 10


# ---------------------------------------------------------------------------
# Plan-view boxes

coordinates = st.floats(-10.0, 10.0)
points_2d = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=6)


def interval_gap(lo_a, hi_a, lo_b, hi_b) -> float:
    """Distance between the closed intervals [lo_a, hi_a] and [lo_b, hi_b]."""
    if hi_a < lo_b:
        return lo_b - hi_a
    if hi_b < lo_a:
        return lo_a - hi_b
    return 0.0


@st.composite
def box_pairs(draw):
    """A box and a second box that, on each axis independently, lies inside
    the first's interval, touches it from either side, lies apart on either
    side or is drawn freely; either box may be a point or a segment, and
    either may come first."""
    a = bounding_box(draw(points_2d))
    width = st.sampled_from((0.0,)) | st.floats(0.0, 5.0)
    gap = st.floats(1e-6, 5.0)
    interval = []
    for lo, hi in ((a[0], a[2]), (a[1], a[3])):
        relation = draw(st.sampled_from(("inside", "touch", "apart", "free")))
        after = draw(st.booleans())
        if relation == "inside":
            ends = sorted(draw(st.floats(lo, hi)) for _ in range(2))
        elif relation == "free":
            ends = sorted((draw(coordinates), draw(coordinates)))
        else:
            offset = 0.0 if relation == "touch" else draw(gap)
            w = draw(width)
            ends = [hi + offset, hi + offset + w] if after else [lo - offset - w, lo - offset]
        interval.append(ends)
    b = (interval[0][0], interval[1][0], interval[0][1], interval[1][1])
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=200)
@given(points_2d)
def test_bounding_box_is_the_tightest_box_around_the_points(points):
    x_lo, y_lo, x_hi, y_hi = bounding_box(points)
    assert all(x_lo <= x <= x_hi and y_lo <= y <= y_hi for x, y in points)
    xs, ys = {x for x, _ in points}, {y for _, y in points}
    assert x_lo in xs and x_hi in xs and y_lo in ys and y_hi in ys


@settings(max_examples=400)
@given(box_pairs())
def test_box_gap_is_the_gap_between_the_intervals_on_each_axis(pair):
    a, b = pair
    gaps = box_gap(a, b)
    assert gaps == (interval_gap(a[0], a[2], b[0], b[2]), interval_gap(a[1], a[3], b[1], b[3]))
    assert box_gap(b, a) == gaps
    meet = max(a[0], b[0]) <= min(a[2], b[2]) and max(a[1], b[1]) <= min(a[3], b[3])
    assert (gaps == (0.0, 0.0)) == meet


# ---------------------------------------------------------------------------
# Poses and transforms


def test_wrap_angle_range_and_periodicity():
    rng = random.Random(47)
    for _ in range(200):
        a = rng.uniform(-20, 20)
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(
            math.atan2(math.sin(a), math.cos(a)), math.atan2(math.sin(w), math.cos(w)),
            abs_tol=1e-12,
        )
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.tau) == pytest.approx(0.0, abs=1e-15)


def test_transform_points_is_isometry():
    rng = random.Random(53)
    pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
    pose = Pose2(0.3, -0.7, 2.1)
    out = transform_points(pts, pose)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            before = math.dist(pts[i], pts[j])
            after = math.dist(out[i], out[j])
            assert after == pytest.approx(before, abs=1e-12)


def test_transform_points_round_trip():
    poly = rectangle_polygon(0.4, 0.2, center=(0.1, 0.05))
    pose = Pose2(1.0, -2.0, 0.7)
    fwd = transform_points(poly.vertices, pose)
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    inv = Pose2(-(c * pose.x + s * pose.y), -(-s * pose.x + c * pose.y), -pose.yaw)
    back = transform_points(fwd, inv)
    for a, b in zip(back, poly.vertices):
        assert a == pytest.approx(b, abs=1e-12)


def test_pose_normalizes_yaw():
    assert Pose2(0, 0, math.tau + 0.25).yaw == pytest.approx(0.25)


def test_rigid_transform_validation():
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(GeometryError):
        RigidTransform3(bad, np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(GeometryError):
        RigidTransform3(reflection, np.zeros(3))


def test_yaw_of_rotation_round_trip():
    for yaw in (-3.0, -1.2, 0.0, 0.4, 3.1):
        assert yaw_of_rotation(rotation_z(yaw)) == pytest.approx(yaw, abs=1e-12)
