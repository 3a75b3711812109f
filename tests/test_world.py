"""Planar-region world model tests."""

import json
import math
import random

import numpy as np
import pytest

from footplan.geometry import (
    ConvexPolygon2,
    RigidTransform3,
    point_to_convex_distance,
    rectangle_polygon,
    rotation_z,
)
from footplan.world import (
    Environment,
    PlanarRegion,
    WorldLoadError,
    environment_to_dict,
    environment_to_json,
    load_environment,
    plane_height_at,
    regions_overlapping_disc,
)


def rotation_about_y(pitch: float) -> np.ndarray:
    c, s = math.cos(pitch), math.sin(pitch)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def flat_region(region_id, length, width, center=(0.0, 0.0), z=0.0, yaw=0.0):
    transform = RigidTransform3(rotation_z(yaw), np.array([center[0], center[1], z]))
    return PlanarRegion(region_id, transform, [rectangle_polygon(length, width)])


# ---------------------------------------------------------------------------
# Region construction


def test_flat_region_basics():
    region = flat_region(3, 2.0, 1.0, center=(1.0, -0.5), z=0.2)
    assert region.snappable
    assert region.up_normal == pytest.approx([0.0, 0.0, 1.0])
    assert region.z_min == pytest.approx(0.2)
    assert region.z_max == pytest.approx(0.2)
    assert region.bounds_xy == pytest.approx((0.0, -1.0, 2.0, 0.0))


def test_vertical_region_unsnappable():
    rotation = rotation_about_y(math.pi / 2.0)
    transform = RigidTransform3(rotation, np.zeros(3))
    region = PlanarRegion(7, transform, [rectangle_polygon(1.0, 1.0)])
    assert not region.snappable
    assert plane_height_at(region, 0.0, 0.0) is None


def test_downward_facing_region_normal_flipped_and_winding_kept_ccw():
    # pitch by pi flips the region's z axis to world -z
    rotation = rotation_about_y(math.pi)
    transform = RigidTransform3(rotation, np.array([0.0, 0.0, 1.0]))
    region = PlanarRegion(1, transform, [rectangle_polygon(1.0, 1.0)])
    assert region.up_normal[2] == pytest.approx(1.0)
    verts = region.projected_pieces[0]
    area = 0.0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    assert area > 0.0


def test_overlapping_pieces_rejected():
    pieces = [rectangle_polygon(1.0, 1.0), rectangle_polygon(1.0, 1.0, center=(0.5, 0.0))]
    with pytest.raises(WorldLoadError, match="region 9"):
        PlanarRegion(9, RigidTransform3(np.eye(3), np.zeros(3)), pieces)


def test_touching_pieces_allowed():
    pieces = [rectangle_polygon(1.0, 1.0), rectangle_polygon(1.0, 1.0, center=(1.0, 0.0))]
    region = PlanarRegion(0, RigidTransform3(np.eye(3), np.zeros(3)), pieces)
    assert len(region.pieces) == 2


def test_empty_pieces_rejected():
    with pytest.raises(WorldLoadError):
        PlanarRegion(0, RigidTransform3(np.eye(3), np.zeros(3)), [])


# ---------------------------------------------------------------------------
# Plane height


def test_plane_height_matches_ray_oracle():
    rng = random.Random(17)
    for _ in range(20):
        pitch = rng.uniform(-1.2, 1.2)
        yaw = rng.uniform(-math.pi, math.pi)
        rotation = rotation_z(yaw) @ rotation_about_y(pitch)
        t = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)])
        region = PlanarRegion(0, RigidTransform3(rotation, t), [rectangle_polygon(1.0, 1.0)])
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        got = plane_height_at(region, x, y)
        # plane through t with normal n: n . (p - t) = 0 solved for z
        n = rotation[:, 2]
        expected = t[2] - (n[0] * (x - t[0]) + n[1] * (y - t[1])) / n[2]
        assert got == pytest.approx(expected, abs=1e-9)


def test_plane_height_on_known_incline():
    # 30 deg pitch about y: surface z rises as x decreases
    region = PlanarRegion(
        0,
        RigidTransform3(rotation_about_y(math.radians(30)), np.zeros(3)),
        [rectangle_polygon(2.0, 2.0)],
    )
    assert plane_height_at(region, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert plane_height_at(region, 1.0, 0.0) == pytest.approx(-math.tan(math.radians(30)), abs=1e-12)
    assert plane_height_at(region, 0.0, 5.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Environment


def test_duplicate_region_id_rejected():
    with pytest.raises(WorldLoadError, match="duplicate id"):
        Environment([flat_region(1, 1, 1), flat_region(1, 1, 1, center=(5, 5))])


def test_with_and_without_region():
    env = Environment([flat_region(0, 1, 1)])
    extended = env.with_region(flat_region(1, 1, 1, center=(3, 0)))
    assert 1 in extended
    assert 1 not in env
    shrunk = extended.without_region(1)
    assert 1 not in shrunk
    with pytest.raises(KeyError):
        env.without_region(42)


def test_heavy_overlap_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="footplan.world"):
        Environment([flat_region(0, 1, 1), flat_region(1, 1, 1, center=(0.1, 0.0), z=0.005)])
    assert any("overlap" in rec.message for rec in caplog.records)


def test_stacked_layers_stay_silent(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="footplan.world"):
        Environment([flat_region(0, 1, 1), flat_region(1, 1, 1, z=0.2)])
    assert not caplog.records


def test_disc_query_matches_brute_force():
    rng = random.Random(23)
    regions = []
    for k in range(12):
        regions.append(
            flat_region(
                k,
                rng.uniform(0.2, 1.0),
                rng.uniform(0.2, 1.0),
                center=(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                z=rng.uniform(0, 0.3),
                yaw=rng.uniform(-math.pi, math.pi),
            )
        )
    env = Environment(regions)
    for _ in range(100):
        center = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        radius = rng.uniform(0.05, 0.8)
        got = regions_overlapping_disc(env, center, radius)
        expected = [
            r
            for r in env.regions
            if any(
                point_to_convex_distance(center, piece) <= radius
                for piece in r.projected_pieces
            )
        ]
        assert got == expected


# ---------------------------------------------------------------------------
# Serialization


def test_round_trip_byte_identical():
    env = Environment(
        [
            flat_region(0, 2.0, 1.0),
            flat_region(3, 1.0, 1.0, center=(2.0, 0.5), z=0.15, yaw=0.6),
        ]
    )
    text = environment_to_json(env)
    again = environment_to_json(load_environment(text))
    assert text == again
    assert text.endswith("\n")


def test_load_reports_region_id_on_bad_piece():
    doc = {
        "regions": [
            {
                "id": 5,
                "translation": [0, 0, 0],
                "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                "pieces": [[[0, 0], [1, 0]]],
            }
        ]
    }
    with pytest.raises(WorldLoadError, match="region 5"):
        load_environment(json.dumps(doc))


def test_load_rejects_bad_rotation():
    doc = {
        "regions": [
            {
                "id": 2,
                "translation": [0, 0, 0],
                "rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1],
                "pieces": [[[1, -1], [1, 1], [-1, 1], [-1, -1]]],
            }
        ]
    }
    with pytest.raises(WorldLoadError, match="region 2"):
        load_environment(json.dumps(doc))


def test_load_rejects_malformed_documents():
    with pytest.raises(WorldLoadError):
        load_environment("not json at all {")
    with pytest.raises(WorldLoadError):
        load_environment(json.dumps({"no_regions": []}))
    with pytest.raises(WorldLoadError):
        load_environment(json.dumps({"regions": [{"id": 0}]}))
    with pytest.raises(WorldLoadError, match="must be finite"):
        load_environment(
            json.dumps(
                {
                    "regions": [
                        {
                            "id": 0,
                            "translation": [0, 0, None],
                            "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                            "pieces": [[[1, -1], [1, 1], [-1, 1], [-1, -1]]],
                        }
                    ]
                }
            ).replace("null", "NaN")
        )


def test_dict_form_accepted_directly():
    env = Environment([flat_region(0, 1.0, 1.0)])
    doc = environment_to_dict(env)
    again = load_environment(doc)
    assert environment_to_json(again) == environment_to_json(env)
