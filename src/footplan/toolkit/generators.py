"""Deterministic environment generators for canned scenario families."""

from __future__ import annotations

import math
import random

from ..geometry import ConvexPolygon2, RigidTransform3, rectangle_polygon, rotation_z
from ..world import Environment, PlanarRegion, WorldLoadError


def _flat_region(region_id: int, length: float, width: float, center, z: float,
                 yaw: float = 0.0) -> PlanarRegion:
    transform = RigidTransform3(rotation_z(yaw), (center[0], center[1], z))
    return PlanarRegion(region_id, transform, [rectangle_polygon(length, width)])


def _wall_region_x(region_id: int, x: float, y_lo: float, y_hi: float,
                   z_top: float) -> PlanarRegion:
    # Rotating the region plane by 90 deg about world y makes it vertical:
    # region u maps to world -z and region v to world y.
    rotation = (
        (0.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
        (-1.0, 0.0, 0.0),
    )
    transform = RigidTransform3(rotation, (x, 0.0, 0.0))
    piece = ConvexPolygon2([(-z_top, y_lo), (0.0, y_lo), (0.0, y_hi), (-z_top, y_hi)])
    return PlanarRegion(region_id, transform, [piece])


def _wall_region_y(region_id: int, y: float, x_lo: float, x_hi: float,
                   z_top: float) -> PlanarRegion:
    # Vertical plane facing world y: region u maps to world x, v to world z.
    rotation = (
        (1.0, 0.0, 0.0),
        (0.0, 0.0, -1.0),
        (0.0, 1.0, 0.0),
    )
    transform = RigidTransform3(rotation, (0.0, y, 0.0))
    piece = ConvexPolygon2([(x_lo, 0.0), (x_hi, 0.0), (x_hi, z_top), (x_lo, z_top)])
    return PlanarRegion(region_id, transform, [piece])


def _bollard_regions(first_id: int, y_inner: float, side: float,
                     z_top: float) -> list[PlanarRegion]:
    # Four vertical faces of a square post; depth along x is what forces a
    # torso rotation rather than a shallow diagonal slip between snapshots.
    sign = 1.0 if y_inner >= 0.0 else -1.0
    y_outer = y_inner + sign * side
    y_lo, y_hi = min(y_inner, y_outer), max(y_inner, y_outer)
    half = side / 2.0
    return [
        _wall_region_x(first_id, -half, y_lo, y_hi, z_top),
        _wall_region_x(first_id + 1, half, y_lo, y_hi, z_top),
        _wall_region_y(first_id + 2, y_inner, -half, half, z_top),
        _wall_region_y(first_id + 3, y_outer, -half, half, z_top),
    ]


def _generate_flat(rng: random.Random, options: dict) -> Environment:
    size = float(options.get("size", 10.0))
    return Environment([_flat_region(0, size, size, (0.0, 0.0), 0.0)])


def _generate_beam(rng: random.Random, options: dict) -> Environment:
    # The strip is a 4 inch beam, deliberately narrower than the foot sole and
    # offset from the lattice rows so crossings score partial foothold area.
    length = float(options.get("length", 3.0))
    width = float(options.get("width", 0.1016))
    offset = float(options.get("offset", 0.025))
    regions = [
        _flat_region(0, 1.5, 1.5, (-0.75, 0.0), 0.0),
        _flat_region(1, length, width, (length / 2.0, offset), 0.0),
        _flat_region(2, 1.5, 1.5, (length + 0.75, 0.0), 0.0),
    ]
    return Environment(regions)


def _generate_stepping_stones(rng: random.Random, options: dict) -> Environment:
    count = int(options.get("count", 6))
    stone = float(options.get("stone_size", 0.25))
    pitch = float(options.get("pitch", 0.35))
    regions = [_flat_region(0, 1.0, 1.6, (-0.5, 0.0), 0.0)]
    for k in range(count):
        x = pitch * (k + 1)
        y = rng.uniform(-0.05, 0.05)
        z = rng.uniform(0.0, 0.08)
        regions.append(_flat_region(k + 1, stone, stone, (x, y), z))
    far = pitch * (count + 1)
    regions.append(_flat_region(count + 1, 1.0, 1.6, (far + 0.5, 0.0), 0.0))
    return Environment(regions)


def _generate_cinder_field(rng: random.Random, options: dict) -> Environment:
    cols = int(options.get("cols", 5))
    rows = int(options.get("rows", 4))
    block = float(options.get("block_size", 0.4))
    pitch = float(options.get("pitch", 0.45))
    regions = [_flat_region(0, 1.0, rows * pitch + 0.8, (-0.6, 0.0), 0.0)]
    region_id = 1
    y0 = -(rows - 1) * pitch / 2.0
    for col in range(cols):
        for row in range(rows):
            x = 0.2 + block / 2.0 + col * pitch
            y = y0 + row * pitch
            z = rng.uniform(0.0, 0.15)
            yaw = rng.uniform(-math.pi / 12.0, math.pi / 12.0)
            regions.append(_flat_region(region_id, block, block, (x, y), z, yaw))
            region_id += 1
    far = 0.2 + cols * pitch + 0.6
    regions.append(_flat_region(region_id, 1.0, rows * pitch + 0.8, (far, 0.0), 0.0))
    return Environment(regions)


def _generate_narrow_gap(rng: random.Random, options: dict) -> Environment:
    spacing = float(options.get("spacing", 0.5))
    post = float(options.get("post_side", 0.3))
    height = float(options.get("height", 1.2))
    half = spacing / 2.0
    regions = [_flat_region(0, 4.0, 1.6, (0.0, 0.0), 0.0)]
    regions.extend(_bollard_regions(1, half, post, height))
    regions.extend(_bollard_regions(5, -half, post, height))
    return Environment(regions)


def _generate_platform_gap(rng: random.Random, options: dict) -> Environment:
    gap = float(options.get("gap", 0.8))
    regions = [
        _flat_region(0, 1.5, 1.5, (-0.75, 0.0), 0.0),
        _flat_region(1, 1.5, 1.5, (gap + 0.75, 0.0), 0.0),
    ]
    return Environment(regions)


_GENERATORS = {
    "flat": _generate_flat,
    "beam": _generate_beam,
    "stepping-stones": _generate_stepping_stones,
    "cinder-field": _generate_cinder_field,
    "narrow-gap": _generate_narrow_gap,
    "platform-gap": _generate_platform_gap,
}

GENERATOR_KINDS = tuple(sorted(_GENERATORS))


def generate_environment(kind: str, seed: int, options: dict | None = None) -> Environment:
    if kind not in _GENERATORS:
        raise WorldLoadError(
            f"unknown environment kind {kind!r}; choose from {', '.join(GENERATOR_KINDS)}"
        )
    return _GENERATORS[kind](random.Random(seed), dict(options or {}))
