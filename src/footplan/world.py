"""Planar-region world model: posed planes carrying convex polygon pieces."""

from __future__ import annotations

import json
import logging
import math
from typing import NamedTuple

from .constants import NEAR_VERTICAL_NZ, PIECE_OVERLAP_LIMIT
from .geometry import (
    ConvexPolygon2,
    GeometryError,
    RigidTransform3,
    clip_area,
    clip_vertices,
    convex_hull,
    point_to_convex_distance,
)

log = logging.getLogger("footplan.world")


class WorldLoadError(ValueError):
    """Raised when an environment document violates the format."""


class PieceSolid(NamedTuple):
    """A region piece in world coordinates, as the separating-axis test reads it:
    vertices, edges (vertex i to i + 1) and rim normals (edge x up normal)."""

    vertices: tuple[tuple[float, float, float], ...]
    edges: tuple[tuple[float, float, float], ...]
    rims: tuple[tuple[float, float, float], ...]


class PlanarRegion:
    """One planar region: a 3D pose plus convex pieces in the region's xy plane.

    Derived data (world-frame piece solids, xy projections, bounding boxes, the
    plan-view hull) is computed once at construction; regions are immutable
    afterwards.
    """

    def __init__(self, region_id: int, transform_to_world: RigidTransform3, pieces):
        self.region_id = int(region_id)
        self.transform_to_world = transform_to_world
        self.pieces: tuple[ConvexPolygon2, ...] = tuple(pieces)
        if not self.pieces:
            raise WorldLoadError(f"region {self.region_id}: needs at least one piece")
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                overlap = clip_area(
                    clip_vertices(self.pieces[i].vertices, self.pieces[j].vertices, slack=0.0)
                )
                if overlap >= PIECE_OVERLAP_LIMIT:
                    raise WorldLoadError(
                        f"region {self.region_id}: pieces {i} and {j} overlap by {overlap:g} m^2"
                    )

        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = transform_to_world.rotation
        tx, ty, tz = transform_to_world.translation
        nx, ny, nz = (r02, r12, r22) if r22 >= 0 else (-r02, -r12, -r22)  # support normal up
        self.up_normal: tuple[float, float, float] = (nx, ny, nz)
        self.snappable: bool = abs(r22) > NEAR_VERTICAL_NZ
        if self.snappable:
            # z(x, y) = z0 - a x - b y for the region's infinite plane
            self.plane_coeffs: tuple[float, float, float] | None = (
                nx / nz,
                ny / nz,
                tz + (nx * tx + ny * ty) / nz,
            )
        else:
            self.plane_coeffs = None

        solids = []
        projected = []
        piece_boxes = []
        zs = []
        for piece in self.pieces:
            world = [
                (r00 * u + r01 * v + tx, r10 * u + r11 * v + ty, r20 * u + r21 * v + tz)
                for u, v in piece.vertices
            ]
            edges = [
                (bx - ax, by - ay, bz - az)
                for (ax, ay, az), (bx, by, bz) in zip(world, world[1:] + world[:1])
            ]
            rims = [
                (ey * nz - ez * ny, ez * nx - ex * nz, ex * ny - ey * nx) for ex, ey, ez in edges
            ]
            solids.append(PieceSolid(tuple(world), tuple(edges), tuple(rims)))
            zs.append((min(p[2] for p in world), max(p[2] for p in world)))
            xy = [(p[0], p[1]) for p in world]
            if r22 < 0:
                xy = xy[::-1]  # keep projected winding counter-clockwise
            projected.append(tuple(xy))
            piece_boxes.append(
                (
                    min(p[0] for p in xy),
                    min(p[1] for p in xy),
                    max(p[0] for p in xy),
                    max(p[1] for p in xy),
                )
            )
        self.piece_solids: tuple[PieceSolid, ...] = tuple(solids)
        self.projected_pieces: tuple[tuple, ...] = tuple(projected)
        self.piece_bounds_xy: tuple[tuple[float, float, float, float], ...] = tuple(piece_boxes)
        self.z_min: float = min(lo for lo, _ in zs)
        self.z_max: float = max(hi for _, hi in zs)

        all_xy = [p for piece in projected for p in piece]
        xs = [p[0] for p in all_xy]
        ys = [p[1] for p in all_xy]
        self.bounds_xy: tuple[float, float, float, float] = (min(xs), min(ys), max(xs), max(ys))
        self.hull_xy: tuple = convex_hull(all_xy)

    def __repr__(self):
        return f"PlanarRegion(id={self.region_id}, pieces={len(self.pieces)}, snappable={self.snappable})"


class Environment:
    """Immutable collection of planar regions with cached world-frame boxes.

    Changing the world means building a new Environment (see with_region /
    without_region).
    """

    def __init__(self, regions):
        self.regions: tuple[PlanarRegion, ...] = tuple(regions)
        self._by_id: dict[int, PlanarRegion] = {}
        for region in self.regions:
            if region.region_id in self._by_id:
                raise WorldLoadError(f"region {region.region_id}: duplicate id")
            self._by_id[region.region_id] = region
        self._warn_heavy_overlaps()

    def _warn_heavy_overlaps(self):
        # Duplicate-surface detection only: stacked layers at distinct heights
        # are a normal modeling pattern and stay silent.
        regions = [r for r in self.regions if r.snappable]
        for i in range(len(regions)):
            a = regions[i]
            for j in range(i + 1, len(regions)):
                b = regions[j]
                if not _boxes_touch(a.bounds_xy, b.bounds_xy):
                    continue
                if a.z_min - 0.02 > b.z_max or b.z_min - 0.02 > a.z_max:
                    continue
                overlap = 0.0
                for pa in a.projected_pieces:
                    for pb in b.projected_pieces:
                        overlap += clip_area(clip_vertices(pa, pb, slack=0.0))
                if overlap > 0.05:
                    log.warning(
                        "regions %d and %d overlap by %.4f m^2 at similar heights; keeping both",
                        a.region_id,
                        b.region_id,
                        overlap,
                    )

    def region(self, region_id: int) -> PlanarRegion:
        return self._by_id[region_id]

    def __contains__(self, region_id: int) -> bool:
        return region_id in self._by_id

    def with_region(self, region: PlanarRegion) -> "Environment":
        return Environment(self.regions + (region,))

    def without_region(self, region_id: int) -> "Environment":
        if region_id not in self._by_id:
            raise KeyError(f"region {region_id} not in environment")
        return Environment(tuple(r for r in self.regions if r.region_id != region_id))


def _boxes_touch(a, b, pad: float = 0.0) -> bool:
    return not (
        a[2] + pad < b[0] or b[2] + pad < a[0] or a[3] + pad < b[1] or b[3] + pad < a[1]
    )


def regions_overlapping_disc(env: Environment, center, radius: float) -> list[int]:
    """Ids of regions whose plan-view pieces intersect the closed disc.

    Bounding boxes prefilter; surviving regions get an exact point-to-piece
    distance test, so the result is exact.
    """
    cx, cy = float(center[0]), float(center[1])
    out = []
    for region in env.regions:
        x0, y0, x1, y1 = region.bounds_xy
        dx = max(x0 - cx, 0.0, cx - x1)
        dy = max(y0 - cy, 0.0, cy - y1)
        if dx * dx + dy * dy > radius * radius:
            continue
        for piece in region.projected_pieces:
            if point_to_convex_distance((cx, cy), piece) <= radius:
                out.append(region.region_id)
                break
    return out


def plane_height_at(region: PlanarRegion, x: float, y: float) -> float | None:
    """World z of the region's (infinite) plane above (x, y); None if near-vertical."""
    coeffs = region.plane_coeffs
    if coeffs is None:
        return None
    a, b, z0 = coeffs
    return z0 - a * x - b * y


# ---------------------------------------------------------------------------
# Serialization: {"regions": [{"id", "translation", "rotation", "pieces"}]}
# with rotation as 9 row-major floats and pieces as vertex lists in the
# region frame. Coordinates are z-up, right-handed, meters; no angles stored.


def load_environment(document) -> Environment:
    """Parse an environment from a JSON string or an already-decoded dict."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise WorldLoadError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict) or "regions" not in document:
        raise WorldLoadError('environment document must be an object with a "regions" list')
    regions_doc = document["regions"]
    if not isinstance(regions_doc, list):
        raise WorldLoadError('"regions" must be a list')

    regions = []
    for idx, entry in enumerate(regions_doc):
        if not isinstance(entry, dict):
            raise WorldLoadError(f"region entry {idx} is not an object")
        region_id = entry.get("id")
        if not isinstance(region_id, int) or isinstance(region_id, bool):
            raise WorldLoadError(f"region entry {idx}: id must be an integer, got {region_id!r}")
        label = f"region {region_id}"
        try:
            translation = [float(v) for v in entry["translation"]]
            rotation_flat = [float(v) for v in entry["rotation"]]
            pieces_doc = entry["pieces"]
        except (KeyError, TypeError, ValueError) as exc:
            raise WorldLoadError(f"{label}: missing or malformed field ({exc})") from None
        if len(translation) != 3:
            raise WorldLoadError(f"{label}: translation must have 3 entries")
        if len(rotation_flat) != 9:
            raise WorldLoadError(f"{label}: rotation must have 9 entries (row-major)")
        if not all(math.isfinite(v) for v in translation + rotation_flat):
            raise WorldLoadError(f"{label}: non-finite transform entry")
        rotation = (rotation_flat[0:3], rotation_flat[3:6], rotation_flat[6:9])
        try:
            transform = RigidTransform3(rotation, translation)
        except GeometryError as exc:
            raise WorldLoadError(f"{label}: {exc}") from None
        if not isinstance(pieces_doc, list) or not pieces_doc:
            raise WorldLoadError(f"{label}: pieces must be a non-empty list")
        pieces = []
        for pidx, piece_doc in enumerate(pieces_doc):
            try:
                verts = [(float(p[0]), float(p[1])) for p in piece_doc]
            except (TypeError, ValueError, IndexError):
                raise WorldLoadError(f"{label}: piece {pidx} is malformed") from None
            try:
                pieces.append(ConvexPolygon2(verts))
            except GeometryError as exc:
                raise WorldLoadError(f"{label}: piece {pidx}: {exc}") from None
        regions.append(PlanarRegion(region_id, transform, pieces))
    return Environment(regions)


def environment_to_dict(env: Environment) -> dict:
    regions = []
    for region in env.regions:
        regions.append(
            {
                "id": region.region_id,
                "translation": list(region.transform_to_world.translation),
                "rotation": [v for row in region.transform_to_world.rotation for v in row],
                "pieces": [[[x, y] for x, y in piece.vertices] for piece in region.pieces],
            }
        )
    return {"regions": regions}


def environment_to_json(env: Environment) -> str:
    return json.dumps(environment_to_dict(env), indent=2, sort_keys=True) + "\n"
