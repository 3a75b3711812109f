"""The region-chain check run before the search: an early NO_PATH_EXISTS when
no chain of regions can link a start foot to the goal."""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .constants import BOUNDARY_SLACK, REACH_SLACK
from .geometry import Point2, box_gap, clip_area, convex_sets_distance, point_to_convex_distance
from .lattice import FootstepNode, Side, node_to_pose
from .snapping import SnapResult, align_to_normal
from .validity import too_little_area, too_steep

if TYPE_CHECKING:
    from .planner import PlannerRequest


class _Site(NamedTuple):
    """A start foot or a standable region as the check sees it: its plan-view
    hull and box, the lowest and highest z of a foothold on it, and how far a
    foothold center may lie outside the hull."""

    hull: tuple[Point2, ...]
    box: tuple[float, float, float, float]
    z_lo: float
    z_hi: float
    grow: float


def _unstandable(region, request: PlannerRequest) -> str | None:
    """Why every foothold the search may try on `region` fails `check_incline`
    or `check_area`: "too steep" when the incline fails at every yaw, else
    "too small for the foot". None when some foothold may pass both.

    Search footholds sit at lattice yaws, and a foothold's rotation, roll and
    pitch come from its yaw and the region's normal alone (`align_to_normal`),
    so the incline test is the check itself at each yaw. Every vertex of
    `crop_foothold`'s clip lies within BOUNDARY_SLACK outside each piece edge,
    so the clip keeps at most the piece's plan-view area plus BOUNDARY_SLACK
    times its perimeter (up to the corners' slack-squared terms, below
    rounding). `check_area` divides the summed clip area by the sole's area
    times the rotation's top-left minor, which is the normal's z for a proper
    rotation.
    """
    checker, foot = request.checker, request.foot
    kept = sum(
        clip_area(piece) + BOUNDARY_SLACK * sum(map(math.dist, piece, piece[1:] + piece[:1]))
        for piece in region.projected_pieces
    )
    steep = True
    for k in range(request.lattice.yaw_count):
        yaw = node_to_pose(FootstepNode(0, 0, k, Side.LEFT), request.lattice).yaw
        ((l00, l01, _), (l10, l11, _), _), roll, pitch = align_to_normal(yaw, region.up_normal)
        if too_steep(roll, pitch, checker):
            continue
        steep = False
        det = l00 * l11 - l01 * l10
        if det > 0.0 and not too_little_area(kept / (foot.sole.area * det), checker):
            return None
    return "too steep" if steep else "too small for the foot"


def no_region_chain(
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
    max_step_down below the one before, ending on a site within
    goal_tolerance + grow of a goal foot. The height limits make the links
    directed. Walls cannot be stood on and are left out, and so are the
    regions `_unstandable` finds no foothold on: every foothold but the start
    feet passed `check_incline` and `check_area`.
    """
    foot, checker = request.foot, request.checker
    if foot.centrally_symmetric and checker.min_area_fraction - BOUNDARY_SLACK > 0.5:
        grow = REACH_SLACK
    else:
        grow = foot.circumradius
    goal_bound = request.goal_tolerance + grow
    step = checker.max_reach + BOUNDARY_SLACK + grow

    def region_site(region) -> _Site:
        a, b, _ = region.plane_coeffs
        margin = grow * math.hypot(a, b) + REACH_SLACK
        return _Site(
            region.hull_xy, region.bounds_xy, region.z_min - margin, region.z_max + margin, grow
        )

    def bound(item: _Site) -> float:
        return step + item.grow

    def gap(item: _Site, site: _Site, cutoff: float = math.inf) -> float:
        """Distance between two sites' hulls, or a lower bound on it above
        `cutoff`."""
        lower = math.hypot(*box_gap(item.box, site.box))
        if lower > cutoff:
            return lower
        return convex_sets_distance(item.hull, site.hull)

    def climb(item: _Site, site: _Site) -> tuple[float, float, str]:
        """The least rise or drop a step from `item` onto `site` takes beyond
        its limit, that limit and the limit's name; the excess is at most 0
        when the step height allows the step."""
        rise = site.z_lo - item.z_hi
        drop = item.z_lo - site.z_hi
        if rise - checker.max_step_up > drop - checker.max_step_down:
            return rise - checker.max_step_up, checker.max_step_up, "rise"
        return drop - checker.max_step_down, checker.max_step_down, "drop"

    def linked(item: _Site, site: _Site) -> bool:
        limit = bound(item)
        return gap(item, site, limit) <= limit and climb(item, site)[0] <= BOUNDARY_SLACK

    def at_goal(item: _Site) -> bool:
        return any(point_to_convex_distance(g, item.hull) <= goal_bound for g in goal_points)

    starts = [_Site(((s.x, s.y),), (s.x, s.y, s.x, s.y), s.z, s.z, 0.0) for s in start_feet]
    unreached = []
    left_out: Counter[str] = Counter()
    for region in request.env.regions:
        if region.snappable:
            why = _unstandable(region, request)
            if why is None:
                unreached.append(region_site(region))
            else:
                left_out[why] += 1
    note = "".join(
        f"; left out {n} region{'s' if n > 1 else ''} {why}" for why, n in sorted(left_out.items())
    )
    reached = list(starts)
    stack = list(starts)
    while stack:
        item = stack.pop()
        if at_goal(item):
            return None
        links, rest = [], []
        for site in unreached:
            (links if linked(item, site) else rest).append(site)
        unreached = rest
        reached += links
        stack += links

    if not any(at_goal(site) for site in unreached):
        return f"no standable region within {goal_bound:.2f} m of a goal foot{note}"
    pairs = [(item, site) for item in reached for site in unreached]
    nearest, limit = min(
        ((gap(item, site), bound(item)) for item, site in pairs),
        key=lambda pair: pair[0] - pair[1],
    )
    if nearest > limit:
        return (
            f"no region chain within reach: nearest gap {nearest:.2f} m > bound {limit:.2f} m{note}"
        )
    excess, height_limit, kind = min(
        climb(item, site) for item, site in pairs if gap(item, site) <= bound(item)
    )
    return (
        f"no region chain within step height: least {kind} {excess + height_limit:.2f} m"
        f" > limit {height_limit:.2f} m{note}"
    )
