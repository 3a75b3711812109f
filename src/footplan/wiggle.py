"""Foothold wiggling: shift each planned step a set distance inside its region.

A three-variable QP (x shift, y shift, small rotation) pushes every sole
vertex at least an inset distance inside the support region's convex piece
while moving as little as possible. A dual active-set solver answers it with
a certified KKT point or None. When the answer is None, the QP is tried at
inset zero: a foothold that no inset fits is left where it was after two
solves. Otherwise the inset is halved from the full one until a QP solves.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .constants import QP_FEAS_TOL
from .geometry import ConvexPolygon2, polygon_half_planes
from .planner import PlanStep
from .snapping import FootPolygon, crop_foothold
from .world import Environment


@dataclass(frozen=True)
class WiggleParams:
    """`weights` is the diagonal of the objective's W, for (x, y, theta)."""

    inset_distance: float = 0.02
    max_translation: float = 0.02
    max_rotation: float = math.radians(5.0)
    weights: tuple[float, float, float] = (1.0, 1.0, 0.05)

    def __post_init__(self):
        if not self.inset_distance >= 0:  # NaN too
            raise ValueError("inset_distance must be non-negative")
        if not (self.max_translation > 0 and self.max_rotation > 0):
            raise ValueError("shift bounds must be positive")
        try:
            weights = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError):
            weights = ()
        if len(weights) != 3 or not all(0.0 < w < math.inf for w in weights):
            raise ValueError("weights must be three positive finite numbers")
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class WiggleQP:
    weights: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _inset_qps(
    foothold: ConvexPolygon2, region_piece: ConvexPolygon2, params: WiggleParams
) -> Callable[[float], WiggleQP]:
    """The QP for q = (v_x, v_y, theta) as a function of the inset distance d.

    Vertex i at centroid offset r_i moves by J_i q with the small-angle
    Jacobian J_i = [[1, 0, -r_iy], [0, 1, r_ix]]; each region half-plane row
    a^T x <= b becomes a^T J_i q <= b - d - a^T x_i. Only the right-hand side
    depends on d, so the rows are assembled once.
    """
    normals, offsets = polygon_half_planes(region_piece)
    normals = np.array(normals)
    cx, cy = foothold.centroid()

    rows = []
    a_dot_x = []
    for vx, vy in foothold.vertices:
        rx, ry = vx - cx, vy - cy
        jac = np.array([[1.0, 0.0, -ry], [0.0, 1.0, rx]])
        rows.append(normals @ jac)
        a_dot_x.append(normals @ (vx, vy))
    rows = np.vstack(rows)
    a_dot_x = np.concatenate(a_dot_x)
    offsets = np.tile(offsets, len(foothold.vertices))
    weights = np.diag(params.weights)
    bound = np.array([params.max_translation, params.max_translation, params.max_rotation])
    return lambda d: WiggleQP(weights, rows, offsets - d - a_dot_x, -bound, bound)


# Guard only: each step activates the most violated row or drops an active
# one, and no solve of the bench corpus or of random QPs has needed over 7.
_MAX_STEPS = 50


def _all_rows(qp: WiggleQP) -> tuple[np.ndarray, np.ndarray]:
    """The containment rows and the box as one system rows @ q <= rhs."""
    box = np.vstack([np.eye(3), -np.eye(3)])
    return np.vstack([qp.rows, box]), np.concatenate([qp.rhs, qp.upper, -qp.lower])


def solve_qp3(qp: WiggleQP) -> np.ndarray | None:
    """Minimize q^T W q subject to rows @ q <= rhs and the box bounds.

    Goldfarb-Idnani dual active-set method. With y = sqrt(W) q the objective
    is |y|^2, so the solve starts at the unconstrained minimum y = 0. Each
    step takes the most violated row p and moves along z, the part of -a_p
    orthogonal to the active rows, while the active multipliers shift by
    -r per unit step; an active row whose multiplier reaches zero is dropped
    first. When neither move exists, row p cannot hold together with the
    active rows and the QP is infeasible.

    The returned q is a certified KKT point: every row holds within
    QP_FEAS_TOL and -2 W q is a non-negative combination of the rows active
    at q. None means the QP is infeasible, or the solve ran out of steps or
    made its active rows numerically dependent before it was certified.
    """
    rows, rhs = _all_rows(qp)
    scale = 1.0 / np.sqrt(np.diag(qp.weights))
    rows = rows * scale
    y = np.zeros(3)
    active: list[int] = []
    u = np.zeros(0)  # multipliers of the active rows
    p = -1  # the violated row being made active
    for _ in range(_MAX_STEPS):
        if p < 0:
            violation = rows @ y - rhs
            p = int(np.argmax(violation))
            if violation[p] <= QP_FEAS_TOL:
                return scale * y
            u_p = 0.0
        a = rows[p]
        act = rows[active]
        try:
            r = np.linalg.solve(act @ act.T, act @ a) if active else u  # u is empty too
        except np.linalg.LinAlgError:
            return None
        z = act.T @ r - a
        zz = float(z @ z)
        full = (a @ y - rhs[p]) / zz if zz > 1e-24 * float(a @ a) else math.inf
        partial, drop = math.inf, -1
        for j in np.flatnonzero(r > 0):
            if u[j] / r[j] < partial:
                partial, drop = u[j] / r[j], j
        t = min(full, partial)
        if t == math.inf:
            return None
        if full < math.inf:
            y = y + t * z
        u = u - t * r
        u_p += t
        if full <= partial:
            active.append(p)
            u = np.append(u, u_p)
            p = -1
        else:
            del active[drop]
            u = np.delete(u, drop)
    return None


def kkt_residual(qp: WiggleQP, q: np.ndarray) -> float:
    """Max of the feasibility and stationarity residuals at q.

    Stationarity is the distance from -2 W q to the cone of the rows active
    at q. In three dimensions that distance is reached with non-negative
    multipliers on at most three rows (Caratheodory), so every such subset
    is fitted by least squares, its multipliers clipped at zero.
    """
    g_all, h_all = _all_rows(qp)
    slack = h_all - g_all @ q
    feasibility = max(0.0, float(-slack.min()))
    gradient = 2.0 * qp.weights @ q
    stationarity = float(np.linalg.norm(gradient))
    active = np.flatnonzero(slack <= 1e-7)
    for size in (1, 2, 3):
        for subset in combinations(active, size):
            g_sub = g_all[list(subset)]
            lam = np.maximum(np.linalg.lstsq(g_sub.T, -gradient, rcond=None)[0], 0.0)
            stationarity = min(stationarity, float(np.linalg.norm(gradient + g_sub.T @ lam)))
    return max(feasibility, stationarity)


@dataclass(frozen=True)
class WiggleOutcome:
    step: PlanStep
    translation: tuple[float, float]
    rotation: float
    inset_used: float | None


def wiggle_step(
    step: PlanStep, env: Environment, foot: FootPolygon, params: WiggleParams
) -> WiggleOutcome:
    """Shift one planned step inside its region; unchanged when impossible."""
    snap = step.snap
    if snap.piece_index is None:
        return WiggleOutcome(step, (0.0, 0.0), 0.0, None)
    region = env.region(snap.region_id)
    sole = ConvexPolygon2(snap.sole)
    piece = ConvexPolygon2(region.projected_pieces[snap.piece_index])

    schedule = [params.inset_distance / (2.0**k) for k in range(6)] + [0.0]
    d, q = _first_solved(_inset_qps(sole, piece, params), schedule)
    if q is None:
        return WiggleOutcome(step, (0.0, 0.0), 0.0, None)
    cx, cy = sole.centroid()
    vx, vy, theta = float(q[0]), float(q[1]), float(q[2])
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    ox, oy = snap.x - cx, snap.y - cy
    new_snap = crop_foothold(
        region,
        cx + cos_t * ox - sin_t * oy + vx,
        cy + sin_t * ox + cos_t * oy + vy,
        snap.yaw + theta,
        foot,
    )
    return WiggleOutcome(PlanStep(step.side, new_snap), (vx, vy), theta, d)


def _first_solved(
    qp_at: Callable[[float], WiggleQP], schedule: list[float]
) -> tuple[float | None, np.ndarray | None]:
    """The first inset of the decreasing `schedule` whose QP solves, with its
    answer, or (None, None).

    A larger inset only shrinks the feasible set, so when the first inset
    fails the last one is tried next: if it fails too, no inset solves.
    """
    q = solve_qp3(qp_at(schedule[0]))
    if q is not None:
        return schedule[0], q
    floor = solve_qp3(qp_at(schedule[-1]))
    if floor is None:
        return None, None
    for d in schedule[1:-1]:
        q = solve_qp3(qp_at(d))
        if q is not None:
            return d, q
    return schedule[-1], floor


def wiggle_plan(
    steps: list[PlanStep], env: Environment, foot: FootPolygon, params: WiggleParams
) -> list[WiggleOutcome]:
    return [wiggle_step(step, env, foot, params) for step in steps]
