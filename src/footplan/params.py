"""Flat JSON parameter file covering lattice, expansion, checks, costs, wiggle.

Every key is optional and falls back to the built-in default; unknown keys are
rejected so typos fail loudly. Geometry-valued entries (stance clearance, foot
sole) are vertex lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .constants import MAX_EXPANSION_SCAN
from .costing import CostParams
from .geometry import ConvexPolygon2, GeometryError, Pose2
from .lattice import ExpansionParams, LatticeParams, expansion_scan_bound
from .planner import PlannerRequest, SearchMemo
from .reading import InputError, decoded, number, points
from .snapping import FootPolygon, default_foot
from .validity import CheckerParams
from .wiggle import WiggleParams


class ParamsError(InputError):
    """Raised when a parameters document is malformed."""


@dataclass(frozen=True)
class ParamsBundle:
    lattice: LatticeParams = field(default_factory=LatticeParams)
    expansion: ExpansionParams = field(default_factory=ExpansionParams)
    checker: CheckerParams = field(default_factory=CheckerParams)
    cost: CostParams = field(default_factory=CostParams)
    wiggle: WiggleParams = field(default_factory=WiggleParams)
    foot: FootPolygon = field(default_factory=default_foot)
    goal_tolerance: float = 0.2
    goal_tolerance_yaw: float = 0.3

    def __post_init__(self):
        if not (self.goal_tolerance > 0 and self.goal_tolerance_yaw > 0):  # NaN too
            raise ParamsError("goal_tolerance and goal_tolerance_yaw must be positive")
        if self.wiggle.inset_distance >= self.lattice.xy_resolution:
            raise ParamsError("wiggle_inset_distance must be below xy_resolution")
        scan = expansion_scan_bound(self.lattice, self.expansion)
        if scan > MAX_EXPANSION_SCAN:
            raise ParamsError(
                f"the lattice and expansion ask for a reach-box scan of {scan:.3g} cells x yaw"
                f" steps, over the limit of {MAX_EXPANSION_SCAN:.0e}; coarsen xy_resolution or"
                " yaw_resolution, or shrink the expansion box"
            )

    def planner_request(
        self, env, start_left: Pose2, start_right: Pose2, goal: Pose2, timeout: float,
        memo: SearchMemo | None = None,
    ) -> PlannerRequest:
        """The search request these parameters set up for one start and goal,
        with `memo` to keep work across a replanning loop's searches."""
        return PlannerRequest(
            env=env,
            start_left=start_left,
            start_right=start_right,
            goal_midstance=goal,
            goal_tolerance=self.goal_tolerance,
            goal_tolerance_yaw=self.goal_tolerance_yaw,
            timeout=timeout,
            lattice=self.lattice,
            expansion=self.expansion,
            checker=self.checker,
            cost=self.cost,
            foot=self.foot,
            memo=memo,
        )


def _polygon(value, key: str) -> ConvexPolygon2:
    try:
        return ConvexPolygon2(points(value, key, ParamsError))
    except GeometryError as exc:
        raise ParamsError(f"{key}: {exc}") from None


def _weights(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != 3:
        raise ParamsError(f"{key} must be a list of 3 diagonal entries")
    return tuple(number(v, f"{key}[{i}]", ParamsError) for i, v in enumerate(value))


def _numbers(cls, prefix: str = "", apart: str = "") -> tuple[tuple[str, str], ...]:
    """The (document key, field) of each field of `cls` but `apart`, in field
    order: the fields that are plain numbers."""
    return tuple((prefix + f.name, f.name) for f in fields(cls) if f.name != apart)


# The document's keys, one row per bundle field in the order the loader reads
# them, so a document with several faults is refused at the first in this
# order: (bundle field, params class, number keys as (key, field), other keys
# as (key, field, reader)). The last row holds the bundle's own numbers.
_GROUPS = (
    ("lattice", LatticeParams, _numbers(LatticeParams), ()),
    ("expansion", ExpansionParams, _numbers(ExpansionParams, "expansion_"), ()),
    ("checker", CheckerParams, _numbers(CheckerParams, apart="stance_clearance"),
     (("stance_clearance", "stance_clearance", _polygon),)),
    ("cost", CostParams, _numbers(CostParams), ()),
    ("wiggle", WiggleParams, _numbers(WiggleParams, "wiggle_", apart="weights"),
     (("wiggle_weights", "weights", _weights),)),
    ("foot", FootPolygon, (), (("foot_sole", "sole", _polygon),)),
    (None, None, (("goal_tolerance", "goal_tolerance"),
                  ("goal_tolerance_yaw", "goal_tolerance_yaw")), ()),
)
_ALL_KEYS = frozenset(key for *_, numbers, others in _GROUPS for key, *_ in numbers + others)


def load_params(document) -> ParamsBundle:
    document = decoded(document, ParamsError)
    if not isinstance(document, dict):
        raise ParamsError("parameters document must be a JSON object")
    unknown = sorted(set(document) - _ALL_KEYS)
    if unknown:
        raise ParamsError(f"unknown parameter keys: {', '.join(unknown)}")

    try:
        bundle = {}
        for name, cls, numbers, others in _GROUPS:
            values = {
                attr: number(document[key], key, ParamsError)
                for key, attr in numbers if key in document
            }
            for key, attr, read in others:
                if key in document:
                    values[attr] = read(document[key], key)
            if name is None:
                bundle.update(values)
            elif values:  # a group given no key keeps the bundle's default
                bundle[name] = cls(**values)
        return ParamsBundle(**bundle)
    except ParamsError:
        raise
    except (ValueError, GeometryError) as exc:
        raise ParamsError(str(exc)) from None


def params_to_dict(bundle: ParamsBundle) -> dict:
    doc = {}
    for name, _, numbers, others in _GROUPS:
        group = bundle if name is None else getattr(bundle, name)
        for key, attr in numbers:
            doc[key] = getattr(group, attr)
        for key, attr, _ in others:
            value = getattr(group, attr)  # a polygon or the weights tuple
            doc[key] = (
                [[x, y] for x, y in value.vertices] if isinstance(value, ConvexPolygon2)
                else list(value)
            )
    return doc


def params_to_json(bundle: ParamsBundle) -> str:
    return json.dumps(params_to_dict(bundle), indent=2, sort_keys=True) + "\n"
