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


def _keys(cls, prefix: str = "", loaded_apart: tuple[str, ...] = ()) -> set[str]:
    """The document keys of a params class: its field names, prefixed, less
    the fields that are not plain numbers and load on their own."""
    return {prefix + f.name for f in fields(cls) if f.name not in loaded_apart}


_LATTICE_KEYS = _keys(LatticeParams)
_EXPANSION_KEYS = _keys(ExpansionParams, "expansion_")
_CHECKER_KEYS = _keys(CheckerParams, loaded_apart=("stance_clearance",))
_COST_KEYS = _keys(CostParams)
_WIGGLE_KEYS = _keys(WiggleParams, "wiggle_", loaded_apart=("weights",))
_POLYGON_KEYS = {"stance_clearance", "foot_sole"}
_SCALAR_EXTRAS = {"goal_tolerance", "goal_tolerance_yaw"}
_LIST_EXTRAS = {"wiggle_weights"}
_ALL_KEYS = (
    _LATTICE_KEYS
    | _EXPANSION_KEYS
    | _CHECKER_KEYS
    | _COST_KEYS
    | _WIGGLE_KEYS
    | _POLYGON_KEYS
    | _SCALAR_EXTRAS
    | _LIST_EXTRAS
)


def _polygon_of(doc: dict, key: str) -> ConvexPolygon2:
    try:
        return ConvexPolygon2(points(doc[key], key, ParamsError))
    except GeometryError as exc:
        raise ParamsError(f"{key}: {exc}") from None


def load_params(document) -> ParamsBundle:
    document = decoded(document, ParamsError)
    if not isinstance(document, dict):
        raise ParamsError("parameters document must be a JSON object")
    unknown = sorted(set(document) - _ALL_KEYS)
    if unknown:
        raise ParamsError(f"unknown parameter keys: {', '.join(unknown)}")

    def group(keys, strip=""):
        out = {}
        for key in keys:
            if key in document:
                out[key[len(strip):] if strip else key] = number(document[key], key, ParamsError)
        return out

    try:
        lattice = LatticeParams(**group(_LATTICE_KEYS))
        expansion = ExpansionParams(**group(_EXPANSION_KEYS, strip="expansion_"))
        checker_kwargs = group(_CHECKER_KEYS)
        if "stance_clearance" in document:
            checker_kwargs["stance_clearance"] = _polygon_of(document, "stance_clearance")
        checker = CheckerParams(**checker_kwargs)
        cost = CostParams(**group(_COST_KEYS))
        wiggle_kwargs = group(_WIGGLE_KEYS, strip="wiggle_")
        if "wiggle_weights" in document:
            diag = document["wiggle_weights"]
            if not isinstance(diag, list) or len(diag) != 3:
                raise ParamsError("wiggle_weights must be a list of 3 diagonal entries")
            wiggle_kwargs["weights"] = tuple(
                number(v, f"wiggle_weights[{i}]", ParamsError) for i, v in enumerate(diag)
            )
        wiggle = WiggleParams(**wiggle_kwargs)
        foot = (
            FootPolygon(_polygon_of(document, "foot_sole"))
            if "foot_sole" in document
            else default_foot()
        )
        return ParamsBundle(
            lattice,
            expansion,
            checker,
            cost,
            wiggle,
            foot,
            **group(_SCALAR_EXTRAS),
        )
    except ParamsError:
        raise
    except (ValueError, GeometryError) as exc:
        raise ParamsError(str(exc)) from None


def params_to_dict(bundle: ParamsBundle) -> dict:
    doc = {
        "goal_tolerance": bundle.goal_tolerance,
        "goal_tolerance_yaw": bundle.goal_tolerance_yaw,
        "foot_sole": [[x, y] for x, y in bundle.foot.sole.vertices],
        "stance_clearance": [[x, y] for x, y in bundle.checker.stance_clearance.vertices],
        "wiggle_weights": list(bundle.wiggle.weights),
    }
    for group, keys, prefix in (
        (bundle.lattice, _LATTICE_KEYS, ""),
        (bundle.expansion, _EXPANSION_KEYS, "expansion_"),
        (bundle.checker, _CHECKER_KEYS, ""),
        (bundle.cost, _COST_KEYS, ""),
        (bundle.wiggle, _WIGGLE_KEYS, "wiggle_"),
    ):
        for key in keys:
            doc[key] = getattr(group, key[len(prefix):])
    return doc


def params_to_json(bundle: ParamsBundle) -> str:
    return json.dumps(params_to_dict(bundle), indent=2, sort_keys=True) + "\n"
