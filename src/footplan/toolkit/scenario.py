"""Scripted worlds that change over time, replayed one step per tick.

A scenario script bundles a starting environment, start and goal poses, and a
timeline of region insertions and removals. The runner replans every tick
from the simulated stance, advances one step along the fresh plan, and logs a
trace entry per tick.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..geometry import GeometryError, Pose2
from ..params import ParamsBundle, ParamsError, load_params
from ..planner import PlanStatus, plan
from ..world import Environment, PlanarRegion, WorldLoadError, load_environment


class ScenarioError(ValueError):
    """Raised when a scenario script is malformed."""


@dataclass(frozen=True)
class TimelineEvent:
    time: float
    action: str
    region: PlanarRegion | None = None
    region_id: int | None = None


@dataclass(frozen=True)
class ScenarioScript:
    environment: Environment
    start_left: Pose2
    start_right: Pose2
    goal: Pose2
    events: tuple[TimelineEvent, ...] = ()
    replan_period: float = 1.0
    timeout: float = 1.0
    max_ticks: int = 120
    params: ParamsBundle = field(default_factory=ParamsBundle)


def _pose_of(doc, key: str) -> Pose2:
    try:
        x, y, yaw = (float(v) for v in doc[key])
    except (KeyError, TypeError, ValueError):
        raise ScenarioError(f"scenario field {key!r} must be [x, y, yaw]") from None
    if not all(math.isfinite(v) for v in (x, y, yaw)):
        raise ScenarioError(f"scenario field {key!r} must be finite")
    return Pose2(x, y, yaw)


def _number(value, what: str):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None


def _integer(value, what: str, positive: bool = False) -> int:
    """A JSON integer: not a float, however whole, and not a boolean."""
    if not isinstance(value, int) or isinstance(value, bool) or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ScenarioError(f"{what} must be {kind}, got {value!r}")
    return value


def _region_of(doc: dict) -> PlanarRegion:
    loaded = load_environment({"regions": [doc]})
    return loaded.regions[0]


def load_scenario_script(document) -> ScenarioScript:
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ScenarioError("scenario document must be a JSON object")
    try:
        environment = load_environment(document.get("environment", {}))
    except WorldLoadError as exc:
        raise ScenarioError(f"environment: {exc}") from None
    start_left = _pose_of(document, "start_left")
    start_right = _pose_of(document, "start_right")
    goal = _pose_of(document, "goal")

    events = []
    for idx, entry in enumerate(document.get("events", [])):
        if not isinstance(entry, dict) or "time" not in entry or "action" not in entry:
            raise ScenarioError(f"event {idx}: needs time and action")
        time = _number(entry["time"], f"event {idx}: time")
        if not math.isfinite(time):
            raise ScenarioError(f"event {idx}: time must be finite, got {time!r}")
        action = str(entry["action"])
        if action == "add-region":
            if "region" not in entry:
                raise ScenarioError(f"event {idx}: add-region needs a region object")
            try:
                region = _region_of(entry["region"])
            except (WorldLoadError, GeometryError) as exc:
                raise ScenarioError(f"event {idx}: {exc}") from None
            events.append(TimelineEvent(time, action, region=region))
        elif action == "remove-region":
            if "id" not in entry:
                raise ScenarioError(f"event {idx}: remove-region needs an id")
            region_id = _integer(entry["id"], f"event {idx}: id")
            events.append(TimelineEvent(time, action, region_id=region_id))
        else:
            raise ScenarioError(f"event {idx}: unknown action {action!r}")
    events.sort(key=lambda e: e.time)

    try:
        params = load_params(document.get("params", {}))
    except ParamsError as exc:
        raise ScenarioError(f"params: {exc}") from None
    timeout = _number(document.get("timeout", 1.0), "timeout")
    if not timeout > 0:
        raise ScenarioError(f"timeout must be above zero, got {timeout!r}")
    replan_period = _number(document.get("replan_period", 1.0), "replan_period")
    if not 0 < replan_period < math.inf:
        raise ScenarioError(f"replan_period must be finite and above zero, got {replan_period!r}")
    return ScenarioScript(
        environment=environment,
        start_left=start_left,
        start_right=start_right,
        goal=goal,
        events=tuple(events),
        replan_period=replan_period,
        timeout=timeout,
        max_ticks=_integer(document.get("max_ticks", 120), "max_ticks", positive=True),
        params=params,
    )


def _apply_events(env: Environment, events, now: float, cursor: int):
    applied = []
    while cursor < len(events) and events[cursor].time <= now + 1e-12:
        event = events[cursor]
        if event.action == "add-region":
            env = env.with_region(event.region)
        else:
            if event.region_id not in env:
                raise ScenarioError(f"remove-region: id {event.region_id} not present")
            env = env.without_region(event.region_id)
        applied.append(event)
        cursor += 1
    return env, applied, cursor


def run_anytime_scenario(script: ScenarioScript) -> dict:
    """Run the scripted timeline and return a JSON-ready trace.

    Arrival means the planner reports a solution with zero remaining steps,
    i.e. a start foot already satisfies its goal pose.
    """
    env = script.environment
    left, right = script.start_left, script.start_right
    cursor = 0
    ticks = []
    arrived = False
    tick = 0
    while tick < script.max_ticks and not arrived:
        now = tick * script.replan_period
        env, applied, cursor = _apply_events(env, script.events, now, cursor)
        result = plan(script.params.planner_request(env, left, right, script.goal, script.timeout))
        arrived = result.status is PlanStatus.FOUND_SOLUTION and not result.steps
        advanced = None
        if result.steps:
            step = result.steps[0]
            pose = step.snap.planar_pose
            if step.side.value == "left":
                left = pose
            else:
                right = pose
            advanced = {
                "side": step.side.value,
                "pose": [pose.x, pose.y, pose.yaw],
                "area_fraction": step.snap.area_fraction,
            }
        ticks.append(
            {
                "time": now,
                "events": [
                    {
                        "action": e.action,
                        "id": e.region.region_id if e.region is not None else e.region_id,
                    }
                    for e in applied
                ],
                "region_ids": [r.region_id for r in env.regions],
                "status": result.status.value,
                "plan_steps": len(result.steps),
                "path_cost": result.stats.path_cost,
                "nodes_expanded": result.stats.nodes_expanded,
                "tracker_history": list(result.tracker_history),
                "advanced": advanced,
            }
        )
        if not arrived and not result.steps and cursor >= len(script.events):
            break  # stuck with no pending world changes
        tick += 1
    return {
        "arrived": arrived,
        "final_stance": {
            "left": [left.x, left.y, left.yaw],
            "right": [right.x, right.y, right.yaw],
        },
        "ticks": ticks,
    }
