"""Scripted worlds that change over time, replayed one step per tick.

A scenario script bundles a starting environment, start and goal poses, and a
timeline of region insertions and removals. The runner replans every tick
from the simulated stance, advances one step along the fresh plan, and logs a
trace entry per tick.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..geometry import GeometryError, Pose2
from ..params import ParamsBundle, ParamsError, load_params
from ..planner import PlanStatus, SearchMemo, plan
from ..reading import InputError, decoded, integer, number, pose
from ..world import Environment, PlanarRegion, WorldLoadError, load_environment, load_region

log = logging.getLogger("footplan.scenario")


class ScenarioError(InputError):
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


def _object_of(doc: dict, key: str) -> dict:
    """The JSON object under `key`, {} when it is missing. A string is refused:
    the loaders would decode it as JSON text, where a suite reads a file name."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"scenario field {key!r} must be a JSON object, got {value!r}")
    return value


def load_scenario_script(document) -> ScenarioScript:
    document = decoded(document, ScenarioError)
    if not isinstance(document, dict):
        raise ScenarioError("scenario document must be a JSON object")
    try:
        environment = load_environment(_object_of(document, "environment"))
    except WorldLoadError as exc:
        raise ScenarioError(f"environment: {exc}") from None
    start_left, start_right, goal = (
        pose(document.get(key), f"scenario field {key!r}", ScenarioError)
        for key in ("start_left", "start_right", "goal")
    )

    events_doc = document.get("events", [])
    if not isinstance(events_doc, list):
        raise ScenarioError(f"events must be a list, got {events_doc!r}")
    events = []
    for idx, entry in enumerate(events_doc):
        if not isinstance(entry, dict) or "time" not in entry or "action" not in entry:
            raise ScenarioError(f"event {idx}: needs time and action")
        time = number(entry["time"], f"event {idx}: time", ScenarioError)
        action = str(entry["action"])
        if action == "add-region":
            if "region" not in entry:
                raise ScenarioError(f"event {idx}: add-region needs a region object")
            try:
                region = load_region(entry["region"], "region")
            except (WorldLoadError, GeometryError) as exc:
                raise ScenarioError(f"event {idx}: {exc}") from None
            events.append(TimelineEvent(time, action, region=region))
        elif action == "remove-region":
            if "id" not in entry:
                raise ScenarioError(f"event {idx}: remove-region needs an id")
            region_id = integer(entry["id"], f"event {idx}: id", ScenarioError)
            events.append(TimelineEvent(time, action, region_id=region_id))
        else:
            raise ScenarioError(f"event {idx}: unknown action {action!r}")
    events.sort(key=lambda e: e.time)

    try:
        params = load_params(_object_of(document, "params"))
    except ParamsError as exc:
        raise ScenarioError(f"params: {exc}") from None
    return ScenarioScript(
        environment=environment,
        start_left=start_left,
        start_right=start_right,
        goal=goal,
        events=tuple(events),
        timeout=number(document.get("timeout", 1.0), "timeout", ScenarioError, positive=True),
        replan_period=number(
            document.get("replan_period", 1.0), "replan_period", ScenarioError, positive=True
        ),
        max_ticks=integer(
            document.get("max_ticks", 120), "max_ticks", ScenarioError, positive=True
        ),
        params=params,
    )


def _apply_events(env: Environment, events, now: float, cursor: int):
    applied = []
    while cursor < len(events) and events[cursor].time <= now + 1e-12:
        event = events[cursor]
        if event.action == "add-region":
            if event.region.region_id in env:
                raise ScenarioError(f"add-region: id {event.region.region_id} already present")
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
    i.e. a start foot already satisfies its goal pose. Ticks between world
    changes share one `SearchMemo`, so a tick reuses the snaps and edge
    verdicts of the ticks before it in the same world.
    """
    memo = SearchMemo()
    try:
        return _run_ticks(script, memo)
    finally:
        memo.clear()  # a caller may keep the requests, and so the memo


def _run_ticks(script: ScenarioScript, memo: SearchMemo) -> dict:
    env = script.environment
    left, right = script.start_left, script.start_right
    cursor = 0
    ticks = []
    arrived = False
    tick = 0
    while tick < script.max_ticks and not arrived:
        now = tick * script.replan_period
        env, applied, cursor = _apply_events(env, script.events, now, cursor)
        request = script.params.planner_request(
            env, left, right, script.goal, script.timeout, memo=memo
        )
        debug = log.isEnabledFor(logging.DEBUG)
        if debug:
            memo.bind(request)  # empty a stale memo first, so the sizes count this tick
            snaps, verdicts = len(memo.snaps), len(memo.verdicts)
        result = plan(request)
        if debug:
            computed = len(memo.verdicts) - verdicts
            log.debug(
                "tick %d: verdicts %d reused, %d computed; snaps %d computed, %d held",
                tick, result.stats.children_considered - computed, computed,
                len(memo.snaps) - snaps, snaps,
            )
        arrived = result.status is PlanStatus.FOUND_SOLUTION and not result.steps
        advanced = None
        if result.steps:
            step = result.steps[0]
            foot = step.snap.planar_pose
            if step.side.value == "left":
                left = foot
            else:
                right = foot
            advanced = {
                "side": step.side.value,
                "pose": [foot.x, foot.y, foot.yaw],
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
