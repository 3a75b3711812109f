"""Work kept across replanning ticks: searches with a `SearchMemo` against
fresh searches of the same requests."""

import dataclasses
import json
import logging
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.geometry import Pose2
from footplan.params import load_params
from footplan.planner import PlannerResult, SearchMemo, SearchStats, plan
from footplan.snapping import SnapResult
from footplan.toolkit import cli, scenario
from footplan.toolkit.scenario import ScenarioError, load_scenario_script, run_anytime_scenario
from footplan.validity import CheckerParams
from footplan.world import load_environment

FLAT_ROTATION = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
# A vertical wall: region x along world y, region y along world z.
WALL_ROTATION = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]

# Criterion 7's replanning params: coarse lattice, forward-only steps.
REPLAN_PARAMS = {
    "xy_resolution": 0.1,
    "yaw_resolution": 1.5707963267948966,
    "expansion_min_length": 0.0,
    "expansion_max_length": 0.4,
    "expansion_min_width": 0.15,
    "expansion_max_width": 0.35,
    "expansion_min_yaw_delta": 0.0,
    "expansion_max_yaw_delta": 0.0,
    "goal_tolerance": 0.15,
}


def region(region_id, center, rotation, length, width):
    hl, hw = length / 2.0, width / 2.0
    return {
        "id": region_id,
        "translation": list(center),
        "rotation": rotation,
        "pieces": [[[-hl, -hw], [hl, -hw], [hl, hw], [-hl, hw]]],
    }


def wall(region_id, x, y_lo, y_hi):
    """A wall over z 0.4..1.4: inside the body box, above the step-over rectangle."""
    return region(region_id, (x, (y_lo + y_hi) / 2.0, 0.9), WALL_ROTATION, y_hi - y_lo, 1.0)


GROUND = region(0, (0.0, 0.0, 0.0), FLAT_ROTATION, 2.6, 2.0)


def replan_doc(events, goal=(1.0, 0.0, 0.0), max_ticks=40):
    return {
        "environment": {"regions": [GROUND]},
        "start_left": [-1.0, 0.125, 0.0],
        "start_right": [-1.0, -0.125, 0.0],
        "goal": list(goal),
        "params": REPLAN_PARAMS,
        "timeout": 10.0,
        "max_ticks": max_ticks,
        "events": events,
    }


def add(time, doc):
    return {"time": time, "action": "add-region", "region": doc}


def remove(time, region_id):
    return {"time": time, "action": "remove-region", "id": region_id}


# Criterion 7: one wall inserted beside the straight route at t = 1.
CRITERION_7 = replan_doc([add(1.0, wall(9, 0.0, -0.35, 1.0))])


def two_walls(side):
    """A `replan` benchmark script: two walls on one side of the route, both
    inserted early and removed late, and the goal on the detour side."""
    y_lo, y_hi = sorted((side * -0.35, side * 1.0))
    events = [
        add(1.0, wall(9, 0.1 * side, y_lo, y_hi)),
        add(3.0, wall(10, 0.6, y_lo, y_hi)),
        remove(9.0, 9),
        remove(15.0, 10),
    ]
    return replan_doc(events, goal=(1.0, -side * 0.5, 0.0), max_ticks=60)


SCRIPTS = {"criterion-7": CRITERION_7, "two-walls-left": two_walls(1.0),
           "two-walls-right": two_walls(-1.0)}


def snap_fields(snap):
    """A snap's fields, and its crop polygon, which is built when read."""
    if not isinstance(snap, SnapResult):
        return snap
    fields = tuple(getattr(snap, f.name) for f in dataclasses.fields(SnapResult))
    return fields + (snap.cropped_foothold,)


def assert_same_result(memoised: PlannerResult, fresh: PlannerResult):
    """Equal in everything but the search's duration."""
    assert memoised.status is fresh.status
    assert [(s.side, snap_fields(s.snap)) for s in memoised.steps] == [
        (s.side, snap_fields(s.snap)) for s in fresh.steps
    ]
    for f in dataclasses.fields(SearchStats):
        if f.name != "duration_s":
            assert getattr(memoised.stats, f.name) == getattr(fresh.stats, f.name), f.name
    assert memoised.tracker_history == fresh.tracker_history


def run_against_fresh(document, monkeypatch) -> tuple[dict, list[int]]:
    """Run a script, checking every tick's memoised answer against a fresh
    search of the same request. Returns the trace and, per tick, how many
    verdicts the memo held when the tick began."""
    held = []

    def both(request):
        assert request.memo is not None
        request.memo.bind(request)  # as the search will, emptying a stale memo
        held.append(len(request.memo.verdicts))
        memoised = plan(request)
        assert_same_result(memoised, plan(dataclasses.replace(request, memo=None)))
        return memoised

    monkeypatch.setattr(scenario, "plan", both)
    return run_anytime_scenario(load_scenario_script(document)), held


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_memoised_ticks_equal_fresh_searches(name, monkeypatch):
    trace, held = run_against_fresh(SCRIPTS[name], monkeypatch)
    assert trace["arrived"] is True
    assert len(held) == len(trace["ticks"])
    # Ticks without an event begin with the verdicts of the tick before.
    for index, tick in enumerate(trace["ticks"]):
        assert (held[index] > 0) == (index > 0 and not tick["events"]), index


WALL_POOL = (wall(9, -0.2, -0.35, 1.0), wall(10, 0.3, -1.0, 0.35), wall(11, 0.7, -0.35, 1.0))


@st.composite
def wall_timelines(draw):
    """Each wall of the pool added at a drawn tick, or never, and perhaps
    removed at a later one."""
    events = []
    for doc in WALL_POOL:
        start = draw(st.none() | st.integers(0, 6))
        if start is None:
            continue
        events.append(add(float(start), doc))
        stop = draw(st.none() | st.integers(start + 1, 7))
        if stop is not None:
            events.append(remove(float(stop), doc["id"]))
    return events


@settings(max_examples=6)
@given(wall_timelines())
def test_memoised_ticks_equal_fresh_searches_over_random_wall_edits(events):
    with pytest.MonkeyPatch.context() as monkeypatch:
        trace, _ = run_against_fresh(replan_doc(events, max_ticks=8), monkeypatch)
    assert trace["ticks"]


def write_script(tmp_path, document) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize("name", ["criterion-7", "two-walls-right"])
def test_anytime_json_is_byte_identical_with_and_without_the_memo(name, tmp_path, monkeypatch):
    monkeypatch.setenv("FSP_STABLE_TIMING", "1")
    monkeypatch.delenv("FSP_LOG", raising=False)
    argv = ["anytime", "--scenario", write_script(tmp_path, SCRIPTS[name]), "--out"]
    assert cli.main(argv + [str(tmp_path / "memo.json")]) == 0
    monkeypatch.setattr(scenario, "plan", lambda request: plan(dataclasses.replace(request, memo=None)))
    assert cli.main(argv + [str(tmp_path / "fresh.json")]) == 0
    assert (tmp_path / "memo.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


# ---------------------------------------------------------------------------
# When the memo resets


def request_in(world_regions):
    env = load_environment({"regions": [GROUND] + world_regions})
    return load_params(REPLAN_PARAMS).planner_request(
        env, Pose2(-1.0, 0.125, 0.0), Pose2(-1.0, -0.125, 0.0), Pose2(1.0, 0.0, 0.0), 10.0
    )


def assert_memo_answers_fresh(requests):
    """Plan each request in turn with one memo: every answer must equal a
    fresh search's, and the answers must differ, or the memo was not tried."""
    memo = SearchMemo()
    answers = []
    for request in requests:
        fresh = plan(request)
        assert_same_result(plan(dataclasses.replace(request, memo=memo)), fresh)
        answers.append([snap_fields(step.snap) for step in fresh.steps])
    assert answers[0] != answers[1]


def test_memo_resets_across_worlds():
    # Same region ids, walls on opposite sides of the route.
    left = request_in([wall(9, 0.0, -0.35, 1.0)])
    right = request_in([wall(9, 0.0, -1.0, 0.35)])
    assert_memo_answers_fresh([left, right, left])


def test_memo_resets_across_checker_params():
    blocked = request_in([wall(9, 0.0, -0.35, 1.0)])
    low_box = dataclasses.replace(blocked, checker=CheckerParams(body_box_top=0.35))
    assert_memo_answers_fresh([blocked, low_box, blocked])


# ---------------------------------------------------------------------------
# The benchmark's capture hook and what the captured requests keep


def capture_plans(monkeypatch):
    """Replace the runner's `plan` with a one-argument hook, as the
    benchmark does; returns the captured (request, memo sizes) pairs."""
    captured = []

    def hook(request):
        result = plan(request)
        captured.append((request, len(request.memo.snaps), len(request.memo.verdicts)))
        return result

    monkeypatch.setattr(scenario, "plan", hook)
    return captured


def test_runner_calls_plan_with_one_argument_and_empties_the_memo(monkeypatch):
    expected = run_anytime_scenario(load_scenario_script(CRITERION_7))
    captured = capture_plans(monkeypatch)
    assert run_anytime_scenario(load_scenario_script(CRITERION_7)) == expected
    assert len(captured) == len(expected["ticks"])
    assert all(snaps > 0 and verdicts > 0 for _, snaps, verdicts in captured)
    for request, _, _ in captured:
        assert not request.memo.snaps and not request.memo.verdicts


def test_memo_is_emptied_when_the_runner_fails(monkeypatch):
    document = replan_doc([add(1.0, wall(9, 0.0, -0.35, 1.0)), remove(3.0, 99)])
    captured = capture_plans(monkeypatch)
    with pytest.raises(ScenarioError, match="99"):
        run_anytime_scenario(load_scenario_script(document))
    assert len(captured) == 3
    assert all(verdicts > 0 for _, _, verdicts in captured)
    for request, _, _ in captured:
        assert not request.memo.snaps and not request.memo.verdicts


# ---------------------------------------------------------------------------
# Debug log


def test_debug_log_reports_reuse_per_tick_and_leaves_the_output_alone(tmp_path):
    script = write_script(tmp_path, CRITERION_7)
    outputs = {}
    logs = {}
    for level in ("error", "debug"):
        environ = dict(os.environ, FSP_STABLE_TIMING="1", FSP_LOG=level)
        out = tmp_path / f"{level}.json"
        done = subprocess.run(
            [sys.executable, "-m", "footplan", "anytime", "--scenario", script, "--out", str(out)],
            capture_output=True, text=True, env=environ,
        )
        assert done.returncode == 0, done.stderr
        outputs[level] = out.read_bytes()
        logs[level] = [line for line in done.stderr.splitlines() if "footplan.scenario" in line]
    assert outputs["debug"] == outputs["error"]
    assert logs["error"] == []
    ticks = json.loads(outputs["debug"])["ticks"]
    assert len(logs["debug"]) == len(ticks)
    pattern = re.compile(r"tick (\d+): verdicts (\d+) reused, (\d+) computed; "
                         r"snaps (\d+) computed, (\d+) held$")
    counts = [[int(v) for v in pattern.search(line).groups()] for line in logs["debug"]]
    assert [c[0] for c in counts] == list(range(len(ticks)))
    # A tick in a new world (the start, and the wall's insertion at tick 1)
    # reuses nothing; the tick after it reuses verdicts and every snap it needs.
    for tick, reused, computed, snapped, held in counts[:2]:
        assert reused == held == 0 and computed > 0 and snapped > 0
    assert counts[2][1] > 0 and counts[2][3] == 0 and counts[2][4] == counts[1][3]


def test_debug_lines_in_process_add_up_to_each_ticks_children(monkeypatch, caplog):
    # In this process, unlike the CLI test above, so the debug branch of the
    # tick loop runs where a line trace of the suite can see it.
    document = replan_doc([add(1.0, wall(9, 0.0, -0.35, 1.0))], max_ticks=4)
    quiet = json.dumps(run_anytime_scenario(load_scenario_script(document)))
    considered = []

    def counting(request):
        result = plan(request)
        considered.append(result.stats.children_considered)
        return result

    monkeypatch.setattr(scenario, "plan", counting)
    with caplog.at_level(logging.DEBUG, logger="footplan.scenario"):
        trace = run_anytime_scenario(load_scenario_script(document))
    assert json.dumps(trace) == quiet
    assert trace["ticks"][1]["events"]  # the wall goes in at tick 1
    lines = [r.getMessage() for r in caplog.records if r.name == "footplan.scenario"]
    assert len(lines) == len(trace["ticks"]) == len(considered) == 4
    pattern = re.compile(r"tick (\d+): verdicts (\d+) reused, (\d+) computed; ")
    counts = [[int(v) for v in pattern.match(line).groups()] for line in lines]
    for tick, ((index, reused, computed), children) in enumerate(zip(counts, considered)):
        assert index == tick and reused + computed == children
    # the edit empties the memo; the tick after it reuses the edited world's verdicts
    assert counts[1][1] == 0 and counts[2][1] > 0
