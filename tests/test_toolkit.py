"""Toolkit surface: generators, scenario runner, benchmark CSV, SVG, CLI."""

import ast
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import footplan
from footplan.geometry import Pose2, RigidTransform3, rectangle_polygon
from footplan.lattice import Side
from footplan.planner import PlanStep, plan
from footplan.snapping import SnapResult, default_foot, snap_pose
from footplan.toolkit import cli
from footplan.toolkit.benchmark import (
    BenchmarkError,
    benchmark_csv,
    load_benchmark_suite,
    run_benchmark,
)
from footplan.toolkit.cli import main as cli_main
from footplan.toolkit.generators import GENERATOR_KINDS, generate_environment
from footplan.toolkit.scenario import ScenarioError, load_scenario_script, run_anytime_scenario
from footplan.toolkit.svg_render import render_svg
from footplan.validity import RejectionReason
from footplan.world import (
    Environment,
    PlanarRegion,
    WorldLoadError,
    environment_to_dict,
    environment_to_json,
)

from test_snapping import recompose
from test_world import flat_region, rotation_about_y

NARROW_PARAMS = {
    "expansion_min_length": 0.0,
    "expansion_max_length": 0.4,
    "expansion_min_width": 0.15,
    "expansion_max_width": 0.35,
    "expansion_min_yaw_delta": 0.0,
    "expansion_max_yaw_delta": 0.0,
}


# ---------------------------------------------------------------------------
# Generators


def test_every_generator_kind_builds_and_round_trips():
    for kind in GENERATOR_KINDS:
        env = generate_environment(kind, 1)
        assert env.regions
        text = environment_to_json(env)
        assert environment_to_json(generate_environment(kind, 1)) == text


def test_randomized_generators_vary_with_the_seed():
    a = environment_to_json(generate_environment("stepping-stones", 0))
    b = environment_to_json(generate_environment("stepping-stones", 1))
    assert a != b
    c = environment_to_json(generate_environment("cinder-field", 0))
    d = environment_to_json(generate_environment("cinder-field", 1))
    assert c != d


def test_narrow_gap_slot_width_follows_the_option():
    for spacing in (0.5, 0.35):
        env = generate_environment("narrow-gap", 0, {"spacing": spacing})
        walls = [r for r in env.regions if not r.snappable]
        assert len(walls) == 8
        north = min(r.bounds_xy[1] for r in walls if r.bounds_xy[1] > 0)
        south = max(r.bounds_xy[3] for r in walls if r.bounds_xy[3] < 0)
        assert north == pytest.approx(spacing / 2.0)
        assert south == pytest.approx(-spacing / 2.0)


def test_unknown_generator_kind_is_rejected():
    with pytest.raises(WorldLoadError, match="mystery"):
        generate_environment("mystery", 0)


# ---------------------------------------------------------------------------
# Scenario runner


def scenario_doc(env, start_x, goal, events=(), **overrides):
    doc = {
        "environment": environment_to_dict(env),
        "start_left": [start_x, 0.1, 0.0],
        "start_right": [start_x, -0.1, 0.0],
        "goal": list(goal),
        "params": dict(NARROW_PARAMS),
        "timeout": 5.0,
        "max_ticks": 40,
        "events": list(events),
    }
    doc.update(overrides)
    return doc


def test_scenario_walks_to_arrival():
    env = Environment([flat_region(0, 4.0, 2.0)])
    trace = run_anytime_scenario(
        load_scenario_script(scenario_doc(env, -0.3, (0.3, 0.0, 0.0)))
    )
    assert trace["arrived"] is True
    last = trace["ticks"][-1]
    assert last["status"] == "found_solution"
    assert last["plan_steps"] == 0
    mid_x = (trace["final_stance"]["left"][0] + trace["final_stance"]["right"][0]) / 2.0
    mid_y = (trace["final_stance"]["left"][1] + trace["final_stance"]["right"][1]) / 2.0
    assert math.hypot(mid_x - 0.3, mid_y) < 0.3
    for tick in trace["ticks"][:-1]:
        assert tick["advanced"] is not None
        assert tick["advanced"]["side"] in ("left", "right")


def test_scenario_starting_at_the_goal_arrives_immediately():
    env = Environment([flat_region(0, 2.0, 2.0)])
    trace = run_anytime_scenario(load_scenario_script(scenario_doc(env, 0.0, (0.0, 0.0, 0.0))))
    assert trace["arrived"] is True
    assert len(trace["ticks"]) == 1
    assert trace["ticks"][0]["advanced"] is None


def test_scenario_timeline_adds_and_removes_regions():
    env = Environment([flat_region(0, 4.0, 2.0)])
    riser = {
        "id": 7,
        "translation": [10.0, 0.0, 0.2],
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "pieces": [[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]],
    }
    events = [
        {"time": 1.0, "action": "add-region", "region": riser},
        {"time": 2.0, "action": "remove-region", "id": 7},
    ]
    trace = run_anytime_scenario(
        load_scenario_script(scenario_doc(env, -0.6, (0.6, 0.0, 0.0), events))
    )
    ticks = trace["ticks"]
    assert 7 not in ticks[0]["region_ids"]
    assert ticks[1]["events"] == [{"action": "add-region", "id": 7}]
    assert 7 in ticks[1]["region_ids"]
    assert ticks[2]["events"] == [{"action": "remove-region", "id": 7}]
    assert 7 not in ticks[2]["region_ids"]


def test_scenario_waits_for_a_bridge_then_crosses():
    env = generate_environment("platform-gap", 0, {"gap": 0.6})
    bridge = {
        "id": 2,
        "translation": [0.3, 0.0, 0.0],
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "pieces": [[[-0.5, -0.4], [0.5, -0.4], [0.5, 0.4], [-0.5, 0.4]]],
    }
    events = [{"time": 2.0, "action": "add-region", "region": bridge}]
    trace = run_anytime_scenario(
        load_scenario_script(scenario_doc(env, -0.4, (1.0, 0.0, 0.0), events))
    )
    assert trace["ticks"][0]["status"] == "no_path_exists"
    assert trace["ticks"][1]["status"] == "no_path_exists"
    assert trace["arrived"] is True
    crossing = [t for t in trace["ticks"] if t["status"] == "found_solution"]
    assert crossing


def test_scenario_stops_when_stuck_with_no_pending_events():
    env = Environment([flat_region(0, 1.0, 1.0)])
    trace = run_anytime_scenario(load_scenario_script(scenario_doc(env, 0.0, (4.0, 0.0, 0.0))))
    assert trace["arrived"] is False
    assert len(trace["ticks"]) == 1
    assert trace["ticks"][0]["status"] == "no_path_exists"


def test_scenario_script_validation():
    env = Environment([flat_region(0, 1.0, 1.0)])
    good = scenario_doc(env, 0.0, (0.5, 0.0, 0.0))

    missing = dict(good)
    del missing["start_left"]
    with pytest.raises(ScenarioError, match="start_left"):
        load_scenario_script(missing)

    with pytest.raises(ScenarioError, match="unknown action"):
        load_scenario_script(
            scenario_doc(env, 0.0, (0.5, 0.0, 0.0), [{"time": 0.0, "action": "paint"}])
        )
    with pytest.raises(ScenarioError, match="needs time and action"):
        load_scenario_script(scenario_doc(env, 0.0, (0.5, 0.0, 0.0), [{"action": "add-region"}]))
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario_script("{oops")

    for timeout in (0, -1.0, "abc", "1.0", True, float("nan"), None):
        with pytest.raises(ScenarioError, match="timeout"):
            load_scenario_script(dict(good, timeout=timeout))
    for ticks in ("many", -3, 0, 2.7, 2.0, True):
        with pytest.raises(ScenarioError, match="max_ticks must be a positive integer"):
            load_scenario_script(dict(good, max_ticks=ticks))
    for region_id in (0.9, 0.0, True, "0"):
        with pytest.raises(ScenarioError, match="event 0: id must be an integer"):
            load_scenario_script(scenario_doc(
                env, 0.0, (0.5, 0.0, 0.0),
                [{"time": 1.0, "action": "remove-region", "id": region_id}],
            ))
        region = dict(good["environment"]["regions"][0], id=region_id)
        with pytest.raises(ScenarioError, match="id must be an integer"):
            load_scenario_script(dict(good, environment={"regions": [region]}))
    for time in ("soon", "1.0", True):
        with pytest.raises(ScenarioError, match="time must be a number"):
            load_scenario_script(
                scenario_doc(env, 0.0, (0.5, 0.0, 0.0), [{"time": time, "action": "add-region"}])
            )
    for pose in (["1", 0.1, 0.0], [True, 0.1, 0.0], [0.0, 0.1], "0 0.1 0", None):
        with pytest.raises(ScenarioError, match="start_left"):
            load_scenario_script(dict(good, start_left=pose))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ScenarioError, match="start_left"):
            load_scenario_script(dict(good, start_left=[bad, 0.1, 0.0]))
        with pytest.raises(ScenarioError, match="time must be finite"):
            load_scenario_script(
                scenario_doc(env, 0.0, (0.5, 0.0, 0.0), [{"time": bad, "action": "remove-region", "id": 0}])
            )
    for period in (float("nan"), float("inf"), 0.0, -1.0, "0.5", True):
        with pytest.raises(ScenarioError, match="replan_period"):
            load_scenario_script(dict(good, replan_period=period))
    # an added region's errors name the event's region, not a world's entry
    for region, message in (
        ({"id": "x"}, "event 1: region: id must be an integer, got 'x'"),
        ([], "event 1: region is not an object"),
    ):
        events = [
            {"time": 0.5, "action": "remove-region", "id": 0},
            {"time": 1, "action": "add-region", "region": region},
        ]
        with pytest.raises(ScenarioError) as info:
            load_scenario_script(scenario_doc(env, 0.0, (0.5, 0.0, 0.0), events))
        assert str(info.value) == message


def test_scenario_adding_a_present_region_fails_at_runtime(tmp_path, capsys):
    env = Environment([flat_region(0, 2.0, 2.0)])
    block = environment_to_dict(Environment([flat_region(0, 0.2, 0.2, center=(3.0, 0.0))]))
    events = [{"time": 0.0, "action": "add-region", "region": block["regions"][0]}]
    doc = scenario_doc(env, 0.0, (0.5, 0.0, 0.0), events)
    with pytest.raises(ScenarioError) as info:
        run_anytime_scenario(load_scenario_script(doc))
    assert str(info.value) == "add-region: id 0 already present"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["anytime", "--scenario", str(path), "--out", str(tmp_path / "t.json")]) == 4
    assert capsys.readouterr().err == f"error: scenario file {path}: add-region: id 0 already present\n"


def test_scenario_removing_a_missing_region_fails_at_runtime():
    env = Environment([flat_region(0, 2.0, 2.0)])
    events = [{"time": 0.0, "action": "remove-region", "id": 99}]
    script = load_scenario_script(scenario_doc(env, 0.0, (0.5, 0.0, 0.0), events))
    with pytest.raises(ScenarioError, match="99"):
        run_anytime_scenario(script)


# ---------------------------------------------------------------------------
# Benchmark


def suite_doc():
    walk_env = environment_to_dict(Environment([flat_region(0, 4.0, 2.0)]))
    island_env = environment_to_dict(Environment([flat_region(0, 1.0, 1.0)]))
    return {
        "entries": [
            {
                "name": "flat-walk",
                "environment": walk_env,
                "start_left": [-0.5, 0.1, 0.0],
                "start_right": [-0.5, -0.1, 0.0],
                "goal": [0.5, 0.0, 0.0],
                "params": dict(NARROW_PARAMS),
            },
            {
                "name": "island",
                "environment": island_env,
                "start_left": [0.0, 0.1, 0.0],
                "start_right": [0.0, -0.1, 0.0],
                "goal": [3.0, 0.0, 0.0],
                "params": dict(NARROW_PARAMS),
                "timeout": 5.0,
            },
        ]
    }


def test_benchmark_runs_and_formats_csv():
    suite = load_benchmark_suite(suite_doc())
    rows = run_benchmark(suite)
    assert [row["Plan"] for row in rows] == ["flat-walk", "island"]
    assert rows[0]["status"] == "found_solution"
    assert rows[0]["Number of Steps"] >= 3
    assert rows[1]["status"] == "no_path_exists"
    assert rows[1]["Number of Steps"] == 0

    text = benchmark_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "Plan,Number of Steps,Plan Distance (m),Planning Duration (s),Nodes Expanded,Percent Rejected"
    assert len(lines) == 3
    pattern = re.compile(r"^[\w-]+,\d+,\d+\.\d{3},\d+\.\d{3},\d+,\d+\.\d$")
    for line in lines[1:]:
        assert pattern.match(line), line


def test_benchmark_suite_resolves_file_references(tmp_path):
    env_path = tmp_path / "world.json"
    env_path.write_text(environment_to_json(Environment([flat_region(0, 2.0, 2.0)])))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(NARROW_PARAMS))
    doc = {
        "entries": [
            {
                "name": "file-based",
                "environment": "world.json",
                "params": "params.json",
                "start_left": [-0.3, 0.1, 0.0],
                "start_right": [-0.3, -0.1, 0.0],
                "goal": [0.3, 0.0, 0.0],
            }
        ]
    }
    entries = load_benchmark_suite(json.dumps(doc), base_dir=tmp_path)
    assert entries[0].environment.regions[0].region_id == 0
    assert entries[0].params.expansion.max_length == 0.4

    doc["entries"][0]["environment"] = "missing.json"
    with pytest.raises(BenchmarkError, match="cannot read"):
        load_benchmark_suite(json.dumps(doc), base_dir=tmp_path)


def test_benchmark_suite_validation():
    with pytest.raises(BenchmarkError, match="entries"):
        load_benchmark_suite({"runs": []})
    with pytest.raises(BenchmarkError, match="missing environment"):
        load_benchmark_suite({"entries": [{"name": "x"}]})
    with pytest.raises(BenchmarkError, match="start_left"):
        load_benchmark_suite(
            {
                "entries": [
                    {
                        "name": "x",
                        "environment": environment_to_dict(
                            Environment([flat_region(0, 1.0, 1.0)])
                        ),
                        "start_right": [0, 0, 0],
                        "goal": [1, 0, 0],
                    }
                ]
            }
        )
    with pytest.raises(BenchmarkError, match="invalid JSON"):
        load_benchmark_suite("{nope")

    entry = suite_doc()["entries"][0]
    for timeout in (0, -1.0, "abc", float("nan")):
        with pytest.raises(BenchmarkError, match="timeout"):
            load_benchmark_suite({"entries": [dict(entry, timeout=timeout)]})
    with pytest.raises(BenchmarkError, match="goal"):
        load_benchmark_suite({"entries": [dict(entry, goal=[float("inf"), 0.0, 0.0])]})


# ---------------------------------------------------------------------------
# SVG


def test_svg_renders_deterministically():
    env = generate_environment("narrow-gap", 0)
    foot = default_foot()
    snaps = [snap_pose(Pose2(x, y, 0.0), env, foot) for x, y in ((-0.6, 0.1), (-0.4, -0.1))]
    steps = [
        PlanStep(Side.LEFT, snaps[0]),
        PlanStep(Side.RIGHT, snaps[1]),
    ]
    for snap in snaps:
        assert isinstance(snap, SnapResult)
    first = render_svg(env, steps, start=Pose2(-0.8, 0.0, 0.0), goal=Pose2(0.8, 0.0, 0.0))
    second = render_svg(env, steps, start=Pose2(-0.8, 0.0, 0.0), goal=Pose2(0.8, 0.0, 0.0))
    assert first == second
    assert first.startswith("<svg xmlns=")
    assert first.endswith("</svg>\n")
    assert "polyline" in first  # vertical faces drawn as bars
    assert ">start<" in first and ">goal<" in first
    assert first.count("<polygon") >= len([r for r in env.regions if r.snappable]) + len(steps)


def test_svg_handles_an_empty_scene():
    text = render_svg(Environment([]))
    assert text.startswith("<svg xmlns=")
    assert text.endswith("</svg>\n")


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def stable_env(monkeypatch):
    monkeypatch.setenv("FSP_STABLE_TIMING", "1")
    monkeypatch.delenv("FSP_LOG", raising=False)


def write_flat_env(tmp_path, name="env.json", length=4.0, width=2.0):
    path = tmp_path / name
    path.write_text(environment_to_json(Environment([flat_region(0, length, width)])))
    return path


def write_params(tmp_path, name="params.json", **extra):
    path = tmp_path / name
    doc = dict(NARROW_PARAMS)
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


def test_cli_gen_writes_deterministic_environments(tmp_path, stable_env):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli_main(["gen", "--kind", "cinder-field", "--seed", "7", "--out", str(out_a)]) == 0
    assert cli_main(["gen", "--kind", "cinder-field", "--seed", "7", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "regions" in json.loads(out_a.read_text())


def test_two_cli_calls_build_one_parser(tmp_path, stable_env, monkeypatch):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "footplan":
                built.append(self)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli_main(["gen", "--kind", "flat", "--seed", "1", "--out", str(out)]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def test_cli_plan_stdout_and_file_agree(tmp_path, stable_env, capsys):
    env_path = write_flat_env(tmp_path)
    params_path = write_params(tmp_path)
    argv = [
        "plan",
        "--env", str(env_path),
        "--start=-0.5,0,0",
        "--goal", "0.5,0,0",
        "--params", str(params_path),
    ]
    assert cli_main(argv) == 0
    stdout = capsys.readouterr().out
    doc = json.loads(stdout)
    assert doc["status"] == "found_solution"
    assert doc["stats"]["duration_s"] == 0.0
    assert len(doc["steps"]) >= 3
    for step in doc["steps"]:
        assert step["side"] in ("left", "right")
        assert len(step["translation"]) == 3
        assert len(step["rotation"]) == 9
        assert step["foothold"]

    out_path = tmp_path / "plan.json"
    assert cli_main(argv + ["--out", str(out_path)]) == 0
    assert out_path.read_text() == stdout


def test_cli_plan_writes_rejections_by_reason(tmp_path, stable_env, monkeypatch):
    # a wall just left of the straight route: children whose body box
    # reaches it are rejected by the body-box check
    wall = PlanarRegion(
        1,
        RigidTransform3(rotation_about_y(math.pi / 2.0), np.array([0.0, 0.5, 0.0])),
        [rectangle_polygon(2.0, 0.6, center=(-1.0, 0.0))],
    )
    env_path = tmp_path / "env.json"
    env_path.write_text(environment_to_json(Environment([flat_region(0, 4.0, 2.0), wall])))
    params_path = write_params(tmp_path)
    results = []

    def recording_plan(request):
        results.append(plan(request))
        return results[-1]

    monkeypatch.setattr(cli, "plan", recording_plan)
    documents = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        argv = ["plan", "--env", str(env_path), "--params", str(params_path),
                "--start=-0.6,0,0", "--goal", "0.6,0,0", "--out", str(out)]
        assert cli_main(argv) == 0
        documents.append(out.read_bytes())
    assert documents[0] == documents[1]

    rejected = json.loads(documents[0])["stats"]["rejected"]
    assert list(rejected) == sorted(reason.value for reason in RejectionReason)
    assert sum(rejected.values()) == results[0].stats.total_rejected
    assert rejected["body_box_collision"] > 0


def test_cli_plan_exit_codes(tmp_path, stable_env, capsys):
    island = write_flat_env(tmp_path, "island.json", length=1.0, width=1.0)
    params_path = write_params(tmp_path)
    base = ["plan", "--env", str(island), "--params", str(params_path)]

    assert cli_main(base + ["--start", "0,0,0", "--goal", "3,0,0"]) == 3
    blocked = json.loads(capsys.readouterr().out)
    assert blocked["status"] == "no_path_exists"
    assert blocked["steps"] == []

    assert cli_main(base + ["--start", "9,9,0", "--goal", "0,0,0"]) == 4
    invalid = json.loads(capsys.readouterr().out)
    assert invalid["status"] == "invalid_start"

    # 200 km of strides: no machine finishes it within the timeout
    runway = write_flat_env(tmp_path, "runway.json", length=200_020.0)
    argv = [
        "plan",
        "--env", str(runway),
        "--params", str(params_path),
        "--start=-100000,0,0",
        "--goal", "100000,0,0",
        "--timeout", "0.4",
    ]
    assert cli_main(argv) == 2
    best = json.loads(capsys.readouterr().out)
    assert best["status"] == "timed_out_best_effort"
    assert best["steps"]


def test_cli_input_errors_exit_4(tmp_path, stable_env, capsys):
    env_path = write_flat_env(tmp_path)
    plan = ["plan", "--env", str(env_path)]
    bad_scenario = tmp_path / "bad_scenario.json"
    bad_scenario.write_text(
        json.dumps(scenario_doc(Environment([flat_region(0, 1.0, 1.0)]), 0.0, (0.5, 0.0, 0.0),
                                timeout=0))
    )
    bad_suite = tmp_path / "bad_suite.json"
    bad_suite.write_text(json.dumps({"entries": [dict(suite_doc()["entries"][0], timeout="abc")]}))
    bad_weights = []
    for index, weights in enumerate((5, [True, 1, 1], [math.inf, 1, 1])):
        path = tmp_path / f"bad_weights{index}.json"
        path.write_text(json.dumps({"wiggle_weights": weights}))
        bad_weights.append(plan + ["--start", "0,0,0", "--goal", "1,0,0", "--params", str(path)])
    fractional_env = tmp_path / "fractional_id.json"
    world = json.loads(env_path.read_text())
    world["regions"][0]["id"] = 0.9
    fractional_env.write_text(json.dumps(world))
    bad_numbers = [(
        ["plan", "--env", str(fractional_env), "--start", "0,0,0", "--goal", "1,0,0"],
        "id must be an integer, got 0.9",
    )]
    for index, (edit, message) in enumerate((
        (lambda r: r["pieces"][0].__setitem__(0, {"x": 1, "y": 1}),
         "region 0: piece 0 vertex 0 must be a list of 2 numbers, got {'x': 1, 'y': 1}"),
        (lambda r: r.__setitem__("translation", "123"),
         "region 0: translation must be a list of 3 numbers, got '123'"),
        (lambda r: r.__setitem__("translation", [True, 0, 0]),
         "region 0: translation must be a number, got True"),
    )):
        world = json.loads(env_path.read_text())
        edit(world["regions"][0])
        path = tmp_path / f"bad_world{index}.json"
        path.write_text(json.dumps(world))
        argv = ["plan", "--env", str(path), "--start", "0,0,0", "--goal", "1,0,0"]
        bad_numbers.append((argv, message))
    for index, (sole, message) in enumerate((
        ([{"x": 0.1, "y": 0.05}, [-0.1, 0.05], [-0.1, -0.05]],
         "foot_sole vertex 0 must be a list of 2 numbers, got {'x': 0.1, 'y': 0.05}"),
        ([[True, 0.05], [-0.1, 0.05], [-0.1, -0.05]], "foot_sole vertex 0 must be a number, got True"),
    )):
        path = tmp_path / f"bad_sole{index}.json"
        path.write_text(json.dumps({"foot_sole": sole}))
        bad_numbers.append((plan + ["--start", "0,0,0", "--goal", "1,0,0", "--params", str(path)],
                            message))
    for index, (overrides, message) in enumerate((
        ({"start_left": "123"}, "entry 'flat-walk': field 'start_left' must be a list of 3 numbers, got '123'"),
        ({"goal": [True, 0, 0]}, "entry 'flat-walk': field 'goal' must be a number, got True"),
        ({"timeout": "2"}, "entry 'flat-walk': timeout must be a number, got '2'"),
    )):
        path = tmp_path / f"bad_entry{index}.json"
        path.write_text(json.dumps({"entries": [dict(suite_doc()["entries"][0], **overrides)]}))
        bad_numbers.append((["bench", "--suite", str(path), "--out", str(tmp_path / "x.csv")], message))
    good_scenario = scenario_doc(Environment([flat_region(0, 1.0, 1.0)]), 0.0, (0.5, 0.0, 0.0))
    for index, (overrides, message) in enumerate((
        ({"events": 3}, "events must be a list, got 3"),
        ({"events": [{"time": 1.0, "action": "remove-region", "id": 0.9}]},
         "id must be an integer, got 0.9"),
        ({"max_ticks": -3}, "max_ticks must be a positive integer, got -3"),
        ({"max_ticks": 2.7}, "max_ticks must be a positive integer, got 2.7"),
        ({"max_ticks": True}, "max_ticks must be a positive integer, got True"),
        ({"timeout": True}, "timeout must be a number, got True"),
        ({"replan_period": "0.5"}, "replan_period must be a number, got '0.5'"),
        ({"start_left": ["1", 0, 0]}, "scenario field 'start_left' must be a number, got '1'"),
    )):
        path = tmp_path / f"bad_number{index}.json"
        path.write_text(json.dumps(dict(good_scenario, **overrides)))
        argv = ["anytime", "--scenario", str(path), "--out", str(tmp_path / "x.json")]
        bad_numbers.append((argv, message))
    bad_numbers += [
        (plan + ["--start", "0,0,0", "--goal", "1,0,0", "--timeout", "abc"],
         "invalid float value: 'abc'"),
        (plan + ["--start", "a,b,c", "--goal", "1,0,0"], "--start must contain three numbers"),
        (plan + ["--start", "0,0,0", "--goal", "1,0,0", "--out", str(tmp_path / "no" / "x.json")],
         "cannot write"),
    ]
    cases = [
        plan + ["--start", "0,0,0", "--goal", "1,0,0", "--timeout", "0"],
        plan + ["--start", "0,0,0", "--goal", "1,0,0", "--timeout", "-1"],
        plan + ["--start", "0,0,0", "--goal", "1,0,0", "--timeout", "nan"],
        plan + ["--start", "nan,0,0", "--goal", "1,0,0"],
        plan + ["--start", "inf,0,0", "--goal", "1,0,0"],
        plan + ["--start", "0,0,0", "--goal", "1,0,-inf"],
        ["anytime", "--scenario", str(bad_scenario), "--out", str(tmp_path / "x.json")],
        ["bench", "--suite", str(bad_suite), "--out", str(tmp_path / "x.csv")],
        [],
        ["warp"],
        ["plan", "--start", "0,0,0", "--goal", "1,0,0"],
        ["plan", "--env", str(env_path), "--start", "0,0", "--goal", "1,0,0"],
        ["plan", "--env", str(tmp_path / "nope.json"), "--start", "0,0,0", "--goal", "1,0,0"],
        ["gen", "--kind", "flat", "--seed", "zero", "--out", str(tmp_path / "x.json")],
        ["bench", "--suite", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")],
        ["anytime", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")],
        *bad_weights,
    ]
    for argv in cases:
        assert cli_main(argv) == 4, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err
    for argv, message in bad_numbers:
        assert cli_main(argv) == 4, argv
        assert message in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    argv = ["plan", "--env", str(broken), "--start", "0,0,0", "--goal", "1,0,0"]
    assert cli_main(argv) == 4
    assert "error:" in capsys.readouterr().err

    bad_params = tmp_path / "bad_params.json"
    bad_params.write_text(json.dumps({"banana": 1}))
    argv = [
        "plan",
        "--env", str(env_path),
        "--start", "0,0,0",
        "--goal", "0.4,0,0",
        "--params", str(bad_params),
    ]
    assert cli_main(argv) == 4
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", [{"goal_tolerance": 0}, {"goal_tolerance_yaw": -0.1}])
def test_a_goal_tolerance_of_0_or_less_exits_4(tolerance, tmp_path, stable_env, capsys):
    # plan reads params from a file, bench from a suite entry, anytime from
    # the scenario document; each used to end in the request's ValueError
    env_path = write_flat_env(tmp_path)
    params_path = write_params(tmp_path, **tolerance)
    suite_path = tmp_path / "suite.json"
    entry = suite_doc()["entries"][0]
    suite_path.write_text(json.dumps({"entries": [dict(entry, params=dict(entry["params"], **tolerance))]}))
    scenario = scenario_doc(Environment([flat_region(0, 1.0, 1.0)]), 0.0, (0.5, 0.0, 0.0))
    scenario["params"].update(tolerance)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    for argv in (
        ["plan", "--env", str(env_path), "--start", "0,0,0", "--goal", "1,0,0",
         "--params", str(params_path)],
        ["bench", "--suite", str(suite_path), "--out", str(tmp_path / "x.csv")],
        ["anytime", "--scenario", str(scenario_path), "--out", str(tmp_path / "x.json")],
    ):
        assert cli_main(argv) == 4, argv
        err = capsys.readouterr().err
        assert "error:" in err and "must be positive" in err, argv


def test_scenario_environment_and_params_must_be_json_objects(tmp_path, stable_env, capsys):
    # a string there would load as JSON text, though in a suite it names a file
    good = scenario_doc(Environment([flat_region(0, 1.0, 1.0)]), 0.0, (0.5, 0.0, 0.0))
    load_scenario_script(good)
    for key in ("environment", "params"):
        for value in (json.dumps(good[key]), f"{key}.json", [good[key]], 3, None):
            message = f"scenario field {key!r} must be a JSON object, got {value!r}"
            with pytest.raises(ScenarioError) as caught:
                load_scenario_script(dict(good, **{key: value}))
            assert str(caught.value) == message
            path = tmp_path / f"inline_{key}.json"
            path.write_text(json.dumps(dict(good, **{key: value})))
            argv = ["anytime", "--scenario", str(path), "--out", str(tmp_path / "x.json")]
            assert cli_main(argv) == 4
            assert message in capsys.readouterr().err


def test_cli_plan_svg_is_stable(tmp_path, stable_env, capsys):
    env_path = write_flat_env(tmp_path)
    params_path = write_params(tmp_path)
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    argv = [
        "plan",
        "--env", str(env_path),
        "--start=-0.5,0,0",
        "--goal", "0.5,0,0",
        "--params", str(params_path),
        "--out", str(tmp_path / "plan.json"),
    ]
    assert cli_main(argv + ["--svg", str(svg_a)]) == 0
    assert cli_main(argv + ["--svg", str(svg_b)]) == 0
    capsys.readouterr()
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().startswith("<svg xmlns=")


def test_cli_bench_writes_the_fixed_csv(tmp_path, stable_env):
    env_path = write_flat_env(tmp_path, "walk.json")
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "name": "walk",
                        "environment": "walk.json",
                        "params": dict(NARROW_PARAMS),
                        "start_left": [-0.5, 0.1, 0.0],
                        "start_right": [-0.5, -0.1, 0.0],
                        "goal": [0.5, 0.0, 0.0],
                    }
                ]
            }
        )
    )
    out_path = tmp_path / "report.csv"
    assert cli_main(["bench", "--suite", str(suite_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "Plan,Number of Steps,Plan Distance (m),Planning Duration (s),Nodes Expanded,Percent Rejected"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "walk"
    assert lines[1].split(",")[3] == "0.000"  # stable timing zeroes durations


def test_cli_anytime_exit_codes(tmp_path, stable_env):
    walk = scenario_doc(Environment([flat_region(0, 4.0, 2.0)]), -0.3, (0.3, 0.0, 0.0))
    walk_path = tmp_path / "walk.json"
    walk_path.write_text(json.dumps(walk))
    out_path = tmp_path / "trace.json"
    assert cli_main(["anytime", "--scenario", str(walk_path), "--out", str(out_path)]) == 0
    trace = json.loads(out_path.read_text())
    assert trace["arrived"] is True

    stuck = scenario_doc(Environment([flat_region(0, 1.0, 1.0)]), 0.0, (4.0, 0.0, 0.0))
    stuck_path = tmp_path / "stuck.json"
    stuck_path.write_text(json.dumps(stuck))
    assert cli_main(["anytime", "--scenario", str(stuck_path), "--out", str(out_path)]) == 3
    trace = json.loads(out_path.read_text())
    assert trace["arrived"] is False

    # one tick of a 2 m walk finds a plan but does not arrive: a best-effort end
    short = scenario_doc(Environment([flat_region(0, 4.0, 2.0)]), -1.0, (1.0, 0.0, 0.0),
                         max_ticks=1)
    short_path = tmp_path / "short.json"
    short_path.write_text(json.dumps(short))
    assert cli_main(["anytime", "--scenario", str(short_path), "--out", str(out_path)]) == 2
    trace = json.loads(out_path.read_text())
    assert trace["arrived"] is False
    assert [tick["status"] for tick in trace["ticks"]] == ["found_solution"]


def test_an_unknown_log_level_is_reported_and_the_plan_still_runs(
    tmp_path, stable_env, monkeypatch, caplog, capsys
):
    monkeypatch.setenv("FSP_LOG", "bogus")
    argv = ["plan", "--env", str(write_flat_env(tmp_path)), "--start=-0.5,0,0", "--goal", "0.5,0,0",
            "--params", str(write_params(tmp_path))]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "found_solution"
    assert "unknown FSP_LOG value 'bogus'; using error" in caplog.messages


def test_cli_output_is_stable_across_hash_seeds(tmp_path):
    env_path = write_flat_env(tmp_path)
    params_path = write_params(tmp_path)
    svg_path = tmp_path / "plan.svg"
    argv = [
        sys.executable,
        "-m",
        "footplan",
        "plan",
        "--env", str(env_path),
        "--start=-0.5,0,0",
        "--goal", "0.5,0,0",
        "--params", str(params_path),
        "--svg", str(svg_path),
    ]
    outputs = []
    svgs = []
    for seed in ("0", "1"):
        run_env = dict(os.environ)
        run_env["PYTHONHASHSEED"] = seed
        run_env["FSP_STABLE_TIMING"] = "1"
        proc = subprocess.run(argv, capture_output=True, env=run_env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
        svgs.append(svg_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert svgs[0] == svgs[1]


def test_a_params_file_with_several_faults_is_refused_alike_under_every_hash_seed(tmp_path):
    # the loader reads the keys in schema order, not in the order of a set
    env_path = write_flat_env(tmp_path)
    params_path = tmp_path / "params.json"
    params_path.write_text(
        json.dumps({"w_distance": "a", "w_height": "b", "w_yaw": "c", "cost_per_step": "d"})
    )
    argv = [sys.executable, "-m", "footplan", "plan", "--env", str(env_path),
            "--start=-0.5,0,0", "--goal", "0.5,0,0", "--params", str(params_path)]
    errors = set()
    for seed in ("0", "2", "3"):
        run_env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, env=run_env, timeout=120)
        assert proc.returncode == 4, proc.stderr.decode()
        errors.add(proc.stderr.decode())
    assert len(errors) == 1, errors
    assert "w_distance must be a number" in errors.pop()


def loaded_by_fresh_import(modules: str, name: str) -> bool:
    """Whether a fresh interpreter that imports `modules` has loaded `name`."""
    probe = f"import sys, {modules}; print({name!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=dict(os.environ), timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().strip() == "True"


def test_cli_import_does_not_load_scipy():
    # the wiggle QP has its own solver; scipy's import alone costs more than
    # the rest of the CLI start-up
    assert not loaded_by_fresh_import("footplan.toolkit.cli", "scipy")


def test_the_world_and_the_search_import_without_numpy():
    # the package root imports no module, so only the wiggle QP brings numpy in
    assert not loaded_by_fresh_import("footplan.world, footplan.planner", "numpy")


def test_numpy_is_imported_only_by_the_wiggle_qp():
    # numpy's 3x3 products round differently under each BLAS kernel, so every
    # other module works on float tuples and its answers depend only on inputs
    package = Path(footplan.__file__).parent
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"wiggle.py"}


def test_only_the_reading_module_decodes_json():
    # one module decides what an input number is, so the loaders cannot drift
    package = Path(footplan.__file__).parent
    decoders = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "json" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                names = [alias.name for alias in node.names]
            else:
                continue
            if {"load", "loads"} & set(names):
                decoders.add(path.relative_to(package).as_posix())
    assert decoders == {"reading.py"}


def test_every_traced_call_site_is_still_called():
    # The benchmark's tracer wraps each (module, name) of its CALL_SITES in that
    # module's globals, so it sees only the calls the module makes by that name.
    # A site nothing calls reads 0 in its per-layer metric, silently.
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    sites = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "CALL_SITES" for target in node.targets)
    )
    dead = set()
    for module, name, _ in sites:
        source = Path(importlib.util.find_spec(module).origin).read_text()
        called = {
            node.func.id
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        if name not in called:
            dead.add((module, name))
    # The search opens lattice cells from cost-bound rows and no longer calls
    # expand_node; a site fixed or newly dead must update this set.
    assert dead == {("footplan.planner", "expand_node")}


def tilted_block_world(seed):
    """Ground, a 3 x 3 field of 0.4 m blocks with drawn yaw, pitch and roll, ground."""
    rng = random.Random(seed)
    tilt = math.radians(12.0)
    regions = [flat_region(0, 1.0, 1.6, center=(-0.6, 0.0))]
    for index in range(9):
        rotation = recompose(rng.uniform(-0.26, 0.26), rng.uniform(-tilt, tilt), rng.uniform(-tilt, tilt))
        center = (0.4 + 0.45 * (index // 3), -0.45 + 0.45 * (index % 3), rng.uniform(0.0, 0.1))
        regions.append(PlanarRegion(index + 1, RigidTransform3(rotation, center), [rectangle_polygon(0.4, 0.4)]))
    regions.append(flat_region(10, 1.0, 1.6, center=(2.15, 0.0)))
    return Environment(regions)


def test_cli_plan_does_not_depend_on_the_blas_kernel(tmp_path):
    # numpy rounds a 3x3 product by whichever OpenBLAS kernel the CPU gets
    # (with FMA or without), so the search's rotations are plain float
    # products. Prescott runs on every x86-64 CPU.
    env_path = tmp_path / "tilted.json"
    env_path.write_text(environment_to_json(tilted_block_world(0)))
    argv = [
        sys.executable, "-m", "footplan", "plan",
        "--env", str(env_path),
        "--start=-0.5,0,0",
        "--goal", "2.15,0,0",
        "--no-wiggle",
    ]
    outputs = []
    for kernel in (None, "Prescott"):
        run_env = dict(os.environ, FSP_STABLE_TIMING="1")
        run_env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            run_env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run(argv, capture_output=True, env=run_env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
