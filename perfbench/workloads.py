"""Seeded inputs for the four benchmark workloads.

Each workload is a corpus of cases. A case is one `footplan plan` or
`footplan anytime` invocation: the argv, the JSON files it reads and the
status every answer must have. The program under test sees only those files.

A run plays its corpus twice. The corpus is drawn from a constant sub-seed
and sized from `--seconds`, so every run of a workload at one `--seconds`
plays the same requests; the run seed decides the order. Search effort is chaotic in
the inputs (one mirrored cinder field considered 7x the children of the
original), so fresh worlds per seed, or seeded mirror images, moved run
medians by 15-40% and would swamp any bound.

Request sizes are chosen so that a run samples tens of requests: the
search-heavy shapes that take 7-20 s per request (the sideways corridor
squeeze, exhausting a 1.5 m platform on criterion 8's lattice) would give two
or three samples per run and are left out.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from footplan.toolkit.generators import generate_environment
from footplan.world import environment_to_dict

FOUND = "found_solution"
NO_PATH = "no_path_exists"

# Criterion 4's beam-crossing params: coarse lattice, forward-only steps,
# partial footholds down to 70% area.
BEAM_PARAMS = {
    "xy_resolution": 0.1,
    "yaw_resolution": math.tau / 4,
    "expansion_min_length": 0.0,
    "expansion_max_length": 0.45,
    "expansion_min_width": 0.0,
    "expansion_max_width": 0.30,
    "expansion_min_yaw_delta": 0.0,
    "expansion_max_yaw_delta": 0.0,
    "min_area_fraction": 0.70,
}

# Criterion 8's corridor lattice and expansion, with inflation 5.
CORRIDOR_PARAMS = {
    "xy_resolution": 0.1,
    "yaw_resolution": math.tau / 24,
    "expansion_min_length": -0.1,
    "expansion_max_length": 0.4,
    "expansion_min_width": 0.15,
    "expansion_max_width": 0.35,
    "expansion_min_yaw_delta": -math.tau / 12,
    "expansion_max_yaw_delta": math.tau / 12,
    "expansion_max_reach": 0.55,
    "inflation": 5.0,
}

# Criterion 7's replanning params: coarse lattice, forward-only steps.
REPLAN_PARAMS = {
    "xy_resolution": 0.1,
    "yaw_resolution": math.tau / 4,
    "expansion_min_length": 0.0,
    "expansion_max_length": 0.4,
    "expansion_min_width": 0.15,
    "expansion_max_width": 0.35,
    "expansion_min_yaw_delta": 0.0,
    "expansion_max_yaw_delta": 0.0,
    "goal_tolerance": 0.15,
}

# A finer yaw lattice than criterion 7's, so exhausting one platform takes
# thousands of expansions and the frontier and memo tables grow.
GAP_PARAMS = {
    "xy_resolution": 0.1,
    "yaw_resolution": math.tau / 8,
    "expansion_min_length": 0.0,
    "expansion_max_length": 0.4,
    "expansion_min_width": 0.15,
    "expansion_max_width": 0.35,
    "expansion_min_yaw_delta": -math.tau / 8,
    "expansion_max_yaw_delta": math.tau / 8,
}

# Timeouts sit at least 10x above the slowest request seen at the seed, so no
# status depends on machine speed. The one exception is the known-defect probe.
TERRAIN_TIMEOUT = 40.0
CORRIDOR_TIMEOUT = 10.0
GAP_TIMEOUT = 20.0
REPLAN_TIMEOUT = 10.0
DEFECT_TIMEOUT = 1.0

# A vertical wall: region x runs along world y, region y along world z, and
# the region normal along world x (criterion 7's wall).
WALL_ROTATION = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
FLAT_ROTATION = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Case:
    """One invocation of the command line; `expect` is the status of every plan."""

    label: str
    argv: tuple[str, ...]
    expect: str
    params_path: str


def _rect(length: float, width: float) -> list[list[float]]:
    hl, hw = length / 2.0, width / 2.0
    return [[-hl, -hw], [hl, -hw], [hl, hw], [-hl, hw]]


def _region(region_id: int, center, rotation, length: float, width: float) -> dict:
    return {
        "id": region_id,
        "translation": [float(v) for v in center],
        "rotation": list(rotation),
        "pieces": [_rect(length, width)],
    }


def _pose(x: float, y: float, yaw: float) -> str:
    return f"{x!r},{y!r},{yaw!r}"


class _Writer:
    """Writes case files under one directory and deduplicates identical params."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.params: dict[str, str] = {}

    def json(self, name: str, document) -> str:
        path = self.directory / name
        path.write_text(json.dumps(document, sort_keys=True))
        return str(path)

    def params_file(self, document: dict) -> str:
        text = json.dumps(document, sort_keys=True)
        if text not in self.params:
            self.params[text] = self.json(f"params{len(self.params)}.json", document)
        return self.params[text]

    def plan(self, label, env_doc, params, start, goal, timeout, expect):
        env_path = self.json(f"{label.replace('/', '_')}.env.json", env_doc)
        params_path = self.params_file(params)
        argv = (
            "plan",
            "--env", env_path,
            f"--start={_pose(*start)}",
            f"--goal={_pose(*goal)}",
            "--params", params_path,
            "--timeout", repr(timeout),
        )
        return Case(label, argv, expect, params_path)


def _terrain_case(w: _Writer, rng: random.Random, index: int) -> Case:
    kind = ("flat", "stepping-stones", "cinder-field", "beam")[index % 4]
    label = f"{kind}/{index}"
    if kind == "flat":
        env = generate_environment("flat", 0)
        goal = (rng.uniform(1.0, 1.5), rng.uniform(-0.3, 0.3), rng.uniform(-0.4, 0.4))
        return w.plan(label, environment_to_dict(env), {}, (-0.6, 0.0, 0.0), goal,
                      TERRAIN_TIMEOUT, FOUND)
    if kind == "stepping-stones":
        env = generate_environment(kind, rng.randrange(2**31), {"count": 3})
        goal = (1.9, rng.uniform(-0.1, 0.1), 0.0)
        return w.plan(label, environment_to_dict(env), {}, (-0.5, 0.0, 0.0), goal,
                      TERRAIN_TIMEOUT, FOUND)
    if kind == "cinder-field":
        env = generate_environment(kind, rng.randrange(2**31), {"cols": 2})
        return w.plan(label, environment_to_dict(env), {}, (-0.6, 0.0, 0.0), (1.35, 0.0, 0.0),
                      TERRAIN_TIMEOUT, FOUND)
    length = rng.uniform(10.0, 12.0)
    env = generate_environment("beam", 0, {"length": length})
    return w.plan(label, environment_to_dict(env), BEAM_PARAMS, (-0.75, 0.0, 0.0),
                  (length + 0.75, 0.0, 0.0), TERRAIN_TIMEOUT, FOUND)


def _corridor_case(w: _Writer, rng: random.Random, index: int) -> Case:
    spacing = rng.uniform(0.62, 0.70)
    reach = rng.uniform(0.7, 0.9)
    env = generate_environment("narrow-gap", 0, {"spacing": spacing})
    return w.plan(f"narrow-gap/{index}", environment_to_dict(env), CORRIDOR_PARAMS,
                  (-reach, 0.0, 0.0), (reach, 0.0, 0.0), CORRIDOR_TIMEOUT, FOUND)


def _gap_case(w: _Writer, rng: random.Random, index: int) -> Case:
    # Every fourth case is a crossable control gap, so an early NO_PATH that
    # prunes too much shows as a wrong answer, and plan cost stays measurable.
    crossable = index % 4 == 3
    gap = rng.uniform(0.1, 0.2) if crossable else rng.uniform(0.7, 0.9)
    near_l, near_w = rng.uniform(0.8, 1.0), rng.uniform(0.8, 1.0)
    far_l, far_w = rng.uniform(0.8, 1.0), rng.uniform(0.8, 1.0)
    env = {
        "regions": [
            _region(0, (-near_l / 2.0, 0.0, 0.0), FLAT_ROTATION, near_l, near_w),
            _region(1, (gap + far_l / 2.0, 0.0, 0.0), FLAT_ROTATION, far_l, far_w),
        ]
    }
    label = f"{'control' if crossable else 'gap'}/{index}"
    return w.plan(label, env, GAP_PARAMS, (-near_l / 2.0, 0.0, 0.0),
                  (gap + far_l / 2.0, 0.0, 0.0), GAP_TIMEOUT, FOUND if crossable else NO_PATH)


def _defect_case(w: _Writer) -> Case:
    # ROADMAP's default-params 0.8 m platform gap: the answer is NO_PATH_EXISTS,
    # but the search runs into its timeout. It runs once per run, outside the
    # counted requests, and the run prints its status.
    env = generate_environment("platform-gap", 0)
    return w.plan("platform-gap-default/once", environment_to_dict(env), {},
                  (-0.75, 0.0, 0.0), (1.55, 0.0, 0.0), DEFECT_TIMEOUT, NO_PATH)


def _wall(region_id: int, x: float, y_lo: float, y_hi: float) -> dict:
    # Spans z 0.4..1.4: inside the body box, above the step-over rectangle.
    return _region(region_id, (x, (y_lo + y_hi) / 2.0, 0.9), WALL_ROTATION, y_hi - y_lo, 1.0)


def _replan_case(w: _Writer, rng: random.Random, index: int) -> Case:
    # Two walls on one side of the straight route, each inserted while the
    # walker is still well short of it and leaving 0.65 m of ground beside
    # it. Both stand for most of the walk, so most ticks plan around a wall;
    # each is removed at a seeded tick.
    side = rng.choice((-1.0, 1.0))
    first = _wall(9, rng.uniform(-0.15, 0.15), *sorted((side * -0.35, side * 1.0)))
    second = _wall(10, rng.uniform(0.55, 0.7), *sorted((side * -0.35, side * 1.0)))
    events = [
        {"time": 1.0, "action": "add-region", "region": first},
        {"time": 3.0, "action": "add-region", "region": second},
        {"time": float(rng.randint(8, 10)), "action": "remove-region", "id": 9},
        {"time": float(rng.randint(14, 17)), "action": "remove-region", "id": 10},
    ]
    ground = _region(0, (0.0, 0.0, 0.0), FLAT_ROTATION, 2.6, 2.0)
    document = {
        "environment": {"regions": [ground]},
        "start_left": [-1.0, 0.125, 0.0],
        "start_right": [-1.0, -0.125, 0.0],
        # The goal lies on the detour side, so few ticks remain once the
        # walker is past the walls.
        "goal": [1.0, -side * rng.uniform(0.45, 0.6), 0.0],
        "params": REPLAN_PARAMS,
        "timeout": REPLAN_TIMEOUT,
        "max_ticks": 60,
        "events": events,
    }
    label = f"scenario/{index}"
    path = w.json(f"scenario_{index}.json", document)
    params_path = w.params_file(REPLAN_PARAMS)
    return Case(label, ("anytime", "--scenario", path), FOUND, params_path)


_CASE_MAKERS = {
    "terrain": _terrain_case,
    "corridor": _corridor_case,
    "replan": _replan_case,
    "infeasible": _gap_case,
}
WORKLOADS = tuple(_CASE_MAKERS)

# Cases per second of `--seconds`, and cases per block: a block holds one case
# of each kind, so the corpus keeps the workload's mix. A run plays its corpus
# twice; the rates make the two plays take about nine tenths of `--seconds` on
# a 2-core x86-64 VM with Python 3.11, leaving room for a slower host.
RATE = {"terrain": 0.9, "corridor": 2.4, "infeasible": 0.9, "replan": 0.14}
BLOCK = {"terrain": 4, "corridor": 1, "infeasible": 4, "replan": 1}


def build_cases(workload: str, seed: int, seconds: float,
                directory: Path) -> tuple[list[Case], Case | None]:
    """The corpus for two plays in about `seconds`, in the seed's order of
    blocks, and the workload's known-defect probe, if it has one."""
    directory.mkdir(parents=True, exist_ok=True)
    writer = _Writer(directory)
    corpus_rng = random.Random(f"footplan-bench/{workload}")
    block = BLOCK[workload]
    size = block * max(1, round(seconds * RATE[workload] / block))
    corpus = [_CASE_MAKERS[workload](writer, corpus_rng, i) for i in range(size)]
    starts = list(range(0, size, block))
    random.Random(f"footplan-bench/{workload}/{seed}").shuffle(starts)
    pool = [case for start in starts for case in corpus[start:start + block]]
    probe = _defect_case(writer) if workload == "infeasible" else None
    return pool, probe
