"""The behaviour digest: the seed-1 `terrain`, `replan`, `infeasible` and
`corridor` bench corpora and the probe, replayed through the command line,
must give the searches recorded in tests/data/behaviour_digest.json, field
for field.

Each search is recorded as its status, counters, rejections by reason,
`repr(path_cost)`, each step's side and snapped pose, and `no_path_reason`.
Wiggled footholds are left out: the wiggle QP's rounding depends on the BLAS
kernel, while the search's fields are plain Python floats.

After a declared behaviour change, rewrite the file with

    PYTHONPATH=src python tests/test_behaviour_digest.py

and commit it; its diff shows per case what moved.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

from footplan import planner
from footplan.toolkit import cli, scenario

from test_lazy_search import load_workloads

DIGEST = Path(__file__).parent / "data" / "behaviour_digest.json"
REWRITE = "PYTHONPATH=src python tests/test_behaviour_digest.py"
# The corpus: pinned at the bench's seed-1, 30-second sizes, so a re-size of
# the bench workloads shows up here as a corpus change.
SEED, SECONDS = 1, 30.0
WORKLOADS = ("terrain", "replan", "infeasible", "corridor")


def step_record(step: planner.PlanStep) -> str:
    snap = step.snap
    pose = (snap.x, snap.y, snap.z, snap.yaw, snap.surface_roll, snap.surface_pitch)
    return " ".join([step.side.value] + [repr(v) for v in pose])


def search_record(result: planner.PlannerResult) -> dict:
    stats = result.stats
    return {
        "status": result.status.value,
        "nodes_expanded": stats.nodes_expanded,
        "children_considered": stats.children_considered,
        "rejected": {reason.value: n for reason, n in stats.children_rejected.items() if n},
        "path_cost": repr(stats.path_cost),
        "steps": [step_record(step) for step in result.steps],
        "no_path_reason": stats.no_path_reason,
    }


def replay(directory: Path) -> dict:
    """Every case of the corpus by label: its exit code and the record of
    each search it ran, in order."""
    workloads = load_workloads()
    searches: list[dict] = []

    def recorded(request):
        result = planner.plan(request)
        searches.append(search_record(result))
        return result

    cases = {}
    with mock.patch.object(cli, "plan", recorded), mock.patch.object(scenario, "plan", recorded):
        for workload in WORKLOADS:
            pool, probe = workloads.build_cases(workload, SEED, SECONDS, directory / workload)
            unique = {case.label: case for case in pool + ([probe] if probe else [])}
            for label in sorted(unique):
                case = unique[label]
                searches = []
                extra = ["--no-wiggle"] if case.argv[0] == "plan" else []
                code = cli.main(list(case.argv) + extra + ["--out", str(directory / "out.json")])
                cases[f"{workload}/{label}"] = {"exit": code, "searches": searches}
    return cases


def differences(old: dict, new: dict) -> list[str]:
    """One line per case that moved: the corpus change (a case added or
    gone) or each field whose value differs, old then new."""
    lines = []
    for label in sorted(old.keys() - new.keys()):
        lines.append(f"{label}: case no longer in the corpus")
    for label in sorted(new.keys() - old.keys()):
        lines.append(f"{label}: case new to the corpus")
    for label in sorted(old.keys() & new.keys()):
        before, after = old[label], new[label]
        if before["exit"] != after["exit"]:
            lines.append(f"{label}: exit {before['exit']} -> {after['exit']}")
        if len(before["searches"]) != len(after["searches"]):
            lines.append(
                f"{label}: {len(before['searches'])} searches -> {len(after['searches'])}"
            )
        for index, (a, b) in enumerate(zip(before["searches"], after["searches"])):
            for key in a.keys() | b.keys():
                if a.get(key) != b.get(key):
                    lines.append(f"{label} search {index} {key}: {a.get(key)!r} -> {b.get(key)!r}")
    return lines


def write_digest(cases: dict):
    # One search per line, so a diff of the file reads search by search.
    def line(value) -> str:
        return json.dumps(value, sort_keys=True)

    body = ",\n".join(
        f'  {line(label)}: {{"exit": {case["exit"]}, "searches": [\n    '
        + ",\n    ".join(line(search) for search in case["searches"])
        + "]}"
        for label, case in cases.items()
    )
    DIGEST.write_text("{\n" + body + "\n}\n")


def test_the_bench_corpora_search_as_recorded(tmp_path):
    recorded = json.loads(DIGEST.read_text())
    moved = differences(recorded, replay(tmp_path))
    assert not moved, (
        "the searches differ from tests/data/behaviour_digest.json. The digest holds for"
        " the Python and libm it was recorded with; another platform may round"
        " differently.\n"
        + "\n".join(moved[:40])
        + f"\nA declared behaviour change rewrites the file: {REWRITE}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_digest(replay(Path(scratch)))
    print(f"wrote {DIGEST}")
