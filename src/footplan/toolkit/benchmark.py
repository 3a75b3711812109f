"""Batch planning runs reported as a CSV table."""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..geometry import Pose2
from ..params import ParamsBundle, ParamsError, load_params
from ..planner import plan
from ..reading import InputError, decoded, number, pose
from ..world import Environment, WorldLoadError, load_environment

CSV_COLUMNS = (
    "Plan",
    "Number of Steps",
    "Plan Distance (m)",
    "Planning Duration (s)",
    "Nodes Expanded",
    "Percent Rejected",
)


class BenchmarkError(InputError):
    """Raised when a benchmark suite document is malformed."""


@dataclass(frozen=True)
class BenchmarkEntry:
    name: str
    environment: Environment
    start_left: Pose2
    start_right: Pose2
    goal: Pose2
    timeout: float = 10.0
    params: ParamsBundle = field(default_factory=ParamsBundle)


def load_benchmark_suite(
    document, base_dir: str | os.PathLike = "."
) -> tuple[BenchmarkEntry, ...]:
    """Parse a benchmark suite into its entries; environment/params may be
    inline or file paths."""
    document = decoded(document, BenchmarkError)
    if not isinstance(document, dict) or not isinstance(document.get("entries"), list):
        raise BenchmarkError('benchmark suite must be an object with an "entries" list')
    base = Path(base_dir)

    def resolve(value, loader, label):
        if isinstance(value, str):
            path = base / value
            try:
                text = path.read_text()
            except (OSError, ValueError) as exc:  # also undecodable text or a NUL in the name
                raise BenchmarkError(f"{label}: cannot read {path} ({exc})") from None
            return loader(text)
        return loader(value)

    entries = []
    for idx, entry in enumerate(document["entries"]):
        if not isinstance(entry, dict):
            raise BenchmarkError(f"entry {idx} is not an object")
        name = str(entry.get("name", f"plan-{idx}"))
        label = f"entry {name!r}"
        if "environment" not in entry:
            raise BenchmarkError(f"{label}: missing environment")
        try:
            environment = resolve(entry["environment"], load_environment, label)
        except WorldLoadError as exc:
            raise BenchmarkError(f"{label}: {exc}") from None
        try:
            params = resolve(entry.get("params", {}), load_params, label)
        except ParamsError as exc:
            raise BenchmarkError(f"{label}: {exc}") from None
        start_left, start_right, goal = (
            pose(entry.get(key), f"{label}: field {key!r}", BenchmarkError)
            for key in ("start_left", "start_right", "goal")
        )
        entries.append(
            BenchmarkEntry(
                name=name,
                environment=environment,
                start_left=start_left,
                start_right=start_right,
                goal=goal,
                timeout=number(
                    entry.get("timeout", 10.0), f"{label}: timeout", BenchmarkError, positive=True
                ),
                params=params,
            )
        )
    return tuple(entries)


def run_benchmark(entries: tuple[BenchmarkEntry, ...]) -> list[dict]:
    rows = []
    for entry in entries:
        result = plan(
            entry.params.planner_request(
                entry.environment, entry.start_left, entry.start_right, entry.goal, entry.timeout
            )
        )
        stats = result.stats
        rows.append(
            {
                "Plan": entry.name,
                "Number of Steps": len(result.steps),
                "Plan Distance (m)": stats.path_distance_m,
                "Planning Duration (s)": stats.duration_s,
                "Nodes Expanded": stats.nodes_expanded,
                "Percent Rejected": stats.percent_rejected,
                "status": result.status.value,
            }
        )
    return rows


def benchmark_csv(rows) -> str:
    """Format benchmark rows with the fixed column set, one line per plan."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["Plan"],
                row["Number of Steps"],
                f"{row['Plan Distance (m)']:.3f}",
                f"{row['Planning Duration (s)']:.3f}",
                row["Nodes Expanded"],
                f"{row['Percent Rejected']:.1f}",
            ]
        )
    return out.getvalue()
