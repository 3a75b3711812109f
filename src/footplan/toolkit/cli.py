"""Command line interface: plan, gen, bench, anytime.

Exit codes: 0 solution found, 2 best-effort result, 3 no path, 4 input error.
Environment switches: FSP_LOG selects the log level (error, info, debug);
FSP_STABLE_TIMING=1 zeroes reported durations so outputs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

from ..geometry import GeometryError, Pose2
from ..params import ParamsBundle, ParamsError, load_params
from ..lattice import feet_from_midstance
from ..planner import PlanStatus, plan
from ..reading import InputError
from ..validity import RejectionReason
from ..wiggle import wiggle_plan
from ..world import WorldLoadError, load_environment, environment_to_json
from .benchmark import BenchmarkError, benchmark_csv, load_benchmark_suite, run_benchmark
from .generators import GENERATOR_KINDS, generate_environment
from .scenario import ScenarioError, load_scenario_script, run_anytime_scenario

log = logging.getLogger("footplan.cli")

_STATUS_EXIT = {
    PlanStatus.FOUND_SOLUTION: 0,
    PlanStatus.TIMED_OUT_BEST_EFFORT: 2,
    PlanStatus.NO_PATH_EXISTS: 3,
    PlanStatus.INVALID_START: 4,
}


class CliInputError(InputError):
    """Bad arguments or unreadable/malformed input files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(f"{self.prog}: {message}")


def _stable_timing() -> bool:
    return os.environ.get("FSP_STABLE_TIMING", "") == "1"


def _configure_logging():
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("FSP_LOG", "error").strip().lower()
    level = levels.get(name)
    if level is None:
        level = logging.ERROR
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    if name not in levels and name:
        log.error("unknown FSP_LOG value %r; using error", name)


def _parse_pose(text: str, label: str) -> Pose2:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise CliInputError(f"{label} must be \"x,y,yaw\", got {text!r}")
    try:
        x, y, yaw = (float(p) for p in parts)
    except ValueError:
        raise CliInputError(f"{label} must contain three numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (x, y, yaw)):
        raise CliInputError(f"{label} must be finite, got {text!r}")
    return Pose2(x, y, yaw)


def _timeout(text: str) -> float:
    """--timeout: seconds, above zero (NaN is refused, inf means no limit)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be above zero, got {text!r}")
    return value


def _read_text(path: str, label: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # also text that is not UTF-8
        raise CliInputError(f"cannot read {label} file {path}: {exc}") from None


def _write_text(path: str, payload: str):
    try:
        Path(path).write_text(payload)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from None


def _load_params_arg(path: str | None) -> ParamsBundle:
    if path is None:
        return ParamsBundle()
    try:
        return load_params(_read_text(path, "params"))
    except ParamsError as exc:
        raise CliInputError(f"params file {path}: {exc}") from None


def _plan_document(result, steps) -> dict:
    stats = result.stats
    duration = 0.0 if _stable_timing() else stats.duration_s
    return {
        "status": result.status.value,
        "steps": [
            {
                "side": step.side.value,
                "translation": list(step.snap.center),
                "rotation": [v for row in step.snap.rotation for v in row],
                "area_fraction": float(step.snap.area_fraction),
                "foothold": (
                    [[float(x), float(y)] for x, y in step.snap.cropped_foothold.vertices]
                    if step.snap.cropped_foothold is not None
                    else []
                ),
            }
            for step in steps
        ],
        "stats": {
            "nodes_expanded": stats.nodes_expanded,
            "children_considered": stats.children_considered,
            "percent_rejected": stats.percent_rejected,
            "rejected": {
                reason.value: stats.children_rejected[reason] for reason in RejectionReason
            },
            "duration_s": duration,
            "path_cost": stats.path_cost,
            "path_distance_m": stats.path_distance_m,
            "no_path_reason": stats.no_path_reason,
        },
    }


def _cmd_plan(args) -> int:
    try:
        env = load_environment(_read_text(args.env, "environment"))
    except WorldLoadError as exc:
        raise CliInputError(f"environment file {args.env}: {exc}") from None
    params = _load_params_arg(args.params)
    start = _parse_pose(args.start, "--start")
    goal = _parse_pose(args.goal, "--goal")
    start_left, start_right = feet_from_midstance(start, params.cost.nominal_stance_width)
    result = plan(params.planner_request(env, start_left, start_right, goal, args.timeout))
    log.info(
        "plan status=%s steps=%d expanded=%d",
        result.status.value,
        len(result.steps),
        result.stats.nodes_expanded,
    )

    steps = result.steps
    if steps and not args.no_wiggle:
        outcomes = wiggle_plan(steps, env, params.foot, params.wiggle)
        steps = [outcome.step for outcome in outcomes]

    payload = json.dumps(_plan_document(result, steps), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, payload)
    else:
        sys.stdout.write(payload)
    if args.svg:
        from .svg_render import render_svg

        _write_text(args.svg, render_svg(env, steps, start=start, goal=goal))
    return _STATUS_EXIT[result.status]


def _cmd_gen(args) -> int:
    env = generate_environment(args.kind, args.seed)
    _write_text(args.out, environment_to_json(env))
    return 0


def _cmd_bench(args) -> int:
    try:
        suite = load_benchmark_suite(
            _read_text(args.suite, "suite"), base_dir=Path(args.suite).parent
        )
    except BenchmarkError as exc:
        raise CliInputError(f"suite file {args.suite}: {exc}") from None
    rows = run_benchmark(suite)
    if _stable_timing():
        for row in rows:
            row["Planning Duration (s)"] = 0.0
    _write_text(args.out, benchmark_csv(rows))
    return 0


def _cmd_anytime(args) -> int:
    try:
        script = load_scenario_script(_read_text(args.scenario, "scenario"))
        trace = run_anytime_scenario(script)
    except ScenarioError as exc:
        raise CliInputError(f"scenario file {args.scenario}: {exc}") from None
    _write_text(args.out, json.dumps(trace, indent=2, sort_keys=True) + "\n")
    if trace["arrived"]:
        return 0
    if trace["ticks"] and trace["ticks"][-1]["status"] == PlanStatus.NO_PATH_EXISTS.value:
        return 3
    return 2


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and kept for the process."""
    parser = _Parser(prog="footplan", description="Footstep planning toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_plan = sub.add_parser("plan", help="plan footsteps through an environment")
    p_plan.add_argument("--env", required=True, help="environment JSON file")
    p_plan.add_argument("--start", required=True, help='start midstance "x,y,yaw"')
    p_plan.add_argument("--goal", required=True, help='goal midstance "x,y,yaw"')
    p_plan.add_argument("--params", default=None, help="parameters JSON file")
    p_plan.add_argument("--timeout", type=_timeout, default=10.0, help="search budget seconds")
    p_plan.add_argument("--out", default=None, help="plan JSON output path (default stdout)")
    p_plan.add_argument("--svg", default=None, help="also render the plan to this SVG path")
    p_plan.add_argument("--no-wiggle", action="store_true", help="skip foothold adjustment")
    p_plan.set_defaults(func=_cmd_plan)

    p_gen = sub.add_parser("gen", help="generate a canned environment")
    p_gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--out", required=True, help="environment JSON output path")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p_bench.add_argument("--suite", required=True, help="suite JSON file")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(func=_cmd_bench)

    p_any = sub.add_parser("anytime", help="replay a scripted changing world")
    p_any.add_argument("--scenario", required=True, help="scenario JSON file")
    p_any.add_argument("--out", required=True, help="trace JSON output path")
    p_any.set_defaults(func=_cmd_anytime)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise CliInputError("missing command (plan, gen, bench, anytime)")
        return args.func(args)
    except (InputError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
