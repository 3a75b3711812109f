"""Outside-in tracing: spans around the calls each footplan layer exposes.

The tracer replaces a public function at the module that calls it (for
example `footplan.planner.snap_pose`, which the search calls) with a wrapper
that records one span per call. Nothing inside `src/` changes. Spans stay in
memory as flat arrays and are written once, at the end of the traced pass.

A layer's self time is the duration of its spans minus the time their child
spans cover. Every request has one root span, so the layers' self times add
up to the request time.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from footplan.snapping import SnapFailure
from footplan.world import Environment

# (module, attribute, span name): the call sites the tracer wraps. The planner
# call sites (`footplan.toolkit.cli.plan`, `footplan.toolkit.scenario.plan`)
# are wrapped by the runner's capture hook, which also marks tick boundaries.
CALL_SITES = (
    ("footplan.toolkit.cli", "load_environment", "world.environment_build"),
    ("footplan.toolkit.scenario", "load_environment", "world.environment_build"),
    ("footplan.toolkit.cli", "wiggle_plan", "wiggle.wiggle_plan"),
    ("footplan.wiggle", "solve_qp3", "wiggle.solve_qp3"),
    ("footplan.wiggle", "crop_foothold", "snapping.crop_foothold"),
    ("footplan.planner", "expand_node", "lattice.expand_node"),
    ("footplan.planner", "snap_pose", "snapping.snap_pose"),
    ("footplan.planner", "validate_edge", "validity.validate_edge"),
    ("footplan.planner", "edge_cost", "costing.edge_cost"),
    ("footplan.planner", "heuristic_cost", "costing.heuristic_cost"),
    ("footplan.snapping", "crop_foothold", "snapping.crop_foothold"),
    ("footplan.snapping", "regions_overlapping_disc", "world.regions_overlapping_disc"),
    ("footplan.validity", "check_incline", "validity.check_incline"),
    ("footplan.validity", "check_area", "validity.check_area"),
    ("footplan.validity", "check_step_geometry", "validity.check_step_geometry"),
    ("footplan.validity", "check_cliff_clearance", "validity.check_cliff_clearance"),
    ("footplan.validity", "check_step_over", "validity.check_step_over"),
    ("footplan.validity", "check_body_box", "validity.check_body_box"),
)
# World edits are methods, wrapped on the class.
METHODS = (
    (Environment, "with_region", "world.environment_build"),
    (Environment, "without_region", "world.environment_build"),
)
CHECKS = (
    "check_incline",
    "check_area",
    "check_step_geometry",
    "check_cliff_clearance",
    "check_step_over",
    "check_body_box",
)
# Layers in report order; a span belongs to the layer its name starts with.
LAYERS = (
    "toolkit.cli",
    "toolkit.scenario",
    "world",
    "planner",
    "lattice",
    "snapping",
    "validity",
    "costing",
    "wiggle",
)


def _layer_of(name: str) -> str:
    return name if name.startswith("toolkit.") else name.split(".", 1)[0]


class Tracer:
    """Span recorder. `install` wraps the call sites; `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self._request_id = -1
        self.counts: Counter = Counter()
        # (request id, qp, solution) for every QP solve_qp3 answered, checked later.
        self.qps: list = []
        self._restore: list = []
        self._hooks = self._result_hooks()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self._stack.append(index)
        return index

    def wrap(self, fn, name: str):
        """fn, recording one span named `name` per call."""
        name_id = self._name_id(name)
        on_result = self._hooks.get(name)
        start, end, stack, open_span = self.start, self.end, self._stack, self._open

        def traced(*args, **kwargs):
            index = open_span(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _result_hooks(self) -> dict:
        counts = self.counts

        def snap(args, result):
            if type(result) is SnapFailure:
                counts["snap_failures"] += 1

        def rejected(key):
            def hook(args, result):
                if result is not None:
                    counts[key] += 1

            return hook

        def children(args, result):
            counts["children_generated"] += len(result)

        def qp(args, result):
            if result is None:
                counts["qp_infeasible"] += 1
            else:
                self.qps.append((self._request_id, args[0], result))

        def planned(args, result):
            counts["nodes_expanded"] += result.stats.nodes_expanded
            counts["children_considered"] += result.stats.children_considered

        hooks = {
            "snapping.snap_pose": snap,
            "validity.validate_edge": rejected("edges_rejected"),
            "lattice.expand_node": children,
            "wiggle.solve_qp3": qp,
            "planner.plan": planned,
        }
        for check in CHECKS:
            hooks[f"validity.{check}"] = rejected(f"{check}.rejects")
        return hooks

    def install(self):
        for module_name, attr, name in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def open_root(self, name: str, request_id: int, t: float):
        """Start a request's root span at time t; later spans nest under it."""
        self._request_id = request_id
        index = self._open(self._name_id(name))
        self.start[index] = t

    def close_root(self, t: float):
        index = self._stack.pop()
        self.end[index] = t

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }

    def write(self, path: Path):
        """Write every span: name, start, end, parent index and request id."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, requests: set[int]) -> dict:
        """Totals over the spans of the given request ids: calls and seconds
        per span name, self seconds per layer, and the number of spans."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - covered
        keep = np.isin(a["request"], np.fromiter(requests, dtype=np.int32))
        count = len(self.names)
        calls = np.bincount(a["name"][keep], minlength=count)
        seconds = np.bincount(a["name"][keep], weights=duration[keep], minlength=count)
        own = np.bincount(a["name"][keep], weights=self_time[keep], minlength=count)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        per_name = {}
        for name_id, name in enumerate(self.names):
            per_name[name] = (int(calls[name_id]), float(seconds[name_id]))
            layer_self[_layer_of(name)] += float(own[name_id])
        return {"names": per_name, "layer_self": layer_self, "spans": int(keep.sum())}
