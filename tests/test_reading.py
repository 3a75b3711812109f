"""Input-file contract: whatever one node of a valid world, params, scenario or
suite document is replaced by, its loader returns or raises its own error."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footplan.params import ParamsBundle, ParamsError, load_params, params_to_dict
from footplan.reading import InputError
from footplan.toolkit.benchmark import BenchmarkError, load_benchmark_suite
from footplan.toolkit.cli import main as cli_main
from footplan.toolkit.scenario import ScenarioError, load_scenario_script
from footplan.world import Environment, WorldLoadError, environment_to_dict, load_environment

from test_toolkit import NARROW_PARAMS, scenario_doc, suite_doc
from test_world import flat_region

WORLD = environment_to_dict(
    Environment([flat_region(0, 1.0, 1.0), flat_region(1, 0.5, 0.5, center=(2.0, 0.0))])
)
SCENARIO = scenario_doc(
    Environment([flat_region(0, 1.0, 1.0)]),
    0.0,
    (0.5, 0.0, 0.0),
    [
        {"time": 1.0, "action": "add-region", "region": WORLD["regions"][1]},
        {"time": 2.0, "action": "remove-region", "id": 1},
    ],
    replan_period=0.5,
)
SUITE = suite_doc()
SUITE["entries"][1]["params"] = params_to_dict(ParamsBundle())

DOCUMENTS = {
    "world": (WORLD, load_environment, WorldLoadError),
    "params": (dict(params_to_dict(ParamsBundle()), **NARROW_PARAMS), load_params, ParamsError),
    "scenario": (SCENARIO, load_scenario_script, ScenarioError),
    "suite": (SUITE, load_benchmark_suite, BenchmarkError),
}

REMOVE = object()

# Keys the documents use, so a drawn object can hit a field by name.
KEYS = sorted(
    {"id", "translation", "rotation", "pieces", "regions", "entries", "environment", "params",
     "time", "action", "region", "events", "goal", "start_left", "timeout", "name"}
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def node_paths(doc, path=()):
    """Every node of a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from node_paths(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from node_paths(value, path + (index,))


def replaced(doc, path, value):
    """A copy of `doc` with the node at `path` set to `value`, or removed."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    """Where suite file names resolve: holds one file that is not UTF-8."""
    path = tmp_path_factory.mktemp("suite")
    (path / "undecodable.json").write_bytes(b"\xff\xfe{}")
    return path


def load(kind, document, suite_dir):
    _, loader, _ = DOCUMENTS[kind]
    if loader is load_benchmark_suite:
        return loader(document, base_dir=suite_dir)
    return loader(document)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_every_valid_document_loads(kind, suite_dir):
    doc = DOCUMENTS[kind][0]
    load(kind, doc, suite_dir)
    load(kind, json.dumps(doc), suite_dir)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=150)
@given(data=st.data())
def test_a_loader_returns_or_raises_its_own_error(kind, suite_dir, data):
    doc, _, error = DOCUMENTS[kind]
    assert issubclass(error, InputError)
    path = data.draw(st.sampled_from(list(node_paths(doc))), label="path")
    removable = bool(path) and isinstance(path[-1], str)
    value = data.draw(
        st.just(REMOVE) | json_values if removable else json_values, label="value"
    )
    mutated = replaced(doc, path, value)
    for document in (mutated, json.dumps(mutated)):
        try:
            load(kind, document, suite_dir)
        except error:
            pass


def with_node(kind, path, value):
    return replaced(DOCUMENTS[kind][0], path, value)


# Inputs that once escaped a loader as a bare Python exception.
ESCAPES = [
    ("world", with_node("world", ("regions", 0, "pieces", 0, 0), {"x": 1, "y": 1})),
    ("params", with_node("params", ("foot_sole", 0), {"x": 0.1, "y": 0.05})),
    ("params", with_node("params", ("stance_clearance", 0), {"x": 0.1, "y": 0.05})),
    ("params", with_node("params", ("yaw_resolution",), 5e-324)),
    ("scenario", with_node("scenario", ("events",), 3)),
    ("suite", with_node("suite", ("entries", 0, "environment"), "world\x00.json")),
    ("suite", with_node("suite", ("entries", 0, "environment"), "undecodable.json")),
    ("world", "[" * 100_000),
    ("world", b"\xff\xfe{}"),
]


@pytest.mark.parametrize("kind, document", ESCAPES)
def test_known_escapes_raise_the_loaders_error(kind, document, suite_dir):
    with pytest.raises(DOCUMENTS[kind][2]):
        load(kind, document, suite_dir)


def test_cli_exits_4_on_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "world.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli_main(["plan", "--env", str(path), "--start", "0,0,0", "--goal", "1,0,0"]) == 4
    assert capsys.readouterr().err.startswith("error: cannot read environment file")
