"""Parameter file loading: defaults, overrides, rejection, round-trips."""

import json
import math
import random
import time
from dataclasses import fields

import pytest

from footplan.costing import CostParams
from footplan.geometry import Pose2
from footplan.lattice import ExpansionParams, LatticeParams, Side
from footplan.params import ParamsBundle, ParamsError, load_params, params_to_dict, params_to_json
from footplan.planner import PlannerRequest
from footplan.validity import CheckerParams
from footplan.wiggle import WiggleParams
from footplan.world import Environment


def test_empty_document_gives_defaults():
    bundle = load_params("{}")
    assert bundle.lattice == LatticeParams()
    assert bundle.checker.max_reach == 0.5
    assert bundle.cost.inflation == 1.5
    assert bundle.wiggle.inset_distance == 0.02
    assert bundle.goal_tolerance == 0.2
    assert bundle.goal_tolerance_yaw == 0.3
    assert set(bundle.foot.sole.vertices) == {
        (0.11, 0.055),
        (-0.11, 0.055),
        (-0.11, -0.055),
        (0.11, -0.055),
    }


def test_overrides_apply_to_each_group():
    doc = {
        "xy_resolution": 0.05,
        "yaw_resolution": math.tau / 8.0,
        "expansion_max_length": 0.35,
        "max_forward": 0.4,
        "w_distance": 2.0,
        "wiggle_max_translation": 0.03,
        "wiggle_weights": [2.0, 2.0, 0.1],
        "goal_tolerance": 0.1,
        "stance_clearance": [[0.1, 0.05], [-0.1, 0.05], [-0.1, -0.05], [0.1, -0.05]],
        "foot_sole": [[0.1, 0.06], [-0.1, 0.06], [-0.1, -0.06], [0.1, -0.06]],
    }
    bundle = load_params(json.dumps(doc))
    assert bundle.lattice.xy_resolution == 0.05
    assert bundle.lattice.yaw_count == 8
    assert bundle.expansion.max_length == 0.35
    assert bundle.checker.max_forward == 0.4
    assert bundle.cost.w_distance == 2.0
    assert bundle.wiggle.max_translation == 0.03
    assert bundle.wiggle.weights == (2.0, 2.0, 0.1)
    assert bundle.goal_tolerance == 0.1
    assert bundle.checker.stance_clearance.vertices[0] == (0.1, 0.05)
    assert bundle.foot.sole.vertices[0] == (0.1, 0.06)


def test_json_round_trip_is_byte_identical():
    doc = {"xy_resolution": 0.05, "w_yaw": 0.7, "goal_tolerance_yaw": 0.25}
    text = params_to_json(load_params(json.dumps(doc)))
    assert params_to_json(load_params(text)) == text


def test_dict_round_trip_preserves_every_value():
    bundle = load_params({"expansion_max_reach": 0.48, "cliff_clearance": 0.06})
    reloaded = load_params(params_to_dict(bundle))
    assert params_to_dict(reloaded) == params_to_dict(bundle)


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(ParamsError, match="unknown parameter keys: banana"):
        load_params({"banana": 1.0})
    # a field name without its group prefix is not a key
    with pytest.raises(ParamsError, match="unknown parameter keys: max_length"):
        load_params({"max_length": 0.3})
    with pytest.raises(ParamsError, match="unknown parameter keys: wiggle_banana"):
        load_params({"wiggle_banana": 1.0})


def test_every_numeric_field_round_trips():
    # (bundle attribute, class, key prefix, fields that are not plain numbers)
    groups = (
        ("lattice", LatticeParams, "", ()),
        ("expansion", ExpansionParams, "expansion_", ()),
        ("checker", CheckerParams, "", ("stance_clearance",)),
        ("cost", CostParams, "", ()),
        ("wiggle", WiggleParams, "wiggle_", ("weights",)),
    )
    defaults = ParamsBundle()
    checked = 0
    for attribute, cls, prefix, apart in groups:
        for f in fields(cls):
            if f.name in apart:
                continue
            key = prefix + f.name
            default = getattr(getattr(defaults, attribute), f.name)
            value = math.tau / 24.0 if f.name == "yaw_resolution" else default * 1.1 + 0.001
            bundle = load_params({key: value})
            assert getattr(getattr(bundle, attribute), f.name) == value, key
            doc = params_to_dict(bundle)
            assert doc[key] == value, key
            assert params_to_dict(load_params(doc)) == doc, key
            checked += 1
    assert len(params_to_dict(defaults)) == checked + 5


def test_malformed_documents():
    with pytest.raises(ParamsError, match="invalid JSON"):
        load_params("{not json")
    with pytest.raises(ParamsError, match="JSON object"):
        load_params("[1, 2]")
    with pytest.raises(ParamsError, match="max_forward must be a number"):
        load_params({"max_forward": "wide"})
    with pytest.raises(ParamsError, match="max_forward must be a number"):
        load_params({"max_forward": True})
    with pytest.raises(ParamsError, match="must be finite"):
        load_params({"w_distance": float("nan")})


# Every key in the order the loader reads it: each group's numbers in field
# order, the checker's clearance and the wiggle weights after their group's
# numbers, then the sole and the goal tolerances.
SCHEMA_ORDER = (
    [f.name for f in fields(LatticeParams)]
    + ["expansion_" + f.name for f in fields(ExpansionParams)]
    + [f.name for f in fields(CheckerParams) if f.name != "stance_clearance"]
    + ["stance_clearance"]
    + [f.name for f in fields(CostParams)]
    + ["wiggle_" + f.name for f in fields(WiggleParams) if f.name != "weights"]
    + ["wiggle_weights", "foot_sole", "goal_tolerance", "goal_tolerance_yaw"]
)


def test_a_document_with_several_faults_names_the_first_in_schema_order():
    assert sorted(SCHEMA_ORDER) == sorted(params_to_dict(ParamsBundle()))
    with pytest.raises(ParamsError, match="^w_distance must be a number"):
        load_params({"w_distance": "a", "w_height": "b", "w_yaw": "c", "cost_per_step": "d"})
    rng = random.Random(3)
    for _ in range(200):
        chosen = rng.sample(SCHEMA_ORDER, rng.randint(2, 6))
        first = min(chosen, key=SCHEMA_ORDER.index)
        with pytest.raises(ParamsError) as caught:
            load_params({key: "x" for key in reversed(chosen)})
        assert str(caught.value).startswith(first + " "), (chosen, str(caught.value))
    # a group's own check runs before any later group is read
    with pytest.raises(ParamsError, match="lattice resolutions must be positive"):
        load_params({"w_distance": "a", "xy_resolution": 0.0})


def test_wiggle_weights_need_three_entries():
    for bad in ([1.0, 1.0], 5):
        with pytest.raises(ParamsError, match="3 diagonal entries"):
            load_params({"wiggle_weights": bad})
    with pytest.raises(ParamsError):
        load_params({"wiggle_weights": [1.0, 1.0, -0.5]})
    with pytest.raises(ParamsError, match=r"wiggle_weights\[0\] must be a number"):
        load_params({"wiggle_weights": [True, 1.0, 1.0]})
    with pytest.raises(ParamsError, match=r"wiggle_weights\[0\] must be finite"):
        load_params('{"wiggle_weights": [Infinity, 1.0, 1.0]}')


def test_group_validation_becomes_params_error():
    with pytest.raises(ParamsError):
        load_params({"xy_resolution": 0.0})
    with pytest.raises(ParamsError):
        load_params({"inflation": 0.5})
    with pytest.raises(ParamsError, match="stance_clearance"):
        load_params({"stance_clearance": [[0, 0], [1, 0]]})


def test_inset_must_stay_below_the_lattice_resolution():
    with pytest.raises(ParamsError, match="below xy_resolution"):
        load_params({"xy_resolution": 0.01})
    with pytest.raises(ParamsError, match="below xy_resolution"):
        ParamsBundle(lattice=LatticeParams(xy_resolution=0.02))


def test_goal_tolerances_must_be_positive():
    for key in ("goal_tolerance", "goal_tolerance_yaw"):
        for value in (0, -0.1):
            with pytest.raises(ParamsError, match="must be positive"):
                load_params({key: value})
        with pytest.raises(ParamsError, match="must be positive"):
            ParamsBundle(**{key: math.nan})


def still_request(**kwargs) -> PlannerRequest:
    return PlannerRequest(
        env=Environment([]),
        start_left=Pose2(0.0, 0.1, 0.0),
        start_right=Pose2(0.0, -0.1, 0.0),
        goal_midstance=Pose2(0.0, 0.0, 0.0),
        **kwargs,
    )


@pytest.mark.parametrize(
    "make, name, message",
    [
        (LatticeParams, "xy_resolution", "lattice resolutions must be positive"),
        (ExpansionParams, "max_reach", "max_reach must be positive"),
        (ExpansionParams, "min_length", "min_length must not exceed max_length"),
        (CheckerParams, "max_reach", "max_reach must be positive"),
        (CheckerParams, "body_box_top", "body_box_top must exceed body_box_bottom"),
        (CheckerParams, "max_forward", "max_forward must not be NaN"),
        (CheckerParams, "max_backward", "max_backward must not be NaN"),
        (CheckerParams, "max_inward", "max_inward must not be NaN"),
        (CheckerParams, "max_outward", "max_outward must not be NaN"),
        (CheckerParams, "tall_step_max_length", "tall_step_max_length must not be NaN"),
        (CheckerParams, "tall_step_max_width", "tall_step_max_width must not be NaN"),
        (CostParams, "inflation", "inflation must be at least 1"),
        (CostParams, "w_distance", "w_distance must be non-negative"),
        (CostParams, "final_turn_radius", "final_turn_radius must be positive"),
        (WiggleParams, "inset_distance", "inset_distance must be non-negative"),
        (WiggleParams, "max_translation", "shift bounds must be positive"),
        (still_request, "goal_tolerance", "goal tolerances must be positive"),
        (still_request, "goal_tolerance_yaw", "goal tolerances must be positive"),
    ],
)
def test_library_params_refuse_nan(make, name, message):
    # a file cannot carry NaN (the reader refuses it), but a library caller can
    with pytest.raises(ValueError, match=message):
        make(**{name: math.nan})


def test_foot_sole_must_surround_the_ankle():
    with pytest.raises(ParamsError):
        load_params({"foot_sole": [[0.3, 0.1], [0.1, 0.1], [0.1, -0.1], [0.3, -0.1]]})


# Reach-box scans no params file may ask for: a 1000 m box (about 4x10^8
# cells per yaw bin), a micrometre lattice (about 10^12 cells) and a yaw
# resolution of a billionth of a turn (about 1.7x10^8 yaw steps per cell).
HUGE_SCANS = [
    {"expansion_max_length": 1000.0, "expansion_max_width": 1000.0, "expansion_max_reach": 1000.0},
    {"xy_resolution": 1e-6, "wiggle_inset_distance": 1e-7},
    {"yaw_resolution": math.tau / 1e9},
]


@pytest.mark.parametrize("doc", HUGE_SCANS)
def test_a_huge_reach_box_scan_exits_4_before_any_scan(doc, tmp_path, monkeypatch, capsys):
    from footplan import lattice
    from footplan.toolkit.cli import main as cli_main
    from footplan.world import Environment, environment_to_json
    from test_world import flat_region

    def no_scan(*args):
        raise AssertionError("the reach box was scanned")

    monkeypatch.setattr(lattice, "_expansion_offsets", no_scan)
    env_path = tmp_path / "env.json"
    env_path.write_text(environment_to_json(Environment([flat_region(0, 4.0, 2.0)])))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(doc))
    argv = ["plan", "--env", str(env_path), "--start", "0,0,0", "--goal", "1,0,0",
            "--params", str(params_path)]
    t0 = time.perf_counter()
    assert cli_main(argv) == 4
    assert time.perf_counter() - t0 < 0.5
    assert "reach-box scan" in capsys.readouterr().err


def test_every_benchmark_params_document_loads():
    from test_lazy_search import load_workloads

    workloads = load_workloads()
    documents = [value for name, value in vars(workloads).items() if name.endswith("_PARAMS")]
    assert len(documents) == 4
    for document in documents:
        load_params(document)


def test_the_scan_bound_covers_every_expansion_and_admits_the_defaults():
    from footplan.lattice import _expansion_offsets, expansion_scan_bound

    rng = random.Random(5)
    for _ in range(200):
        lattice = LatticeParams(rng.choice((0.05, 0.1, 0.2)), math.tau / rng.choice((4, 8, 36)))
        lo_len, lo_wid = rng.uniform(-0.4, 0.3), rng.uniform(-0.2, 0.3)
        lo_yaw = rng.uniform(-1.0, 0.5)
        expansion = ExpansionParams(
            lo_len, lo_len + rng.uniform(0.0, 0.6), lo_wid, lo_wid + rng.uniform(0.0, 0.5),
            lo_yaw, lo_yaw + rng.uniform(0.0, 1.2), rng.uniform(0.1, 0.8),
        )
        bound = expansion_scan_bound(lattice, expansion)
        for yaw_index in range(lattice.yaw_count):
            for side in Side:
                # every offset comes from one cell of the scan and one yaw step
                assert len(_expansion_offsets(lattice, expansion, side, yaw_index)) <= bound
    assert expansion_scan_bound(LatticeParams(), ExpansionParams()) < 1e4
