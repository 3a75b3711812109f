"""Parameter file loading: defaults, overrides, rejection, round-trips."""

import json
import math
from dataclasses import fields

import pytest

from footplan.costing import CostParams
from footplan.lattice import ExpansionParams, LatticeParams
from footplan.params import ParamsBundle, ParamsError, load_params, params_to_dict, params_to_json
from footplan.validity import CheckerParams
from footplan.wiggle import WiggleParams


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


def test_foot_sole_must_surround_the_ankle():
    with pytest.raises(ParamsError):
        load_params({"foot_sole": [[0.3, 0.1], [0.1, 0.1], [0.1, -0.1], [0.3, -0.1]]})
