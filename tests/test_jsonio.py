"""The annotation-driven JSON decoder: every value is checked against its
field's annotation, errors name the path, and every annotation a config
reaches has a rule, so a field with an unsupported annotation fails here
rather than in a run."""
import dataclasses
import math
import re
import types
import typing
from typing import Optional, Tuple

import pytest

from sheetforge import ConfigError, ExperimentConfig, config_from_json_obj, preset
from sheetforge.jsonio import _typed, decode

# one JSON value for each leaf type the decoder has a rule for
LEAF_SAMPLES = {float: 0.5, int: 3, bool: True, str: "x"}


def _leaves(tp, path):
    """(path, annotation) of every leaf under the annotation tp, following
    dataclass fields, union members and tuple items. A union of more than
    one class must be a union of distinct KIND tags."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            yield from _leaves(hints[f.name], f"{path}.{f.name}")
    elif origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        if len(members) > 1:
            kinds = [getattr(m, "KIND", None) for m in members]
            assert all(isinstance(k, str) for k in kinds), f"{path}: untagged union {tp!r}"
            assert len(set(kinds)) == len(kinds), f"{path}: repeated KIND in {tp!r}"
        for member in members:
            yield from _leaves(member, path)
    elif origin is tuple:
        for i, item in enumerate(args):
            if item is not Ellipsis:
                yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, tp


def test_every_config_annotation_has_a_decoder_rule():
    leaves = list(_leaves(ExperimentConfig, "config"))
    assert ("config.window_scaling.gamma", float) in leaves
    assert ("config.theta.model.jump_dist.h", float) in leaves
    for path, tp in leaves:
        assert tp in LEAF_SAMPLES, f"{path}: no JSON rule for the annotation {tp!r}"
        assert _typed(tp, LEAF_SAMPLES[tp], path) == LEAF_SAMPLES[tp]


def test_an_annotation_without_a_rule_is_found_and_refused():
    @dataclasses.dataclass
    class Odd:
        table: Optional[Tuple[dict, ...]] = None

    assert list(_leaves(Odd, "odd")) == [("odd.table[0]", dict)]
    with pytest.raises(TypeError, match="no JSON rule"):
        decode(Odd, {"table": [{}]}, "odd")


@pytest.mark.parametrize("tp, value", [
    (float, math.nan),
    (float, math.inf),
    (float, 10**400),
    (float, True),
    (float, "2"),
    (int, 2.0),
    (int, False),
    (bool, 1),
    (str, 5),
    (Optional[int], "x"),
    (Tuple[float, ...], 1.0),
    (Tuple[float, float], [1.0]),
    (Tuple[float, float], [1.0, 2.0, 3.0]),
])
def test_values_of_the_wrong_form_are_config_errors(tp, value):
    with pytest.raises(ConfigError, match=r"^x\.y"):
        _typed(tp, value, "x.y")


def test_numbers_for_float_fields_become_floats():
    assert type(_typed(float, 1, "x")) is float
    assert _typed(Tuple[float, ...], [1, 2.5], "x") == (1.0, 2.5)
    assert _typed(Optional[float], None, "x") is None
    assert _typed(Tuple[Tuple[float, float], ...], [[0, 1]], "x") == ((0.0, 1.0),)


def test_errors_name_the_path():
    obj = preset("fbm-wave")
    obj["bilinear_pairs"] = [[{"breaks": [0.0, "0.5", 1.0], "values": [1.0, 2.0]},
                              {"breaks": [0.0, 1.0], "values": [1.0]}]]
    with pytest.raises(ConfigError, match=re.escape("config.bilinear_pairs[0][0].breaks[1]")):
        config_from_json_obj(obj)
    # a check in a component's own constructor is reported at the component
    obj = preset("brownian-baseline")
    obj["eval_grid"]["s_points"] = [0.5, 1.5]
    with pytest.raises(ConfigError, match=r"^config\.eval_grid: s_points must lie in"):
        config_from_json_obj(obj)


def test_only_package_errors_become_config_errors():
    @dataclasses.dataclass
    class Broken:
        x: int

        def __post_init__(self):
            raise KeyError("a bug, not a bad input")

    with pytest.raises(KeyError):
        decode(Broken, {"x": 1}, "broken")
