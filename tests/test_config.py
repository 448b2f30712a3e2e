"""The one settings declaration: every bad value is rejected by SimConfig
with ConfigError, and by both model formats with a located error before
any simulation starts."""

import math

import pytest

from hyflow import dsl as D
from hyflow.config import FIELD_TYPES, SimConfig, check_setting
from hyflow.errors import ConfigError, ParseError, SchemaError
from hyflow.jsonmodel import parse_json_automaton

NUMERIC = [name for name, kind in FIELD_TYPES.items() if kind is not str]

# (Python value, JSON text, DSL text) of each bad number
BAD_NUMBERS = {
    "nan": (math.nan, "NaN", "nan"),
    "inf": (math.inf, "Infinity", "1e999"),
    "-inf": (-math.inf, "-Infinity", "-1e999"),
    "bool": (True, "true", "true"),
    "zero": (0, "0", "0"),
    "negative": (-1, "-1", "-1"),
}

BAD_VALUES = (
    [(name, *vals) for name in NUMERIC for vals in BAD_NUMBERS.values()]
    + [("scheme", "rk5", '"rk5"', "rk5"), ("scheme", 3, "3", "3"),
       ("split", 1.5, "1.5", "1.5")]
)
IDS = ([f"{name}-{kind}" for name in NUMERIC for kind in BAD_NUMBERS]
       + ["scheme-unknown", "scheme-number", "split-fraction"])


# The bad setting comes first: it is rejected before a later statement or
# key could matter (JSON keeps the last of two equal keys).
def dsl_text(name, text):
    return f"set {name} = {text};\nset duration = 1;\ninit x = 0;\nx' = -x;\n"


JSON_MODEL = """{
  "variables": ["x"],
  "locations": [{"name": "l", "flow": {"x": "-x"}}],
  "init": {"location": "l", "box": {"x": [0, 1]}},
  "config": %s
}"""


def json_text(name, text):
    return JSON_MODEL % f'{{"duration": 1.0, "{name}": {text}}}'


@pytest.mark.parametrize("name, value, json_value, dsl_value", BAD_VALUES,
                         ids=IDS)
def test_bad_setting_rejected_where_read(name, value, json_value, dsl_value):
    kwargs = {"duration": 1.0, name: value}
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)
    with pytest.raises(ParseError) as info:
        D.parse_dsl(dsl_text(name, dsl_value))
    assert info.value.span.line == 1
    with pytest.raises(SchemaError) as info:
        parse_json_automaton(json_text(name, json_value))
    assert info.value.path == f"/config/{name}"


def test_values_are_normalised_to_the_field_type():
    cfg = SimConfig(duration=15, dt=1, split=3.0)
    assert type(cfg.duration) is float and type(cfg.dt) is float
    assert type(cfg.split) is int and cfg.split == 3
    with pytest.raises(ConfigError):
        check_setting("tol", 10 ** 400)  # an int no float can hold


def test_json_config_must_be_an_object():
    with pytest.raises(SchemaError) as info:
        parse_json_automaton(JSON_MODEL % '[{"duration": 1.0}]')
    assert info.value.path == "/config"
