"""Frontend: golden parse of the pendulum listing, malformed-input spans,
lowering, and the JSON schema."""

import pytest

from hyflow import dsl as D
from hyflow import expr as ex
from hyflow.affine import Rel
from hyflow.errors import ModelError, ParseError, SchemaError
from hyflow.expr import HybridAutomaton
from hyflow.interval import Interval
from hyflow.jsonmodel import parse_json_automaton

PENDULUM = """\
set duration = 3.8;
set dt = 0.05;
set max_dt = 0.1;

init theta = [1.,1.05];
init dtheta = 0.;
init t = 0;

l = 1.2;
g = 9.81;
theta' = dtheta;
dtheta' = -g/l*sin(theta);
t' = 1;

on sin(theta) <= -0.5 do { print("Bouncing!\\n"); dtheta = -dtheta };
"""


def test_pendulum_golden_parse():
    m = D.parse_dsl(PENDULUM)
    assert m.settings == {"duration": 3.8, "dt": 0.05, "max_dt": 0.1}
    assert set(m.inits) == {"theta", "dtheta", "t"}
    assert m.inits["theta"] == Interval(1.0, 1.05)
    assert m.inits["dtheta"] == Interval(0.0, 0.0)
    assert set(m.constants) == {"l", "g"}
    assert set(m.flows) == {"theta", "dtheta", "t"}
    assert len(m.events) == 1
    evt = m.events[0]
    assert evt.prints == ("Bouncing!\n",)
    assert evt.assigns[0][0] == "dtheta"
    assert isinstance(evt.guard, ex.Comparison)
    assert evt.guard.rel is Rel.LE


def test_pendulum_lowering():
    ha, settings = D.lower_to_automaton(D.parse_dsl(PENDULUM))
    assert ha.variables == ("theta", "dtheta", "t")
    assert list(ha.flows) == ["main"]
    assert len(ha.edges) == 1
    # constants are inlined: -9.81/1.2 appears in the flow of dtheta
    flow_txt = ex.to_text(ha.flows["main"]["dtheta"])
    assert "g" not in flow_txt and "l" not in flow_txt
    assert settings["duration"] == 3.8
    # strictness transform then makes the guard strict but unpinnable
    prepared, warnings = ex.prepare_automaton(ha)
    assert prepared.edges[0].guard.rel is Rel.LT
    assert prepared.edges[0].boundary_reset


def test_brusselator_init_interval():
    m = D.parse_dsl("set duration=1;\ninit x = [0.9,1];\nx' = -x;\n")
    assert m.inits["x"] == Interval(0.9, 1.0)


MALFORMED = [
    "set duration = 1;\ntheta' = dtheta\n",           # missing semicolon
    "set duration = ;\n",                              # missing value
    "set bogus = 1;\n",                                # unknown setting
    "set duration = 1;\nset duration = 2;\n",          # duplicate setting
    "init x = [2, 1];\n",                              # inverted interval
    "init x = [1, ;\n",                                # broken interval
    "x'' = 1;\n",                                      # double prime
    "x' 1;\n",                                         # missing =
    "on x do { y = 1 };\n",                            # guard lacks relation
    "on x < do { y = 1 };\n",                          # relation lacks rhs
    "on x == 0 do { y = 1 };\n",                       # equality guard
    "on x < 0 do y = 1;\n",                            # missing braces
    "on x < 0 do { y = 1 }\n",                         # missing final ;
    "on x < 0 do { print(nope) };\n",                  # print needs a string
    "output(x);\n",                                     # output needs two names
    "output(x, );\n",                                   # trailing comma
    "init x = 1e;\n",                                   # broken number
    'on x < 0 do { print("unterminated) };\n',          # unterminated string
    "x' = 2 ** 3;\n",                                   # ** is not an operator
    "x' = sin();\n",                                    # empty call
    "init x = 1; init x = 2;\n",                        # duplicate init
    "x' = (1 + 2;\n",                                   # unbalanced paren
    "x' = 1 $ 2;\n",                                    # stray character
]


@pytest.mark.parametrize("src", MALFORMED)
def test_malformed_inputs_have_spans(src):
    with pytest.raises(ParseError) as info:
        D.parse_dsl(src)
    assert info.value.span is not None
    lines = src.splitlines()
    assert 1 <= info.value.span.line <= len(lines) + 1


@pytest.mark.parametrize("name", sorted(ex.FUNCTION_OPS))
def test_function_names_are_reserved_in_expressions(name):
    src = f"set duration = 1;\ninit x = 0;\n{name} = 2;\nx' = {name};\n"
    with pytest.raises(ParseError) as info:
        D.parse_dsl(src)
    assert info.value.expected == ("'('",)
    span = info.value.span
    assert (span.line, span.col) == (4, 6 + len(name))


def test_implicit_clock_added():
    m = D.parse_dsl("set duration=1;\ninit x = 0;\nx' = sin(10*t);\n")
    ha, _ = D.lower_to_automaton(m)
    assert "t" in ha.variables
    assert ha.flows["main"]["t"] is ex.ONE
    assert ha.initial_box["t"] == Interval(0, 0)


def test_lowering_errors():
    with pytest.raises(ModelError):  # var with neither flow nor constant
        D.lower_to_automaton(D.parse_dsl("set duration=1;\ninit x=0;\nx' = q;\n"))
    with pytest.raises(ModelError):  # missing init
        D.lower_to_automaton(D.parse_dsl("set duration=1;\nx' = -x;\n"))
    with pytest.raises(ModelError):  # constant cycle
        D.lower_to_automaton(
            D.parse_dsl("set duration=1;\na = b;\nb = a;\ninit x=0;\nx' = a;\n"))


def test_no_events_no_edges():
    ha, _ = D.lower_to_automaton(
        D.parse_dsl("set duration=1;\ninit x = 0;\nx' = -x;\n"))
    assert ha.edges == []


def test_constant_chain_inlined():
    m = D.parse_dsl(
        "set duration=1;\ng = 9.81;\nl = 1.2;\nr = g/l;\ninit x=0;\nx' = r*x;\n")
    ha, _ = D.lower_to_automaton(m)
    assert ha.flows["main"]["x"] is ex.mul(ex.const(9.81 / 1.2), ex.var("x"))


# ------------------------------------------------------------------- JSON


THERMO = """{
  "variables": ["T"],
  "locations": [
    {"name": "heat", "flow": {"T": "0.1*(26 - T)"}},
    {"name": "cool", "flow": {"T": "-0.1*(T - 14)"}}
  ],
  "edges": [
    {"from": "heat", "to": "cool", "guard": "T >= 21"},
    {"from": "cool", "to": "heat", "guard": "T <= 19"}
  ],
  "init": {"location": "heat", "box": {"T": [20, 20.1]}},
  "config": {"duration": 15.0}
}"""


def test_json_thermostat():
    ha, settings = parse_json_automaton(THERMO)
    assert len(ha.flows) == 2 and len(ha.edges) == 2
    assert ha.initial_location == "heat"
    assert settings["duration"] == 15.0


def test_json_empty_edges_ok():
    doc = """{
      "variables": ["x"],
      "locations": [{"name": "l", "flow": {"x": "-x"}}],
      "edges": [],
      "init": {"location": "l", "box": {"x": [0, 1]}},
      "config": {"duration": 1.0}
    }"""
    ha, _ = parse_json_automaton(doc)
    assert ha.edges == []


@pytest.mark.parametrize("mutation, path_piece", [
    ('"to": "cool"', ('"to": "nowhere"', "/edges/0/to")),
    ('"guard": "T >= 21"', ('"guard": "T >="', "/edges/0/guard")),
    ('"location": "heat"', ('"location": "oven"', "/init/location")),
    ('"T": [20, 20.1]', ('"T": [20]', "/init/box/T")),
    ('"duration": 15.0', ('"unknown_key": 1', "/config")),
    ('"edges": [', ('"edges": 5, "unused": [', "/edges")),
    ('"guard": "T >= 21"', ('"guard": "T >= 21", "reset": []',
                            "/edges/0/reset")),
    ('"guard": "T >= 21"', ('"guard": "T >= 21", "prints": 5',
                            "/edges/0/prints")),
    ('"guard": "T >= 21"', ('"guard": "T >= 21", "prints": [1]',
                            "/edges/0/prints")),
    ('"guard": "T >= 21"', ('"guard": "T >= 21", "label": 3',
                            "/edges/0/label")),
])
def test_json_schema_errors_carry_paths(mutation, path_piece):
    bad_text, expected_path = path_piece
    doc = THERMO.replace(mutation, bad_text)
    with pytest.raises(SchemaError) as info:
        parse_json_automaton(doc)
    assert expected_path in str(info.value)


@pytest.mark.parametrize("src, col", [
    ("init x = 1e999;\n", 10),
    ("init x = [0, -1e999];\n", 15),
    ("set tol = 1e999;\n", 11),
    ("init x = 0;\nx' = 1e999*x;\n", 6),
])
def test_overflowing_number_literal_is_located(src, col):
    with pytest.raises(ParseError) as info:
        D.parse_dsl(src)
    span = info.value.span
    assert (span.line, span.col) == (src.count("\n"), col)
    assert "1e999" in str(info.value)


@pytest.mark.parametrize("bounds", [
    "[NaN, 1]", "[0, Infinity]", "[-Infinity, 0]", "[true, true]",
    pytest.param("[0, 1" + "0" * 400 + "]", id="[0, 1e400 as an integer]"),
])
def test_json_init_bounds_must_be_finite_numbers(bounds):
    doc = THERMO.replace('"T": [20, 20.1]', f'"T": {bounds}')
    with pytest.raises(SchemaError) as info:
        parse_json_automaton(doc)
    assert info.value.path == "/init/box/T"


@pytest.mark.parametrize("load, where", [
    (lambda: D.parse_dsl(
        "set duration=1;\ninit T = [-1e308, 1e308];\nT' = -T;\n"),
     lambda error: (error.span.line, error.span.col) == (2, 10)),
    (lambda: parse_json_automaton(
        THERMO.replace('"T": [20, 20.1]', '"T": [-1e308, 1e308]')),
     lambda error: error.path == "/init/box/T"),
], ids=["dsl", "json"])
def test_initial_range_whose_width_overflows_is_a_model_error(load, where):
    """Each frontend rejects the range with a located error, a `ParseError`
    at its span or a `SchemaError` at its JSON pointer, before a step could
    meet its infinite radius."""
    with pytest.raises((ParseError, SchemaError),
                       match="wider than a float can hold") as info:
        load()
    assert where(info.value)


def test_automaton_built_in_code_rejects_an_overflowing_range():
    """An automaton built without a frontend checks the range itself and
    names its variable."""
    with pytest.raises(ModelError, match="'T'"):
        HybridAutomaton(("T",), {"l": {"T": ex.neg(ex.var("T"))}}, [], "l",
                        {"T": Interval(-1e308, 1e308)})
