"""JSON hybrid-automaton frontend: the multi-location escape hatch.

Schema (expressions and guards are strings in the DSL expression syntax):

    {
      "variables": ["x", "t"],
      "locations": [{"name": "inside", "flow": {"x": "t^2 + 2*x", "t": "1"}}],
      "edges": [{"from": "inside", "to": "outside",
                 "guard": "(x + 0.15)^2 + (t + 0.05)^2 > 1",
                 "reset": {"x": "sqrt(1 - (t + 0.05)^2) - 0.15"},
                 "prints": ["crossing"]}],
      "init": {"location": "inside", "box": {"x": [0.3, 0.31], "t": [0, 0]}},
      "config": {"duration": 1.0, "dt": 0.01, "max_dt": 0.05, "tol": 1e-6}
    }

The `config` keys are the fields of `config.SimConfig`, each value checked
by `config.check_setting`; `duration` is required. `edges`, an edge's
`reset`, `prints` and `label`, and `config` may be left out. Validation
failures raise SchemaError with a JSON-pointer path.
"""

from __future__ import annotations

import json
import math

from .config import FIELD_TYPES, REQUIRED, check_setting, finite_float
from .dsl import parse_expr_string, parse_guard_string
from .errors import ConfigError, ParseError, SchemaError
from .expr import Edge, HybridAutomaton, Reset
from .interval import Interval


def _need(obj, key, kind, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected object, got {type(obj).__name__}", path)
    if key not in obj:
        raise SchemaError(f"missing key '{key}'", path)
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(
            f"'{key}' must be {kind.__name__}, got {type(val).__name__}",
            f"{path}/{key}")
    return val


def _optional(obj, key, kind, default, path):
    """`obj[key]` checked like `_need`, or `default` when it is absent."""
    return _need(obj, key, kind, path) if key in obj else default


def _expr(text, path):
    if not isinstance(text, str):
        raise SchemaError(f"expected expression string, got "
                          f"{type(text).__name__}", path)
    try:
        return parse_expr_string(text)
    except ParseError as e:
        raise SchemaError(f"bad expression: {e}", path) from None


def _guard(text, path):
    if not isinstance(text, str):
        raise SchemaError(f"expected guard string, got {type(text).__name__}",
                          path)
    try:
        return parse_guard_string(text)
    except ParseError as e:
        raise SchemaError(f"bad guard: {e}", path) from None


def parse_json_automaton(text: str):
    """JSON text -> (HybridAutomaton, settings dict)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    variables = _need(doc, "variables", list, "")
    if not variables or not all(isinstance(v, str) for v in variables):
        raise SchemaError("must be a non-empty list of names", "/variables")
    loc_list = _need(doc, "locations", list, "")
    flows = {}
    for i, loc in enumerate(loc_list):
        path = f"/locations/{i}"
        name = _need(loc, "name", str, path)
        if name in flows:
            raise SchemaError(f"duplicate location '{name}'", path)
        flow_obj = _need(loc, "flow", dict, path)
        flow = {}
        for v in variables:
            if v not in flow_obj:
                raise SchemaError(f"missing flow for variable '{v}'",
                                  f"{path}/flow")
            flow[v] = _expr(flow_obj[v], f"{path}/flow/{v}")
        extra = set(flow_obj) - set(variables)
        if extra:
            raise SchemaError(f"flow for undeclared variables {sorted(extra)}",
                              f"{path}/flow")
        flows[name] = flow
    edges = []
    for i, e in enumerate(_optional(doc, "edges", list, [], "")):
        path = f"/edges/{i}"
        src = _need(e, "from", str, path)
        dst = _need(e, "to", str, path)
        if src not in flows:
            raise SchemaError(f"unknown source location '{src}'",
                              f"{path}/from")
        if dst not in flows:
            raise SchemaError(f"unknown target location '{dst}'", f"{path}/to")
        guard = _guard(_need(e, "guard", str, path), f"{path}/guard")
        assigns = []
        for v, rhs in _optional(e, "reset", dict, {}, path).items():
            if v not in variables:
                raise SchemaError(f"reset assigns undeclared variable '{v}'",
                                  f"{path}/reset")
            assigns.append((v, _expr(rhs, f"{path}/reset/{v}")))
        prints = tuple(_optional(e, "prints", list, [], path))
        if not all(isinstance(p, str) for p in prints):
            raise SchemaError("must be a list of strings", f"{path}/prints")
        label = _optional(e, "label", str, f"edge{i}", path)
        edges.append(Edge(src, dst, guard, Reset(tuple(assigns), prints),
                          label))
    init = _need(doc, "init", dict, "")
    init_loc = _need(init, "location", str, "/init")
    if init_loc not in flows:
        raise SchemaError(f"unknown initial location '{init_loc}'",
                          "/init/location")
    box_obj = _need(init, "box", dict, "/init")
    box = {}
    for v in variables:
        if v not in box_obj:
            raise SchemaError(f"missing initial range for '{v}'", "/init/box")
        pair = box_obj[v]
        bounds = ([finite_float(x) for x in pair]
                  if isinstance(pair, list) and len(pair) == 2 else [None])
        if None in bounds:
            raise SchemaError("initial range must be [lo, hi] of finite "
                              "numbers", f"/init/box/{v}")
        if bounds[0] > bounds[1]:
            raise SchemaError(f"inverted range {pair}", f"/init/box/{v}")
        if not math.isfinite(bounds[1] - bounds[0]):
            raise SchemaError(f"range {pair} is wider than a float can hold",
                              f"/init/box/{v}")
        box[v] = Interval(*bounds)
    config = _optional(doc, "config", dict, {}, "")
    settings = {}
    for k, v in config.items():
        if k not in FIELD_TYPES:
            raise SchemaError(f"unknown config key '{k}' (expected "
                              f"{', '.join(FIELD_TYPES)})", f"/config/{k}")
        try:
            settings[k] = check_setting(k, v)
        except ConfigError as e:
            raise SchemaError(str(e), f"/config/{k}") from None
    for k in REQUIRED:
        if k not in settings:
            raise SchemaError(f"missing key '{k}'", "/config")
    ha = HybridAutomaton(tuple(variables), flows, edges, init_loc, box)
    return ha, settings
