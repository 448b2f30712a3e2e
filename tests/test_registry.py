"""The built-in benchmark registry: every entry loads to its pinned
configuration, both model formats accept every setting, and each entry
either completes with full containment, of its Monte-Carlo samples and of
the lo/mid/hi grid of its initial box, or is a strict xfail that names its
cause. The fast entries that complete keep their final and peak widths
under pinned ceilings, and their step and rejection counts as pinned. The minutes-long entries are marked `slow` (run them with
`pytest -m slow`)."""

import functools
import itertools
import json

import pytest

from hyflow import benchmarks
from hyflow import dsl as D
from hyflow.config import FIELD_TYPES, SimConfig
from hyflow.engine import (REL_TOL, _branch_contains, reference_step,
                           simulate, validate_monte_carlo)
from hyflow.errors import HyflowError, ParseError, SchemaError
from hyflow.expr import prepare_automaton
from hyflow.jsonmodel import parse_json_automaton
from hyflow.reference import ReferenceSimulator

# (duration, dt, max_dt, tol) of each entry, as loaded before the settings
# had one declaration
PINNED = {
    "brusselator": (15.0, 0.02, 0.1, 1e-6),
    "car": (30.0, 0.02, 0.1, 1e-6),
    "windy_ball": (13.0, 0.02, 0.05, 1e-6),
    "pendulum": (3.8, 0.05, 0.1, 1e-6),
    "sinusoidal_ball": (2.8, 0.02, 0.05, 1e-6),
    "bouncing_ball": (10.0, 0.02, 0.1, 1e-6),
    "vanderpol": (6.0, 0.02, 0.1, 1e-6),
    "lorenz": (1.0, 0.02, 0.02, 1e9),
    "wolfgram": (1.0, 0.01, 0.05, 1e-7),
    "thermostat": (15.0, 0.02, 0.1, 1e-6),
    "watertank": (30.0, 0.02, 0.1, 1e-6),
    "hybrid3d": (2.0, 0.02, 0.05, 1e-6),
    "diode_oscillator": (20.0, 0.02, 0.1, 1e-6),
}


def test_registry_is_pinned():
    assert set(benchmarks.REGISTRY) == set(PINNED)


@pytest.mark.parametrize("name", PINNED)
def test_entry_loads_its_pinned_config(name):
    _ha, cfg = benchmarks.load(benchmarks.REGISTRY[name])
    assert cfg == SimConfig(*PINNED[name])


# setting -> (value, its DSL text)
ACCEPTED = {
    "duration": (2.5, "2.5"),
    "dt": (0.01, "0.01"),
    "max_dt": (0.05, "0.05"),
    "tol": (1e-7, "1e-7"),
}

JSON_MODEL = """{
  "variables": ["x"],
  "locations": [{"name": "l", "flow": {"x": "-x"}}],
  "init": {"location": "l", "box": {"x": [0, 1]}},
  "config": %s
}"""


def test_every_setting_has_a_frontend_case():
    assert set(ACCEPTED) == set(FIELD_TYPES)


@pytest.mark.parametrize("name", ACCEPTED)
def test_both_frontends_accept_every_setting(name):
    value, text = ACCEPTED[name]
    _ha, settings = D.lower_to_automaton(D.parse_dsl(
        f"set duration = 1;\nset {name} = {text};\ninit x = 0;\nx' = -x;\n"
        if name != "duration" else
        f"set duration = {text};\ninit x = 0;\nx' = -x;\n"))
    assert settings[name] == value
    _ha, from_json = parse_json_automaton(
        JSON_MODEL % json.dumps({"duration": 1.0, name: value}))
    assert from_json == settings
    assert getattr(SimConfig(**settings), name) == value


def test_unknown_setting_lists_the_fields():
    for name, text in (("scope_xy", "1"), ("scheme", "rk4")):
        with pytest.raises(ParseError) as info:
            D.parse_dsl(f"set {name} = {text};\n")
        assert info.value.expected == tuple(FIELD_TYPES)
    for name, value in (("plot", '["t", "x"]'), ("scheme", '"ode23"')):
        with pytest.raises(SchemaError) as info:
            parse_json_automaton(
                JSON_MODEL % f'{{"duration": 1.0, "{name}": {value}}}')
        assert info.value.path == f"/config/{name}"
        assert ", ".join(FIELD_TYPES) in str(info.value)


def test_every_setting_is_set_by_some_entry():
    # a setting no built-in model moves off its default is a constant
    default = SimConfig(duration=1.0)
    cfgs = [benchmarks.load(entry)[1]
            for entry in benchmarks.REGISTRY.values()]
    moved = {name for cfg in cfgs for name in FIELD_TYPES
             if getattr(cfg, name) != getattr(default, name)}
    assert moved >= set(FIELD_TYPES) - {"duration"}


# entry -> None when it completes with full containment, else its cause and
# a key part of the failure that cause produces; another failure is an
# error, not an expected one
FAST = {
    "bouncing_ball": None,
    "wolfgram": None,
    "hybrid3d": None,
    "diode_oscillator": None,
    "thermostat": ("1 of 16 samples escapes the first tight box after a "
                   "crossing at Monte-Carlo seed 1 (perfbench/NOTES.md)",
                   "1 of 16 samples escape the tight box"),
    "sinusoidal_ball": None,
    "pendulum": ("D8: after 418 steps in one branch, at t = 3.79, the "
                 "disarmed event0 cannot be certified: the second crossing "
                 "window is 0.036 against a true spread of 0.017, and its "
                 "guard straddles the boundary where the flow direction is "
                 "not provable", "cannot certify disarmed event0"),
    "lorenz": None,
}
SLOW = {
    "car": None,
    "vanderpol": None,
    "watertank": ("A7: the first post-jump segment's box is padded with "
                  "|f| at its own time, not over its time slab, and |f| is "
                  "near 0 at x1 = 5; x1 = 5.00102 at t = 4.0106 escapes it "
                  "and 6 of 16 samples escape at seed 1 (perfbench/NOTES.md)",
                  "6 of 16 samples escape the hull box"),
    "windy_ball": ("D8: the crossing time is not correlated with the "
                   "state, so windows outgrow the true spread (80x at the "
                   "8th bounce) and width grows across bounces until the "
                   "branch cap", "BranchCap"),
    "brusselator": ("A10: rounding slack is never turned into a noise "
                    "symbol, so it grows with the sum of the absolute "
                    "partials instead of the net Jacobian, until Picard "
                    "fails at the minimal step size at t >= 6.209",
                    "Picard enclosure failed"),
}


# final and peak tight-box widths of each FAST entry whose flowpipe
# completes, and its widest crossing window (lorenz has no crossings),
# pinned when crossing windows were first narrowed by certified rate bounds
# (lorenz's when its Lie derivatives were first built in one forward pass
# along the flow); a width may shrink, but not grow by more than
# WIDTH_SLACK of its pin
WIDTH_CEILINGS = {
    "bouncing_ball": (9.89229e-10, 9.89229e-10, 3.71668e-11),
    "wolfgram": (0.493322, 0.493322, 0.0106564),
    "hybrid3d": (0.0106059, 0.0351941, 4.36257e-3),
    "diode_oscillator": (0.169384, 0.184161, 0.0707602),
    "thermostat": (0.168994, 0.235535, 0.168072),
    "sinusoidal_ball": (4.20994e-06, 6.27373e-06, 2.19692e-7),
    "lorenz": (2.74327, 3.93027, 0.0),
}
WIDTH_SLACK = 1e-3

# accepted steps and rejected step sizes of each FAST entry whose flowpipe
# completes, pinned before the guaranteed step ran over the folded start
# set; a lossless change to the step keeps them exactly
STEP_COUNTS = {
    "bouncing_ball": (112, 0),
    "wolfgram": (256, 0),
    "hybrid3d": (101, 1),
    "diode_oscillator": (229, 0),
    "thermostat": (159, 0),
    "sinusoidal_ball": (235, 2),
    "lorenz": (51, 0),
}


@functools.cache
def simulated(name):
    ha, cfg = benchmarks.load(benchmarks.REGISTRY[name])
    return ha, simulate(ha, cfg)


def cases(table, *marks):
    for name, known in table.items():
        cause, signature = known or (None, None)
        xfail = ([pytest.mark.xfail(reason=cause, strict=True,
                                    raises=AssertionError)]
                 if cause else [])
        yield pytest.param(name, signature, marks=[*marks, *xfail], id=name)


def failure(ha, pipe) -> str | None:
    """Why the flowpipe falls short: its abort reasons, or the samples that
    escape it (with the kind of box the first one escapes)."""
    if not pipe.complete:
        aborts = {b.abort_reason for b in pipe.branches if not b.complete}
        return f"incomplete: {sorted(aborts)}"
    mc = validate_monte_carlo(ha, pipe, 16, seed=1)
    escaped = [v["detail"] for v in mc["violations"] if "detail" in v]
    if mc["skipped"] or escaped:
        return (f"{16 - mc['contained']} of 16 samples escape the "
                f"{escaped[0]['kind'] if escaped else '(none)'} box, "
                f"{mc['skipped']} skipped: {mc['violations'][:1]}")
    return None


@pytest.mark.parametrize("name, signature",
                         [*cases(FAST), *cases(SLOW, pytest.mark.slow)])
def test_entry_completes_and_contains_samples(name, signature):
    why = failure(*simulated(name))
    # pytest.fail, not assert: the xfail absorbs only an AssertionError
    if why is not None and signature is not None and signature not in why:
        pytest.fail(f"{name} fails for another cause: {why}")
    assert why is None, why


@pytest.mark.parametrize("name", WIDTH_CEILINGS)
def test_entry_widths_stay_under_their_ceilings(name):
    _ha, pipe = simulated(name)
    assert pipe.complete
    final = max(max(b.width for b in br.segments[-1].tight.values())
                for br in pipe.branches)
    peak = max(max(b.width for b in seg.tight.values())
               for br in pipe.branches for seg in br.segments)
    window = max((c.width for br in pipe.branches for c, _ in br.crossings),
                 default=0.0)
    final_pin, peak_pin, window_pin = WIDTH_CEILINGS[name]
    assert final <= final_pin * (1.0 + WIDTH_SLACK), (final, final_pin)
    assert peak <= peak_pin * (1.0 + WIDTH_SLACK), (peak, peak_pin)
    assert window <= window_pin * (1.0 + WIDTH_SLACK), (window, window_pin)


@pytest.mark.parametrize("name", STEP_COUNTS)
def test_entry_step_counts_are_pinned(name):
    _ha, pipe = simulated(name)
    assert pipe.complete
    assert (pipe.stats["steps"], pipe.stats["rejections"]) == STEP_COUNTS[name]


# entries whose initial-box grid escapes, by cause and signature; the
# others fail the grid check exactly as they fail the Monte-Carlo one
GRID_ESCAPES = {
    "diode_oscillator": ("A7: v0 = 1.0 gives v = 2.9083744 at t = 2.58388, "
                         "above the first tight box after the peak crossing "
                         "(top 2.9083721); seed-1 Monte-Carlo misses it",
                         "1 of 3 grid points escape the tight box"),
    "thermostat": ("A7: T0 = 20.0, the seed-1 Monte-Carlo escape, is above "
                   "the first tight box after a crossing",
                   "1 of 3 grid points escape the tight box"),
    "watertank": ("A7: x1_0 = 6.0 and 6.1 escape the first boxes after a "
                  "jump, whose |f| padding is taken at one time, not over "
                  "the time slab", "2 of 3 grid points escape"),
}


def grid_failure(ha, pipe) -> str | None:
    """Why the flowpipe misses a reference run from the lo/mid/hi grid of
    the initial box, checked as `validate_monte_carlo` checks a sample: its
    abort reasons, or the grid points that escape (with the kind of box the
    first one escapes) or whose reference run fails."""
    if not pipe.complete:
        return failure(ha, pipe)
    prepared, _ = prepare_automaton(ha)
    order = list(prepared.variables)
    h_ref = reference_step(pipe.t_f - pipe.t0)
    sim = ReferenceSimulator(prepared, h_ref)
    axes = [sorted({b.lo, b.mid, b.hi})
            for b in map(prepared.initial_box.get, order)]
    points = list(itertools.product(*axes))
    escaped = []
    for x0 in points:
        try:
            traj = sim.run(list(x0), pipe.t0, pipe.t_f)
        except (HyflowError, OverflowError, ValueError) as e:
            escaped.append((x0, {"skipped": str(e)}))
            continue
        checks = [_branch_contains(b, traj, order, pipe.t_f, h_ref, REL_TOL)
                  for b in pipe.branches if b.complete]
        if not any(good for good, _ in checks):
            escaped.append((x0, checks[-1][1]))
    if not escaped:
        return None
    x0, detail = escaped[0]
    return (f"{len(escaped)} of {len(points)} grid points escape the "
            f"{detail.get('kind', '(none)')} box: x0 = {x0}, {detail}")


def grid_cases(table, *marks):
    for name, known in table.items():
        yield from cases({name: GRID_ESCAPES.get(name, known)}, *marks)


@pytest.mark.parametrize("name, signature",
                         [*grid_cases(FAST),
                          *grid_cases(SLOW, pytest.mark.slow)])
def test_entry_contains_its_initial_grid(name, signature):
    why = grid_failure(*simulated(name))
    if why is not None and signature is not None and signature not in why:
        pytest.fail(f"{name} fails for another cause: {why}")
    assert why is None, why


def test_pendulum_reference_runs_finish_from_its_grid():
    # event0's reset flips only dtheta, so it lands on the guard's true
    # side; the reference leaves the edge disarmed after the jump, as the
    # engine does, instead of taking it again until the chain is refused
    ha, cfg = benchmarks.load(benchmarks.REGISTRY["pendulum"])
    prepared, _ = prepare_automaton(ha)
    order = list(prepared.variables)
    sim = ReferenceSimulator(prepared, reference_step(cfg.duration))
    axes = [sorted({b.lo, b.mid, b.hi})
            for b in map(prepared.initial_box.get, order)]
    for x0 in itertools.product(*axes):
        traj = sim.run(list(x0), 0.0, cfg.duration)
        assert traj.times[-1] == pytest.approx(cfg.duration)
        assert len(traj._jumps) >= 2
