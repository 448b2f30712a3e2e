"""Built-in benchmark models.

Single-location models ship as DSL text, multi-location ones as JSON, and
each sets its own configuration in that text. Entries marked
`reconstruction` have dynamics or parameters that the published
descriptions leave unspecified (documented stand-ins with the stated
location/variable counts). Not every entry completes at its default
configuration with full Monte-Carlo containment: `tests/test_registry.py`
lists which do, and the cause for each one that does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import SimConfig
from .dsl import lower_to_automaton, parse_dsl
from .jsonmodel import parse_json_automaton

BRUSSELATOR = """\
set duration = 15;
set dt = 0.02;
set max_dt = 0.1;
set tol = 1e-6;

init x = [0.9, 1.];
init y = [0., 0.1];

x' = 1 + x^2*y - 2.5*x;
y' = 1.5*x - x^2*y;
"""

CAR = """\
# kinematic car with a time-varying steering input; speed fixed at 1
set duration = 30;
set dt = 0.02;
set max_dt = 0.1;
set tol = 1e-6;

init x = 0;
init y = 0;
init theta = [0, 0.1];

v = 1;
x' = v*cos(0.2*t)*cos(theta);
y' = v*cos(0.2*t)*sin(theta);
theta' = v*sin(0.2*t)/5;
"""

WINDY_BALL = """\
# bouncing ball with a time-varying horizontal wind
set duration = 13;
set dt = 0.02;
set max_dt = 0.05;
set tol = 1e-6;

init x = 0;
init y = [15, 15.01];
init vy = 0;

g = 9.81;
x' = 10*(1 + 1.5*sin(10*t));
y' = vy;
vy' = -g;

on y <= 0 do { print("Bouncing!\\n"); vy = -0.8*vy };
"""

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

SINUSOIDAL_BALL = """\
# ball with quadratic wind friction bouncing on a sinusoidal floor
set duration = 2.8;
set dt = 0.02;
set max_dt = 0.05;
set tol = 1e-6;

init vx = 0;
init x = 1.6;
init vy = -5;
init y = 5;

g = 9.8;
k = 0.3;
e = 0.8;

vx' = 0;
x' = vx;
vy' = -g + k*vy^2;
y' = vy;

on y < sin(x) do {
  vx = e*((vx + vy*cos(x))/(1 + cos(x)^2) - vx);
  vy = e*((vx + vy*cos(x))/(1 + cos(x)^2)*cos(x) - vy);
  y = sin(x)
};
"""

BOUNCING_BALL = """\
set duration = 10;
set dt = 0.02;
set max_dt = 0.1;
set tol = 1e-6;

init y = 10;
init v = 0;

g = 9.81;
c = 0.8;
y' = v;
v' = -g;

on y <= 0 do { print("Bounce!\\n"); v = -c*v };
"""

VAN_DER_POL = """\
set duration = 6;
set dt = 0.02;
set max_dt = 0.1;
set tol = 1e-6;

init x = [1.25, 1.3];
init y = [2.35, 2.4];

x' = y;
y' = (1 - x^2)*y - x;
"""

LORENZ = """\
# fixed step size 0.02: dt = max_dt with an inactive tolerance
set duration = 1;
set dt = 0.02;
set max_dt = 0.02;
set tol = 1e9;

init x = 15;
init y = 15;
init z = 36;

sigma = 10;
rho = 28;
beta = 8/3;

x' = sigma*(y - x);
y' = x*(rho - z) - y;
z' = x*y - beta*z;
"""

WOLFGRAM = """\
{
  "variables": ["x", "t"],
  "locations": [
    {"name": "inside", "flow": {"x": "t^2 + 2*x", "t": "1"}},
    {"name": "outside", "flow": {"x": "2*t^2 + 3*x^2 - 2", "t": "1"}}
  ],
  "edges": [
    {"from": "inside", "to": "outside",
     "guard": "(x + 3/20)^2 + (t + 1/20)^2 > 1",
     "reset": {"x": "sqrt(1 - (t + 1/20)^2) - 3/20"},
     "label": "leave-circle"}
  ],
  "init": {"location": "inside", "box": {"x": [0.3, 0.31], "t": [0, 0]}},
  "config": {"duration": 1.0, "dt": 0.01, "max_dt": 0.05, "tol": 1e-7}
}
"""

THERMOSTAT = """\
{
  "variables": ["T"],
  "locations": [
    {"name": "heat", "flow": {"T": "0.1*(26 - T)"}},
    {"name": "cool", "flow": {"T": "-0.1*(T - 14)"}}
  ],
  "edges": [
    {"from": "heat", "to": "cool", "guard": "T >= 21", "label": "hot"},
    {"from": "cool", "to": "heat", "guard": "T <= 19", "label": "cold"}
  ],
  "init": {"location": "heat", "box": {"T": [20.0, 20.1]}},
  "config": {"duration": 15.0, "dt": 0.02, "max_dt": 0.1, "tol": 1e-6}
}
"""

WATERTANK = """\
{
  "variables": ["x1", "x2", "q", "m", "t"],
  "locations": [
    {"name": "fill", "flow": {"x1": "q - 0.2*x1", "x2": "0.2*x1 - 0.1*x2",
                              "q": "0.1*(4 - q)", "m": "0.2*(x2 - m)",
                              "t": "1"}},
    {"name": "drain", "flow": {"x1": "-0.3*x1", "x2": "0.2*x1 - 0.1*x2",
                               "q": "-0.5*q", "m": "0.2*(x2 - m)",
                               "t": "1"}}
  ],
  "edges": [
    {"from": "fill", "to": "drain", "guard": "x1 >= 8", "label": "full"},
    {"from": "drain", "to": "fill", "guard": "x1 <= 5", "reset": {"q": "1"},
     "label": "low"}
  ],
  "init": {"location": "fill",
           "box": {"x1": [6.0, 6.1], "x2": [2, 2], "q": [2, 2], "m": [0, 0],
                   "t": [0, 0]}},
  "config": {"duration": 30.0, "dt": 0.02, "max_dt": 0.1, "tol": 1e-6}
}
"""

HYBRID3D = """\
{
  "variables": ["x", "y", "z"],
  "locations": [
    {"name": "spin", "flow": {"x": "-3*y", "y": "3*x", "z": "-0.5*z + 1"}},
    {"name": "drift", "flow": {"x": "0.5", "y": "-y", "z": "0.1"}}
  ],
  "edges": [
    {"from": "spin", "to": "drift", "guard": "x <= -0.8", "label": "flip"}
  ],
  "init": {"location": "spin",
           "box": {"x": [1.0, 1.01], "y": [0, 0], "z": [0.5, 0.5]}},
  "config": {"duration": 2.0, "dt": 0.02, "max_dt": 0.05, "tol": 1e-6}
}
"""

DIODE_OSCILLATOR = """\
{
  "variables": ["v", "w"],
  "locations": [
    {"name": "charge", "flow": {"v": "1 - 0.1*v", "w": "0.2*(v - w)"}},
    {"name": "discharge", "flow": {"v": "-1 - 0.1*v", "w": "0.2*(v - w)"}},
    {"name": "recover", "flow": {"v": "0.2", "w": "-0.3*w"}}
  ],
  "edges": [
    {"from": "charge", "to": "discharge", "guard": "v >= 3", "label": "peak"},
    {"from": "discharge", "to": "recover", "guard": "v <= 0.5",
     "label": "trough"},
    {"from": "recover", "to": "charge", "guard": "w <= 0.4", "label": "rested"}
  ],
  "init": {"location": "charge", "box": {"v": [1.0, 1.02], "w": [1, 1]}},
  "config": {"duration": 20.0, "dt": 0.02, "max_dt": 0.1, "tol": 1e-6}
}
"""


@dataclass(frozen=True)
class BenchmarkEntry:
    name: str
    kind: str   # "dsl" | "json"
    text: str
    description: str
    reconstruction: bool = False
    reference: dict = field(default_factory=dict)


REGISTRY = {
    e.name: e
    for e in [
        BenchmarkEntry(
            "brusselator", "dsl", BRUSSELATOR,
            "planar oscillating reaction, box initial set, t=15"),
        BenchmarkEntry(
            "car", "dsl", CAR,
            "kinematic car with periodic steering, t=30",
            reconstruction=True,
            reference={"note": "speed constant v=1 chosen; source text "
                               "leaves it unspecified"}),
        BenchmarkEntry(
            "windy_ball", "dsl", WINDY_BALL,
            "bouncing ball under horizontal wind, t=13",
            reconstruction=True,
            reference={"note": "initial height 15 and g=9.81 chosen so the "
                               "bounce accumulation lies beyond t=13"}),
        BenchmarkEntry(
            "pendulum", "dsl", PENDULUM,
            "pendulum bouncing on a wall, nonlinear flow and guard, t=3.8"),
        BenchmarkEntry(
            "sinusoidal_ball", "dsl", SINUSOIDAL_BALL,
            "ball with quadratic drag on a sinusoidal floor, 3 bounces"),
        BenchmarkEntry(
            "bouncing_ball", "dsl", BOUNCING_BALL,
            "classical bouncing ball, t=10",
            reference={"first_bounce": "sqrt(20/9.81)"}),
        BenchmarkEntry(
            "vanderpol", "dsl", VAN_DER_POL,
            "Van der Pol oscillator, box initial set, t=6"),
        BenchmarkEntry(
            "lorenz", "dsl", LORENZ,
            "Lorenz system at fixed step 0.02, t=1"),
        BenchmarkEntry(
            "wolfgram", "json", WOLFGRAM,
            "piecewise flow with a polynomial jump condition, t=1; the jump "
            "reset re-parameterizes the state on the circle boundary"),
        BenchmarkEntry(
            "thermostat", "json", THERMOSTAT,
            "two-mode thermostat relay, t=15",
            reconstruction=True,
            reference={"note": "classic two-location relay with stand-in "
                               "rate constants"}),
        BenchmarkEntry(
            "watertank", "json", WATERTANK,
            "two-tank fill/drain controller, 2 locations, 5 variables, t=30",
            reconstruction=True),
        BenchmarkEntry(
            "hybrid3d", "json", HYBRID3D,
            "rotating 3-variable system with one mode switch, t=2",
            reconstruction=True),
        BenchmarkEntry(
            "diode_oscillator", "json", DIODE_OSCILLATOR,
            "three-mode piecewise-linear relaxation oscillator, t=20",
            reconstruction=True),
    ]
}


def load(entry: BenchmarkEntry, **overrides):
    """BenchmarkEntry -> (HybridAutomaton, SimConfig); `overrides` replace
    the entry's own settings."""
    if entry.kind == "dsl":
        ha, settings = lower_to_automaton(parse_dsl(entry.text))
    else:
        ha, settings = parse_json_automaton(entry.text)
    return ha, SimConfig(**{**settings, **overrides})
