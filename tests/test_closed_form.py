"""Soundness against trajectories known in closed form: generated automata
without edges, each run from a random box, must hold the exact trajectory
from every corner of the box and from its centre.

The families are the rotation x' = -w y, y' = w x and the nonlinear decay
x' = -x^2, whose trajectory is x0 / (1 + x0 t). Every check goes through
`engine._branch_contains`, the containment test of the Monte-Carlo
validation, with the exact trajectory in place of the reference one."""

import itertools
import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyflow import engine
from hyflow import expr as ex
from hyflow.engine import SimConfig, simulate
from hyflow.expr import HybridAutomaton
from hyflow.interval import Interval


class Rotation:
    """x' = -w y, y' = w x from (x0, y0)."""

    def __init__(self, w, x0, y0):
        self.w, self.x0, self.y0 = w, x0, y0

    def state_at(self, t):
        c, s = math.cos(self.w * t), math.sin(self.w * t)
        return [self.x0 * c - self.y0 * s, self.x0 * s + self.y0 * c]


class Decay:
    """x' = -x^2 from x0 > 0."""

    def __init__(self, x0):
        self.x0 = x0

    def state_at(self, t):
        return [self.x0 / (1.0 + self.x0 * t)]


def rotation(w, box):
    x, y = ex.var("x"), ex.var("y")
    flow = {"x": ex.mul(ex.const(-w), y), "y": ex.mul(ex.const(w), x)}
    return HybridAutomaton(("x", "y"), {"on": flow}, [], "on", box)


def decay(box):
    x = ex.var("x")
    return HybridAutomaton(("x",), {"on": {"x": ex.neg(ex.mul(x, x))}}, [],
                           "on", box)


def start_points(box, variables):
    """Each corner of `box`, then its centre, in variable order."""
    sides = [(box[v].lo, box[v].hi) for v in variables]
    return [*map(list, itertools.product(*sides)),
            [box[v].mid for v in variables]]


def escapes(pipe, trajectories):
    """The trajectories that the flowpipe's one branch does not hold, each
    with where it leaves; h_ref only pads crossing windows, and these
    automata have none."""
    [branch] = pipe.branches
    assert branch.complete and branch.segments
    out = []
    for traj in trajectories:
        good, where = engine._branch_contains(pipe, branch, traj, 0.0)
        if not good:
            out.append(where)
    return out


def boxes(centres, widths):
    """Intervals drawn as a centre and a width."""
    return st.tuples(centres, widths).map(
        lambda cw: Interval(cw[0] - cw[1] / 2, cw[0] + cw[1] / 2))


WIDTHS = st.floats(1e-6, 0.05)
CFG = SimConfig(duration=3.0, dt=0.02, max_dt=0.1, tol=1e-6)


@seed(14)
@settings(max_examples=5, deadline=None)
@given(st.floats(0.5, 3.0), boxes(st.floats(-2, 2), WIDTHS),
       boxes(st.floats(-2, 2), WIDTHS))
def test_rotation_holds_every_corner_and_the_centre(w, bx, by):
    box = {"x": bx, "y": by}
    pipe = simulate(rotation(w, box), CFG)
    trajs = [Rotation(w, *p) for p in start_points(box, ("x", "y"))]
    assert escapes(pipe, trajs) == []


@seed(14)
@settings(max_examples=5, deadline=None)
@given(boxes(st.floats(0.2, 3.0), WIDTHS))
def test_decay_holds_every_corner_and_the_centre(bx):
    box = {"x": bx}
    pipe = simulate(decay(box), CFG)
    assert escapes(pipe, [Decay(*p) for p in start_points(box, ("x",))]) == []


def test_a_trajectory_the_flowpipe_misses_escapes():
    # the check is live: a rotation 1% faster than the flow leaves the
    # flowpipe of a narrow box, and so does a decay from just above it
    box = {"x": Interval(1.0, 1.001), "y": Interval(0.0, 0.001)}
    pipe = simulate(rotation(1.0, box), CFG)
    assert escapes(pipe, [Rotation(1.01, 1.0005, 0.0005)])
    box = {"x": Interval(1.0, 1.001)}
    pipe = simulate(decay(box), CFG)
    assert escapes(pipe, [Decay(1.002)])
