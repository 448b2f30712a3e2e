"""Event-solver building blocks: status classification, rate-bounded
enclosures of crossing times, hull-only resolution (the graze cases),
simultaneity policy and immediate chains."""

import math

import pytest

from hyflow import affine as af
from hyflow import benchmarks, engine
from hyflow import events as ev
from hyflow import expr as ex
from hyflow import integrator as gi
from hyflow import interpolator as gp
from hyflow.affine import AffineForm, NoiseAllocator, Rel
from hyflow.engine import SimConfig, simulate
from hyflow.errors import InvariantViolation, ZenoError
from hyflow.expr import Edge, HybridAutomaton, Reset
from hyflow.integrator import ODE23, FlowContext
from hyflow.interval import Interval
from hyflow.trivalent import Trivalent

LOOSE = SimConfig(duration=1.0, tol=1.0, max_dt=1.0)  # keep the requested h


def boxes(alloc, **kw):
    return {k: af.from_interval(Interval(*v), alloc) for k, v in kw.items()}


def ball_automaton():
    y, v = ex.var("y"), ex.var("v")
    edge = Edge("fall", "fall", ex.comparison(y, Rel.LT, ex.ZERO),
                Reset((("y", ex.ZERO), ("v", ex.mul(ex.const(-0.8), v)))),
                "bounce", boundary_reset=True)
    return HybridAutomaton(
        ("y", "v"), {"fall": {"y": v, "v": ex.const(-9.81)}}, [edge], "fall",
        {"y": Interval(10, 10), "v": Interval(0, 0)})


def test_classify_patterns():
    ha = ball_automaton()
    alloc = NoiseAllocator()
    start = boxes(alloc, y=(1.0, 2.0), v=(-5, -5))
    sure_end = boxes(alloc, y=(-1.0, -0.5), v=(-5, -5))
    hull = boxes(alloc, y=(-1.0, 2.0), v=(-5, -5))
    assert ev.classify(ha, "fall", start, sure_end, hull, alloc) == {
        0: Trivalent.TRUE}
    maybe_end = boxes(alloc, y=(-0.5, 0.5), v=(-5, -5))
    assert ev.classify(ha, "fall", start, maybe_end, hull, alloc) == {
        0: Trivalent.UNKNOWN}
    ho_end = boxes(alloc, y=(0.5, 1.0), v=(-5, -5))
    ho_hull = boxes(alloc, y=(-0.2, 2.0), v=(-5, -5))
    assert ev.classify(ha, "fall", start, ho_end, ho_hull, alloc) == {
        0: Trivalent.FALSE}
    inactive_hull = boxes(alloc, y=(0.4, 2.0), v=(-5, -5))
    assert ev.classify(ha, "fall", start, ho_end, inactive_hull, alloc) == {}
    assert ev.classify(ha, "fall", start, ho_end, ho_hull, alloc,
                       skip={0}) == {}


def test_classify_invariant_violation():
    ha = ball_automaton()
    alloc = NoiseAllocator()
    bad_start = boxes(alloc, y=(-0.5, 0.5), v=(-5, -5))
    end = boxes(alloc, y=(-1, -0.6), v=(-5, -5))
    hull = boxes(alloc, y=(-1, 0.5), v=(-5, -5))
    with pytest.raises(InvariantViolation):
        ev.classify(ha, "fall", bad_start, end, hull, alloc)


def ball_gpoly(y0=10.0, t_lo=1.3, span=0.3):
    """Guaranteed interpolant on the ballistic segment around the bounce."""
    y, v = ex.var("y"), ex.var("v")
    ctx = FlowContext(("y", "v"), {"y": v, "v": ex.const(-9.81)}, ODE23)
    alloc = NoiseAllocator()

    def at(t):
        return {"y": AffineForm(y0 - 4.905 * t * t),
                "v": AffineForm(-9.81 * t)}

    env0 = at(t_lo)
    out = gi.guaranteed_step(ctx, env0, span, LOOSE, alloc)
    g = gp.build_gpoly(ctx, env0, out.f0, out.x_next, out.h_used, out.hull,
                       alloc)
    return g, alloc, out.h_used, t_lo


def test_tight_interval_ball_bounce():
    g, alloc, span, t_lo = ball_gpoly()
    guard = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    t_zc = ev.tight_interval(g, guard, Interval(0.0, span), alloc)
    t_star = math.sqrt(20.0 / 9.81) - t_lo  # local coordinates
    assert t_zc.lo <= t_star <= t_zc.hi
    assert t_zc.width <= 2.5e-6


def step_gpoly(flow, start, span):
    """The interpolant of one guaranteed step of `span` along `flow` from
    the point `start` (var -> float)."""
    ctx = FlowContext(tuple(flow), flow, ODE23)
    alloc = NoiseAllocator()
    env0 = {v: AffineForm(x) for v, x in start.items()}
    cfg = SimConfig(duration=1.0, tol=1.0, max_dt=span)
    out = gi.guaranteed_step(ctx, env0, span, cfg, alloc)
    g = gp.build_gpoly(ctx, env0, out.f0, out.x_next, out.h_used, out.hull,
                       alloc)
    return g, alloc, out.h_used


def linear_root_gpoly():
    # x' = 1 from x = -1: guard x > 0 crosses at local time 1
    return step_gpoly({"x": ex.ONE}, {"x": -1.0}, 2.0)


def test_tight_interval_linear_root():
    g, alloc, span = linear_root_gpoly()
    guard = ex.comparison(ex.var("x"), Rel.GT, ex.ZERO)
    t_zc = ev.tight_interval(g, guard, Interval(0.0, span), alloc)
    assert t_zc.lo <= 1.0 <= t_zc.hi
    assert t_zc.width <= 1e-6


def test_cross_applies_reset():
    g, alloc, span, t_lo = ball_gpoly()
    ha = ball_automaton()
    edge = ex.prepare_automaton(ha)[0].edges[0]
    guard = edge.guard
    t_zc = ev.tight_interval(g, guard, Interval(0.0, span), alloc)
    post = ev.cross(edge, g, t_zc, alloc)
    vy = af.to_interval(post["y"])
    vv = af.to_interval(post["v"])
    assert vy.lo == vy.hi == 0.0  # pinned by the strictness transform
    v_star = -9.81 * math.sqrt(20.0 / 9.81)
    assert vv.contains(-0.8 * v_star)
    pre = gp.eval_gpoly(g, t_zc, alloc)
    assert af.to_interval(pre["v"]).contains(v_star)


def test_resolve_hull_only_refutes_spurious():
    # trajectory stays well above the floor; a fat hull alone must not branch
    g, alloc, span, _ = ball_gpoly(t_lo=0.0, span=0.2)
    guard = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    assert ev.resolve_hull_only(g, guard, Interval(0.0, span), alloc) is None


def graze_gpoly():
    # parabola dipping to exactly zero inside the span: y'' = 2, y(0)=eps
    ctx = FlowContext(("y", "v"), {"y": ex.var("v"), "v": ex.const(2.0)},
                      ODE23)
    alloc = NoiseAllocator()
    env0 = {"y": AffineForm(1e-6), "v": AffineForm(-2e-3)}
    out = gi.guaranteed_step(ctx, env0, 2e-3, LOOSE, alloc)
    g = gp.build_gpoly(ctx, env0, out.f0, out.x_next, out.h_used, out.hull,
                       alloc)
    return g, alloc, out.h_used


def test_resolve_hull_only_detects_graze():
    g, alloc, span = graze_gpoly()
    guard = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    window = ev.resolve_hull_only(g, guard, Interval(0.0, span), alloc)
    assert window is not None
    assert window.lo >= 0.0 and window.hi <= span


def two_clock_automaton():
    x = ex.var("x")
    e1 = Edge("l", "l2", ex.comparison(x, Rel.GT, ex.ONE), Reset(), "g1")
    e2 = Edge("l", "l3", ex.comparison(x, Rel.GT, ex.const(1.1)), Reset(), "g2")
    return HybridAutomaton(
        ("x",), {"l": {"x": ex.ONE}, "l2": {"x": ex.ONE}, "l3": {"x": ex.ONE}},
        [e1, e2], "l", {"x": Interval(0, 0)})


def test_two_clock_separation_end_to_end():
    ha = two_clock_automaton()
    pipe = simulate(ha, SimConfig(duration=1.05, dt=0.05, max_dt=0.5, tol=1e-6))
    # the earlier guard fires alone; exactly one branch, ending in l2
    assert pipe.complete
    assert len(pipe.branches) == 1
    assert pipe.branches[0].segments[-1].location == "l2"
    t_zc, label = pipe.branches[0].crossings[0]
    assert label == "g1" and t_zc.lo <= 1.0 <= t_zc.hi


def test_exactly_simultaneous_guards_branch(monkeypatch):
    x = ex.var("x")
    e1 = Edge("l", "l2", ex.comparison(x, Rel.GT, ex.ONE), Reset(), "g1")
    e2 = Edge("l", "l3", ex.comparison(x, Rel.GT, ex.ONE), Reset(), "g2")
    ha = HybridAutomaton(
        ("x",), {"l": {"x": ex.ONE}, "l2": {"x": ex.ONE}, "l3": {"x": ex.ONE}},
        [e1, e2], "l", {"x": Interval(0, 0)})
    monkeypatch.setattr(engine, "MIN_SEPARATION", 1e-3)
    starts = []
    step = engine.guaranteed_step

    def recording(ctx, env, h, *args, **kwargs):
        box = tuple((v, af.to_interval(f).lo, af.to_interval(f).hi)
                    for v, f in sorted(env.items()))
        starts.append((ctx, box, h))
        return step(ctx, env, h, *args, **kwargs)

    monkeypatch.setattr(engine, "guaranteed_step", recording)
    pipe = simulate(ha, SimConfig(duration=1.05, dt=0.05, max_dt=0.5))
    locs = {b.segments[-1].location for b in pipe.branches if b.complete}
    assert {"l2", "l3"} <= locs
    assert len(pipe.branches) >= 2
    # both edges cross in the step that found them simultaneous: no step
    # is taken twice from the same state with the same size
    assert pipe.stats["steps"] == len(starts) == len(set(starts))
    # that step was halved down to the minimal separation first
    assert any(1e-3 <= h < 2e-3 for *_, h in starts)


def test_chain_immediate_relay():
    # jumping into l2 whose outgoing guard is already true chains to l3
    x = ex.var("x")
    alloc = NoiseAllocator()
    e2 = Edge("l2", "l3", ex.comparison(x, Rel.GT, ex.ZERO), Reset(), "relay")
    ha = HybridAutomaton(
        ("x",), {"l2": {"x": ex.ONE}, "l3": {"x": ex.ONE}}, [e2], "l2",
        {"x": Interval(2, 2)})
    [(location, _env, _prints, _disarmed)] = ev.chain_immediate(
        ha, "l2", {"x": AffineForm(2.0)}, None, alloc)
    assert location == "l3"


def test_chain_immediate_quiescent_identity():
    ha = ball_automaton()
    alloc = NoiseAllocator()
    env = boxes(alloc, y=(5, 5), v=(0, 0))
    [(location, _env, _prints, disarmed)] = ev.chain_immediate(
        ha, "fall", env, None, alloc)
    assert location == "fall"
    assert not disarmed


def test_chain_zeno_detector(monkeypatch):
    # self-loop whose reset re-enters the guard: x > 0 with x := 1
    x = ex.var("x")
    edge = Edge("l", "l", ex.comparison(x, Rel.GT, ex.ZERO),
                Reset((("x", ex.ONE),)), "loop")
    ha = HybridAutomaton(("x",), {"l": {"x": ex.ONE}}, [edge], "l",
                         {"x": Interval(2, 2)})
    alloc = NoiseAllocator()
    monkeypatch.setattr(ev, "MAX_CHAIN", 8)
    with pytest.raises(ZenoError):
        ev.chain_immediate(ha, "l", {"x": AffineForm(2.0)}, None, alloc)


def test_edge_cannot_fire_certificate():
    # ascending ball: guard y < 0 cannot fire while v > 0 over the hull
    ha = ball_automaton()
    edge = ex.prepare_automaton(ha)[0].edges[0]
    alloc = NoiseAllocator()
    ctx = FlowContext(ha.variables, ha.flows["fall"], ODE23)
    hull_up = boxes(alloc, y=(0.0, 1.0), v=(2.0, 12.0))
    assert ev.edge_cannot_fire(edge, ctx, hull_up, alloc)
    hull_down = boxes(alloc, y=(0.0, 1.0), v=(-12.0, -2.0))
    assert not ev.edge_cannot_fire(edge, ctx, hull_down, alloc)


def test_edge_cannot_fire_refuses_a_guard_that_jumps():
    # sgn(x) > 0.5 has the Lie derivative 0 along x' = 1, yet x runs from
    # -1 to 1 over the hull and the guard turns true at x = 0
    x = ex.var("x")
    guard = ex.comparison(ex.sgn(x), Rel.GT, ex.const(0.5))
    edge = Edge("l", "l", guard, Reset())
    alloc = NoiseAllocator()
    hull = boxes(alloc, x=(-1.0, 1.0))
    assert ex.eval_guard(guard, hull, alloc) is Trivalent.UNKNOWN
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    assert not ev.edge_cannot_fire(edge, ctx, hull, alloc)


def plain_boundary(gpoly, guard, a, b, precision, alloc, max_evals, discard,
                   from_left):
    """Reference pass: ordered bisection of [a, b], every span evaluated
    afresh on every variable; the first point, scanning from the left
    (else from the right), of a span whose verdict is not `discard`."""
    work = [(a, b)]
    evals = 0
    while work:
        a, b = work.pop(0) if from_left else work.pop()
        env = gp.eval_gpoly(gpoly, Interval(a, b), alloc)
        tri = ex.eval_guard(guard, env, alloc)
        evals += 1
        if tri is discard:
            continue
        if (tri is not Trivalent.UNKNOWN or (b - a) <= precision
                or evals >= max_evals):
            return a if from_left else b
        m = 0.5 * (a + b)
        if from_left:
            work[0:0] = [(a, m), (m, b)]
        else:
            work += [(a, m), (m, b)]
    return None


def plain_tight_interval(g, guard, span, precision, alloc, max_evals):
    lower = plain_boundary(g, guard, span.lo, span.hi, precision, alloc,
                           max_evals, Trivalent.FALSE, True)
    upper = plain_boundary(g, guard, span.lo, span.hi, precision, alloc,
                           max_evals, Trivalent.TRUE, False)
    lower = span.hi if lower is None else lower
    upper = span.lo if upper is None else upper
    return Interval(min(lower, upper), max(lower, upper))


def plain_resolve_hull_only(g, guard, span, precision, alloc, max_evals):
    lower = plain_boundary(g, guard, span.lo, span.hi, precision, alloc,
                           max_evals, Trivalent.FALSE, True)
    if lower is None:
        return None
    upper = plain_boundary(g, guard, lower, span.hi, precision, alloc,
                           max_evals, Trivalent.FALSE, False)
    upper = span.hi if upper is None else upper
    return Interval(lower, max(lower, upper))


def clock_gpoly():
    # x' = 1 from x = -1 and z' = 2 from z = -1/2: x > 0 from local time 1,
    # z > 0 from 1/4, z < 1 until 3/4 and z > 3 from 7/4
    return step_gpoly({"x": ex.ONE, "z": ex.const(2.0)},
                      {"x": -1.0, "z": -0.5}, 2.0)


def encloses(window, plain, t_star):
    """`window` lies inside the `plain` two-pass window and holds t_star."""
    return plain.lo <= window.lo <= t_star <= window.hi <= plain.hi


@pytest.mark.parametrize("max_evals", [600, 7])
def test_shared_bisection_matches_plain_two_pass(max_evals):
    """The one narrowing that serves both passes gives a window inside the
    plain two-pass bisection window, whatever the bisection's evaluation
    budget, and the window holds the exact crossing (or graze) time."""
    below = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    g, alloc, span, t_lo = ball_gpoly()
    args = (g, below, Interval(0.0, span), 1e-6, alloc, max_evals)
    window = ev.tight_interval(g, below, Interval(0.0, span), alloc)
    assert encloses(window, plain_tight_interval(*args),
                    math.sqrt(20.0 / 9.81) - t_lo)
    g, alloc, span = linear_root_gpoly()
    above = ex.comparison(ex.var("x"), Rel.GT, ex.ZERO)
    args = (g, above, Interval(0.0, span), 1e-6, alloc, max_evals)
    window = ev.tight_interval(g, above, Interval(0.0, span), alloc)
    assert encloses(window, plain_tight_interval(*args), 1.0)
    # the graze touches y = 0 at local time 1e-3 and never crosses it
    g, alloc, span = graze_gpoly()
    args = (g, below, Interval(0.0, span), 1e-6, alloc, max_evals)
    window = ev.resolve_hull_only(g, below, Interval(0.0, span), alloc)
    assert encloses(window, plain_resolve_hull_only(*args), 1e-3)
    g, alloc, span, _ = ball_gpoly(t_lo=0.0, span=0.2)
    args = (g, below, Interval(0.0, span), 1e-6, alloc, max_evals)
    assert plain_resolve_hull_only(*args) is None
    assert ev.resolve_hull_only(g, below, Interval(0.0, span), alloc) is None


def clock_guard(kind, *items):
    return ex.BoolOp(kind, tuple(ex.comparison(ex.var(v), rel, ex.const(c))
                                 for v, rel, c in items))


@pytest.mark.parametrize("kind, t_star", [("and", 1.0), ("or", 0.25)])
def test_tight_interval_narrows_compound_guards(kind, t_star):
    g, alloc, span = clock_gpoly()
    guard = clock_guard(kind, ("x", Rel.GT, 0.0), ("z", Rel.GT, 0.0))
    window = ev.tight_interval(g, guard, Interval(0.0, span), alloc)
    plain = plain_tight_interval(g, guard, Interval(0.0, span), 1e-6, alloc,
                                 600)
    assert encloses(window, plain, t_star)
    assert window.width <= 1e-12


def test_resolve_hull_only_narrows_compound_guards():
    g, alloc, span = clock_gpoly()
    # x > 0 only after z < 1 has ended: each item refutes a part of the
    # span, and together they refute all of it
    never = clock_guard("and", ("x", Rel.GT, 0.0), ("z", Rel.LT, 1.0))
    assert plain_resolve_hull_only(g, never, Interval(0.0, span), 1e-6,
                                   alloc, 600) is None
    assert ev.resolve_hull_only(g, never, Interval(0.0, span), alloc) is None
    # true from x > 0 on, which comes before z > 3
    either = clock_guard("or", ("x", Rel.GT, 0.0), ("z", Rel.GT, 3.0))
    window = ev.resolve_hull_only(g, either, Interval(0.0, span), alloc)
    plain = plain_resolve_hull_only(g, either, Interval(0.0, span), 1e-6,
                                    alloc, 600)
    assert encloses(window, plain, 1.0)
    assert window.hi == span and window.lo >= 1.0 - 1e-12


def test_a_guard_with_a_kink_is_not_narrowed():
    # |x| > 1 along x = tau - 1/2: the margin 1 - |x| rises until the kink
    # at tau = 1/2 and falls after it, so its second derivative (zero on
    # either side) must not be used to refute the crossing at tau = 3/2
    g, alloc, h = step_gpoly({"x": ex.ONE}, {"x": -0.5}, 2.0)
    guard = ex.comparison(ex.abs_(ex.var("x")), Rel.GT, ex.ONE)
    span = Interval(0.0, h)
    window = ev.resolve_hull_only(g, guard, span, alloc)
    assert window is not None and window.contains(1.5)
    assert ev.tight_interval(g, guard, span, alloc).contains(1.5)


def test_a_rate_that_cannot_be_evaluated_leaves_the_window_sound():
    # sqrt(x) > 1/2 along x = tau: the guard's rate 1 / (2 sqrt(x)) has no
    # bound at the span start, so the narrowing stops instead of aborting
    g, alloc, h = step_gpoly({"x": ex.ONE}, {"x": 0.0}, 1.0)
    guard = ex.comparison(ex.sqrt(ex.var("x")), Rel.GT, ex.const(0.5))
    span = Interval(0.0, h)
    assert ev.tight_interval(g, guard, span, alloc).contains(0.25)


def test_thermostat_narrows_in_few_interpolant_evaluations(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return gp.eval_gpoly(*args, **kwargs)

    monkeypatch.setattr(ev, "eval_gpoly", counted)
    ha, cfg = benchmarks.load(benchmarks.REGISTRY["thermostat"])
    pipe = simulate(ha, cfg)
    assert pipe.complete and pipe.stats["crossings"] > 0
    assert len(calls) <= 20 * pipe.stats["crossings"]


def test_bouncing_ball_first_window_holds_registry_reference():
    entry = benchmarks.REGISTRY["bouncing_ball"]
    assert entry.reference["first_bounce"] == "sqrt(20/9.81)"
    ha, cfg = benchmarks.load(entry, duration=2.0)
    pipe = simulate(ha, cfg)
    assert pipe.complete
    t_zc, _label = pipe.branches[0].crossings[0]
    assert t_zc.lo <= math.sqrt(20.0 / 9.81) <= t_zc.hi
