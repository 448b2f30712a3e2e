"""Event-solver building blocks: status classification, bisection
enclosures of crossing times, hull-only resolution (the graze cases),
simultaneity policy and immediate chains."""

import math

import pytest

from hyflow import affine as af
from hyflow import benchmarks
from hyflow import events as ev
from hyflow import expr as ex
from hyflow import integrator as gi
from hyflow import interpolator as gp
from hyflow.affine import AffineForm, NoiseAllocator, Rel
from hyflow.engine import SimConfig, simulate
from hyflow.errors import InvariantViolation, ZenoError
from hyflow.events import EdgeStatus
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
        0: EdgeStatus.SURE}
    maybe_end = boxes(alloc, y=(-0.5, 0.5), v=(-5, -5))
    assert ev.classify(ha, "fall", start, maybe_end, hull, alloc) == {
        0: EdgeStatus.MAYBE}
    ho_end = boxes(alloc, y=(0.5, 1.0), v=(-5, -5))
    ho_hull = boxes(alloc, y=(-0.2, 2.0), v=(-5, -5))
    assert ev.classify(ha, "fall", start, ho_end, ho_hull, alloc) == {
        0: EdgeStatus.HULL_ONLY}
    inactive_hull = boxes(alloc, y=(0.4, 2.0), v=(-5, -5))
    assert ev.classify(ha, "fall", start, ho_end, inactive_hull, alloc) == {
        0: EdgeStatus.INACTIVE}
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
    g = gp.gpoly_for_step(ctx, env0, out.x_next, out.h_used, out.hull, alloc)
    return g, alloc, out.h_used, t_lo


def test_tight_interval_ball_bounce():
    g, alloc, span, t_lo = ball_gpoly()
    guard = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    t_zc = ev.tight_interval(g, guard, Interval(0.0, span), 1e-6, alloc)
    t_star = math.sqrt(20.0 / 9.81) - t_lo  # local coordinates
    assert t_zc.lo <= t_star <= t_zc.hi
    assert t_zc.width <= 2.5e-6


def linear_root_gpoly():
    # x' = 1 from x = -1: guard x > 0 crosses at local time 1
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    env0 = {"x": AffineForm(-1.0)}
    cfg = SimConfig(duration=1.0, tol=1.0, max_dt=2.0)
    out = gi.guaranteed_step(ctx, env0, 2.0, cfg, alloc)
    g = gp.gpoly_for_step(ctx, env0, out.x_next, out.h_used, out.hull, alloc)
    return g, alloc, out.h_used


def test_tight_interval_linear_root():
    g, alloc, span = linear_root_gpoly()
    guard = ex.comparison(ex.var("x"), Rel.GT, ex.ZERO)
    t_zc = ev.tight_interval(g, guard, Interval(0.0, span), 1e-9, alloc)
    assert t_zc.lo <= 1.0 <= t_zc.hi
    assert t_zc.width <= 1e-6


def test_cross_applies_reset():
    g, alloc, span, t_lo = ball_gpoly()
    ha = ball_automaton()
    edge = ex.prepare_automaton(ha)[0].edges[0]
    guard = edge.guard
    t_zc = ev.tight_interval(g, guard, Interval(0.0, span), 1e-6, alloc)
    res = ev.cross(edge, 0, g, t_zc, alloc)
    vy = af.to_interval(res.post_env["y"])
    vv = af.to_interval(res.post_env["v"])
    assert vy.lo == vy.hi == 0.0  # pinned by the strictness transform
    v_star = -9.81 * math.sqrt(20.0 / 9.81)
    assert vv.contains(-0.8 * v_star)
    assert af.to_interval(res.state_zc["v"]).contains(v_star)


def test_resolve_hull_only_refutes_spurious():
    # trajectory stays well above the floor; a fat hull alone must not branch
    g, alloc, span, _ = ball_gpoly(t_lo=0.0, span=0.2)
    guard = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    verdict, window = ev.resolve_hull_only(g, guard, Interval(0.0, span),
                                           1e-6, alloc)
    assert verdict == "none" and window is None


def graze_gpoly():
    # parabola dipping to exactly zero inside the span: y'' = 2, y(0)=eps
    ctx = FlowContext(("y", "v"), {"y": ex.var("v"), "v": ex.const(2.0)},
                      ODE23)
    alloc = NoiseAllocator()
    env0 = {"y": AffineForm(1e-6), "v": AffineForm(-2e-3)}
    out = gi.guaranteed_step(ctx, env0, 2e-3, LOOSE, alloc)
    g = gp.gpoly_for_step(ctx, env0, out.x_next, out.h_used, out.hull, alloc)
    return g, alloc, out.h_used


def test_resolve_hull_only_detects_graze():
    g, alloc, span = graze_gpoly()
    guard = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    verdict, window = ev.resolve_hull_only(g, guard, Interval(0.0, span),
                                           1e-7, alloc)
    assert verdict == "branch"
    assert window.lo >= 0.0 and window.hi <= span


def test_separation_action(monkeypatch):
    monkeypatch.setattr(ev, "MIN_SEPARATION", 1e-3)
    assert ev.separation_action([1], 0.1) == ("pass", 0.1)
    assert ev.separation_action([1, 2], 0.1) == ("retry", 0.05)
    act, payload = ev.separation_action([1, 2], 1e-3)
    assert act == "branch" and payload == [1, 2]


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
    monkeypatch.setattr(ev, "MIN_SEPARATION", 1e-3)
    pipe = simulate(ha, SimConfig(duration=1.05, dt=0.05, max_dt=0.5))
    locs = {b.segments[-1].location for b in pipe.branches if b.complete}
    assert {"l2", "l3"} <= locs
    assert len(pipe.branches) >= 2


def test_chain_immediate_relay():
    # jumping into l2 whose outgoing guard is already true chains to l3
    x = ex.var("x")
    alloc = NoiseAllocator()
    e2 = Edge("l2", "l3", ex.comparison(x, Rel.GT, ex.ZERO), Reset(), "relay")
    ha = HybridAutomaton(
        ("x",), {"l2": {"x": ex.ONE}, "l3": {"x": ex.ONE}}, [e2], "l2",
        {"x": Interval(2, 2)})
    out = ev.chain_immediate(ha, "l2", {"x": AffineForm(2.0)}, None, alloc)
    assert out.branch_options is None
    assert out.location == "l3"


def test_chain_immediate_quiescent_identity():
    ha = ball_automaton()
    alloc = NoiseAllocator()
    env = boxes(alloc, y=(5, 5), v=(0, 0))
    out = ev.chain_immediate(ha, "fall", env, None, alloc)
    assert out.location == "fall" and out.branch_options is None
    assert not out.disarmed


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
    flow = ha.flows["fall"]
    hull_up = boxes(alloc, y=(0.0, 1.0), v=(2.0, 12.0))
    assert ev.edge_cannot_fire(edge, flow, hull_up, alloc)
    hull_down = boxes(alloc, y=(0.0, 1.0), v=(-12.0, -2.0))
    assert not ev.edge_cannot_fire(edge, flow, hull_down, alloc)


def plain_boundary(gpoly, guard, a, b, precision, alloc, max_evals, discard,
                   from_left):
    """Reference pass: the unshared bisection loop, every span evaluated
    afresh on every variable."""
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
        return "none", None
    upper = plain_boundary(g, guard, lower, span.hi, precision, alloc,
                           max_evals, Trivalent.FALSE, False)
    upper = span.hi if upper is None else upper
    return "branch", Interval(lower, max(lower, upper))


@pytest.mark.parametrize("max_evals", [600, 7])
def test_shared_bisection_matches_plain_two_pass(max_evals):
    below = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    g, alloc, span, _ = ball_gpoly()
    for precision in (1e-6, 1e-3):
        args = (g, below, Interval(0.0, span), precision, alloc, max_evals)
        assert ev.tight_interval(*args) == plain_tight_interval(*args)
    g, alloc, span = linear_root_gpoly()
    args = (g, ex.comparison(ex.var("x"), Rel.GT, ex.ZERO),
            Interval(0.0, span), 1e-9, alloc, max_evals)
    assert ev.tight_interval(*args) == plain_tight_interval(*args)
    hull_only_cases = [(*graze_gpoly(), 1e-7),
                       (*ball_gpoly(t_lo=0.0, span=0.2)[:3], 1e-6)]
    for g, alloc, span, precision in hull_only_cases:
        args = (g, below, Interval(0.0, span), precision, alloc, max_evals)
        assert ev.resolve_hull_only(*args) == plain_resolve_hull_only(*args)


def test_thermostat_narrows_in_few_interpolant_evaluations(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return gp.eval_gpoly(*args, **kwargs)

    monkeypatch.setattr(ev, "eval_gpoly", counted)
    ha, cfg = benchmarks.load(benchmarks.REGISTRY["thermostat"])
    pipe = simulate(ha, cfg)
    assert pipe.complete and pipe.stats["crossings"] > 0
    assert len(calls) <= 60 * pipe.stats["crossings"]


def test_bouncing_ball_first_window_holds_registry_reference():
    entry = benchmarks.REGISTRY["bouncing_ball"]
    assert entry.reference["first_bounce"] == "sqrt(20/9.81)"
    ha, cfg = benchmarks.load(entry, duration=2.0)
    pipe = simulate(ha, cfg)
    assert pipe.complete
    t_zc, _label = pipe.branches[0].crossings[0]
    assert t_zc.lo <= math.sqrt(20.0 / 9.81) <= t_zc.hi
