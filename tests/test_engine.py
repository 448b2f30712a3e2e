"""End-to-end engine runs: analytic containment on closed-form systems,
guaranteed bounce times on the bouncing ball, Monte-Carlo validation, and
determinism."""

import math

import pytest

from hyflow import benchmarks, engine
from hyflow import expr as ex
from hyflow.affine import Rel
from hyflow.engine import Flowpipe, SimConfig, simulate, validate_monte_carlo
from hyflow.errors import ModelError
from hyflow.expr import HybridAutomaton, Reset
from hyflow.interval import Interval


def decay_automaton(lo=0.9, hi=1.1):
    x = ex.var("x")
    return HybridAutomaton(("x",), {"on": {"x": ex.neg(x)}}, [], "on",
                           {"x": Interval(lo, hi)})


def bouncing_ball(y0=10.0, y1=None, c=0.8, g=9.81):
    y, v = ex.var("y"), ex.var("v")
    edge = ex.Edge("fall", "fall", ex.comparison(y, Rel.LE, ex.ZERO),
                   Reset((("v", ex.mul(ex.const(-c), v)),), ("Bounce!",)),
                   "bounce")
    return HybridAutomaton(
        ("y", "v"),
        {"fall": {"y": v, "v": ex.const(-g)}},
        [edge],
        "fall",
        {"y": Interval(y0, y1 if y1 is not None else y0), "v": Interval(0, 0)},
    )


def segments(pipe):
    assert len(pipe.branches) == 1
    return pipe.branches[0].segments


def test_decay_flowpipe_containment_and_contraction():
    ha = decay_automaton()
    cfg = SimConfig(duration=5.0, dt=0.05, max_dt=0.25, tol=1e-6)
    pipe = simulate(ha, cfg)
    assert pipe.complete and len(pipe.branches) == 1
    segs = segments(pipe)
    assert segs, "no segments produced"
    for x0 in (0.9, 1.0, 1.05, 1.1):
        for seg in segs:
            for t in (seg.t.lo, seg.t.mid, seg.t.hi):
                assert seg.tight["x"].contains(x0 * math.exp(-t)), (t, x0)
            lo, hi = seg.t.lo, seg.t_end.hi
            for k in range(5):
                t = lo + (hi - lo) * k / 4
                assert seg.hull["x"].contains(x0 * math.exp(-t))
    # contraction beats the method's inflation at this tolerance
    final = segs[-1].tight["x"]
    assert final.width <= 0.2
    assert segs[-1].t.lo > 5.0


def test_constant_slope_flowpipe():
    x = ex.var("x")
    ha = HybridAutomaton(("x",), {"l": {"x": ex.ONE}}, [], "l",
                         {"x": Interval(0, 0)})
    pipe = simulate(ha, SimConfig(duration=2.0, dt=0.1, max_dt=0.5))
    for seg in segments(pipe):
        for t in (seg.t.lo, seg.t.hi):
            if t <= 2.0:
                assert seg.tight["x"].contains(t)


def test_harmonic_oscillator_containment():
    x, v = ex.var("x"), ex.var("v")
    ha = HybridAutomaton(("x", "v"), {"l": {"x": v, "v": ex.neg(x)}}, [], "l",
                         {"x": Interval(1.0, 1.0), "v": Interval(0.0, 0.0)})
    pipe = simulate(ha, SimConfig(duration=10.0, dt=0.05, max_dt=0.1, tol=1e-8))
    assert pipe.complete
    for seg in segments(pipe):
        for t in (seg.t.lo, seg.t.mid, seg.t.hi):
            if t > 10.0:
                continue
            assert seg.tight["x"].contains(math.cos(t)), t
            assert seg.tight["v"].contains(-math.sin(t)), t


def test_bouncing_ball_first_bounce_time():
    ha = bouncing_ball()
    cfg = SimConfig(duration=3.0, dt=0.02, max_dt=0.1, tol=1e-7, zc_precision=1e-6)
    pipe = simulate(ha, cfg)
    assert pipe.complete and len(pipe.branches) == 1
    crossings = pipe.branches[0].crossings
    assert crossings, "no bounce detected"
    t_star = math.sqrt(20.0 / 9.81)
    t_zc, label = crossings[0]
    assert label == "bounce"
    assert t_zc.lo <= t_star <= t_zc.hi
    assert t_zc.width <= 2.0 * cfg.zc_precision + 1e-9


def test_bouncing_ball_five_bounces_match_reference():
    ha = bouncing_ball()
    cfg = SimConfig(duration=8.5, dt=0.02, max_dt=0.1, tol=1e-7)
    pipe = simulate(ha, cfg)
    assert pipe.complete
    crossings = pipe.branches[0].crossings
    assert len(crossings) >= 5
    # analytic bounce times for restitution 0.8 from rest at y0=10
    g, c = 9.81, 0.8
    t1 = math.sqrt(20.0 / g)
    v = g * t1
    times = [t1]
    for _ in range(4):
        v *= c
        times.append(times[-1] + 2.0 * v / g)
    for expected, (t_zc, _) in zip(times, crossings):
        assert t_zc.lo - 1e-7 <= expected <= t_zc.hi + 1e-7, (expected, t_zc)


def test_bouncing_ball_monte_carlo():
    ha = bouncing_ball(y0=10.0, y1=10.01)
    cfg = SimConfig(duration=3.0, dt=0.02, max_dt=0.1, tol=1e-7)
    pipe = simulate(ha, cfg)
    report = validate_monte_carlo(ha, pipe, samples=40, seed=11)
    assert report["skipped"] == 0
    assert report["rate"] == 1.0, report["violations"][:3]


def test_monte_carlo_detects_shrunken_flowpipe():
    ha = decay_automaton()
    pipe = simulate(ha, SimConfig(duration=2.0, dt=0.05, max_dt=0.25))
    # sabotage: shrink every tight box to its midpoint neighborhood
    for seg in segments(pipe):
        for v, box in seg.tight.items():
            m = box.mid
            seg.tight[v] = Interval(m - 1e-12, m + 1e-12)
    report = validate_monte_carlo(ha, pipe, samples=30, seed=3)
    assert report["rate"] < 1.0


def test_monte_carlo_zero_samples():
    ha = decay_automaton()
    pipe = simulate(ha, SimConfig(duration=1.0, dt=0.05))
    report = validate_monte_carlo(ha, pipe, samples=0, seed=0)
    assert report["samples"] == 0 and report["violations"] == []


def test_initial_guard_not_false_rejected():
    y, v = ex.var("y"), ex.var("v")
    edge = ex.Edge("l", "l", ex.comparison(y, Rel.LE, ex.ZERO),
                   Reset((("v", ex.neg(v)),)), "e")
    ha = HybridAutomaton(("y", "v"), {"l": {"y": v, "v": ex.const(-1.0)}},
                         [edge], "l",
                         {"y": Interval(-1.0, 1.0), "v": Interval(0, 0)})
    with pytest.raises(ModelError):
        simulate(ha, SimConfig(duration=1.0))


def test_determinism_bitwise():
    ha = bouncing_ball(y0=10.0, y1=10.01)
    cfg = SimConfig(duration=3.0, dt=0.02, max_dt=0.1, tol=1e-7)
    p1 = simulate(ha, cfg)
    p2 = simulate(ha, cfg)
    s1 = [(s.t, s.t_end, s.tight["y"], s.hull["v"]) for s in p1.branches[0].segments]
    s2 = [(s.t, s.t_end, s.tight["y"], s.hull["v"]) for s in p2.branches[0].segments]
    assert s1 == s2


def test_width_discipline_on_contractive_system():
    ha = decay_automaton()
    pipe = simulate(ha, SimConfig(duration=5.0, dt=0.05, max_dt=0.25, tol=1e-6))
    segs = segments(pipe)
    assert segs[-1].tight["x"].width <= segs[0].tight["x"].width


def test_crossing_extension_steps_start_condensed(monkeypatch):
    # watertank's first crossing extends its step across the guard; every
    # step, extensions included, must start within the condense budget
    sizes = []
    step = engine.guaranteed_step

    def recording(ctx, env, *args, **kwargs):
        sizes.append(max(len(f.dev) for f in env.values()))
        return step(ctx, env, *args, **kwargs)

    monkeypatch.setattr(engine, "guaranteed_step", recording)
    ha, cfg = benchmarks.load(benchmarks.REGISTRY["watertank"], duration=3.0)
    pipe = simulate(ha, cfg)
    assert pipe.complete and pipe.stats["crossings"] >= 1
    assert max(sizes) <= engine.CONDENSE_BUDGET
