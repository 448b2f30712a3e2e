"""End-to-end engine runs: analytic containment on closed-form systems,
guaranteed bounce times on the bouncing ball, Monte-Carlo validation, and
determinism."""

import math

import pytest

from hyflow import benchmarks, engine
from hyflow import dsl as D
from hyflow import expr as ex
from hyflow.affine import Rel
from hyflow.engine import SimConfig, simulate, validate_monte_carlo
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


@pytest.mark.parametrize("name", ["thermostat", "sinusoidal_ball"])
def test_a_run_compiles_each_affine_program_once(name, monkeypatch):
    # each location's guard kits hold their Lie-derivative DAGs, and so the
    # programs on them, for the whole run: no DAG is built and compiled
    # again (interned nodes get fresh ids, so roots are compared as text)
    compiled, program = [], ex._affine_program

    def counted(roots):
        compiled.append(tuple(map(ex.to_text, roots)))
        return program(roots)

    monkeypatch.setattr(ex, "_affine_program", counted)
    ha, cfg = benchmarks.load(benchmarks.REGISTRY[name])
    assert simulate(ha, cfg).complete
    assert compiled and len(compiled) == len(set(compiled))


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
    cfg = SimConfig(duration=3.0, dt=0.02, max_dt=0.1, tol=1e-7)
    pipe = simulate(ha, cfg)
    assert pipe.complete and len(pipe.branches) == 1
    crossings = pipe.branches[0].crossings
    assert crossings, "no bounce detected"
    t_star = math.sqrt(20.0 / 9.81)
    t_zc, label = crossings[0]
    assert label == "bounce"
    assert t_zc.lo <= t_star <= t_zc.hi
    assert t_zc.width <= 1e-9


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
        assert t_zc.lo - 1e-12 <= expected <= t_zc.hi + 1e-12, (expected, t_zc)


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
    # step, extensions included, starts from a reduced set: at most
    # CONDENSE_BUDGET shared symbols and one private symbol per variable
    sizes = []
    step = engine.guaranteed_step

    def recording(ctx, env, *args, **kwargs):
        sizes.append(max(len(f.dev) for f in env.values()))
        return step(ctx, env, *args, **kwargs)

    monkeypatch.setattr(engine, "guaranteed_step", recording)
    ha, cfg = benchmarks.load(benchmarks.REGISTRY["watertank"], duration=3.0)
    pipe = simulate(ha, cfg)
    assert pipe.complete and pipe.stats["crossings"] >= 1
    assert max(sizes) <= engine.CONDENSE_BUDGET + 1


def test_tasks_step_from_their_folded_set(monkeypatch):
    # a task's set is reduced jointly where it enters the engine: each
    # variable's private symbols fold into one, and at most CONDENSE_BUDGET
    # symbols stay shared
    starts = []
    step = engine.guaranteed_step

    def recording(ctx, env, *args, **kwargs):
        starts.append(env)
        return step(ctx, env, *args, **kwargs)

    monkeypatch.setattr(engine, "guaranteed_step", recording)
    ha, cfg = benchmarks.load(benchmarks.REGISTRY["vanderpol"], duration=2)
    pipe = simulate(ha, cfg)
    assert pipe.complete and pipe.stats["crossings"] == 0
    assert len(starts) == pipe.stats["steps"] > 50
    for env in starts:
        shared = env["x"].dev.keys() & env["y"].dev.keys()
        assert len(shared) <= engine.CONDENSE_BUDGET
        assert all(len(f.dev.keys() - shared) <= 1 for f in env.values())
    assert max(len(env["x"].dev.keys() & env["y"].dev.keys())
               for env in starts[50:]) == engine.CONDENSE_BUDGET


def test_extension_watches_the_edges_its_step_rearmed():
    # The ball falls from y = 0.5 with g = 1 and bounces at t = 1 and t = 3.
    # Its boundary q*q has width, so after the first bounce `bounce` is
    # disarmed, and the first step re-arms it. In that same step `reach`
    # (z = w + t - 1 >= 2.501, w in [0, 2.5]) becomes MAYBE, and its
    # crossing extends to t ~ 3.5, past the second bounce. The extension
    # must classify the re-armed `bounce` again, and meets it near t = 3.
    y, v, z, w, q = (ex.var(n) for n in "yvzwq")
    bounce = ex.Edge("fall", "fall", ex.comparison(y, Rel.LE, ex.mul(q, q)),
                     Reset((("v", ex.neg(v)), ("z", w)), ()), "bounce")
    reach = ex.Edge("fall", "rest", ex.comparison(z, Rel.GE, ex.const(2.501)),
                    Reset((), ()), "reach")
    still = {n: ex.ZERO for n in "yvzwq"}
    ha = HybridAutomaton(
        tuple("yvzwq"),
        {"fall": {**still, "y": v, "v": ex.const(-1.0), "z": ex.ONE},
         "rest": still},
        [reach, bounce], "fall",
        {"y": Interval(0.5, 0.5), "v": Interval(0, 0),
         "z": Interval(-100, -100), "w": Interval(0.0, 2.5),
         "q": Interval(0.0, 0.1)})
    pipe = simulate(ha, SimConfig(duration=5.0, dt=0.1, max_dt=0.5, tol=1e-6))
    # the step ends in one aborted successor that names both edges and the
    # time; no child replays it
    assert len(pipe.branches) == 1 and not pipe.complete
    reason = pipe.branches[0].abort_reason
    assert "bounce" in reason and "reach" in reason and "t in [" in reason


# ------------------------------------------- disjunctions and their successors


def graze(reset):
    """y rises to a peak within 5e-4 of the guard y >= 0 at t = 0.875, so
    the step over the peak activates `loop` on its hull only."""
    y, v = ex.var("y"), ex.var("v")
    loop = ex.Edge("l", "l", ex.comparison(y, Rel.GE, ex.ZERO),
                   Reset(reset), "loop")
    return HybridAutomaton(("y", "v"), {"l": {"y": v, "v": ex.const(-1.0)}},
                           [loop], "l",
                           {"y": Interval(-0.3833125, -0.3823125),
                            "v": Interval(0.875, 0.875)})


GRAZE_CFG = SimConfig(duration=2, dt=0.25, max_dt=0.25, tol=1)


def test_hull_only_graze_forks_a_crossing_and_a_no_crossing_child():
    ha = graze((("y", ex.const(-1.0)),))
    pipe = simulate(ha, GRAZE_CFG)
    assert pipe.complete and len(pipe.branches) == 2
    crossed = [b for b in pipe.branches if b.crossings]
    assert len(crossed) == 1
    assert ("loop", "possible-crossing") in [s.events for s in
                                             crossed[0].segments]
    # samples peaking above 0 jump and the others do not: each child holds
    # some of them (6 and 10 of 16 at seed 1)
    mc = validate_monte_carlo(ha, pipe, 16, seed=1)
    assert mc["contained"] == 16, mc["violations"][:1]


def test_graze_beside_a_sure_crossing_is_decided_too():
    # the clock c surely crosses 0.95 in the step over the graze's peak;
    # samples peaking above 0 take `loop` first, so the graze must fork
    # its own crossing, not be dropped for `tick`'s (when it was dropped,
    # the flowpipe had one branch and held 9 of 16 samples)
    v, c = ex.var("v"), ex.var("c")
    ha = graze((("y", ex.const(-1.0)),))
    tick = ex.Edge("l", "m", ex.comparison(c, Rel.GE, ex.const(0.95)),
                   Reset(), "tick")
    flow = {"y": v, "v": ex.const(-1.0), "c": ex.ONE}
    ha = HybridAutomaton(("y", "v", "c"), {"l": flow, "m": flow},
                         [*ha.edges, tick], "l",
                         {**ha.initial_box, "c": Interval(0, 0)})
    pipe = simulate(ha, GRAZE_CFG)
    assert pipe.complete and len(pipe.branches) == 2
    assert sorted([label for _, label in b.crossings]
                  for b in pipe.branches) == [["loop", "tick"], ["tick"]]
    mc = validate_monte_carlo(ha, pipe, 16, seed=1)
    assert mc["contained"] == 16, mc["violations"][:1]


def test_zeno_behind_a_hull_only_suspect_is_reported():
    # the reset y := 1 lands inside the guard again: the chain is endless
    pipe = simulate(graze((("y", ex.ONE),)), GRAZE_CFG)
    assert not pipe.complete
    assert [b.abort_reason.split(":")[0] for b in pipe.branches
            if not b.complete] == ["ZenoError"]


def test_branch_cap_names_the_widest_tight_box(monkeypatch):
    # with room for one queued branch, the graze's second child is capped;
    # its reason names its widest tight box, variable and time
    monkeypatch.setattr(engine, "BRANCH_CAP", 1)
    pipe = simulate(graze((("y", ex.const(-1.0)),)), GRAZE_CFG)
    capped = [b for b in pipe.branches if b.abort_reason.startswith("BranchCap")]
    assert len(capped) == 1
    w, v, t = max(((b.width, v, s.t) for s in capped[0].segments
                   for v, b in s.tight.items()), key=lambda wvt: wvt[0])
    assert capped[0].abort_reason.endswith(
        f"widest tight box is {w:.3g} in {v} at t in [{t.lo:.6g}, {t.hi:.6g}]")


def relay(w_guard):
    """`go` jumps from l1 to l2 at x = 1; in l2, `relay` (w > w_guard) is
    taken at once when surely true, and splits the chain when unknown."""
    x, w = ex.var("x"), ex.var("w")
    go = ex.Edge("l1", "l2", ex.comparison(x, Rel.GE, ex.ONE),
                 Reset((("x", ex.ZERO),), ("jump",)), "go")
    hop = ex.Edge("l2", "l3", ex.comparison(w, Rel.GT, ex.const(w_guard)),
                  Reset((), ("relay",)), "relay")
    flows = {loc: {"x": ex.ONE, "w": ex.ZERO} for loc in ("l1", "l2", "l3")}
    return HybridAutomaton(("x", "w"), flows, [go, hop], "l1",
                           {"x": Interval(0, 0), "w": Interval(-0.5, 0.5)})


RELAY_CFG = SimConfig(duration=1.5, dt=0.05, max_dt=0.25)


def test_chain_hops_record_their_prints():
    pipe = simulate(relay(-1.0), RELAY_CFG)
    assert pipe.complete and len(pipe.branches) == 1
    assert [s.events for s in pipe.branches[0].segments if s.events] == [
        ("go", "jump", "relay")]
    assert pipe.branches[0].segments[-1].location == "l3"


def test_ambiguous_chain_branches_through_simulate():
    ha = relay(0.0)
    pipe = simulate(ha, RELAY_CFG)
    assert pipe.complete and len(pipe.branches) == 2
    assert {b.segments[-1].location for b in pipe.branches} == {"l2", "l3"}
    assert all(b.crossings[0][1] == "go" for b in pipe.branches)
    mc = validate_monte_carlo(ha, pipe, 16, seed=1)
    assert mc["contained"] == 16, mc["violations"][:1]


def peak():
    """y peaks within [-0.1, 0.1] of the guard y >= 0 at t = 1, so the
    crossing of `top` stays MAYBE until y is surely below 0 again."""
    y, v = ex.var("y"), ex.var("v")
    top = ex.Edge("up", "down", ex.comparison(y, Rel.GE, ex.ZERO),
                  Reset((("v", ex.const(-1.0)),)), "top")
    return HybridAutomaton(("y", "v"), {"up": {"y": v, "v": ex.const(-1.0)},
                                        "down": {"y": v, "v": ex.ZERO}},
                           [top], "up",
                           {"y": Interval(-0.6, -0.4), "v": Interval(1, 1)})


PEAK_CFG = SimConfig(duration=3, dt=0.25, max_dt=0.25)


def test_missed_crossing_follow_up(monkeypatch):
    # past the extension limit the trajectories that have not crossed go
    # on in `up`
    ha = peak()
    monkeypatch.setattr(engine, "MAX_EXTENSIONS", 2)
    pipe = simulate(ha, PEAK_CFG)
    assert pipe.complete and len(pipe.branches) == 2
    ends = {b.segments[-1].location: b for b in pipe.branches}
    assert not ends["up"].crossings
    assert [label for _, label in ends["down"].crossings] == ["top"]
    mc = validate_monte_carlo(ha, pipe, 16, seed=1)
    assert mc["contained"] == 16, mc["violations"][:1]


def test_graze_that_turns_away_stops_extending():
    # the extension stops once y is surely below 0 again (t ~ 1.447), and
    # the crossing is a possible one over the extension; before, it ran
    # every extension step and its window reached t = 6.75
    ha = peak()
    pipe = simulate(ha, PEAK_CFG)
    assert pipe.complete and len(pipe.branches) == 2
    ends = {b.segments[-1].location: b for b in pipe.branches}
    assert not ends["up"].crossings
    [(window, label)] = ends["down"].crossings
    assert label == "top" and 0.5 < window.lo and window.hi < 1.5
    assert ("top", "possible-crossing") in [s.events for s in
                                            ends["down"].segments]
    mc = validate_monte_carlo(ha, pipe, 16, seed=1)
    assert mc["contained"] == 16, mc["violations"][:1]


def test_extension_rejections_are_counted(monkeypatch):
    # x' = x^3 speeds up while the crossing of x >= 1.5 extends, so the
    # extension steps reject sizes their predecessors proposed
    x = ex.var("x")
    hit = ex.Edge("a", "b", ex.comparison(x, Rel.GE, ex.const(1.5)),
                  Reset((("x", ex.ZERO),)), "hit")
    ha = HybridAutomaton(("x",), {"a": {"x": ex.mul(x, ex.mul(x, x))},
                                  "b": {"x": ex.ZERO}},
                         [hit], "a", {"x": Interval(1.0, 1.1)})
    rejected = []
    step = engine.guaranteed_step

    def recording(*args, **kwargs):
        out = step(*args, **kwargs)
        rejected.append((kwargs["diag"].startswith("(extending"),
                         out.rejections))
        return out

    monkeypatch.setattr(engine, "guaranteed_step", recording)
    pipe = simulate(ha, SimConfig(duration=0.9, dt=0.05, max_dt=0.2,
                                  tol=1e-4))
    assert pipe.complete
    assert sum(r for extending, r in rejected if extending) > 0
    assert pipe.stats["rejections"] == sum(r for _, r in rejected)
    assert pipe.stats["steps"] == len(rejected)


# ------------------------------------------------------------ the validator


class _JumpAt15ms:
    """x = t until a jump at t = 0.015, then x = 10 + t."""

    def state_at(self, t):
        return [t if t < 0.015 else 10.0 + t]


def test_validator_stops_at_a_window_that_opens_before_the_segment():
    # the crossing [0.01, 0.02], padded by 2 * h_ref = 0.02, opens at
    # -0.01, before the pre-jump segment starts at 0: that segment's hull
    # must not be checked against post-jump states, while the post-jump
    # segment's hull still is, past the window it starts in
    def branch(post_hull_hi):
        seg = engine.FlowpipeSegment
        pre = seg(Interval(0.0, 0.0), Interval(0.5, 0.5),
                  {"x": Interval(0.0, 0.0)}, {"x": Interval(0.0, 0.02)},
                  "l", ("jump",))
        post = seg(Interval(0.01, 0.02), Interval(0.51, 0.52),
                   {"x": Interval(10.01, 10.02)},
                   {"x": Interval(10.0, post_hull_hi)}, "l")
        return engine.Branch(0, None, [pre, post], True, "",
                             [(Interval(0.01, 0.02), "jump")])

    def check(b):
        return engine._branch_contains(b, _JumpAt15ms(), ["x"], 1.0,
                                       h_ref=0.01, rel_tol=1e-7)

    assert check(branch(10.6)) == (True, None)
    ok, detail = check(branch(10.3))
    assert not ok and detail["kind"] == "hull" and detail["t"] > 0.3


COMPOUND_BALL = """\
set duration = 0.3;
init y = [1, 1.01];
init vy = 0;
y' = vy;
vy' = -9.81;
on y <= 0 and y >= -1 do { vy = -0.8*vy };
"""


def test_flowpipe_carries_the_transform_warnings():
    ha, settings = D.lower_to_automaton(D.parse_dsl(COMPOUND_BALL))
    pipe = simulate(ha, SimConfig(**settings))
    assert pipe.complete
    assert pipe.warnings == (
        "event0: compound guard: cannot verify boundary exit",)
    ha, cfg = benchmarks.load(benchmarks.REGISTRY["wolfgram"], duration=0.05)
    assert simulate(ha, cfg).warnings == (
        "leave-circle: guard is not of the form variable-vs-expression; "
        "boundary exit not verified",)
    assert simulate(decay_automaton(), SimConfig(duration=0.1)).warnings == ()
