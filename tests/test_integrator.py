"""Guaranteed integrator: verified Picard enclosures, stage evaluation
against an independent scalar implementation of the embedded pair,
order-of-convergence of both error quantities, and analytic containment
through full integrations."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hyflow import affine as af
from hyflow import benchmarks, engine
from hyflow import expr as ex
from hyflow import integrator as gi
from hyflow import interval as iv
from hyflow.affine import AffineForm, NoiseAllocator
from hyflow.config import SimConfig
from hyflow.engine import CONDENSE_BUDGET, CONDENSE_FLOOR
from hyflow.errors import IntegrationError, ModelError
from hyflow.integrator import ODE23, FlowContext
from hyflow.interval import Interval

# tables no step uses, kept to check the order derivation and a first-order
# truncation bound
RK4 = gi.ButcherTable("rk4", ((), (F(1, 2),), (F(0), F(1, 2)),
                              (F(0), F(0), F(1))),
                      (F(1, 6), F(1, 3), F(1, 3), F(1, 6)))
EULER = gi.ButcherTable("euler", ((),), (F(1),))
# Dormand-Prince 5(4), with a first-same-as-last estimate
DOPRI5 = gi.ButcherTable(
    "dopri5",
    ((), (F(1, 5),), (F(3, 40), F(9, 40)),
     (F(44, 45), F(-56, 15), F(32, 9)),
     (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
     (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176),
      F(-5103, 18656)),
     (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784),
      F(11, 84))),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784),
     F(11, 84), F(0)),
    bhat=(F(5179, 57600), F(0), F(7571, 16695), F(393, 640),
          F(-92097, 339200), F(187, 2100), F(1, 40)))


def ctx_decay(table=ODE23):
    return FlowContext(("x",), {"x": ex.neg(ex.var("x"))}, table)


def env_point(**vals):
    return {k: AffineForm(v) for k, v in vals.items()}


def env_boxes(alloc, **boxes):
    return {k: af.from_interval(Interval(*b), alloc) for k, b in boxes.items()}


def box(env, v):
    return af.to_interval(env[v])


def picard(ctx, env, h, alloc):
    """`picard_enclosure` with f0 = f(env), as `guaranteed_step` gives it."""
    return gi.picard_enclosure(ctx, env, ctx.eval_flow(env, alloc), h, alloc)


def stages(ctx, env, h, alloc):
    """`rk_stages` with k1 = f(env), as `guaranteed_step` gives it."""
    return gi.rk_stages(ctx, env, ctx.eval_flow(env, alloc), h, alloc)


# ----------------------------------------------------------------- tables


def test_table_validation():
    with pytest.raises(ModelError):  # sum(b) != 1: below order 1
        gi.ButcherTable("bad", ((),), (F(1, 2),))
    with pytest.raises(ModelError):
        gi.ButcherTable("bad", ((F(1),),), (F(1),))
    with pytest.raises(ModelError):  # bhat below order 1
        gi.ButcherTable("bad", ((),), (F(1),), bhat=(F(1, 2),))
    with pytest.raises(TypeError):  # an order is derived, never declared
        gi.ButcherTable("bad", ((),), (F(1),), order=3)
    assert ODE23.stages == 3 and RK4.stages == 4
    assert ODE23.bhat is not None and len(ODE23.bhat) == 4


def test_table_fields_are_the_coefficients():
    assert [f.name for f in dataclasses.fields(ODE23)] == ["name", "a", "b",
                                                           "bhat"]


def test_orders_are_derived_from_the_rooted_trees():
    assert [len(level) for level in gi._TREES] == [1, 1, 2, 4, 9]
    assert (ODE23.order, ODE23.est_order) == (3, 2)
    assert (RK4.order, RK4.est_order) == (4, 4)
    assert (EULER.order, EULER.est_order) == (1, 1)
    midpoint = gi.ButcherTable("midpoint", ((), (F(1, 2),)), (F(0), F(1)))
    assert (midpoint.order, midpoint.est_order) == (2, 2)
    # Dormand-Prince 5(4): every fifth-order tree condition holds, and
    # its first-same-as-last estimate is of order 4
    assert (DOPRI5.order, DOPRI5.est_order) == (5, 4)
    # ode23 with two weights moved by 1/100 (their sum kept) is first order
    off = gi.ButcherTable("off", ODE23.a, (F(2, 9), F(1, 3) + F(1, 100),
                                           F(4, 9) - F(1, 100)))
    assert off.order == 1


@pytest.mark.parametrize("table", [ODE23, RK4, DOPRI5], ids=lambda t: t.name)
def test_derived_enclosures_hold_their_coefficients(table):
    # each nonzero coefficient, and only those, has an enclosure; it holds
    # the exact rational, and is a point exactly where that is a float
    for row, enc in [*zip(table.a, table.a_enc), (table.b, table.b_enc)]:
        assert [j for j, _, _ in enc] == [j for j, q in enumerate(row) if q]
        for j, mid, r in enc:
            q = row[j]
            assert F(mid) - F(r) <= q <= F(mid) + F(r)
            assert (r == 0.0) == (F(float(q)) == q)


# ----------------------------------------------------------------- picard


def test_picard_constant_flow_is_exact():
    ctx = FlowContext(("x",), {"x": ex.ZERO}, ODE23)
    alloc = NoiseAllocator()
    env = env_point(x=1.0)
    z = picard(ctx, env, 0.25, alloc)
    assert z is not None
    b = box(z, "x")
    assert b.contains(1.0) and b.width < 1e-12


def test_picard_linear_growth():
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    z = picard(ctx, env_point(x=0.0), 0.1, alloc)
    b = box(z, "x")
    assert b.lo <= 0.0 and b.hi >= 0.1


def test_picard_decay_contains_analytic_and_recheck():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.9, 1.1))
    h = 0.1
    z = picard(ctx, env, h, alloc)
    assert z is not None
    b = box(z, "x")
    # analytic trajectories from every sampled start, at several times
    for x0 in (0.9, 1.0, 1.1):
        for s in (0.0, 0.03, 0.07, 0.1):
            assert b.contains(x0 * math.exp(-s))
    # the verified-fixpoint contract, re-checked: env + [0, h] * f(box(z))
    # lies inside z
    fz = ctx.eval_flow({"x": af.from_interval(b, alloc)}, alloc)
    offset = iv.mul(Interval(0.0, h), box(fz, "x"))
    img = env["x"] + af.from_interval(offset, alloc)
    assert af.to_interval(img).subset_of(b)
    # z is the start form plus one fresh symbol for its interval offset
    fresh = set(z["x"].dev) - set(env["x"].dev)
    assert set(env["x"].dev) <= set(z["x"].dev) and len(fresh) == 1
    assert all(z["x"].dev[i] == c for i, c in env["x"].dev.items())


class Affine1:
    """x' = a x + b from x0."""
    variables = ("x",)

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.flow = {"x": ex.add(ex.mul(ex.const(a), ex.var("x")),
                                 ex.const(b))}

    def state_at(self, x0, t):
        growth = t if self.a == 0.0 else math.expm1(self.a * t) / self.a
        return [x0[0] * math.exp(self.a * t) + self.b * growth]


class SquareDecay:
    """x' = -x^2 from x0, x0 / (1 + x0 t) while 1 + x0 t > 0."""
    variables = ("x",)
    flow = {"x": ex.neg(ex.mul(ex.var("x"), ex.var("x")))}

    def state_at(self, x0, t):
        return [x0[0] / (1.0 + x0[0] * t)]


class Spin:
    """x' = -w y, y' = w x from (x0, y0)."""
    variables = ("x", "y")

    def __init__(self, w):
        self.w = w
        self.flow = {"x": ex.mul(ex.const(-w), ex.var("y")),
                     "y": ex.mul(ex.const(w), ex.var("x"))}

    def state_at(self, x0, t):
        c, s = math.cos(self.w * t), math.sin(self.w * t)
        return [x0[0] * c - x0[1] * s, x0[0] * s + x0[1] * c]


def sides(centres):
    """(lo, hi) drawn as a centre and a width."""
    return st.tuples(centres, st.floats(1e-6, 0.5)).map(
        lambda cw: (cw[0] - cw[1] / 2, cw[0] + cw[1] / 2))


FAMILIES = st.one_of(
    st.tuples(st.builds(Affine1, st.floats(-20, 20), st.floats(-2, 2)),
              st.tuples(sides(st.floats(-2, 2)))),
    st.tuples(st.just(SquareDecay()), st.tuples(sides(st.floats(-3, 3)))),
    st.tuples(st.builds(Spin, st.floats(0.5, 10)),
              st.tuples(sides(st.floats(-2, 2)), sides(st.floats(-2, 2)))))


@seed(28)
@settings(max_examples=20, deadline=None)
@given(FAMILIES, st.floats(1e-3, 0.3))
# flows so fast over h that no candidate verifies, and whose first image
# misses the trajectories: only a checked self-map keeps these sound
@example((Affine1(15.0, 0.5), ((1.0, 1.2),)), 0.3)
@example((SquareDecay(), ((-3.2, -2.9),)), 0.3)
def test_picard_holds_every_corner_and_the_centre(family, h):
    # a verified enclosure holds the closed-form trajectory from every
    # corner of the start box and from its centre, at 9 times over [0, h],
    # up to a few ulps of rounding in the closed form itself
    flow, box_sides = family
    ctx = FlowContext(flow.variables, flow.flow, ODE23)
    alloc = NoiseAllocator()
    env = env_boxes(alloc, **dict(zip(flow.variables, box_sides)))
    z = picard(ctx, env, h, alloc)
    if z is None:
        return
    starts = [*itertools.product(*box_sides),
              [(lo + hi) / 2 for lo, hi in box_sides]]
    for x0 in starts:
        for k in range(9):
            t = h * k / 8
            for v, x in zip(flow.variables, flow.state_at(x0, t)):
                b, tol = box(z, v), 8 * math.ulp(1.0 + abs(x))
                assert b.lo - tol <= x <= b.hi + tol, (x0, t, v, x, b)


def test_picard_maps_at_most_2_6_images_per_call(monkeypatch):
    # a candidate sized from the Euler offset mostly verifies at once, and
    # the result narrows it by one more image
    picard_enclosure, eval_flow = gi.picard_enclosure, FlowContext.eval_flow
    tally = {"calls": 0, "images": 0, "inside": False}

    def counted(*args):
        tally["calls"] += 1
        tally["inside"] = True
        try:
            return picard_enclosure(*args)
        finally:
            tally["inside"] = False

    def evaluated(self, env, alloc):
        tally["images"] += tally["inside"]
        return eval_flow(self, env, alloc)

    monkeypatch.setattr(gi, "picard_enclosure", counted)
    monkeypatch.setattr(FlowContext, "eval_flow", evaluated)
    for name in ("vanderpol", "car", "watertank", "thermostat"):
        tally.update(calls=0, images=0)
        assert engine.simulate(*benchmarks.load(
            benchmarks.REGISTRY[name])).complete
        assert tally["images"] <= 2.6 * tally["calls"], (name, tally)


def test_picard_failure_on_blowup():
    # x' = 1 + x^2 from x=20 with a huge step cannot verify an enclosure
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": ex.add(ex.ONE, ex.pow_int(x, 2))}, ODE23)
    alloc = NoiseAllocator()
    z = picard(ctx, env_point(x=20.0), 0.1, alloc)
    assert z is None


# ----------------------------------------------------------------- stages


def scalar_bs23(f, x, h):
    k1 = f(x)
    k2 = f(x + h / 2 * k1)
    k3 = f(x + 3 * h / 4 * k2)
    xn = x + h / 9 * (2 * k1 + 3 * k2 + 4 * k3)
    k4 = f(xn)
    zn = x + h / 24 * (7 * k1 + 6 * k2 + 8 * k3 + 3 * k4)
    return xn, zn


def test_stages_quadrature_of_constant():
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    env = env_point(x=5.0)
    b = box(stages(ctx, env, 0.3, alloc), "x")
    assert b.contains(5.3) and b.width < 1e-13


def test_stages_match_scalar_reference():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    h = 0.1
    x_next = stages(ctx, env_point(x=1.0), h, alloc)
    ref, _ = scalar_bs23(lambda t: -t, 1.0, h)
    b = box(x_next, "x")
    assert b.contains(ref)
    assert b.width < 1e-13


def test_stages_zero_width_stays_thin_for_linear_flow():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    x_next = stages(ctx, env_point(x=1.0), 0.05, alloc)
    assert box(x_next, "x").width < 1e-13


# ------------------------------------------------------------ embedded err


def test_embedded_error_exact_flow_is_zero():
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    err = gi.embedded_error(ctx, env_point(x=0.0), 0.2)
    assert err < 1e-14


def single_step_quantities(h, alloc=None, width=False):
    ctx = ctx_decay()
    alloc = alloc or NoiseAllocator()
    if width:
        env = env_boxes(alloc, x=(0.9, 1.1))
    else:
        env = env_point(x=1.0)
    err = gi.embedded_error(ctx, env, h)
    z = picard(ctx, env, h, alloc)
    trunc = gi.truncation_bound(ctx, env, z, h, alloc)
    return err, af.to_interval(trunc["x"]).width


def test_embedded_error_order_three_scaling():
    errs = [single_step_quantities(h)[0] for h in (0.2, 0.1, 0.05)]
    for big, small in zip(errs, errs[1:]):
        assert 6.0 <= big / small <= 10.0, errs


def test_truncation_width_order_scaling_on_set():
    # halving h divides the O(h^(p+1)) bound by about 2^(p+1): within half
    # an order of it, so that order p - 1 or p + 1 would fail
    p = ODE23.order
    widths = [single_step_quantities(h, width=True)[1] for h in (0.2, 0.1, 0.05)]
    for big, small in zip(widths, widths[1:]):
        assert 2 ** (p + 0.5) <= big / small <= 2 ** (p + 1.5), widths


def test_truncation_zero_for_exact_scheme():
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    env = env_point(x=1.0)
    z = picard(ctx, env, 0.2, alloc)
    trunc = gi.truncation_bound(ctx, env, z, 0.2, alloc)
    assert af.to_interval(trunc["x"]).width < 1e-12


def test_zero_stage_side_is_skipped_on_a_linear_flow(monkeypatch):
    # x' = -x, y' = x: ode23's scheme polynomial has degree 3 in tau, so
    # its 4th derivative is 0, and the bound is the Lie side's one program
    x = ex.var("x")
    # both sides are built with the context, before any step
    ctx = FlowContext(("x", "y"), {"x": ex.neg(x), "y": x}, ODE23)
    assert ctx.stage == [ex.ZERO, ex.ZERO] and ctx.stage_zero is True
    square = FlowContext(("x",), {"x": ex.mul(x, x)}, ODE23)
    assert square.stage[0] is not ex.ZERO and square.stage_zero is False
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.9, 1.1), y=(-0.1, 0.1))
    z = picard(ctx, env, 0.1, alloc)
    start = alloc.fresh()
    runs, run = [], ex.eval_affine_many

    def counted(exprs, env, alloc):
        runs.append(tuple(exprs))
        return run(exprs, env, alloc)

    monkeypatch.setattr(ex, "eval_affine_many", counted)
    skipped = gi.truncation_bound(ctx, env, z, 0.1, NoiseAllocator(start))
    assert runs == [tuple(ctx.lie[ODE23.order])]
    ctx.stage_zero = False  # the zero stage side, evaluated and subtracted
    full = gi.truncation_bound(ctx, env, z, 0.1, NoiseAllocator(start))
    assert len(runs) == 3
    for v in ctx.variables:
        got, want = skipped[v], full[v]
        assert (got.center, got.dev) == (want.center, want.dev)
        # only the zero side's 1e-306 pad and the rounding of its
        # subtraction differ, by an ulp or so of the bound
        assert got.slack <= want.slack
        assert want.slack - got.slack <= 1e-15 * af.to_interval(want).mag
    assert not ctx.trunc_zero


def test_an_exact_scheme_evaluates_no_truncation_side(monkeypatch):
    # a falling body, y' = v, v' = -g: both sides are the constant 0, so
    # the bound is exact zero forms and no affine program runs
    ctx = FlowContext(("y", "v"), {"y": ex.var("v"), "v": ex.const(-9.81)},
                      ODE23)
    assert ctx.trunc_zero and ctx.lie[ODE23.order] == [ex.ZERO, ex.ZERO]
    alloc = NoiseAllocator()
    env = env_boxes(alloc, y=(9.9, 10.0), v=(-0.1, 0.0))
    z = picard(ctx, env, 0.1, alloc)

    def never(*args):
        raise AssertionError("eval_affine_many called")

    monkeypatch.setattr(ex, "eval_affine_many", never)
    trunc = gi.truncation_bound(ctx, env, z, 0.1, alloc)
    assert [(f.center, f.dev, f.slack) for f in trunc.values()] == [
        (0.0, {}, 0.0)] * 2


def test_truncation_euler_scale():
    # Euler on x' = x: local remainder is (h^2/2) x(xi); width/h^2 bounded
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": x}, EULER)
    alloc = NoiseAllocator()
    env = env_point(x=1.0)
    for h in (0.1, 0.05, 0.025):
        z = picard(ctx, env, h, alloc)
        trunc = gi.truncation_bound(ctx, env, z, h, alloc)
        b = af.to_interval(trunc["x"])
        assert b.contains(h * h / 2.0 * math.exp(h) * 0.5) or b.hi >= h * h / 2.0
        assert b.width / h**2 < 2.0


def rotation_start(alloc, n_private=150):
    """x' = -y, y' = x from a start set of more than CONDENSE_BUDGET
    symbols: one shared by x and y, and n_private of each one's own."""
    rng = random.Random(5)
    shared = alloc.fresh()
    env = {}
    for v, center in (("x", 1.0), ("y", 0.5)):
        dev = {shared: rng.uniform(-1e-3, 1e-3)}
        for _ in range(n_private):
            dev[alloc.fresh()] = rng.uniform(-1e-4, 1e-4)
        env[v] = AffineForm(center, dev)
    ctx = FlowContext(("x", "y"), {"x": ex.neg(ex.var("y")), "y": ex.var("x")},
                      ODE23)
    return ctx, env


def test_folded_truncation_matches_the_unfolded_bound():
    # the engine hands the step a reduced start set, in which each
    # variable's private symbols are folded into one; that loses nothing,
    # so the bound over it is the bound over every start symbol
    alloc = NoiseAllocator()
    ctx, env = rotation_start(alloc)
    assert all(len(f.dev) > CONDENSE_BUDGET for f in env.values())
    folded = gi.env_condense(env, CONDENSE_BUDGET, CONDENSE_FLOOR, alloc)
    assert all(len(f.dev) == 2 for f in folded.values())
    h = 0.1
    ref = gi.truncation_bound(ctx, env, picard(ctx, env, h, alloc), h, alloc)
    got = gi.truncation_bound(ctx, folded, picard(ctx, folded, h, alloc), h,
                              alloc)
    for v in ctx.variables:
        assert box(got, v).width == pytest.approx(box(ref, v).width, rel=1e-12)
        # the remainder keeps its correlation with the start set
        assert set(folded[v].dev) <= set(got[v].dev)


def test_guaranteed_step_encloses_rotation_from_many_symbols():
    alloc = NoiseAllocator()
    ctx, env = rotation_start(alloc)
    start = set(env["x"].dev) | set(env["y"].dev)
    out = gi.guaranteed_step(ctx, env, 0.1, SimConfig(duration=1.0), alloc)
    c, s = math.cos(out.h_used), math.sin(out.h_used)
    rng = random.Random(6)
    for _ in range(50):
        val = {i: rng.uniform(-1, 1) for i in start}
        x0, y0 = af.sample(env["x"], val), af.sample(env["y"], val)
        for v, exact in (("x", c * x0 - s * y0), ("y", s * x0 + c * y0)):
            form = out.x_next[v]
            # the symbols the step added range freely; the start's are fixed
            loose = form.slack + sum(abs(k) for i, k in form.dev.items()
                                     if i not in start)
            assert abs(exact - af.sample(form, val)) <= loose + 1e-15


# ------------------------------------------------------------ step control


def test_step_control_examples():
    # the next size after an accepted step
    cfg = SimConfig(duration=1.0, tol=1e-4, max_dt=10.0)
    assert gi.step_control(1e-4, 0.1, cfg, order=2) == pytest.approx(
        0.09, rel=1e-12)
    assert gi.step_control(1e-4 / 8, 0.1, cfg, order=2) == pytest.approx(
        0.18, rel=1e-12)
    assert gi.step_control(0.0, 0.1, cfg, order=2) == 10.0
    assert gi.step_control(1e-4, 1e-9, cfg, order=2) == gi.H_MIN


def test_guaranteed_step_halves_a_rejected_attempt(monkeypatch):
    # an estimate above tol rejects the attempt, and the step retries at
    # half the size, whatever step_control would have said
    ctx = ctx_decay()
    cfg = SimConfig(duration=1.0, tol=1e-4, max_dt=1.0)
    estimate, estimates = gi.embedded_error, []

    def high_once(ctx, env, h):
        estimates.append(h)
        return 2.0 * cfg.tol if len(estimates) == 1 else estimate(ctx, env, h)

    monkeypatch.setattr(gi, "embedded_error", high_once)
    out = gi.guaranteed_step(ctx, env_point(x=1.0), 0.1, cfg,
                             NoiseAllocator())
    assert (out.h_used, out.rejections) == (0.05, 1)
    assert estimates == [0.1, 0.05]


def test_a_rejected_estimate_skips_the_set_valued_work(monkeypatch):
    # the point estimate comes first: an attempt it rejects runs no Picard
    # enclosure, no stages and no truncation bound
    ctx = ctx_decay()
    cfg = SimConfig(duration=1.0, tol=1e-4, max_dt=1.0)
    calls, estimate = [], gi.embedded_error

    def high_once(ctx, env, h):
        calls.append(("embedded_error", h))
        return 2.0 * cfg.tol if len(calls) == 1 else estimate(ctx, env, h)

    monkeypatch.setattr(gi, "embedded_error", high_once)
    for name in ("picard_enclosure", "rk_stages", "truncation_bound"):
        # each takes (ctx, env, f0 or z_env, h, alloc)
        monkeypatch.setattr(gi, name, lambda *a, _n=name, _f=getattr(gi, name):
                            calls.append((_n, a[3])) or _f(*a))
    out = gi.guaranteed_step(ctx, env_point(x=1.0), 0.1, cfg,
                             NoiseAllocator())
    assert out.rejections == 1
    assert calls == [("embedded_error", 0.1), ("embedded_error", 0.05),
                     ("picard_enclosure", 0.05), ("rk_stages", 0.05),
                     ("truncation_bound", 0.05)]


def test_a_context_by_truncation_accepts_on_the_truncation_width(monkeypatch):
    # decay from [0.9, 1.1] at h = 0.2: the embedded estimate is 1.3e-4 and
    # half the truncation width 1.4e-5, so a tolerance between the two
    # rejects the attempt by the embedded pair and accepts it by the width,
    # and the next size grows with the order of the kept result
    h, tol = 0.2, 4e-5
    cfg = SimConfig(duration=1.0, tol=tol, max_dt=1.0)
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.9, 1.1))
    ctx = FlowContext(("x",), {"x": ex.neg(ex.var("x"))}, ODE23,
                      by_truncation=True)
    z = picard(ctx, env, h, alloc)
    half = box(gi.truncation_bound(ctx, env, z, h, alloc), "x").width / 2.0
    assert half <= tol < gi.embedded_error(ctx, env, h)
    assert gi.guaranteed_step(ctx_decay(), env, h, cfg,
                              NoiseAllocator()).rejections >= 1

    def never(*args):
        raise AssertionError("embedded_error called")

    monkeypatch.setattr(gi, "embedded_error", never)
    out = gi.guaranteed_step(ctx, env, h, cfg, NoiseAllocator())
    assert (out.h_used, out.rejections) == (h, 0)
    assert out.h_next == gi.step_control(half, h, cfg, ODE23.order)
    assert out.h_next != gi.step_control(half, h, cfg, ODE23.est_order)


# ------------------------------------------------------------- whole step


def test_guaranteed_step_decay_run_to_one():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    env = env_point(x=1.0)
    cfg = SimConfig(duration=1.0, tol=1e-8, max_dt=0.1)
    t, h = 0.0, 0.05
    while t < 1.0:
        h = min(h, 1.0 - t) if 1.0 - t > gi.H_MIN else gi.H_MIN
        out = gi.guaranteed_step(ctx, env, h, cfg, alloc)
        # analytic value inside tight enclosure and inside the step hull
        for s in (0.0, 0.5, 1.0):
            assert box(out.hull, "x").contains(math.exp(-(t + s * out.h_used)))
        t += out.h_used
        env = gi.env_condense(out.x_next, CONDENSE_BUDGET, CONDENSE_FLOOR,
                               alloc)
        h = out.h_next
    assert box(env, "x").contains(math.exp(-t))
    assert box(env, "x").width < 1e-5


def test_guaranteed_step_evaluates_the_start_flow_once(monkeypatch):
    # every attempt's Picard enclosure and first stage read one f(env)
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.9, 1.1))
    flow, start_values = ctx.eval_flow, []

    def counted(at, alloc):
        out = flow(at, alloc)
        if at is env:
            start_values.append(out)
        return out

    monkeypatch.setattr(ctx, "eval_flow", counted)
    cfg = SimConfig(duration=1.0, tol=1e-9)
    out = gi.guaranteed_step(ctx, env, 0.1, cfg, alloc)
    assert out.rejections >= 1
    assert len(start_values) == 1 and out.f0 is start_values[0]


def test_guaranteed_step_constant_flow_width_stable():
    ctx = FlowContext(("x",), {"x": ex.ZERO}, ODE23)
    alloc = NoiseAllocator()
    env = env_point(x=2.0)
    cfg = SimConfig(duration=1.0)
    for _ in range(50):
        out = gi.guaranteed_step(ctx, env, 0.1, cfg, alloc)
        env = out.x_next
    assert box(env, "x").width < 1e-12


def test_guaranteed_step_brusselator_first_step():
    x, y = ex.var("x"), ex.var("y")
    flow = {
        "x": ex.add(ex.sub(ex.ONE, ex.mul(ex.const(2.5), x)), ex.mul(ex.pow_int(x, 2), y)),
        "y": ex.sub(ex.mul(ex.const(1.5), x), ex.mul(ex.pow_int(x, 2), y)),
    }
    ctx = FlowContext(("x", "y"), flow, ODE23)
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.9, 1.0), y=(0.0, 0.1))
    out = gi.guaranteed_step(ctx, env, 0.05, SimConfig(duration=1.0), alloc)
    for v in ("x", "y"):
        assert box(out.x_next, v).subset_of(box(out.hull, v))


def test_guaranteed_step_encloses_riccati_at_order_three():
    # x' = x^2 from x0 in [0.9, 1.0]: x(t) = 1/(1/x0 - t); one ode23 step,
    # whose truncation bound uses order 3, encloses the solutions from both
    # ends of the box (compared in rationals), at the step end and over it
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": ex.pow_int(x, 2)}, ODE23)
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.9, 1.0))
    out = gi.guaranteed_step(ctx, env, 0.05, SimConfig(duration=1.0), alloc)
    assert out.h_used > 0.0
    tight, hull = box(out.x_next, "x"), box(out.hull, "x")
    for x0 in (F(0.9), F(1)):
        assert F(tight.lo) <= 1 / (1 / x0 - F(out.h_used)) <= F(tight.hi)
        for s in (0.0, 0.25, 0.5, 1.0):
            assert F(hull.lo) <= 1 / (1 / x0 - F(s * out.h_used)) <= F(hull.hi)


def test_guaranteed_step_failure_at_hmin(monkeypatch):
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": ex.pow_int(x, 2)}, ODE23)
    alloc = NoiseAllocator()
    monkeypatch.setattr(gi, "H_MIN", 0.05)  # cannot shrink enough near blowup
    cfg = SimConfig(duration=1.0, max_dt=0.1)
    with pytest.raises(IntegrationError):
        gi.guaranteed_step(ctx, env_point(x=1e7), 0.1, cfg, alloc)


@pytest.mark.parametrize("by_truncation, x0, check", [
    (False, 1e7, "error estimate"),
    (True, 1e7, "Picard enclosure failed"),
    (True, 3.0, "truncation estimate"),
])
def test_the_failure_at_hmin_names_its_check(monkeypatch, by_truncation, x0,
                                             check):
    # the last attempt's failed check: the embedded estimate, taken first,
    # by default; Picard, then the truncation width, by truncation
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": ex.pow_int(x, 2)}, ODE23,
                      by_truncation=by_truncation)
    monkeypatch.setattr(gi, "H_MIN", 0.05)
    cfg = SimConfig(duration=1.0, max_dt=0.1)
    with pytest.raises(IntegrationError, match=f"^{check} .*h=0.05"):
        gi.guaranteed_step(ctx, env_point(x=x0), 0.1, cfg, NoiseAllocator())


def test_hull_contains_x_next_componentwise():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.5, 0.6))
    out = gi.guaranteed_step(ctx, env, 0.1, SimConfig(duration=1.0), alloc)
    assert box(out.x_next, "x").subset_of(box(out.hull, "x"))
