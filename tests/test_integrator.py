"""Guaranteed integrator: verified Picard enclosures, stage evaluation
against an independent scalar implementation of the embedded pair,
order-of-convergence of both error quantities, and analytic containment
through full integrations."""

import math

import pytest

from hyflow import affine as af
from hyflow import expr as ex
from hyflow import integrator as gi
from hyflow.affine import AffineForm, NoiseAllocator
from hyflow.config import SimConfig
from hyflow.errors import IntegrationError, ModelError
from hyflow.integrator import EULER, ODE23, RK4, FlowContext
from hyflow.interval import Interval


def ctx_decay(table=ODE23):
    return FlowContext(("x",), {"x": ex.neg(ex.var("x"))}, table)


def env_point(**vals):
    return {k: AffineForm(v) for k, v in vals.items()}


def env_boxes(alloc, **boxes):
    return {k: af.from_interval(Interval(*b), alloc) for k, b in boxes.items()}


def box(env, v):
    return af.to_interval(env[v])


# ----------------------------------------------------------------- tables


def test_table_validation():
    from fractions import Fraction as Fr

    with pytest.raises(ModelError):
        gi.ButcherTable("bad", ((),), (Fr(1, 2),), (Fr(0),), 1)
    assert ODE23.stages == 3 and RK4.stages == 4
    assert ODE23.bhat is not None and len(ODE23.bhat) == 4


# ----------------------------------------------------------------- picard


def test_picard_constant_flow_is_exact():
    ctx = FlowContext(("x",), {"x": ex.ZERO}, ODE23)
    alloc = NoiseAllocator()
    env = env_point(x=1.0)
    z = gi.picard_enclosure(ctx, env, 0.25, alloc)
    assert z is not None
    b = box(z, "x")
    assert b.contains(1.0) and b.width < 1e-12


def test_picard_linear_growth():
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    z = gi.picard_enclosure(ctx, env_point(x=0.0), 0.1, alloc)
    b = box(z, "x")
    assert b.lo <= 0.0 and b.hi >= 0.1


def test_picard_decay_contains_analytic_and_recheck():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.9, 1.1))
    h = 0.1
    z = gi.picard_enclosure(ctx, env, h, alloc)
    assert z is not None
    b = box(z, "x")
    # analytic trajectories from every sampled start, at several times
    for x0 in (0.9, 1.0, 1.1):
        for s in (0.0, 0.03, 0.07, 0.1):
            assert b.contains(x0 * math.exp(-s))
    # the verified-fixpoint contract: re-evaluating the operator stays inside
    img = gi._picard_map(ctx, env, z, h, alloc)
    assert gi.env_subset(img, z, ("x",))


def test_picard_failure_on_blowup():
    # x' = 1 + x^2 from x=20 with a huge step cannot verify an enclosure
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": ex.add(ex.ONE, ex.pow_int(x, 2))}, ODE23)
    alloc = NoiseAllocator()
    z = gi.picard_enclosure(ctx, env_point(x=20.0), 0.1, alloc)
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
    x_next, ks = gi.rk_stages(ctx, env, 0.3, alloc)
    for k in ks:
        assert box(k, "x").contains(1.0) and box(k, "x").width < 1e-14
    b = box(x_next, "x")
    assert b.contains(5.3) and b.width < 1e-13


def test_stages_match_scalar_reference():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    h = 0.1
    x_next, ks = gi.rk_stages(ctx, env_point(x=1.0), h, alloc)
    ref, _ = scalar_bs23(lambda t: -t, 1.0, h)
    b = box(x_next, "x")
    assert b.contains(ref)
    assert b.width < 1e-13


def test_stages_zero_width_stays_thin_for_linear_flow():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    x_next, _ = gi.rk_stages(ctx, env_point(x=1.0), 0.05, alloc)
    assert box(x_next, "x").width < 1e-13


# ------------------------------------------------------------ embedded err


def test_embedded_error_exact_flow_is_zero():
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    env = env_point(x=0.0)
    x_next, ks = gi.rk_stages(ctx, env, 0.2, alloc)
    err = gi.embedded_error(ctx, env, x_next, ks, 0.2, alloc)
    assert err < 1e-14


def single_step_quantities(h, alloc=None, width=False):
    ctx = ctx_decay()
    alloc = alloc or NoiseAllocator()
    if width:
        env = env_boxes(alloc, x=(0.9, 1.1))
    else:
        env = env_point(x=1.0)
    x_prime, ks = gi.rk_stages(ctx, env, h, alloc)
    err = gi.embedded_error(ctx, env, x_prime, ks, h, alloc)
    z = gi.picard_enclosure(ctx, env, h, alloc)
    trunc = gi.truncation_bound(ctx, env, z, h, alloc)
    return err, af.to_interval(trunc["x"]).width


def test_embedded_error_order_three_scaling():
    errs = [single_step_quantities(h)[0] for h in (0.2, 0.1, 0.05)]
    for big, small in zip(errs, errs[1:]):
        assert 6.0 <= big / small <= 10.0, errs


def test_truncation_width_order_scaling_on_set():
    widths = [single_step_quantities(h, width=True)[1] for h in (0.2, 0.1, 0.05)]
    for big, small in zip(widths, widths[1:]):
        assert 6.0 <= big / small <= 10.0, widths


def test_truncation_zero_for_exact_scheme():
    ctx = FlowContext(("x",), {"x": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    env = env_point(x=1.0)
    z = gi.picard_enclosure(ctx, env, 0.2, alloc)
    trunc = gi.truncation_bound(ctx, env, z, 0.2, alloc)
    assert af.to_interval(trunc["x"]).width < 1e-12


def test_truncation_euler_scale():
    # Euler on x' = x: local remainder is (h^2/2) x(xi); width/h^2 bounded
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": x}, EULER)
    alloc = NoiseAllocator()
    env = env_point(x=1.0)
    for h in (0.1, 0.05, 0.025):
        z = gi.picard_enclosure(ctx, env, h, alloc)
        trunc = gi.truncation_bound(ctx, env, z, h, alloc)
        b = af.to_interval(trunc["x"])
        assert b.contains(h * h / 2.0 * math.exp(h) * 0.5) or b.hi >= h * h / 2.0
        assert b.width / h**2 < 2.0


# ------------------------------------------------------------ step control


def test_step_control_examples():
    cfg = SimConfig(duration=1.0, tol=1e-4, max_dt=10.0)
    ok, hn = gi.step_control(1e-4, 1e-4, 0.1, cfg, order=2)
    assert ok and hn == pytest.approx(0.09, rel=1e-12)
    ok, hn = gi.step_control(1e-4 / 8, 1e-4, 0.1, cfg, order=2)
    assert ok and hn == pytest.approx(0.18, rel=1e-12)
    ok, hn = gi.step_control(2e-4, 1e-4, 0.1, cfg, order=2)
    assert not ok and hn == 0.05
    ok, hn = gi.step_control(0.0, 1e-4, 0.1, cfg, order=2)
    assert ok and hn == 10.0
    # rejection never grows the step
    for err in (2e-4, 1e-3, 1e+2):
        ok, hn = gi.step_control(err, 1e-4, 0.1, cfg, order=2)
        assert not ok and hn <= 0.1


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
        env = {"x": af.condense(out.x_next["x"], 60, alloc)}
        h = out.h_next
    assert box(env, "x").contains(math.exp(-t))
    assert box(env, "x").width < 1e-5


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


def test_guaranteed_step_failure_at_hmin(monkeypatch):
    x = ex.var("x")
    ctx = FlowContext(("x",), {"x": ex.pow_int(x, 2)}, ODE23)
    alloc = NoiseAllocator()
    monkeypatch.setattr(gi, "H_MIN", 0.05)  # cannot shrink enough near blowup
    cfg = SimConfig(duration=1.0, max_dt=0.1)
    with pytest.raises(IntegrationError):
        gi.guaranteed_step(ctx, env_point(x=1e7), 0.1, cfg, alloc)


def test_hull_contains_x_next_componentwise():
    ctx = ctx_decay()
    alloc = NoiseAllocator()
    env = env_boxes(alloc, x=(0.5, 0.6))
    out = gi.guaranteed_step(ctx, env, 0.1, SimConfig(duration=1.0), alloc)
    assert box(out.x_next, "x").subset_of(box(out.hull, "x"))
