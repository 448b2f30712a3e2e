"""Guaranteed cubic Hermite interpolation: node reproduction, polynomial
exactness, analytic containment at point and interval times, and the
algebraic equivalence of the partition-of-unity form with the classical
tau-form cubic."""

import math
import random

import pytest

from hyflow import affine as af
from hyflow import expr as ex
from hyflow import integrator as gi
from hyflow import interpolator as gp
from hyflow.affine import AffineForm, NoiseAllocator
from hyflow.config import SimConfig
from hyflow.errors import DomainError
from hyflow.integrator import ODE23, FlowContext
from hyflow.interval import Interval

LOOSE = SimConfig(duration=1.0, tol=1.0, max_dt=1.0)  # keep the requested h


def cubic_hermite_reference(x0, d0, x1, d1, h, t):
    """Classical tau-form cubic: the independent oracle for the n=1 case."""
    tau = t / h
    return (
        (2 * tau**3 - 3 * tau**2 + 1) * x0
        + (tau**3 - 2 * tau**2 + tau) * h * d0
        + (-2 * tau**3 + 3 * tau**2) * x1
        + (tau**3 - tau**2) * h * d1
    )


def decay_step(h=0.2, x0=1.0):
    ctx = FlowContext(("x",), {"x": ex.neg(ex.var("x"))}, ODE23)
    alloc = NoiseAllocator()
    env0 = {"x": AffineForm(x0)}
    # loose: keep the requested h
    cfg = SimConfig(duration=1.0, tol=1e-3, max_dt=1.0)
    out = gi.guaranteed_step(ctx, env0, h, cfg, alloc)
    assert out.h_used == h
    g = gp.build_gpoly(ctx, env0, out.f0, out.x_next, out.h_used, out.hull,
                       alloc)
    return ctx, alloc, env0, out, g


def test_node_reproduction():
    ctx, alloc, env0, out, g = decay_step()
    at0 = gp.eval_gpoly(g, Interval(0.0, 0.0), alloc)
    b0 = af.to_interval(at0["x"])
    s0 = af.to_interval(env0["x"])
    assert b0.lo <= s0.lo and b0.hi >= s0.hi
    assert b0.width <= s0.width + 1e-10
    ath = gp.eval_gpoly(g, Interval(out.h_used, out.h_used), alloc)
    bh = af.to_interval(ath["x"])
    sh = af.to_interval(out.x_next["x"])
    assert bh.lo <= sh.lo + 1e-15 and bh.hi >= sh.hi - 1e-15
    assert bh.width <= sh.width + 1e-10


def test_midpoint_analytic_containment():
    ctx, alloc, env0, out, g = decay_step(h=0.2)
    mid = gp.eval_gpoly(g, Interval(0.1, 0.1), alloc)
    assert af.to_interval(mid["x"]).contains(math.exp(-0.1))


def test_analytic_containment_50_random_times():
    ctx, alloc, env0, out, g = decay_step(h=0.2)
    rng = random.Random(5)
    h = out.h_used
    for _ in range(50):
        t = rng.uniform(0.0, h)
        got = gp.eval_gpoly(g, Interval(t, t), alloc)
        assert af.to_interval(got["x"]).contains(math.exp(-t))


def test_analytic_containment_over_random_sub_spans():
    # crossing bisection evaluates the interpolant over spans, not points:
    # the enclosure over [t1, t2] must hold exp(-t) for every t inside it
    ctx, alloc, env0, out, g = decay_step(h=0.2)
    rng = random.Random(11)
    h = out.h_used
    for _ in range(40):
        t1, t2 = sorted(rng.uniform(0.0, h) for _ in range(2))
        got = af.to_interval(gp.eval_gpoly(g, Interval(t1, t2), alloc)["x"])
        for t in [t1, t2] + [rng.uniform(t1, t2) for _ in range(10)]:
            assert got.contains(math.exp(-t)), (t1, t2, t)


def test_cubic_solution_zero_remainder():
    # x' = 3 t^2 (clock t): solution t^3 is cubic, so f''' of the state
    # component vanishes and the interpolant is exact up to slack.
    t = ex.var("t")
    ctx = FlowContext(("x", "t"), {"x": ex.mul(ex.const(3.0), ex.pow_int(t, 2)),
                                   "t": ex.ONE}, ODE23)
    alloc = NoiseAllocator()
    env0 = {"x": AffineForm(0.0), "t": AffineForm(0.0)}
    out = gi.guaranteed_step(ctx, env0, 1.0, LOOSE, alloc)
    h = out.h_used
    g = gp.build_gpoly(ctx, env0, out.f0, out.x_next, h, out.hull, alloc)
    assert g.rem_scale["x"].width < 1e-12  # vanishing remainder coefficient
    got = gp.eval_gpoly(g, Interval(h / 2, h / 2), alloc)
    b = af.to_interval(got["x"])
    assert b.contains((h / 2) ** 3)
    assert b.width < 1e-6


def test_remainder_contains_zero_when_fn_does():
    ctx, alloc, env0, out, g = decay_step()
    # remainder factor t^2 (t - h)^2 >= 0, so if f''' straddles 0 the
    # remainder interval must contain 0; force a straddling rem_scale
    g.rem_scale["x"] = Interval(-0.5, 0.5)
    got = gp.eval_gpoly(g, Interval(0.05, 0.05), alloc)
    assert af.to_interval(got["x"]).contains(math.exp(-0.05))


def test_out_of_span_rejected():
    ctx, alloc, env0, out, g = decay_step()
    with pytest.raises(DomainError):
        gp.eval_gpoly(g, Interval(-0.5, -0.2), alloc)
    with pytest.raises(DomainError):
        gp.eval_gpoly(g, Interval(0.0, out.h_used * 3), alloc)


def test_monotone_degradation_wider_z_never_tightens():
    ctx, alloc, env0, out, g = decay_step()
    wide_hull = {"x": out.hull["x"] + af.from_interval(Interval(-0.5, 0.5), alloc)}
    g2 = gp.build_gpoly(ctx, env0, out.f0, out.x_next, out.h_used, wide_hull,
                        alloc)
    a = af.to_interval(gp.eval_gpoly(g, Interval(0.07, 0.07), alloc)["x"])
    b = af.to_interval(gp.eval_gpoly(g2, Interval(0.07, 0.07), alloc)["x"])
    assert b.lo <= a.lo + 1e-15 and b.hi >= a.hi - 1e-15


def test_partition_of_unity_form_equals_tau_form_cubic():
    # the interpolant against the classical cubic at tau in {0, 1/4, 1/2, 1}
    # on randomized node data
    rng = random.Random(9)
    for _ in range(25):
        h = rng.uniform(0.05, 2.0)
        x0, d0 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        x1, d1 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        alloc = NoiseAllocator()
        g = gp.GPoly(
            variables=("x",),
            span=h,
            x0={"x": AffineForm(x0)},
            f0={"x": AffineForm(d0)},
            dx={"x": AffineForm(x1) - AffineForm(x0)},
            f1={"x": AffineForm(d1)},
            rem_scale={"x": Interval(0.0, 0.0)},
            ctx=None,
        )
        for tau in (0.0, 0.25, 0.5, 1.0):
            t = tau * h
            got = af.to_interval(gp.eval_gpoly(g, Interval(t, t), alloc)["x"])
            ref = cubic_hermite_reference(x0, d0, x1, d1, h, t)
            scale = max(1.0, abs(ref))
            assert got.lo - 1e-12 * scale <= ref <= got.hi + 1e-12 * scale
            assert got.width <= 1e-10 * scale


def rotation_step(h=0.1):
    """Three coupled variables with box nodes: a guard reading one of them
    must see exactly what a full evaluation gives it."""
    x, y, z = ex.var("x"), ex.var("y"), ex.var("z")
    ctx = FlowContext(("x", "y", "z"),
                      {"x": ex.neg(y), "y": x, "z": ex.add(x, ex.neg(z))},
                      ODE23)
    alloc = NoiseAllocator()
    env0 = {v: af.from_interval(Interval(c, c + 0.01), alloc)
            for v, c in (("x", 1.0), ("y", 0.0), ("z", 0.5))}
    out = gi.guaranteed_step(ctx, env0, h, LOOSE, alloc)
    g = gp.build_gpoly(ctx, env0, out.f0, out.x_next, out.h_used, out.hull,
                       alloc)
    return g, alloc, out.h_used


def test_named_subset_is_bitwise_the_full_evaluation():
    g, alloc, h = rotation_step()
    for t in (Interval(0.0, h), Interval(0.3 * h, 0.4 * h),
              Interval(h / 2, h / 2)):
        full = gp.eval_gpoly(g, t, alloc)
        for names in ({"x"}, {"z"}, {"y", "z"}):
            part = gp.eval_gpoly(g, t, alloc, names=names)
            assert set(part) == names
            for v in names:
                a, b = af.to_interval(part[v]), af.to_interval(full[v])
                assert (a.lo, a.hi) == (b.lo, b.hi), (v, t)


def creep_width(x0, h=0.1, rate=1e-6):
    """Width of the interpolant over its whole span for x' = rate from a
    1e-12-wide box at x0: the trajectories move by rate * h at most."""
    ctx = FlowContext(("x",), {"x": ex.const(rate)}, ODE23)
    alloc = NoiseAllocator()
    env0 = {"x": af.from_interval(Interval(x0, x0 + 1e-12), alloc)}
    out = gi.guaranteed_step(ctx, env0, h, LOOSE, alloc)
    g = gp.build_gpoly(ctx, env0, out.f0, out.x_next, out.h_used, out.hull,
                       alloc)
    got = gp.eval_gpoly(g, Interval(0.0, out.h_used), alloc)["x"]
    return af.to_interval(got).width


def test_width_scales_with_node_differences_not_magnitude():
    near_zero, near_1000 = creep_width(0.0), creep_width(1000.0)
    # the reachable range is 1e-7 wide; a sum of A_i * x_i would add about
    # |x| times the basis linearisation error on top
    assert near_zero <= 1e-6
    assert near_1000 <= 2.0 * near_zero + 1e-9
