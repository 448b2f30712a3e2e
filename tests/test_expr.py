"""Expression DAG: affine evaluation and its compiled programs, symbolic
differentiation against finite differences, stage-polynomial derivatives,
resets and the guard strictness transform."""

import gc
import random

import pytest

from hyflow import affine as af
from hyflow import benchmarks
from hyflow import dsl as D
from hyflow import expr as ex
from hyflow.engine import simulate, validate_monte_carlo
from hyflow.affine import AffineForm, NoiseAllocator, Rel
from hyflow.config import SimConfig
from hyflow.errors import ModelError
from hyflow.integrator import ODE23, FlowContext
from hyflow.interval import Interval
from hyflow.trivalent import Trivalent


def env_from_boxes(alloc, **boxes):
    return {k: af.from_interval(Interval(*v), alloc) for k, v in boxes.items()}


def test_interning_and_folding():
    x = ex.var("x")
    assert ex.var("x") is x
    assert ex.add(x, ex.ZERO) is x
    assert ex.sub(x, x) is ex.ZERO
    assert ex.mul(ex.ONE, x) is x
    assert ex.mul(ex.ZERO, x) is ex.ZERO
    assert ex.add(ex.const(2), ex.const(3)) is ex.const(5)
    assert ex.neg(ex.neg(x)) is x
    assert ex.pow_int(x, 1) is x
    assert ex.pow_int(x, 0) is ex.ONE


def test_eval_monomial_example():
    # x^2 * y over x in [0.9, 1], y in [0, 0.1]; corner enumeration of the
    # monotone product gives the exact range [0, 0.1].
    alloc = NoiseAllocator()
    env = env_from_boxes(alloc, x=(0.9, 1.0), y=(0.0, 0.1))
    e = ex.mul(ex.pow_int(ex.var("x"), 2), ex.var("y"))
    box = af.to_interval(ex.eval_affine(e, env, alloc))
    corners = [xx**2 * yy for xx in (0.9, 1.0) for yy in (0.0, 0.1)]
    assert box.lo <= min(corners) and box.hi >= max(corners)
    assert box.lo >= -0.05 and box.hi <= 0.15  # not absurdly loose


def test_eval_time_and_sin():
    alloc = NoiseAllocator()
    env = {"t": AffineForm(0.0)}
    assert ex.eval_affine(ex.var("t"), env, alloc).center == 0.0
    e = ex.sin(ex.mul(ex.const(10.0), ex.var("t")))
    box = af.to_interval(ex.eval_affine(e, env, alloc))
    assert abs(box.lo) < 1e-300 and abs(box.hi) < 1e-300


def test_eval_unbound_variable():
    with pytest.raises(ModelError, match="unbound variable 'q'"):
        ex.eval_affine(ex.var("q"), {}, NoiseAllocator())
    e = ex.add(ex.var("x"), ex.mul(ex.var("q"), ex.var("x")))
    alloc = NoiseAllocator()
    env = env_from_boxes(alloc, x=(0.0, 1.0))
    for _ in range(2):  # compiling, then cached
        with pytest.raises(ModelError, match="unbound variable 'q'"):
            ex.eval_affine(e, env, alloc)
    with pytest.raises(ModelError, match="variable 'q' not in scalar signature"):
        ex.compile_scalar((e,), ["x"])


def test_eval_affine_range_soundness_random_exprs():
    rng = random.Random(42)
    names = ["x", "y"]
    leaves = [ex.var("x"), ex.var("y"), ex.const(0.5), ex.const(2.0)]

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        k = rng.random()
        if k < 0.55:
            op = rng.choice([ex.add, ex.sub, ex.mul])
            return op(rand_expr(depth - 1), rand_expr(depth - 1))
        if k < 0.7:
            return ex.pow_int(rand_expr(depth - 1), rng.choice([2, 3]))
        op = rng.choice([ex.sin, ex.cos, ex.neg, ex.abs_])
        return op(rand_expr(depth - 1))

    for _ in range(60):
        e = rand_expr(4)
        alloc = NoiseAllocator()
        env = env_from_boxes(alloc, x=(-0.6, 0.4), y=(0.2, 1.0))
        ids = {i for f in env.values() for i in f.dev}
        result = af.to_interval(ex.eval_affine(e, env, alloc))
        fn = ex.compile_scalar((e,), names)
        for _ in range(40):
            val = {i: rng.uniform(-1, 1) for i in ids}
            xv = af.sample(env["x"], val)
            yv = af.sample(env["y"], val)
            got = fn([xv, yv])[0]
            assert result.lo - 1e-9 <= got <= result.hi + 1e-9, ex.to_text(e)


def test_guard_eval_examples():
    alloc = NoiseAllocator()
    g = ex.comparison(ex.var("y"), Rel.LE, ex.ZERO)
    env = env_from_boxes(alloc, y=(1.0, 2.0))
    assert ex.eval_guard(g, env, alloc) is Trivalent.FALSE
    env = env_from_boxes(alloc, y=(-1.0, 1.0))
    assert ex.eval_guard(g, env, alloc) is Trivalent.UNKNOWN
    # polynomial circle guard at a scalar point: 0.2025 + 0.0025 < 1
    lhs = ex.add(
        ex.pow_int(ex.add(ex.var("x"), ex.const(3 / 20)), 2),
        ex.pow_int(ex.add(ex.var("t"), ex.const(1 / 20)), 2),
    )
    g2 = ex.comparison(lhs, Rel.LT, ex.ONE)
    env = {"x": AffineForm(0.3), "t": AffineForm(0.0)}
    assert ex.eval_guard(g2, env, alloc) is Trivalent.TRUE


def test_kleene_combinations():
    alloc = NoiseAllocator()
    t = ex.comparison(ex.const(-1.0), Rel.LT, ex.ZERO)
    f = ex.comparison(ex.const(1.0), Rel.LT, ex.ZERO)
    u = ex.comparison(ex.var("y"), Rel.LT, ex.ZERO)
    env = env_from_boxes(alloc, y=(-1.0, 1.0))
    gand = ex.BoolOp("and", (t, u))
    gor = ex.BoolOp("or", (f, u))
    assert ex.eval_guard(gand, env, alloc) is Trivalent.UNKNOWN
    assert ex.eval_guard(ex.BoolOp("and", (f, u)), env, alloc) is Trivalent.FALSE
    assert ex.eval_guard(gor, env, alloc) is Trivalent.UNKNOWN
    assert ex.eval_guard(ex.BoolOp("or", (t, u)), env, alloc) is Trivalent.TRUE
    assert ex.eval_guard(u.negate(), env, alloc) is Trivalent.UNKNOWN


# --------------------------------------------------------------- op table

X, Y = ex.var("x"), ex.var("y")
U = ex.add(ex.mul(X, Y), ex.const(0.25))  # in [0.75, 3.25] on the box
# (op, operands) of one sample node per case; the op's row builds it
OP_CASES = [
    ("add", (U, Y)), ("sub", (U, X)), ("mul", (U, Y)), ("div", (U, Y)),
    ("neg", (U,)), ("pow", (U, 3)), ("pow", (Y, -2)), ("sin", (U,)),
    ("cos", (U,)), ("exp", (U,)), ("sqrt", (U,)), ("log", (U,)),
    ("abs", (ex.sub(X, Y),)), ("sgn", (ex.sub(X, Y),)),
]
BOX = {"x": (0.5, 1.5), "y": (1.0, 2.0)}
POINTS = [(0.6, 1.1), (0.9, 1.7), (1.3, 1.2), (1.45, 1.95), (0.5, 2.0)]


def test_every_op_has_a_case():
    assert {op for op, _ in OP_CASES} == set(ex.OPS)


# U's affine square reaches below zero although U >= 0.75, so U^-2 holds
# only when the reciprocal is taken before the power
WIDE_RECIPROCAL = pytest.param("pow", (U, -2), id="pow_wide_reciprocal")


@pytest.mark.parametrize(
    "op, operands",
    [pytest.param(op, operands, id=f"{op}{k}")
     for k, (op, operands) in enumerate(OP_CASES)] + [WIDE_RECIPROCAL])
def test_op_row_is_consistent(op, operands):
    """Each part of an op's row agrees with the compiled scalar code: the
    constant fold, the affine enclosure, the derivative rule, and the text,
    which parses back to the very node."""
    row = ex.OPS[op]
    e = row.make(*operands)
    assert e.op == op
    args = [a for a in operands if isinstance(a, ex.Expr)]
    params = [p for p in operands if not isinstance(p, ex.Expr)]
    assert ex.substitute(e, {}) is e
    assert D.parse_expr_string(ex.to_text(e)) is e
    f = ex.compile_scalar([e, *args], ["x", "y"])
    alloc = NoiseAllocator()
    got = af.to_interval(ex.eval_affine(e, env_from_boxes(alloc, **BOX), alloc))
    grad = ex.compile_scalar([ex.derivative(e, "x"), ex.derivative(e, "y")],
                             ["x", "y"])
    h = 1e-6
    for p in POINTS:
        value, *arg_values = f(p)
        assert got.contains(value)
        assert row.make(*map(ex.const, arg_values), *params) is ex.const(value)
        for i, slope in enumerate(grad(p)):
            plus, minus = list(p), list(p)
            plus[i] += h
            minus[i] -= h
            fd = (f(plus)[0] - f(minus)[0]) / (2 * h)
            assert slope == pytest.approx(fd, rel=1e-5, abs=1e-6)


# a bouncing ball whose constants no other model or test interns, so its
# nodes are new whatever ran before
FRESH_BALL = """\
set duration = 1;
init y = [3.17, 3.18];
init vy = 0;
g = 9.79;
y' = vy;
vy' = -g;
on y <= 0 do { vy = -0.77*vy };
"""


def test_dropped_model_frees_its_nodes():
    gc.collect()
    before = len(ex._INTERN)
    ha, settings = D.lower_to_automaton(D.parse_dsl(FRESH_BALL))
    pipe = simulate(ha, SimConfig(**settings))
    assert pipe.complete
    assert validate_monte_carlo(ha, pipe, 2, seed=1)["contained"] == 2
    assert len(ex._INTERN) > before
    del ha, pipe
    gc.collect()
    assert len(ex._INTERN) == before


# --------------------------------------------------------- affine programs


def vanderpol_dags():
    """vanderpol's ode23 f^(3) (Lie) and stage-derivative roots, and an
    environment over its initial box plus the step-time variable."""
    ha, _cfg = benchmarks.load(benchmarks.REGISTRY["vanderpol"])
    (flow,) = ha.flows.values()
    ctx = FlowContext(ha.variables, flow, ODE23)
    p = ctx.table.order
    lie = [ctx.f_deriv(p)[v] for v in ha.variables]
    stage = [ctx.phi_deriv()[v] for v in ha.variables]
    alloc = NoiseAllocator()
    env = {v: af.from_interval(ha.initial_box[v], alloc) for v in ha.variables}
    env[ex.TAU] = af.from_interval(Interval(0.0, 0.02), alloc)
    return lie, stage, env, alloc


def interpreted(roots, env, alloc):
    """The roots' values by a plain recursive walk: each node once, its
    last argument first, each op applied through its row."""
    vals = {}

    def visit(n):
        if n.eid in vals:
            return
        for a in reversed(n.args):
            visit(a)
        if n.op == "const":
            vals[n.eid] = AffineForm(n.value)
        elif n.op == "var":
            vals[n.eid] = env[n.name]
        else:
            vals[n.eid] = ex.OPS[n.op].affine(
                *(vals[a.eid] for a in n.args), *n.params, alloc)

    for r in roots:
        visit(r)
    return [vals[r.eid] for r in roots]


def exact(form):
    return form.center, dict(form.dev), form.slack


def test_affine_program_matches_a_per_node_walk():
    """Programs draw fresh noise symbols in the walk's order, so centers,
    symbol ids, coefficients and slacks agree exactly, on the first
    (compiling) call and on the cached one."""
    lie, stage, env, alloc = vanderpol_dags()
    start = alloc.fresh()
    for roots in (lie, stage, lie + stage):
        for _ in range(2):
            a_prog, a_walk = NoiseAllocator(start), NoiseAllocator(start)
            got = ex.eval_affine_many(roots, env, a_prog)
            want = interpreted(roots, env, a_walk)
            assert [exact(f) for f in got] == [exact(f) for f in want]
            assert a_prog.fresh() == a_walk.fresh()


def test_affine_program_is_compiled_once(monkeypatch):
    _lie, stage, env, alloc = vanderpol_dags()
    first = ex.eval_affine_many(iter(stage), env, NoiseAllocator(1000))
    home = max(stage, key=lambda r: r.eid)
    assert tuple(r.eid for r in stage) in home._prog

    def no_compile(*args):
        raise AssertionError("program compiled again")

    monkeypatch.setattr(ex, "_program", no_compile)
    again = ex.eval_affine_many(stage, env, NoiseAllocator(1000))
    assert [exact(f) for f in again] == [exact(f) for f in first]
    assert ex.eval_affine_many([], env, alloc) == []


def test_affine_program_products_reach_the_affine_module(monkeypatch):
    """A program multiplies through `OPS["mul"]`, which looks `af.mul` up
    at each call, so a wrapper installed after compiling sees every
    product."""
    lie, _stage, env, _alloc = vanderpol_dags()
    ex.eval_affine_many(lie, env, NoiseAllocator(1000))
    calls = []
    mul = af.mul

    def counted(*args):
        calls.append(1)
        return mul(*args)

    monkeypatch.setattr(af, "mul", counted)
    ex.eval_affine_many(lie, env, NoiseAllocator(1000))
    products = sum(n.op == "mul" for n in ex._postorder(lie))
    assert products > 0 and len(calls) == products


# ------------------------------------------------------------- derivatives


def test_total_derivative_base_cases():
    x = ex.var("x")
    flow = {"x": ex.neg(x)}
    assert ex.total_derivative(x, flow) is ex.neg(x)
    t = ex.var("t")
    flow_t = {"t": ex.ONE}
    d = ex.total_derivative(ex.pow_int(t, 2), flow_t)
    fn = ex.compile_scalar((d,), ["t"])
    for v in (0.0, 1.3, -2.0):
        assert fn([v])[0] == pytest.approx(2 * v)


def brusselator_flow():
    x, y = ex.var("x"), ex.var("y")
    fx = ex.add(ex.sub(ex.ONE, ex.mul(ex.const(2.5), x)),
                ex.mul(ex.pow_int(x, 2), y))
    fy = ex.sub(ex.mul(ex.const(1.5), x), ex.mul(ex.pow_int(x, 2), y))
    return {"x": fx, "y": fy}


def test_total_derivative_vs_finite_differences():
    flow = brusselator_flow()
    f1x = ex.total_derivative(flow["x"], flow)
    f1y = ex.total_derivative(flow["y"], flow)
    names = ["x", "y"]
    f = ex.compile_scalar((flow["x"], flow["y"]), names)
    d = ex.compile_scalar((f1x, f1y), names)
    rng = random.Random(3)
    for _ in range(10):
        p = [rng.uniform(0.3, 1.5), rng.uniform(0.1, 1.2)]
        # central difference of f along the flow direction
        h = 1e-6
        fp = f(p)
        plus = [p[i] + h * fp[i] for i in range(2)]
        minus = [p[i] - h * fp[i] for i in range(2)]
        for i in range(2):
            fd = (f(plus)[i] - f(minus)[i]) / (2 * h)
            sym = d(p)[i]
            assert sym == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_abs_derivative_straddles_zero():
    u = ex.var("u")
    flow = {"u": ex.ONE}
    d = ex.total_derivative(ex.abs_(u), flow)  # sgn(u) * 1
    alloc = NoiseAllocator()
    env = env_from_boxes(alloc, u=(-1.0, 1.0))
    box = af.to_interval(ex.eval_affine(d, env, alloc))
    assert box.lo <= -1.0 and box.hi >= 1.0


# ------------------------------------------------------ stage derivatives

BS23_A = ((), (0.5,), (0.0, 0.75))
BS23_B = (2 / 9, 1 / 3, 4 / 9)


def test_stage_derivative_constant_flow():
    d = ex.stage_poly_derivative(BS23_A, BS23_B, {"x": ex.ONE}, ("x",), 3)
    assert d["x"] is ex.ZERO


def test_stage_derivative_euler_linear():
    # Euler on x' = x gives phi = x + tau*x, so the second derivative is 0.
    d = ex.stage_poly_derivative(((),), (1.0,), {"x": ex.var("x")}, ("x",), 2)
    assert d["x"] is ex.ZERO


def test_stage_derivative_ode23_matches_finite_difference():
    flow = {"x": ex.neg(ex.var("x"))}
    d3 = ex.stage_poly_derivative(BS23_A, BS23_B, flow, ("x",), 3)

    # independent scalar phi(tau) for x' = -x from x0
    def phi(x0, tau):
        k1 = -x0
        k2 = -(x0 + tau / 2 * k1)
        k3 = -(x0 + 3 * tau / 4 * k2)
        return x0 + tau / 9 * (2 * k1 + 3 * k2 + 4 * k3)

    fn = ex.compile_scalar((d3["x"],), ["x", ex.TAU])
    x0 = 1.7
    for tau in (0.05, 0.1, 0.2, 0.3, 0.4):
        h = 1e-3
        pts = [phi(x0, tau + k * h) for k in (-2, -1, 0, 1, 2)]
        fd3 = (-pts[0] / 2 + pts[1] - pts[3] + pts[4] / 2) / h**3
        assert fn([x0, tau])[0] == pytest.approx(fd3, rel=1e-4, abs=1e-5)


def test_stage_derivative_node_cap(monkeypatch):
    monkeypatch.setattr(ex, "NODE_CAP", 50)
    flow = brusselator_flow()
    with pytest.raises(ex.ConfigError):
        ex.stage_poly_derivative(BS23_A, BS23_B, flow, ("x", "y"), 3)


# ----------------------------------------------------------------- resets


def test_reset_simultaneous_semantics():
    r = ex.Reset((("x", ex.var("y")), ("y", ex.var("x"))))
    alloc = NoiseAllocator()
    env = {"x": AffineForm(1.0), "y": AffineForm(2.0)}
    out = r.apply_affine(env, alloc)
    assert out["x"].center == 2.0 and out["y"].center == 1.0


# ------------------------------------------------------- guard transform


def make_edge(guard, assigns):
    return ex.Edge("l", "l", guard, ex.Reset(tuple(assigns)), "e")


def test_transform_closed_guard_pins_boundary():
    y, v = ex.var("y"), ex.var("v")
    edge = make_edge(ex.comparison(y, Rel.LE, ex.ZERO),
                     [("v", ex.mul(ex.const(-0.8), v))])
    out = ex.guard_strictness_transform(edge)
    assert out.guard.rel is Rel.LT
    assigns = dict(out.reset.assigns)
    assert assigns["y"] is ex.ZERO
    assert out.boundary_reset and not out.warning
    # post-reset state on the boundary no longer satisfies the guard
    alloc = NoiseAllocator()
    env = {"y": AffineForm(0.0), "v": AffineForm(-3.0)}
    post = out.reset.apply_affine(env, alloc)
    assert ex.eval_guard(out.guard, post, alloc) is Trivalent.FALSE


def test_transform_strict_guard_with_existing_pin_unchanged():
    y, v = ex.var("y"), ex.var("v")
    edge = make_edge(ex.comparison(y, Rel.LT, ex.ZERO),
                     [("y", ex.ZERO), ("v", ex.mul(ex.const(-0.8), v))])
    out = ex.guard_strictness_transform(edge)
    assert out.guard == edge.guard
    assert out.reset == edge.reset
    assert out.boundary_reset


def test_transform_conjunction_warns():
    y = ex.var("y")
    g = ex.BoolOp("and", (ex.comparison(y, Rel.LE, ex.ZERO),
                          ex.comparison(y, Rel.GE, ex.const(-1.0))))
    out = ex.guard_strictness_transform(make_edge(g, []))
    assert out.warning and not out.boundary_reset


def test_transform_nonlinear_boundary_expression():
    # guard y < sin(x) with a reset pinning y := sin(x)
    y, x = ex.var("y"), ex.var("x")
    edge = make_edge(ex.comparison(y, Rel.LT, ex.sin(x)),
                     [("y", ex.sin(x)), ("vy", ex.neg(ex.var("vy")))])
    out = ex.guard_strictness_transform(edge)
    assert out.boundary_reset and not out.warning


def test_transform_untouched_guard_vars():
    # pendulum-style: guard over theta, reset touches only dtheta
    th, dth = ex.var("theta"), ex.var("dtheta")
    g = ex.comparison(ex.sin(th), Rel.LE, ex.const(-0.5))
    out = ex.guard_strictness_transform(make_edge(g, [("dtheta", ex.neg(dth))]))
    assert out.guard.rel is Rel.LT
    assert out.boundary_reset  # guard value rides through the jump unchanged


def test_automaton_validation():
    x = ex.var("x")
    with pytest.raises(ModelError):
        ex.HybridAutomaton(("x",), {"l": {}}, [], "l", {"x": Interval(0, 1)})
    with pytest.raises(ModelError):
        ex.HybridAutomaton(("x",), {"l": {"x": ex.var("zz")}}, [], "l",
                           {"x": Interval(0, 1)})
    ha = ex.HybridAutomaton(("x",), {"l": {"x": ex.neg(x)}}, [], "l",
                            {"x": Interval(0, 1)})
    assert ha.outgoing("l") == []
