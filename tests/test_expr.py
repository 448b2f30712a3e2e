"""Expression DAG: affine evaluation and its compiled programs, symbolic
differentiation against finite differences, stage-polynomial derivatives,
resets and the guard strictness transform."""

import dis
import gc
import math
import random
from fractions import Fraction

import pytest

from hyflow import affine as af
from hyflow import benchmarks
from hyflow import dsl as D
from hyflow import expr as ex
from hyflow.engine import simulate, validate_monte_carlo
from hyflow.affine import AffineForm, NoiseAllocator, Rel
from hyflow.config import SimConfig
from hyflow.errors import DomainError, ModelError
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
    grad = ex.compile_scalar([ex.derivative(e, {"x": ex.ONE, "y": ex.ZERO}),
                              ex.derivative(e, {"x": ex.ZERO, "y": ex.ONE})],
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


def model_dags(name, pad=0.0):
    """The flow, ode23 f^(3) (Lie) and stage-derivative roots of every
    location of a registry model, by (location, side), and an environment
    over its initial box, each side widened by `pad` times (1 + its
    magnitude), plus the step-time variable."""
    ha, _cfg = benchmarks.load(benchmarks.REGISTRY[name])
    alloc = NoiseAllocator()
    env = {}
    for v in ha.variables:
        box = ha.initial_box[v]
        d = pad * (1.0 + box.mag)
        env[v] = af.from_interval(Interval(box.lo - d, box.hi + d), alloc)
    env[ex.TAU] = af.from_interval(Interval(0.0, 0.02), alloc)
    dags = {}
    for loc, flow in ha.flows.items():
        ctx = FlowContext(ha.variables, flow, ODE23)
        p = ctx.table.order
        dags[loc, "flow"] = [flow[v] for v in ha.variables]
        dags[loc, "lie"] = ctx.f_deriv(p)
        dags[loc, "stage"] = ctx.phi_deriv()
    return dags, env, alloc


def vanderpol_dags():
    dags, env, alloc = model_dags("vanderpol")
    return dags["main", "lie"], dags["main", "stage"], env, alloc


def interpreted(roots, env, alloc):
    """The roots' values by a plain recursive walk: each node once, its
    last argument first, each op applied through its row, except that a
    division by a constant c scales by an enclosure of 1/c, as programs
    do, where the div row would take a reciprocal and a product."""
    vals = {}

    def visit(n):
        if n.eid in vals:
            return
        for a in reversed(n.args):
            visit(a)
        args = [vals[a.eid] for a in n.args]
        if n.op == "const":
            vals[n.eid] = AffineForm(n.value)
        elif n.op == "var":
            vals[n.eid] = env[n.name]
        elif n.op == "div" and n.args[1].op == "const" and n.args[1].value:
            q = 1 / Fraction(n.args[1].value)
            m = float(q)
            lo, hi = (m, m) if Fraction(m) == q else (
                math.nextafter(m, -math.inf), math.nextafter(m, math.inf))
            vals[n.eid] = af.lin(0.0, ((lo, hi, args[0]),))
        else:
            vals[n.eid] = ex.OPS[n.op].affine(*args, *n.params, alloc)

    for r in roots:
        visit(r)
    return [vals[r.eid] for r in roots]


def exact(form):
    return form.center, dict(form.dev), form.slack


def test_affine_program_matches_a_per_node_walk():
    """A program sums each linear subtree in one `af.lin` call, which
    rounds differently from a node-by-node walk, so over the flow, Lie and
    stage DAGs of every registry model the two agree up to rounding: on
    the first (compiling) call and the cached one, they draw the same
    fresh symbols (the walk, too, scales at a division by a constant,
    where the div row would draw one) and each root reads the same ones,
    each root's width agrees within 1e-9 relative, and the scalar value
    of the DAG at sampled points of the environment lies in every root.
    The initial boxes are widened by 1e-3 relative: from a
    point, a width is all rounding charge, which fused sums lay out
    differently by design (lorenz's flow: 2.8e-13 fused, 7.1e-14 walked).
    For the same reason the widths may also differ by 1e-14 of the root's
    magnitude, which matters only where the width is a tiny share of it
    (car's third Lie root: width 6.4e-11 at magnitude 1.6e-3)."""
    rng = random.Random(5)
    for name in benchmarks.REGISTRY:
        dags, env, alloc = model_dags(name, pad=1e-3)
        start = alloc.fresh()
        order = list(env)
        ids = {i for f in env.values() for i in f.dev}
        for (loc, side), roots in dags.items():
            where = f"{name} {loc} {side}"
            for _ in range(2):
                a_prog, a_walk = NoiseAllocator(start), NoiseAllocator(start)
                got = ex.eval_affine_many(roots, env, a_prog)
                want = interpreted(roots, env, a_walk)
                assert a_prog.fresh() == a_walk.fresh(), where
                for g, w in zip(got, want):
                    assert set(g.dev) == set(w.dev), where
                    wg, ww = af.to_interval(g).width, af.to_interval(w).width
                    floor = 1e-14 * af.to_interval(w).mag
                    assert abs(wg - ww) <= 1e-9 * ww + floor, (where, wg, ww)
            if not all(af.to_interval(f).width for f in got):
                continue
            fn = ex.compile_scalar(roots, order)
            for _ in range(20):
                val = {i: rng.uniform(-1.0, 1.0) for i in ids}
                for f, value in zip(got, fn([af.sample(env[v], val)
                                             for v in order])):
                    box = af.to_interval(f)
                    tol = 1e-12 * (1.0 + abs(value))
                    assert box.lo - tol <= value <= box.hi + tol, where


def test_affine_program_is_compiled_once(monkeypatch):
    _lie, stage, env, alloc = vanderpol_dags()
    first = ex.eval_affine_many(iter(stage), env, NoiseAllocator(1000))
    home = max(stage, key=lambda r: r.eid)
    assert tuple(r.eid for r in stage) in home._prog
    fn = home._prog[tuple(r.eid for r in stage)]
    # constants are forms built once; no node is kept alive by a program
    assert not any(isinstance(v, ex.Expr) for v in fn.__globals__.values())
    assert any(isinstance(v, AffineForm) for v in fn.__globals__.values())

    def no_compile(*args):
        raise AssertionError("program compiled again")

    monkeypatch.setattr(ex, "_program", no_compile)
    again = ex.eval_affine_many(stage, env, NoiseAllocator(1000))
    assert [exact(f) for f in again] == [exact(f) for f in first]
    assert ex.eval_affine_many([], env, alloc) == []


def test_affine_program_products_reach_the_affine_module(monkeypatch):
    """A program multiplies through `OPS["mul"]`, which looks `af.mul` up
    at each call, so a wrapper installed after compiling sees every
    product of two non-constants; a product with a constant factor is a
    term of an `af.lin` sum."""
    lie, _stage, env, _alloc = vanderpol_dags()
    ex.eval_affine_many(lie, env, NoiseAllocator(1000))
    calls = []
    mul = af.mul

    def counted(*args):
        calls.append(1)
        return mul(*args)

    monkeypatch.setattr(af, "mul", counted)
    ex.eval_affine_many(lie, env, NoiseAllocator(1000))
    order = ex._postorder(lie)
    products = sum(n.op == "mul" and all(a.op != "const" for a in n.args)
                   for n in order)
    assert any(n.op == "mul" and n.args[0].op == "const" for n in order)
    assert products > 0 and len(calls) == products


def kernel_calls(roots):
    """The calls one evaluation of the affine program of `roots` makes,
    counted in its bytecode: one per node that gets a line."""
    fn = ex._affine_program(tuple(roots))
    return sum(ins.opname.startswith("CALL")
               for ins in dis.get_instructions(fn))


def test_fused_programs_pin_their_kernel_calls():
    """Programs make one call per line: a `_bound` per variable, an
    `af.lin` per maximal linear subtree, and one per other node, pinned
    here as (nodes, calls). Before linear subtrees were fused and
    constants built once, vanderpol's stage program made 126 calls and
    car's 294, one per node; a change that undoes the fusion fails here.
    The f^(3) (Lie) programs are one forward pass along the flow; built
    as sums of partials times the flow they grow, lorenz's to (140, 62),
    and fail here. A scaling by a coefficient that is not a float, such as
    the 0.1 of thermostat's f^(3) = (-0.1)^3 (-0.1 (T - 14)), is a term of
    the sum around it; as a call of its own it made thermostat's Lie
    programs 5 calls, watertank's 17 and 21, and car's 49 and 169."""
    counts = {}
    for name in ("vanderpol", "car", "lorenz", "brusselator", "watertank",
                 "thermostat"):
        dags, _env, _alloc = model_dags(name)
        for (loc, side), roots in dags.items():
            if side != "flow" and ex.count_nodes(*roots) > 1:
                counts[name, loc, side] = (ex.count_nodes(*roots),
                                           kernel_calls(roots))
    assert counts == {
        ("vanderpol", "main", "lie"): (46, 31),
        ("vanderpol", "main", "stage"): (126, 83),
        ("car", "main", "lie"): (75, 45), ("car", "main", "stage"): (294, 152),
        ("lorenz", "main", "lie"): (70, 41),
        ("lorenz", "main", "stage"): (135, 74),
        ("brusselator", "main", "lie"): (57, 36),
        ("brusselator", "main", "stage"): (163, 94),
        ("watertank", "drain", "lie"): (37, 14),
        ("watertank", "fill", "lie"): (40, 18),
        ("thermostat", "cool", "lie"): (8, 2),
        ("thermostat", "heat", "lie"): (11, 2),
    }


def test_linear_subtrees_fuse_into_one_call():
    x, y, z = ex.var("x"), ex.var("y"), ex.var("z")
    xy = ex.mul(x, y)
    # 0.5*(x*y - 3*z) + (x*y + 0.25): one sum over x*y and z, the like
    # terms merged to 1.5, the constant folded in
    e = ex.add(ex.mul(ex.const(0.5), ex.sub(xy, ex.mul(ex.const(3.0), z))),
               ex.add(xy, ex.const(0.25)))
    assert kernel_calls([e]) == 3 + 1 + 1  # 3 _bound, x*y, one lin
    alloc = NoiseAllocator()
    env = env_from_boxes(alloc, x=(1.0, 2.0), y=(-1.0, 0.5), z=(0.0, 3.0))
    got = ex.eval_affine(e, env, NoiseAllocator(100))
    xy_form = af.mul(env["x"], env["y"], NoiseAllocator(100))
    want = af.lin(0.25, ((1.5, 1.5, xy_form), (-1.5, -1.5, env["z"])))
    assert exact(got) == exact(want)
    # 0.1 * 3 is not a float: the sum scales z by an enclosure of it
    tenth = ex.mul(ex.const(0.1), ex.mul(ex.const(3.0), z))
    assert kernel_calls([tenth]) == 1 + 1  # _bound, one lin
    got = ex.eval_affine(tenth, env, NoiseAllocator(100))
    q = Fraction(0.1) * 3
    assert got.dev.keys() == env["z"].dev.keys()
    box = af.to_interval(got)
    assert box.lo <= 0 and Fraction(box.hi) >= 3 * q
    assert box.width < 0.9 + 1e-14
    # a product with no finite float enclosure stays two terms, and its
    # overflow is a domain error of the evaluation, not of the compiler
    huge = ex.mul(ex.const(1e200), ex.mul(ex.const(1e200), z))
    assert kernel_calls([huge]) == 1 + 2
    with pytest.raises(DomainError):
        ex.eval_affine(huge, env_from_boxes(NoiseAllocator(), z=(1.0, 2.0)),
                       NoiseAllocator(100))


def test_division_by_a_constant_is_a_scaling():
    x = ex.var("x")
    alloc = NoiseAllocator()
    env = env_from_boxes(alloc, x=(1.0, 2.0))
    start = alloc.fresh()
    # 1/3 is not a float: x scaled by an enclosure of it, no fresh symbol
    third = NoiseAllocator(start)
    got = ex.eval_affine(ex.div(x, ex.const(3.0)), env, third)
    assert third.fresh() == start
    box = af.to_interval(got)
    assert box.lo <= 1.0 / 3.0 and box.hi >= 2.0 / 3.0
    assert box.width < 1.0 / 3.0 + 1e-14
    # 1/4 is: the division is a term of the sum around it
    assert kernel_calls([ex.add(ex.div(x, ex.const(4.0)), x)]) == 2
    quarter = ex.eval_affine(ex.div(x, ex.const(4.0)), env, alloc)
    assert exact(quarter) == exact(af.lin(0.0, ((0.25, 0.25, env["x"]),)))
    with pytest.raises(DomainError, match="division by exact zero"):
        ex.eval_affine(ex.div(x, ex.const(0.0)), env, alloc)
    # 1/5e-324 has no finite float enclosure: the div row evaluates the
    # node, and its overflow is a domain error
    with pytest.raises(DomainError):
        ex.eval_affine(ex.div(x, ex.const(5e-324)), env, alloc)


# ------------------------------------------------------------- derivatives


def test_total_derivative_base_cases():
    x = ex.var("x")
    flow = {"x": ex.neg(x)}
    assert ex.derivative(x, flow) is ex.neg(x)
    t = ex.var("t")
    flow_t = {"t": ex.ONE}
    d = ex.derivative(ex.pow_int(t, 2), flow_t)
    fn = ex.compile_scalar((d,), ["t"])
    for v in (0.0, 1.3, -2.0):
        assert fn([v])[0] == pytest.approx(2 * v)
    # a variable the seeds do not name (edge_cannot_fire relies on it)
    with pytest.raises(ModelError, match="'t'"):
        ex.derivative(ex.mul(x, t), flow)


def brusselator_flow():
    x, y = ex.var("x"), ex.var("y")
    fx = ex.add(ex.sub(ex.ONE, ex.mul(ex.const(2.5), x)),
                ex.mul(ex.pow_int(x, 2), y))
    fy = ex.sub(ex.mul(ex.const(1.5), x), ex.mul(ex.pow_int(x, 2), y))
    return {"x": fx, "y": fy}


def test_total_derivative_vs_finite_differences():
    flow = brusselator_flow()
    memo = {}  # shared across roots and orders, it changes no node
    f1x, f1y = (ex.derivative(flow[v], flow, memo) for v in "xy")
    for e in (f1x, f1y):
        assert ex.derivative(e, flow, memo) is ex.derivative(e, flow)
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
    d = ex.derivative(ex.abs_(u), flow)  # sgn(u) * 1
    alloc = NoiseAllocator()
    env = env_from_boxes(alloc, u=(-1.0, 1.0))
    box = af.to_interval(ex.eval_affine(d, env, alloc))
    assert box.lo <= -1.0 and box.hi >= 1.0


# ------------------------------------------------------ stage derivatives

BS23_A = ((), (0.5,), (0.0, 0.75))
BS23_B = (2 / 9, 1 / 3, 4 / 9)


def test_stage_derivative_constant_flow():
    d = ex.stage_poly_derivative(BS23_A, BS23_B, {"x": ex.ONE}, ("x",), 3)
    assert d == [ex.ZERO]


def test_stage_derivative_euler_linear():
    # Euler on x' = x gives phi = x + tau*x, so the second derivative is 0.
    d = ex.stage_poly_derivative(((),), (1.0,), {"x": ex.var("x")}, ("x",), 2)
    assert d == [ex.ZERO]


def test_stage_derivative_ode23_matches_finite_difference():
    flow = {"x": ex.neg(ex.var("x"))}
    d3 = ex.stage_poly_derivative(BS23_A, BS23_B, flow, ("x",), 3)

    # independent scalar phi(tau) for x' = -x from x0
    def phi(x0, tau):
        k1 = -x0
        k2 = -(x0 + tau / 2 * k1)
        k3 = -(x0 + 3 * tau / 4 * k2)
        return x0 + tau / 9 * (2 * k1 + 3 * k2 + 4 * k3)

    fn = ex.compile_scalar(d3, ["x", ex.TAU])
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
