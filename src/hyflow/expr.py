"""Expression DAG, guards, resets and the hybrid-automaton model.

Expressions are hash-consed immutable nodes: structurally identical
subtrees are the same object, so repeated differentiation and substitution
(needed for the truncation and interpolation remainder bounds) stay
polynomial in the number of *distinct* subterms. Smart constructors fold
constants and the cheap identities; there is deliberately no general CAS.

Evaluation is available over affine forms (range-sound, used by the
guaranteed engine) and as compiled scalar functions (fast, used by the
independent reference simulator and tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import affine as af
from .affine import AffineForm, NoiseAllocator, Rel
from .errors import ConfigError, DomainError, ModelError
from .interval import Interval
from .trivalent import Trivalent

_UNARY_OPS = frozenset(["neg", "sin", "cos", "exp", "sqrt", "log", "abs", "sgn"])
_BINARY_OPS = frozenset(["add", "sub", "mul", "div"])

# Cap on distinct DAG nodes produced while building stage-polynomial
# derivatives; beyond this the scheme order is impractical for the model.
NODE_CAP = 200_000


class Expr:
    __slots__ = ("op", "args", "value", "name", "exponent", "eid")

    def __init__(self, op, args=(), value=0.0, name="", exponent=0, eid=0):
        self.op = op
        self.args = args
        self.value = value
        self.name = name
        self.exponent = exponent
        self.eid = eid

    def __repr__(self):
        return f"Expr<{to_text(self)}>"


_INTERN: dict = {}
_FREEVARS: dict = {}
_DERIV: dict = {}


def _node(op, args=(), value=0.0, name="", exponent=0):
    if op == "const":
        key = (op, value.hex())
    elif op == "var":
        key = (op, name)
    elif op == "pow":
        key = (op, args[0].eid, exponent)
    else:
        key = (op,) + tuple(a.eid for a in args)
    e = _INTERN.get(key)
    if e is None:
        e = Expr(op, args, value, name, exponent, len(_INTERN))
        _INTERN[key] = e
    return e


def const(v: float) -> Expr:
    v = float(v)
    if not math.isfinite(v):
        raise ModelError(f"non-finite constant {v}")
    return _node("const", value=v)


def var(name: str) -> Expr:
    return _node("var", name=name)


ZERO = const(0.0)
ONE = const(1.0)

TIME_VAR = "t"  # reserved clock variable name


def _is_const(e, v=None):
    return e.op == "const" and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const":
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _node("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if a is b:
        return ZERO
    if a.op == "const" and b.op == "const":
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return _node("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const":
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return _node("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return ZERO
    if a.op == "const" and b.op == "const" and b.value != 0.0:
        return const(a.value / b.value)
    return _node("div", (a, b))


def neg(a: Expr) -> Expr:
    if a.op == "const":
        return const(-a.value)
    if a.op == "neg":
        return a.args[0]
    return _node("neg", (a,))


def pow_int(a: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if a.op == "const":
        try:
            return const(a.value**n)
        except (OverflowError, ZeroDivisionError):
            pass
    return _node("pow", (a,), exponent=n)


def _unary(op, a: Expr) -> Expr:
    if a.op == "const":
        fns = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
               "sqrt": math.sqrt, "log": math.log, "abs": abs,
               "sgn": lambda v: math.copysign(1.0, v), "neg": lambda v: -v}
        try:
            return const(fns[op](a.value))
        except (ValueError, OverflowError):
            pass  # domain error surfaces at evaluation with a range message
    return _node(op, (a,))


def sin(a):
    return _unary("sin", a)


def cos(a):
    return _unary("cos", a)


def exp(a):
    return _unary("exp", a)


def sqrt(a):
    return _unary("sqrt", a)


def log(a):
    return _unary("log", a)


def abs_(a):
    return _unary("abs", a)


def sgn(a):
    return _unary("sgn", a)


def free_vars(e: Expr) -> frozenset:
    got = _FREEVARS.get(e.eid)
    if got is not None:
        return got
    for node in _postorder(e, lambda n: n.eid in _FREEVARS):
        if node.op == "var":
            fv = frozenset((node.name,))
        elif node.op == "const":
            fv = frozenset()
        else:
            fv = frozenset().union(*(_FREEVARS[a.eid] for a in node.args))
        _FREEVARS[node.eid] = fv
    return _FREEVARS[e.eid]


def _postorder(root, skip):
    """Yield reachable nodes children-first, skipping cached subtrees."""
    out = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.eid in seen or skip(node):
            continue
        if expanded:
            seen.add(node.eid)
            out.append(node)
        else:
            stack.append((node, True))
            for a in node.args:
                stack.append((a, False))
    return out


def count_nodes(*roots) -> int:
    seen = set()
    stack = list(roots)
    while stack:
        n = stack.pop()
        if n.eid in seen:
            continue
        seen.add(n.eid)
        stack.extend(n.args)
    return len(seen)


def derivative(e: Expr, v: str) -> Expr:
    """Partial derivative of `e` with respect to variable `v`.

    abs is differentiated as sgn(u)*u'; over a range straddling zero the
    sgn node evaluates to [-1, 1], which is the interval hull of both
    branch derivatives.
    """
    key = (e.eid, v)
    got = _DERIV.get(key)
    if got is not None:
        return got
    for n in _postorder(e, lambda node: (node.eid, v) in _DERIV):
        op = n.op
        if op == "const":
            d = ZERO
        elif op == "var":
            d = ONE if n.name == v else ZERO
        else:
            da = _DERIV[(n.args[0].eid, v)]
            if op == "add":
                d = add(da, _DERIV[(n.args[1].eid, v)])
            elif op == "sub":
                d = sub(da, _DERIV[(n.args[1].eid, v)])
            elif op == "mul":
                a, b = n.args
                d = add(mul(da, b), mul(a, _DERIV[(b.eid, v)]))
            elif op == "div":
                a, b = n.args
                db = _DERIV[(b.eid, v)]
                d = div(sub(mul(da, b), mul(a, db)), pow_int(b, 2))
            elif op == "neg":
                d = neg(da)
            elif op == "pow":
                a = n.args[0]
                d = mul(mul(const(float(n.exponent)), pow_int(a, n.exponent - 1)), da)
            elif op == "sin":
                d = mul(cos(n.args[0]), da)
            elif op == "cos":
                d = neg(mul(sin(n.args[0]), da))
            elif op == "exp":
                d = mul(n, da)
            elif op == "sqrt":
                d = div(da, mul(const(2.0), n))
            elif op == "log":
                d = div(da, n.args[0])
            elif op == "abs":
                d = mul(sgn(n.args[0]), da)
            elif op == "sgn":
                d = ZERO  # piecewise-constant almost everywhere
            else:  # pragma: no cover
                raise ModelError(f"cannot differentiate {op}")
        _DERIV[(n.eid, v)] = d
    return _DERIV[key]


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace variables per `mapping` (name -> Expr), rebuilding the DAG."""
    memo: dict = {}
    for n in _postorder(e, lambda node: node.eid in memo):
        op = n.op
        if op == "var":
            memo[n.eid] = mapping.get(n.name, n)
        elif op == "const":
            memo[n.eid] = n
        elif op == "add":
            memo[n.eid] = add(memo[n.args[0].eid], memo[n.args[1].eid])
        elif op == "sub":
            memo[n.eid] = sub(memo[n.args[0].eid], memo[n.args[1].eid])
        elif op == "mul":
            memo[n.eid] = mul(memo[n.args[0].eid], memo[n.args[1].eid])
        elif op == "div":
            memo[n.eid] = div(memo[n.args[0].eid], memo[n.args[1].eid])
        elif op == "neg":
            memo[n.eid] = neg(memo[n.args[0].eid])
        elif op == "pow":
            memo[n.eid] = pow_int(memo[n.args[0].eid], n.exponent)
        else:
            memo[n.eid] = _unary(op, memo[n.args[0].eid])
    return memo[e.eid]


# ------------------------------------------------------------ evaluation


def eval_affine_many(exprs, env: dict, alloc: NoiseAllocator) -> list:
    """Range-sound evaluation of several expressions over one environment."""
    memo: dict = {}
    out = []
    for root in exprs:
        stack = [root]
        while stack:
            n = stack[-1]
            if n.eid in memo:
                stack.pop()
                continue
            pend = [a for a in n.args if a.eid not in memo]
            if pend:
                stack.extend(pend)
                continue
            stack.pop()
            op = n.op
            if op == "const":
                r = AffineForm(n.value)
            elif op == "var":
                r = env.get(n.name)
                if r is None:
                    raise ModelError(f"unbound variable '{n.name}' in expression")
            elif op == "add":
                r = memo[n.args[0].eid] + memo[n.args[1].eid]
            elif op == "sub":
                r = memo[n.args[0].eid] - memo[n.args[1].eid]
            elif op == "mul":
                r = af.mul(memo[n.args[0].eid], memo[n.args[1].eid], alloc)
            elif op == "div":
                r = af.div(memo[n.args[0].eid], memo[n.args[1].eid], alloc)
            elif op == "neg":
                r = af.neg(memo[n.args[0].eid])
            elif op == "pow":
                r = af.pow_int(memo[n.args[0].eid], n.exponent, alloc)
            elif op == "sgn":
                box = af.to_interval(memo[n.args[0].eid])
                if box.lo > 0.0:
                    r = AffineForm(1.0)
                elif box.hi < 0.0:
                    r = AffineForm(-1.0)
                else:
                    r = af.from_interval(Interval(-1.0, 1.0), alloc)
            else:
                r = af.nonlinear_unary(op, memo[n.args[0].eid], alloc)
            memo[n.eid] = r
        out.append(memo[root.eid])
    return out


def eval_affine(e: Expr, env: dict, alloc: NoiseAllocator) -> AffineForm:
    return eval_affine_many((e,), env, alloc)[0]


def compile_scalar(exprs, var_order):
    """Compile expressions to one fast scalar function values -> [floats].

    The generated code shares subexpressions (the DAG is emitted in
    topological order). Used by the non-validated reference simulator and
    test oracles; the guaranteed path never calls it.
    """
    lines = []
    names: dict = {}
    for idx, v in enumerate(var_order):
        names[var(v).eid] = f"_x[{idx}]"
    emitted = set(names)
    counter = [0]

    def emit(root):
        for n in _postorder(root, lambda node: node.eid in emitted):
            emitted.add(n.eid)
            if n.eid in names:
                continue
            if n.op == "const":
                names[n.eid] = repr(n.value)
                continue
            if n.op == "var":
                raise ModelError(f"variable '{n.name}' not in scalar signature")
            a = [names[x.eid] for x in n.args]
            if n.op == "add":
                rhs = f"{a[0]} + {a[1]}"
            elif n.op == "sub":
                rhs = f"{a[0]} - {a[1]}"
            elif n.op == "mul":
                rhs = f"{a[0]} * {a[1]}"
            elif n.op == "div":
                rhs = f"{a[0]} / {a[1]}"
            elif n.op == "neg":
                rhs = f"-({a[0]})"
            elif n.op == "pow":
                rhs = f"({a[0]}) ** {n.exponent}"
            elif n.op == "abs":
                rhs = f"abs({a[0]})"
            elif n.op == "sgn":
                rhs = f"(1.0 if {a[0]} >= 0.0 else -1.0)"
            else:
                rhs = f"_m.{n.op}({a[0]})"
            t = f"_t{counter[0]}"
            counter[0] += 1
            names[n.eid] = t
            lines.append(f"    {t} = {rhs}")

    roots = list(exprs)
    for r in roots:
        emit(r)
    ret = ", ".join(names[r.eid] for r in roots)
    src = "def _fn(_x, _m=math):\n" + "\n".join(lines) + f"\n    return ({ret},)\n"
    ns = {"math": math}
    exec(src, ns)  # noqa: S102 - generated from our own AST only
    return ns["_fn"]


def to_text(e: Expr) -> str:
    """Deterministic infix rendering, parseable by the DSL expression parser."""
    memo: dict = {}
    for n in _postorder(e, lambda node: node.eid in memo):
        op = n.op
        if op == "const":
            v = n.value
            memo[n.eid] = repr(v) if v >= 0 else f"({v!r})"
        elif op == "var":
            memo[n.eid] = n.name
        elif op == "add":
            memo[n.eid] = f"({memo[n.args[0].eid]} + {memo[n.args[1].eid]})"
        elif op == "sub":
            memo[n.eid] = f"({memo[n.args[0].eid]} - {memo[n.args[1].eid]})"
        elif op == "mul":
            memo[n.eid] = f"({memo[n.args[0].eid]} * {memo[n.args[1].eid]})"
        elif op == "div":
            memo[n.eid] = f"({memo[n.args[0].eid]} / {memo[n.args[1].eid]})"
        elif op == "neg":
            memo[n.eid] = f"(-{memo[n.args[0].eid]})"
        elif op == "pow":
            memo[n.eid] = f"({memo[n.args[0].eid]}^{n.exponent})"
        else:
            memo[n.eid] = f"{op}({memo[n.args[0].eid]})"
    return memo[e.eid]


# ------------------------------------------------------------------ guards


@dataclass(frozen=True)
class Comparison:
    """`expr rel 0` (comparisons are normalized to a zero right-hand side)."""

    expr: Expr
    rel: Rel

    def negate(self):
        flip = {Rel.LT: Rel.GE, Rel.LE: Rel.GT, Rel.GT: Rel.LE, Rel.GE: Rel.LT}
        return Comparison(self.expr, flip[self.rel])


@dataclass(frozen=True)
class BoolOp:
    kind: str  # "and" | "or"
    items: tuple

    def negate(self):
        return BoolOp("or" if self.kind == "and" else "and",
                      tuple(g.negate() for g in self.items))


Guard = Comparison | BoolOp


def comparison(lhs: Expr, rel: Rel, rhs: Expr) -> Comparison:
    return Comparison(sub(lhs, rhs), rel)


def eval_guard(g: Guard, env: dict, alloc: NoiseAllocator) -> Trivalent:
    if isinstance(g, Comparison):
        return af.compare(eval_affine(g.expr, env, alloc), g.rel)
    verdicts = [eval_guard(item, env, alloc) for item in g.items]
    out = verdicts[0]
    for v in verdicts[1:]:
        out = (out & v) if g.kind == "and" else (out | v)
    return out


def compile_guard_scalar(g: Guard, var_order):
    if isinstance(g, Comparison):
        fn = compile_scalar((g.expr,), var_order)
        rel = g.rel
        if rel is Rel.LT:
            return lambda x: fn(x)[0] < 0.0
        if rel is Rel.LE:
            return lambda x: fn(x)[0] <= 0.0
        if rel is Rel.GT:
            return lambda x: fn(x)[0] > 0.0
        return lambda x: fn(x)[0] >= 0.0
    parts = [compile_guard_scalar(item, var_order) for item in g.items]
    if g.kind == "and":
        return lambda x: all(p(x) for p in parts)
    return lambda x: any(p(x) for p in parts)


def guard_free_vars(g: Guard) -> frozenset:
    if isinstance(g, Comparison):
        return free_vars(g.expr)
    return frozenset().union(*(guard_free_vars(item) for item in g.items))


def guard_to_text(g: Guard) -> str:
    if isinstance(g, Comparison):
        return f"{to_text(g.expr)} {g.rel.value} 0"
    sep = f" {g.kind} "
    return "(" + sep.join(guard_to_text(item) for item in g.items) + ")"


# ------------------------------------------------------------------ resets


@dataclass(frozen=True)
class Reset:
    """Simultaneous assignments: all right-hand sides read the pre-state."""

    assigns: tuple = ()  # ((var, Expr), ...)
    prints: tuple = ()

    def apply_affine(self, env: dict, alloc: NoiseAllocator) -> dict:
        new = dict(env)
        for name, e in self.assigns:
            new[name] = eval_affine(e, env, alloc)
        return new

    def assigned(self) -> frozenset:
        return frozenset(name for name, _ in self.assigns)


@dataclass
class Edge:
    source: str
    target: str
    guard: Guard
    reset: Reset
    label: str = ""
    # True when post-reset true-states provably sit on (or off) the guard
    # boundary, which licenses the re-arming certificate after a jump.
    boundary_reset: bool = False
    warning: str = ""


@dataclass
class HybridAutomaton:
    variables: tuple
    flows: dict  # location -> {var -> Expr}
    edges: list
    initial_location: str
    initial_box: dict  # var -> Interval

    def __post_init__(self):
        names = set(self.variables)
        if len(names) != len(self.variables):
            raise ModelError("duplicate variable names")
        for loc, flow in self.flows.items():
            missing = names - set(flow)
            if missing:
                raise ModelError(f"location '{loc}' lacks flow for {sorted(missing)}")
            for v, e in flow.items():
                bad = free_vars(e) - names
                if bad:
                    raise ModelError(f"flow of '{v}' in '{loc}' uses unknown {sorted(bad)}")
        for k, edge in enumerate(self.edges):
            if edge.source not in self.flows or edge.target not in self.flows:
                raise ModelError(f"edge {k} references unknown location")
            bad = guard_free_vars(edge.guard) - names
            if bad:
                raise ModelError(f"edge {k} guard uses unknown {sorted(bad)}")
            for v, e in edge.reset.assigns:
                if v not in names:
                    raise ModelError(f"edge {k} reset assigns unknown '{v}'")
                bad = free_vars(e) - names
                if bad:
                    raise ModelError(f"edge {k} reset uses unknown {sorted(bad)}")
            if not edge.label:
                edge.label = f"edge{k}"
        if self.initial_location not in self.flows:
            raise ModelError(f"unknown initial location '{self.initial_location}'")
        missing = names - set(self.initial_box)
        if missing:
            raise ModelError(f"initial box lacks {sorted(missing)}")

    def outgoing(self, loc: str):
        return [(k, e) for k, e in enumerate(self.edges) if e.source == loc]


# ------------------------------------------------------- total derivatives


def total_derivative(e: Expr, flow: dict) -> Expr:
    """Derivative of e along trajectories of x' = flow(x) (Lie derivative).

    Time dependence must be expressed through a clock variable with flow 1;
    iterating this p times yields the p-th time derivative used by the
    remainder bounds.
    """
    out = ZERO
    for v in sorted(free_vars(e)):
        fv = flow.get(v)
        if fv is None:
            raise ModelError(f"no flow for variable '{v}' in total derivative")
        out = add(out, mul(derivative(e, v), fv))
    return out


TAU = "__tau"


def stage_poly_derivative(a_coeffs, b_coeffs, flow: dict, variables, order: int) -> dict:
    """(order)-th derivative w.r.t. step time of the scheme's polynomial map.

    The scheme result as a function of the intra-step time tau is
    x + tau * sum(b_i k_i(tau)) with the stages expanded symbolically; its
    high derivative, evaluated over tau in [0, h] and the step's start
    state, bounds the scheme-side Lagrange remainder.
    """
    tau = var(TAU)
    stages = []
    for i, row in enumerate(a_coeffs):
        mapping = {}
        for v in variables:
            acc = ZERO
            for j, aij in enumerate(row[:i]):
                if aij != 0.0:
                    acc = add(acc, mul(const(aij), stages[j][v]))
            mapping[v] = add(var(v), mul(tau, acc))
        stages.append({v: substitute(flow[v], mapping) for v in variables})
    phi = {}
    for v in variables:
        acc = ZERO
        for i, bi in enumerate(b_coeffs):
            if bi != 0.0:
                acc = add(acc, mul(const(bi), stages[i][v]))
        phi[v] = add(var(v), mul(tau, acc))
    deriv = phi
    for _ in range(order):
        deriv = {v: derivative(e, TAU) for v, e in deriv.items()}
        n = count_nodes(*deriv.values())
        if n > NODE_CAP:
            raise ConfigError(
                f"stage-derivative expression exceeds {NODE_CAP} nodes "
                f"({n}); use a lower-order scheme for this model"
            )
    return deriv


# ------------------------------------------------- guard strictness transform


def _boundary_form(e: Expr):
    """Match e == sign*(v - boundary_expr); returns (var, boundary, sign)."""
    if e.op == "var":
        return e.name, ZERO, 1.0
    if e.op == "neg" and e.args[0].op == "var":
        return e.args[0].name, ZERO, -1.0
    if e.op == "sub" and e.args[0].op == "var":
        return e.args[0].name, e.args[1], 1.0
    if e.op == "sub" and e.args[1].op == "var":
        return e.args[1].name, e.args[0], -1.0
    if e.op == "add" and e.args[0].op == "var" and e.args[1].op == "const":
        return e.args[0].name, const(-e.args[1].value), 1.0
    if e.op == "add" and e.args[0].op == "const" and e.args[1].op == "var":
        return e.args[1].name, const(-e.args[0].value), 1.0
    return None


def guard_strictness_transform(edge: Edge) -> Edge:
    """Make closed guards strict and pin the reset to the boundary when the
    guard shape allows it, so the post-jump state provably exits the guard.

    Edges it cannot fully transform keep a warning; the engine then relies
    on the runtime boundary certificate (and may abort if that fails too).
    """
    g = edge.guard
    if not isinstance(g, Comparison):
        return Edge(edge.source, edge.target, g, edge.reset, edge.label,
                    False, "compound guard: cannot verify boundary exit")
    strict_rel = {Rel.LE: Rel.LT, Rel.GE: Rel.GT}.get(g.rel, g.rel)
    new_guard = Comparison(g.expr, strict_rel)
    reset = edge.reset
    warning = ""
    boundary = False
    form = _boundary_form(g.expr)
    gvars = free_vars(g.expr)
    assigned = reset.assigned()
    if form is not None:
        v, bexpr, _sign = form
        current = dict(reset.assigns).get(v)
        bvars = free_vars(bexpr)
        if current is None and not (bvars & assigned):
            # The first-crossing state satisfies v == boundary exactly;
            # pinning it keeps the post-jump enclosure on the boundary.
            reset = Reset(reset.assigns + ((v, bexpr),), reset.prints)
            boundary = True
        elif current is bexpr and not (bvars & (assigned - {v})):
            boundary = True  # reset already pins the boundary expression
        elif current is not None:
            warning = (f"reset assigns guard variable '{v}'; boundary exit "
                       f"not verified")
        else:
            warning = "reset rewrites boundary operands; boundary exit not verified"
    elif not (gvars & assigned):
        # The reset leaves every guard operand untouched: the crossing value
        # (exactly on the boundary) carries over the jump.
        boundary = True
    else:
        warning = "guard is not of the form variable-vs-expression; boundary exit not verified"
    return Edge(edge.source, edge.target, new_guard, reset, edge.label,
                boundary, warning)


def prepare_automaton(ha: HybridAutomaton) -> tuple:
    """Apply the strictness transform to every edge; returns (ha', warnings)."""
    edges = [guard_strictness_transform(e) for e in ha.edges]
    warnings = [f"{e.label}: {e.warning}" for e in edges if e.warning]
    out = HybridAutomaton(ha.variables, ha.flows, edges, ha.initial_location,
                          dict(ha.initial_box))
    return out, warnings
