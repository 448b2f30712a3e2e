"""Expression DAG, guards, resets and the hybrid-automaton model.

Expressions are hash-consed immutable nodes: structurally identical
subtrees are the same object, so repeated differentiation and substitution
(needed for the truncation and interpolation remainder bounds) stay
polynomial in the number of *distinct* subterms. Smart constructors fold
constants and the cheap identities; there is deliberately no general CAS.

`derivative` is the one derivative routine, a forward pass seeded per
variable: seeded with the flow, it gives Lie derivatives. No node keeps a
derivative memo.

Every operator is declared once, as a row of `OPS`: its constant fold, its
smart constructor, its affine evaluation, its derivative rule, the
templates of its compiled scalar code and of its text, and, for add, sub,
neg, mul and div, its coefficients where the node is linear. The walkers
(`derivative`, `substitute`, `to_text`) and the code generator handle the
leaves `const` and `var` and dispatch every other node through its row, and
the DSL reads its function names from the table. Every walk visits the DAG
in `_postorder` order. The operators are add, sub, mul, div, neg, pow
(integer exponent), sin, cos, exp, sqrt, log, abs and sgn.

Both evaluations run straight-line programs from one generator, with at
most one assignment per distinct node. Over floats (`compile_scalar`, used
by the independent reference simulator and tests) every node gets one.
Over affine forms (range-sound, used by the guaranteed engine;
`eval_affine_many` builds the program for a tuple of roots on first use and
keeps it on the newest root), each maximal linear subtree is one `af.lin`
call, the one linear kernel: linear operations are exact on the noise
symbols, so the subtree needs one pass and one rounding sum, not one per
node. Its coefficients are exact rationals, each passed as the tightest
float interval around it (a division by a constant c is a term scaled by
an enclosure of 1/c), and constants are forms built once per program.

The intern table holds its nodes weakly, and each node carries its own
free-variable memo and its affine programs, so a dropped model takes its
caches with it.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from . import _round as rd
from . import affine as af
from .affine import AffineForm, NoiseAllocator, Rel
from .errors import ConfigError, ModelError
from .trivalent import Trivalent

# Cap on distinct DAG nodes produced while building stage-polynomial
# derivatives; beyond this the scheme order is impractical for the model.
NODE_CAP = 200_000


class Expr:
    """A DAG node. `params` holds an op's non-expression operands (pow's
    exponent); `_fv` memoises the free variables and `_prog` the affine
    programs of root tuples this node is the newest of, by their eids. No
    node keeps a derivative memo."""

    __slots__ = ("op", "args", "value", "name", "params", "eid", "_fv",
                 "_prog", "__weakref__")

    def __init__(self, op, args, value, name, params, eid):
        self.op = op
        self.args = args
        self.value = value
        self.name = name
        self.params = params
        self.eid = eid
        self._fv = None
        self._prog = None

    def __repr__(self):
        return f"Expr<{to_text(self)}>"


_INTERN = weakref.WeakValueDictionary()  # structural key -> live node
_EIDS = itertools.count()


def _node(op, args=(), value=0.0, name="", params=()):
    if op == "const":
        key = (op, value.hex())
    elif op == "var":
        key = (op, name)
    else:
        key = (op, *(a.eid for a in args), *params)
    e = _INTERN.get(key)
    if e is None:
        e = Expr(op, args, value, name, params, next(_EIDS))
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


def _fold(op, args, params=()):
    """The constant node of `op` on constant `args`; None when an argument
    is not constant or the value is outside the op's domain (the node is
    then kept, and evaluation reports the range)."""
    if all(a.op == "const" for a in args):
        try:
            return const(OPS[op].fold(*(a.value for a in args), *params))
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return None


def add(a: Expr, b: Expr) -> Expr:
    c = _fold("add", (a, b))
    if c is not None:
        return c
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _node("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if a is b:
        return ZERO
    c = _fold("sub", (a, b))
    if c is not None:
        return c
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return _node("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    c = _fold("mul", (a, b))
    if c is not None:
        return c
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
    return _fold("div", (a, b)) or _node("div", (a, b))


def neg(a: Expr) -> Expr:
    if a.op == "neg":
        return a.args[0]
    return _fold("neg", (a,)) or _node("neg", (a,))


def pow_int(a: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    return _fold("pow", (a,), (n,)) or _node("pow", (a,), params=(n,))


def _unary(op, a: Expr) -> Expr:
    return _fold(op, (a,)) or _node(op, (a,))


sin = partial(_unary, "sin")
cos = partial(_unary, "cos")
exp = partial(_unary, "exp")
sqrt = partial(_unary, "sqrt")
log = partial(_unary, "log")
abs_ = partial(_unary, "abs")
sgn = partial(_unary, "sgn")


class Op(NamedTuple):
    """One operator's meaning. Each callable takes the argument values in
    order, then the node's `params`; `deriv` takes the node itself and the
    arguments' derivatives. `linear`, on the rows of add, sub, neg, mul and
    div, takes the node and gives its value as sum(q * argument), pairs
    (Fraction q, argument), or None where the node is not linear: a
    product of two non-constants, or a division by a non-constant or by
    zero."""

    fold: Callable    # floats -> float: the constant fold
    make: Callable    # Exprs -> Expr: the smart constructor
    affine: Callable  # forms, then the allocator -> AffineForm
    deriv: Callable   # (node, argument derivatives) -> Expr
    py: str           # compile_scalar code over the arguments' names
    text: str         # to_text rendering, parseable by the DSL
    linear: Callable | None = None  # node -> ((Fraction, Expr), ...) | None


def _d_div(e, da, db):
    a, b = e.args
    return div(sub(mul(da, b), mul(a, db)), pow_int(b, 2))


def _d_pow(e, da):
    (a,), (k,) = e.args, e.params
    return mul(mul(const(float(k)), pow_int(a, k - 1)), da)


def _scaled(e):
    """A product with a constant factor, as (factor, other factor)."""
    a, b = e.args
    if b.op == "const":
        return ((Fraction(b.value), a),)
    if a.op == "const":
        return ((Fraction(a.value), b),)
    return None


def _divided(e):
    """A division by a nonzero constant, as (its reciprocal, dividend)."""
    a, b = e.args
    if b.op == "const" and b.value != 0.0:
        return ((1 / Fraction(b.value), a),)
    return None


_PLUS, _MINUS = Fraction(1), Fraction(-1)


def _function(name, fold, deriv):
    """The row of a unary function written `name(u)` in both languages and
    evaluated over affine forms by its Taylor model."""
    return Op(fold, partial(_unary, name), partial(af.nonlinear_unary, name),
              deriv, f"_m.{name}({{0}})", f"{name}({{0}})")


OPS = {
    "add": Op(operator.add, add, lambda x, y, alloc: x + y,
              lambda e, da, db: add(da, db), "{0} + {1}", "({0} + {1})",
              lambda e: ((_PLUS, e.args[0]), (_PLUS, e.args[1]))),
    "sub": Op(operator.sub, sub, lambda x, y, alloc: x - y,
              lambda e, da, db: sub(da, db), "{0} - {1}", "({0} - {1})",
              lambda e: ((_PLUS, e.args[0]), (_MINUS, e.args[1]))),
    # af.mul is looked up at each call, so a wrapper installed on the
    # affine module (perfbench's call counter) sees these products too
    "mul": Op(operator.mul, mul, lambda x, y, alloc: af.mul(x, y, alloc),
              lambda e, da, db: add(mul(da, e.args[1]), mul(e.args[0], db)),
              "{0} * {1}", "({0} * {1})", _scaled),
    "div": Op(operator.truediv, div, af.div, _d_div, "{0} / {1}",
              "({0} / {1})", _divided),
    # linear: needs no fresh noise symbol, so the allocator goes unused
    "neg": Op(operator.neg, neg, lambda x, alloc: af.neg(x),
              lambda e, da: neg(da), "-({0})", "(-{0})",
              lambda e: ((_MINUS, e.args[0]),)),
    "pow": Op(operator.pow, pow_int, af.pow_int, _d_pow, "({0}) ** {1}",
              "({0}^{1})"),
    "sin": _function("sin", math.sin,
                     lambda e, da: mul(cos(e.args[0]), da)),
    "cos": _function("cos", math.cos,
                     lambda e, da: neg(mul(sin(e.args[0]), da))),
    "exp": _function("exp", math.exp, lambda e, da: mul(e, da)),
    "sqrt": _function("sqrt", math.sqrt,
                      lambda e, da: div(da, mul(const(2.0), e))),
    "log": _function("log", math.log, lambda e, da: div(da, e.args[0])),
    # abs differentiates as sgn(u)*u'; over a range straddling zero the sgn
    # node evaluates to [-1, 1], the interval hull of both branch slopes
    "abs": Op(abs, abs_, af._abs_form, lambda e, da: mul(sgn(e.args[0]), da),
              "abs({0})", "abs({0})"),
    # piecewise constant: its derivative is zero almost everywhere
    "sgn": Op(lambda v: 1.0 if v >= 0.0 else -1.0, sgn, af._sgn_form,
              lambda e, da: ZERO, "(1.0 if {0} >= 0.0 else -1.0)",
              "sgn({0})"),
}

# The ops written `name(u)`, which the DSL parses as functions; the other
# six have operator syntax.
FUNCTION_OPS = frozenset(OPS) - {"add", "sub", "mul", "div", "neg", "pow"}


def free_vars(e: Expr) -> frozenset:
    if e._fv is None:
        for n in _postorder((e,), lambda node: node._fv is not None):
            n._fv = (frozenset((n.name,)) if n.op == "var"
                     else frozenset().union(*(a._fv for a in n.args)))
    return e._fv


def _postorder(roots, skip=lambda node: False):
    """The nodes reachable from `roots`, children first and each once, the
    roots taken in order and a node's last argument first; `skip` prunes
    cached subtrees."""
    out = []
    seen = set()
    stack = [(r, False) for r in reversed(roots)]
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
    return len(_postorder(roots))


def derivative(e: Expr, seeds: dict, memo: dict | None = None) -> Expr:
    """The derivative of `e`, in one forward pass over its DAG: a
    variable's is `seeds[name]`, and every other node's its row's `deriv`
    rule. Seeded with a flow, this is the Lie derivative along it. A
    variable the seeds do not name raises ModelError. `memo` maps node
    eids to derivatives under these seeds; sharing one across the roots
    of an order, and on to the next order, walks each node once."""
    if memo is None:
        memo = {}
    for n in _postorder((e,), lambda node: node.eid in memo):
        if n.op == "const":
            memo[n.eid] = ZERO
        elif n.op == "var":
            d = seeds.get(n.name)
            if d is None:
                raise ModelError(f"no derivative seeded for '{n.name}'")
            memo[n.eid] = d
        else:
            memo[n.eid] = OPS[n.op].deriv(n, *(memo[a.eid] for a in n.args))
    return memo[e.eid]


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace variables per `mapping` (name -> Expr), rebuilding the DAG."""
    memo: dict = {}
    for n in _postorder((e,)):
        if n.op == "var":
            memo[n.eid] = mapping.get(n.name, n)
        elif n.op == "const":
            memo[n.eid] = n
        else:
            memo[n.eid] = OPS[n.op].make(*(memo[a.eid] for a in n.args),
                                         *n.params)
    return memo[e.eid]


# ------------------------------------------------------------ evaluation


def _program(roots, head: str, rhs, ns: dict):
    """Compile the DAG of `roots` into one straight-line function.

    `head` is the function's `def` line, and node n's value is named
    `_t<n.eid>`. Each distinct node, in `_postorder` order, gets the
    assignment `rhs(node, argument names)`, or none where that is None (a
    value `ns` holds, or one no line reads), and the function returns the
    roots' values in a list.
    """
    lines = [head]
    for n in _postorder(roots):
        value = rhs(n, [f"_t{a.eid}" for a in n.args])
        if value is not None:
            lines.append(f"    _t{n.eid} = {value}")
    lines.append(f"    return [{', '.join(f'_t{r.eid}' for r in roots)}]\n")
    exec("\n".join(lines), ns)  # noqa: S102 - generated from our own DAG only
    return ns["_fn"]


def _bound(env: dict, name: str) -> AffineForm:
    value = env.get(name)
    if value is None:
        raise ModelError(f"unbound variable '{name}' in expression")
    return value


def _linear(n: Expr):
    row = OPS.get(n.op)
    return None if row is None or row.linear is None else row.linear(n)


def _enclosure(q: Fraction):
    """The tightest float interval (lo, hi) around q, a point where q is a
    float; None where no finite one exists."""
    try:
        m = float(q)
    except OverflowError:
        return None
    f = Fraction(m)
    if f == q:
        return m, m
    lo, hi = (m, rd.next_up(m)) if f < q else (rd.next_down(m), m)
    return (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None


def _affine_rhs(roots, order):
    """The `rhs` of the affine program of `roots`, whose nodes in
    `_postorder` order are `order`.

    A linear node (its row's `linear`) read once, by a linear node, and
    not a root is interior: it gets no line, and the nearest node above it
    that is not interior sums its whole linear subtree in one `af.lin`
    call. A coefficient is a product of coefficients along the path, kept
    in `Fraction` and emitted as the tightest float interval around it,
    which is a point where the coefficient is a float; so a division by a
    constant c scales by an enclosure of 1/c. A coefficient with no finite
    float enclosure is never emitted: the node below it stays a term of
    its own, and a node whose own coefficient has none is evaluated by its
    row. Constant terms are folded into `lin`'s constant while the sum
    stays a float, and like terms are merged where the merged coefficient
    has an enclosure.
    """
    uses = Counter(a.eid for n in order for a in n.args)
    for r in roots:
        uses[r.eid] += 2  # a root is never interior
    coef = {}  # interior node eid -> its coefficient in its subtree's sum
    for n in reversed(order):  # every node before its arguments
        terms = _linear(n)
        if terms is None:
            continue
        k = coef.get(n.eid, 1)
        if any(_enclosure(k * q) is None for q, _ in terms):
            continue
        for q, a in terms:
            sub = _linear(a) if uses[a.eid] == 1 else None
            if sub is not None and all(
                    _enclosure(k * q * q2) is not None for q2, _ in sub):
                coef[a.eid] = k * q

    def lin_call(terms):
        const = Fraction(0)
        entries = []  # [coefficient, node] in first-seen order
        last = {}  # node eid -> index of its newest entry
        stack = [(q, a) for q, a in reversed(terms)]
        while stack:
            k, a = stack.pop()
            if a.eid in coef:
                stack.extend((k * q, b) for q, b in reversed(_linear(a)))
                continue
            if a.op == "const":
                total = const + k * Fraction(a.value)
                box = _enclosure(total)
                if box is not None and box[0] == box[1]:
                    const = total
                    continue
            i = last.get(a.eid)
            if i is not None and _enclosure(entries[i][0] + k) is not None:
                entries[i][0] += k
            else:
                last[a.eid] = len(entries)
                entries.append([k, a])
        triples = []
        for k, a in entries:
            if k:
                lo, hi = _enclosure(k)
                triples.append(f"({lo!r}, {hi!r}, _t{a.eid}), ")
        return f"_lin({float(const)!r}, ({''.join(triples)}))"

    def rhs(n, args):
        if n.op == "const" or n.eid in coef:
            return None
        if n.op == "var":
            return f"_bound(_env, {n.name!r})"
        terms = _linear(n)
        if terms is not None and all(_enclosure(q) is not None
                                     for q, _ in terms):
            return lin_call(terms)
        return f"_{n.op}({', '.join([*args, *map(repr, n.params), '_alloc'])})"

    return rhs


# An affine program calls `af.lin` for linear nodes and each other op's row
# (so `mul` reaches `af.mul` through the row's lookup at each call, where a
# wrapper on the affine module sees it) with the allocator appended. Its
# constants are forms, built once per program.
_AFFINE_NS = {"_bound": _bound, "_lin": af.lin,
              **{f"_{op}": row.affine for op, row in OPS.items()}}


def _affine_program(roots):
    order = _postorder(roots)
    ns = dict(_AFFINE_NS)
    ns.update({f"_t{n.eid}": AffineForm(n.value) for n in order
               if n.op == "const"})
    return _program(roots, "def _fn(_env, _alloc):",
                    _affine_rhs(roots, order), ns)


def eval_affine_many(exprs, env: dict, alloc: NoiseAllocator) -> list:
    """Range-sound evaluation of several expressions over one environment.

    Fresh noise symbols are drawn in `_postorder` order. The program for a
    tuple of roots is compiled on the first call and kept on the newest
    root, not on an older shared node such as `ZERO`, so it is freed with
    the model's nodes.
    """
    roots = tuple(exprs)
    if not roots:
        return []
    home = max(roots, key=operator.attrgetter("eid"))
    if home._prog is None:
        home._prog = {}
    key = tuple([r.eid for r in roots])
    fn = home._prog.get(key)
    if fn is None:
        fn = home._prog[key] = _affine_program(roots)
    return fn(env, alloc)


def eval_affine(e: Expr, env: dict, alloc: NoiseAllocator) -> AffineForm:
    return eval_affine_many((e,), env, alloc)[0]


def compile_scalar(exprs, var_order):
    """Compile expressions to one fast scalar function values -> [floats].

    Used by the non-validated reference simulator and test oracles; the
    guaranteed path never calls it.
    """
    slots = {v: f"_x[{i}]" for i, v in enumerate(var_order)}

    def rhs(n, args):
        if n.op == "const":
            return repr(n.value)
        if n.op == "var":
            if n.name not in slots:
                raise ModelError(f"variable '{n.name}' not in scalar signature")
            return slots[n.name]
        return OPS[n.op].py.format(*args, *n.params)

    return _program(tuple(exprs), "def _fn(_x, _m=math):", rhs,
                    {"math": math})


def to_text(e: Expr) -> str:
    """Deterministic infix rendering, parseable by the DSL expression parser."""
    memo: dict = {}
    for n in _postorder((e,)):
        if n.op == "const":
            v = n.value
            memo[n.eid] = repr(v) if v >= 0 else f"({v!r})"
        elif n.op == "var":
            memo[n.eid] = n.name
        else:
            memo[n.eid] = OPS[n.op].text.format(
                *(memo[a.eid] for a in n.args), *n.params)
    return memo[e.eid]


# ------------------------------------------------------------------ guards


@dataclass(frozen=True)
class Comparison:
    """`expr rel 0` (comparisons are normalized to a zero right-hand side)."""

    expr: Expr
    rel: Rel

    def negate(self):
        return Comparison(self.expr, self.rel.negated)


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
        fn, holds = compile_scalar((g.expr,), var_order), g.rel.holds
        return lambda x: holds(fn(x)[0], 0.0)
    parts = [compile_guard_scalar(item, var_order) for item in g.items]
    if g.kind == "and":
        return lambda x: all(p(x) for p in parts)
    return lambda x: any(p(x) for p in parts)


def guard_free_vars(g: Guard) -> frozenset:
    if isinstance(g, Comparison):
        return free_vars(g.expr)
    return frozenset().union(*(guard_free_vars(item) for item in g.items))


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
        for v, box in self.initial_box.items():
            if not math.isfinite(box.hi - box.lo):
                raise ModelError(f"initial range [{box.lo}, {box.hi}] of "
                                 f"'{v}' is wider than a float can hold")

    def outgoing(self, loc: str):
        return [(k, e) for k, e in enumerate(self.edges) if e.source == loc]


TAU = "__tau"


def stage_poly_derivative(a_coeffs, b_coeffs, flow: dict, variables, order: int) -> list:
    """(order)-th derivative w.r.t. step time of the scheme's polynomial
    map, one root per variable of `variables`, in order.

    The scheme result as a function of the intra-step time tau is
    x + tau * sum(b_i k_i(tau)) with the stages expanded symbolically; its
    high derivative, evaluated over tau in [0, h] and the step's start
    state, bounds the scheme-side Lagrange remainder.
    """
    tau = var(TAU)
    stages = []

    def advance(v, coeffs):  # v + tau * sum(c_j * stage_j of v)
        acc = ZERO
        for c, stage in zip(coeffs, stages):
            if c != 0.0:
                acc = add(acc, mul(const(c), stage[v]))
        return add(var(v), mul(tau, acc))

    for i, row in enumerate(a_coeffs):
        mapping = {v: advance(v, row[:i]) for v in variables}
        stages.append({v: substitute(flow[v], mapping) for v in variables})
    deriv = [advance(v, b_coeffs) for v in variables]
    seeds = {v: ZERO for v in variables}
    seeds[TAU] = ONE
    memo: dict = {}
    for _ in range(order):
        deriv = [derivative(e, seeds, memo) for e in deriv]
        n = count_nodes(*deriv)
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
    new_guard = Comparison(g.expr, g.rel.strict)
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
