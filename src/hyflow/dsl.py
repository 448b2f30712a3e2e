"""Equation-file frontend.

The input language covers single-location hybrid models:

    set duration = 3.8;            # settings are the fields of SimConfig:
    set tol = 1e-7;                # duration, dt, max_dt and tol, numbers
    init theta = [1., 1.05];       # interval or scalar initial values
    g = 9.81;                      # constants (inlined during lowering)
    theta' = dtheta;               # flow equations
    on sin(theta) <= -0.5 do { print("Bounce!\n"); dtheta = -dtheta };

Expressions use the usual precedence with integer powers via '^' and the
functions of `expr.FUNCTION_OPS` (sin, cos, exp, sqrt, log, abs and sgn),
so every expression `expr.to_text` renders parses back to the same node.
A function name in an expression must be followed by '(', so no variable
or constant that an expression reads may take one of these names.
Every parse error carries the source span, and so does a name that has
neither a flow equation nor a constant definition; a setting value that
`config.check_setting` rejects is reported at its `set` statement, and a
model without `set duration` at its end. Multi-location models use the JSON
format instead (see jsonmodel).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import expr as ex
from .affine import Rel
from .config import FIELD_TYPES, REQUIRED, check_setting
from .errors import ConfigError, ModelError, ParseError
from .expr import Edge, HybridAutomaton, Reset
from .interval import Interval

KEYWORDS = {"set", "init", "on", "do", "and", "or", "not", "print"}
RELATIONS = [r.value for r in Rel]

# one alternative per token class, tried in order at each position; a
# position none of them matches holds an unterminated string or a stray
# character. A number takes a dangling exponent ('1e', '1e+') so that
# float() rejects the whole literal as malformed.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<symbol><=|>=|==|[<>=;'{}()\[\],+\-*/^])
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


@dataclass(frozen=True, order=True)
class SourceSpan:
    line: int
    col: int

    def __str__(self):
        return f"line {self.line}, column {self.col}"


@dataclass(frozen=True)
class Token:
    kind: str  # ident, number, string, symbol, eof
    text: str
    span: SourceSpan
    value: float = 0.0


def tokenize(text: str):
    """Source text -> list of Tokens, closed by an `eof` token just past
    the last character.

    A span is the (line, column) of the token's first character, a
    string's being its opening quote; a string's text is its content with
    the escapes \\n, \\t, \\\\ and \\" replaced (any other backslash is
    kept). A malformed or overflowing number, an unterminated string and a
    stray character raise ParseError at their span.
    """
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unterminated string literal" if text[pos] == '"'
                             else f"unexpected character {text[pos]!r}",
                             SourceSpan(line, pos - line_start + 1))
        kind, raw = m.lastgroup, m.group()
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "skip":
            span = SourceSpan(line, pos - line_start + 1)
            value = 0.0
            if kind == "number":
                try:
                    value = float(raw)
                except ValueError:
                    raise ParseError(f"malformed number '{raw}'",
                                     span) from None
                if not math.isfinite(value):
                    raise ParseError(f"number '{raw}' overflows a float",
                                     span)
            elif kind == "string":
                raw = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[0]),
                                  raw[1:-1])
            tokens.append(Token(kind, raw, span, value))
        pos = m.end()
    tokens.append(Token("eof", "",
                        SourceSpan(line, len(text) - line_start + 1)))
    return tokens


@dataclass
class DslEvent:
    guard: object
    assigns: tuple
    prints: tuple


@dataclass
class DslModel:
    settings: dict = field(default_factory=dict)
    inits: dict = field(default_factory=dict)       # name -> Interval
    constants: dict = field(default_factory=dict)   # name -> Expr
    flows: dict = field(default_factory=dict)       # name -> Expr
    events: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)       # name -> SourceSpan


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0
        self.spans = {}  # name -> where an expression first reads it, or
                         # a reset first assigns it

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, *texts) -> Token | None:
        """The next token, consumed, when it reads one of `texts` and is not
        a string literal; None otherwise."""
        t = self.peek()
        return self.next() if t.kind != "string" and t.text in texts else None

    def fail(self, *expected):
        """Raise the ParseError for the next token, which is none of
        `expected`: "unexpected end of input" at the end, else what it
        reads."""
        t = self.peek()
        raise ParseError("unexpected end of input" if t.kind == "eof"
                         else f"found {t.text!r}", t.span, expected=expected)

    def expect(self, text) -> Token:
        return self.accept(text) or self.fail(repr(text))

    def expect_ident(self, what="identifier") -> Token:
        if self.peek().kind != "ident":
            self.fail(what)
        return self.next()

    # ------------------------------------------------------- expressions

    def parse_expr(self):
        node = self.parse_term()
        while op := self.accept("+", "-"):
            rhs = self.parse_term()
            node = ex.add(node, rhs) if op.text == "+" else ex.sub(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while op := self.accept("*", "/"):
            rhs = self.parse_unary()
            node = ex.mul(node, rhs) if op.text == "*" else ex.div(node, rhs)
        return node

    def parse_unary(self):
        if self.accept("-"):
            return ex.neg(self.parse_unary())
        if self.accept("+"):
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.accept("^"):
            return ex.pow_int(base, self.parse_power_exponent())
        return base

    def parse_power_exponent(self):
        """An integer literal n as `n`, `-n`, `(n)`, `(-n)`, `-(n)` or
        `-(-n)`."""
        sign = -1 if self.accept("-") else 1
        paren = self.accept("(")
        if paren and self.accept("-"):
            sign = -sign
        t = self.peek()
        if t.kind != "number" or t.value != int(t.value):
            raise ParseError("exponent must be an integer literal", t.span,
                             expected=["integer"])
        self.next()
        if paren:
            self.expect(")")
        return sign * int(t.value)

    def parse_atom(self):
        t = self.peek()
        if t.kind == "number":
            self.next()
            return ex.const(t.value)
        if t.kind == "ident":
            if t.text in ex.FUNCTION_OPS:
                self.next()
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return ex.OPS[t.text].make(arg)
            if t.text in KEYWORDS:
                raise ParseError(f"keyword '{t.text}' cannot start an "
                                 f"expression", t.span, expected=["expression"])
            self.next()
            self.spans.setdefault(t.text, t.span)
            return ex.var(t.text)
        if self.accept("("):
            node = self.parse_expr()
            self.expect(")")
            return node
        self.fail("expression")

    # ------------------------------------------------------------ guards

    def parse_guard(self):
        items = [self.parse_guard_conj()]
        while self.accept("or"):
            items.append(self.parse_guard_conj())
        return items[0] if len(items) == 1 else ex.BoolOp("or", tuple(items))

    def parse_guard_conj(self):
        items = [self.parse_guard_atom()]
        while self.accept("and"):
            items.append(self.parse_guard_atom())
        return items[0] if len(items) == 1 else ex.BoolOp("and", tuple(items))

    def parse_guard_atom(self):
        if self.accept("not"):
            return self.parse_guard_atom().negate()
        # '(' may open a nested guard or a parenthesized expression; try the
        # guard reading first and fall back on the comparison path
        save = self.pos
        if self.accept("("):
            try:
                inner = self.parse_guard()
                self.expect(")")
                if not (self.peek().kind == "symbol"
                        and self.peek().text in RELATIONS):
                    return inner
            except ParseError:
                pass
            self.pos = save
        lhs = self.parse_expr()
        t = self.peek()
        if self.accept("=="):
            raise ParseError("equality guards have no sound crossing "
                             "semantics; use inequalities", t.span)
        if not self.accept(*RELATIONS):
            self.fail(*RELATIONS)
        return ex.comparison(lhs, Rel(t.text), self.parse_expr())

    # -------------------------------------------------------- statements

    def parse_signed_number(self) -> float:
        sign = self.accept("+", "-")
        if self.peek().kind != "number":
            self.fail("number")
        t = self.next()
        return -t.value if sign and sign.text == "-" else t.value

    def parse_model(self) -> DslModel:
        m = DslModel(spans=self.spans)

        def check_fresh(name_tok, *tables):
            if any(name_tok.text in table for table in tables):
                raise ParseError(f"duplicate definition of '{name_tok.text}'",
                                 name_tok.span)

        while (t := self.peek()).kind != "eof":
            if self.accept("set"):
                name_tok = self.expect_ident("setting name")
                name = name_tok.text
                if name not in FIELD_TYPES:
                    raise ParseError(f"unknown setting '{name}'",
                                     name_tok.span, expected=list(FIELD_TYPES))
                if name in m.settings:
                    raise ParseError(f"duplicate setting '{name}'",
                                     name_tok.span)
                self.expect("=")
                value = self.parse_signed_number()
                self.expect(";")
                try:
                    m.settings[name] = check_setting(name, value)
                except ConfigError as e:
                    raise ParseError(str(e), t.span) from None
            elif self.accept("init"):
                name_tok = self.expect_ident("variable name")
                check_fresh(name_tok, m.inits)
                self.expect("=")
                v = self.peek()
                if self.accept("["):
                    lo = self.parse_signed_number()
                    self.expect(",")
                    hi = self.parse_signed_number()
                    self.expect("]")
                    if hi < lo:
                        raise ParseError(f"inverted interval [{lo}, {hi}]",
                                         v.span)
                    if not math.isfinite(hi - lo):
                        raise ParseError(f"interval [{lo}, {hi}] is wider "
                                         f"than a float can hold", v.span)
                    m.inits[name_tok.text] = Interval(lo, hi)
                else:
                    x = self.parse_signed_number()
                    m.inits[name_tok.text] = Interval(x, x)
                self.expect(";")
            elif self.accept("on"):
                guard = self.parse_guard()
                self.expect("do")
                self.expect("{")
                assigns = []
                prints = []
                while not self.accept("}"):
                    if self.accept("print"):
                        self.expect("(")
                        if self.peek().kind != "string":
                            self.fail("string literal")
                        lit = self.next()
                        self.expect(")")
                        prints.append(lit.text)
                    else:
                        name_tok = self.expect_ident("variable name")
                        self.spans.setdefault(name_tok.text, name_tok.span)
                        self.expect("=")
                        assigns.append((name_tok.text, self.parse_expr()))
                    if not self.accept(";"):
                        self.expect("}")
                        break
                self.expect(";")
                m.events.append(DslEvent(guard, tuple(assigns),
                                         tuple(prints)))
            elif t.kind == "ident":
                self.next()
                if t.text in KEYWORDS:
                    raise ParseError(f"unexpected keyword '{t.text}'", t.span)
                if self.accept("'"):
                    check_fresh(t, m.flows, m.constants)
                    self.expect("=")
                    m.flows[t.text] = self.parse_expr()
                elif self.accept("="):
                    check_fresh(t, m.flows, m.constants)
                    m.constants[t.text] = self.parse_expr()
                else:
                    self.fail("'", "=")
                self.expect(";")
            else:
                self.fail("set", "init", "on", "declaration")
        for name in REQUIRED:
            if name not in m.settings:
                raise ParseError(f"missing `set {name}`", self.peek().span)
        return m


def _parse_all(text: str, rule):
    """`rule` of a fresh parser over `text`, which must consume it all."""
    p = _Parser(tokenize(text))
    node = rule(p)
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return node


def parse_dsl(text: str) -> DslModel:
    """An equation file -> its DslModel, not yet lowered."""
    return _Parser(tokenize(text)).parse_model()


def parse_expr_string(text: str):
    """The text of one expression -> its Expr node."""
    return _parse_all(text, _Parser.parse_expr)


def parse_guard_string(text: str):
    """The text of one guard -> its Comparison or BoolOp."""
    return _parse_all(text, _Parser.parse_guard)


# ---------------------------------------------------------------- lowering


def _inline_constants(m: DslModel) -> dict:
    """Resolve constant definitions (constants may reference constants)."""
    resolved: dict = {}
    visiting: set = set()

    def resolve(name):
        if name in resolved:
            return resolved[name]
        if name in visiting:
            raise ModelError(f"constant definition cycle through '{name}'")
        visiting.add(name)
        e = m.constants[name]
        sub = {}
        for v in ex.free_vars(e):
            if v in m.constants:
                sub[v] = resolve(v)
        out = ex.substitute(e, sub) if sub else e
        visiting.discard(name)
        resolved[name] = out
        return out

    for name in m.constants:
        resolve(name)
    return resolved


def _subst_guard(g, mapping):
    if isinstance(g, ex.Comparison):
        return ex.Comparison(ex.substitute(g.expr, mapping), g.rel)
    return ex.BoolOp(g.kind, tuple(_subst_guard(i, mapping) for i in g.items))


def lower_to_automaton(m: DslModel):
    """DslModel -> (HybridAutomaton with one location, settings dict of
    SimConfig keyword arguments).

    Constants are inlined, an implicit clock is added when `t` is referenced
    without a declared flow, and event clauses become guarded self-loops.
    A name read or reset that has neither a flow nor a constant is a
    ParseError at the earliest place the parser saw one (`DslModel.spans`).
    """
    consts = _inline_constants(m)
    sub = dict(consts)
    flows = {v: ex.substitute(e, sub) for v, e in m.flows.items()}
    loc = "main"
    edges = [Edge(loc, loc, _subst_guard(evt.guard, sub),
                  Reset(tuple((n, ex.substitute(e, sub))
                              for n, e in evt.assigns), evt.prints),
                  f"event{k}")
             for k, evt in enumerate(m.events)]
    used = set()
    for e in flows.values():
        used |= ex.free_vars(e)
    for edge in edges:
        used |= ex.guard_free_vars(edge.guard)
        for n, e in edge.reset.assigns:
            used |= ex.free_vars(e) | {n}
    inits = dict(m.inits)
    if ex.TIME_VAR in consts:
        raise ModelError("'t' is reserved for time and cannot be a constant")
    if ex.TIME_VAR in used and ex.TIME_VAR not in flows:
        flows[ex.TIME_VAR] = ex.ONE
        inits.setdefault(ex.TIME_VAR, Interval(0.0, 0.0))
    undeclared = used - set(flows) - set(consts)
    if undeclared:
        raise ParseError(
            f"variables with neither a flow equation nor a constant "
            f"definition: {sorted(undeclared)}",
            min(map(m.spans.get, undeclared & set(m.spans)), default=None))
    missing_init = set(flows) - set(inits)
    if missing_init:
        raise ModelError(f"missing initial values for {sorted(missing_init)}")
    extra_init = set(inits) - set(flows)
    if extra_init:
        raise ModelError(
            f"initialized variables without a flow equation: "
            f"{sorted(extra_init)}")
    variables = tuple(inits)  # declaration order
    ha = HybridAutomaton(variables, {loc: flows}, edges, loc,
                         {v: inits[v] for v in variables})
    return ha, dict(m.settings)
