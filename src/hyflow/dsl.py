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
Every parse error carries the source span; a setting value that
`config.check_setting` rejects is reported at its `set` statement, and a
model without `set duration` at its end. Multi-location models use the JSON
format instead (see jsonmodel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expr as ex
from .affine import Rel
from .config import FIELD_TYPES, REQUIRED, check_setting
from .errors import ConfigError, ModelError, ParseError
from .expr import Edge, HybridAutomaton, Reset
from .interval import Interval

KEYWORDS = {"set", "init", "on", "do", "and", "or", "not", "print"}
RELATIONS = [r.value for r in Rel]

_SYMBOLS = ("<=", ">=", "==", "<", ">", "=", ";", "'", "{", "}", "(", ")",
            "[", "]", ",", "+", "-", "*", "/", "^")


@dataclass(frozen=True)
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
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and text[j] in "+-":
                        j += 1
                else:
                    break
            raw = text[i:j]
            span = SourceSpan(line, start_col)
            try:
                val = float(raw)
            except ValueError:
                raise ParseError(f"malformed number '{raw}'", span) from None
            if not math.isfinite(val):
                raise ParseError(f"number '{raw}' overflows a float", span)
            tokens.append(Token("number", raw, span, val))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            raw = text[i:j]
            span = SourceSpan(line, start_col)
            tokens.append(Token("ident", raw, span))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    out.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"'}
                               .get(esc, "\\" + esc))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal",
                                 SourceSpan(line, start_col))
            span = SourceSpan(line, start_col)
            tok = Token("string", "".join(out), span)
            tokens.append(tok)
            col += j + 1 - i
            i = j + 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                span = SourceSpan(line, start_col)
                tokens.append(Token("symbol", sym, span))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}",
                             SourceSpan(line, start_col))
    tokens.append(Token("eof", "", SourceSpan(line, col)))
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


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_symbol(self, sym) -> Token:
        t = self.peek()
        if t.kind != "symbol" or t.text != sym:
            raise ParseError(f"found {t.text!r}" if t.kind != "eof"
                             else "unexpected end of input",
                             t.span, expected=[repr(sym)])
        return self.next()

    def expect_ident(self, what="identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"found {t.text!r}", t.span, expected=[what])
        return self.next()

    # ------------------------------------------------------- expressions

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "symbol" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term()
            node = ex.add(node, rhs) if op == "+" else ex.sub(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "symbol" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.parse_unary()
            node = ex.mul(node, rhs) if op == "*" else ex.div(node, rhs)
        return node

    def parse_unary(self):
        t = self.peek()
        if t.kind == "symbol" and t.text == "-":
            self.next()
            return ex.neg(self.parse_unary())
        if t.kind == "symbol" and t.text == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "symbol" and self.peek().text == "^":
            self.next()
            sign = 1
            if self.peek().kind == "symbol" and self.peek().text == "-":
                self.next()
                sign = -1
            if self.peek().kind == "symbol" and self.peek().text == "(":
                self.next()
                n = self.parse_power_exponent()
                self.expect_symbol(")")
            else:
                n = self.parse_power_exponent(signed=False)
            return ex.pow_int(base, sign * n)
        return base

    def parse_power_exponent(self, signed=True):
        """An integer literal, after a minus sign when `signed`."""
        sign = 1
        if signed and self.peek().kind == "symbol" and self.peek().text == "-":
            self.next()
            sign = -1
        t = self.peek()
        if t.kind != "number" or t.value != int(t.value):
            raise ParseError("exponent must be an integer literal", t.span,
                             expected=["integer"])
        self.next()
        return sign * int(t.value)

    def parse_atom(self):
        t = self.peek()
        if t.kind == "number":
            self.next()
            return ex.const(t.value)
        if t.kind == "ident":
            if t.text in ex.FUNCTION_OPS:
                self.next()
                self.expect_symbol("(")
                arg = self.parse_expr()
                self.expect_symbol(")")
                return ex.OPS[t.text].make(arg)
            if t.text in KEYWORDS:
                raise ParseError(f"keyword '{t.text}' cannot start an "
                                 f"expression", t.span, expected=["expression"])
            self.next()
            return ex.var(t.text)
        if t.kind == "symbol" and t.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect_symbol(")")
            return node
        raise ParseError(f"found {t.text!r}" if t.kind != "eof"
                         else "unexpected end of input",
                         t.span, expected=["expression"])

    # ------------------------------------------------------------ guards

    def parse_guard(self):
        node = self.parse_guard_conj()
        items = [node]
        while self.peek().kind == "ident" and self.peek().text == "or":
            self.next()
            items.append(self.parse_guard_conj())
        return items[0] if len(items) == 1 else ex.BoolOp("or", tuple(items))

    def parse_guard_conj(self):
        items = [self.parse_guard_atom()]
        while self.peek().kind == "ident" and self.peek().text == "and":
            self.next()
            items.append(self.parse_guard_atom())
        return items[0] if len(items) == 1 else ex.BoolOp("and", tuple(items))

    def parse_guard_atom(self):
        t = self.peek()
        if t.kind == "ident" and t.text == "not":
            self.next()
            return self.parse_guard_atom().negate()
        # '(' may open a nested guard or a parenthesized expression; try the
        # guard reading first and fall back on the comparison path
        if t.kind == "symbol" and t.text == "(":
            save = self.pos
            self.next()
            try:
                inner = self.parse_guard()
                self.expect_symbol(")")
                if not (self.peek().kind == "symbol"
                        and self.peek().text in RELATIONS):
                    return inner
            except ParseError:
                pass
            self.pos = save
        lhs = self.parse_expr()
        t = self.peek()
        if t.kind == "symbol" and t.text == "==":
            raise ParseError("equality guards have no sound crossing "
                             "semantics; use inequalities", t.span)
        if t.kind != "symbol" or t.text not in RELATIONS:
            raise ParseError(f"found {t.text!r}", t.span, expected=RELATIONS)
        self.next()
        rhs = self.parse_expr()
        return ex.comparison(lhs, Rel(t.text), rhs)

    # -------------------------------------------------------- statements

    def parse_signed_number(self) -> float:
        sign = 1.0
        t = self.peek()
        if t.kind == "symbol" and t.text in "+-":
            self.next()
            sign = -1.0 if t.text == "-" else 1.0
            t = self.peek()
        if t.kind != "number":
            raise ParseError(f"found {t.text!r}", t.span, expected=["number"])
        self.next()
        return sign * t.value

    def parse_model(self) -> DslModel:
        m = DslModel()

        def check_fresh(name_tok, kind):
            name = name_tok.text
            if (name in m.inits and kind == "init") or \
               (name in m.constants and kind == "const") or \
               (name in m.flows and kind == "flow") or \
               (kind == "const" and name in m.flows) or \
               (kind == "flow" and name in m.constants):
                raise ParseError(f"duplicate definition of '{name}'",
                                 name_tok.span)

        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "ident" and t.text == "set":
                self.next()
                name_tok = self.expect_ident("setting name")
                name = name_tok.text
                if name not in FIELD_TYPES:
                    raise ParseError(f"unknown setting '{name}'",
                                     name_tok.span, expected=list(FIELD_TYPES))
                if name in m.settings:
                    raise ParseError(f"duplicate setting '{name}'",
                                     name_tok.span)
                self.expect_symbol("=")
                value = self.parse_signed_number()
                self.expect_symbol(";")
                try:
                    m.settings[name] = check_setting(name, value)
                except ConfigError as e:
                    raise ParseError(str(e), t.span) from None
                continue
            if t.kind == "ident" and t.text == "init":
                self.next()
                name_tok = self.expect_ident("variable name")
                check_fresh(name_tok, "init")
                self.expect_symbol("=")
                v = self.peek()
                if v.kind == "symbol" and v.text == "[":
                    self.next()
                    lo = self.parse_signed_number()
                    self.expect_symbol(",")
                    hi = self.parse_signed_number()
                    self.expect_symbol("]")
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
                self.expect_symbol(";")
                continue
            if t.kind == "ident" and t.text == "on":
                self.next()
                guard = self.parse_guard()
                do_tok = self.expect_ident("'do'")
                if do_tok.text != "do":
                    raise ParseError(f"found {do_tok.text!r}", do_tok.span,
                                     expected=["do"])
                self.expect_symbol("{")
                assigns = []
                prints = []
                while True:
                    st = self.peek()
                    if st.kind == "symbol" and st.text == "}":
                        break
                    if st.kind == "ident" and st.text == "print":
                        self.next()
                        self.expect_symbol("(")
                        lit = self.peek()
                        if lit.kind != "string":
                            raise ParseError(f"found {lit.text!r}", lit.span,
                                             expected=["string literal"])
                        self.next()
                        self.expect_symbol(")")
                        prints.append(lit.text)
                    else:
                        name_tok = self.expect_ident("variable name")
                        self.expect_symbol("=")
                        assigns.append((name_tok.text, self.parse_expr()))
                    nxt = self.peek()
                    if nxt.kind == "symbol" and nxt.text == ";":
                        self.next()
                        continue
                    break
                self.expect_symbol("}")
                self.expect_symbol(";")
                m.events.append(DslEvent(guard, tuple(assigns),
                                         tuple(prints)))
                continue
            if t.kind == "ident":
                name_tok = self.next()
                if name_tok.text in KEYWORDS:
                    raise ParseError(f"unexpected keyword '{name_tok.text}'",
                                     name_tok.span)
                nxt = self.peek()
                if nxt.kind == "symbol" and nxt.text == "'":
                    self.next()
                    check_fresh(name_tok, "flow")
                    self.expect_symbol("=")
                    m.flows[name_tok.text] = self.parse_expr()
                    self.expect_symbol(";")
                    continue
                if nxt.kind == "symbol" and nxt.text == "=":
                    self.next()
                    check_fresh(name_tok, "const")
                    m.constants[name_tok.text] = self.parse_expr()
                    self.expect_symbol(";")
                    continue
                raise ParseError(f"found {nxt.text!r}", nxt.span,
                                 expected=["'", "="])
            raise ParseError(f"found {t.text!r}" if t.kind != "eof"
                             else "unexpected end of input", t.span,
                             expected=["set", "init", "on", "declaration"])
        for name in REQUIRED:
            if name not in m.settings:
                raise ParseError(f"missing `set {name}`", self.peek().span)
        return m


def parse_dsl(text: str) -> DslModel:
    return _Parser(tokenize(text)).parse_model()


def parse_expr_string(text: str):
    p = _Parser(tokenize(text))
    node = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return node


def parse_guard_string(text: str):
    p = _Parser(tokenize(text))
    g = p.parse_guard()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return g


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
        raise ModelError(
            f"variables with neither a flow equation nor a constant "
            f"definition: {sorted(undeclared)}")
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
