"""Guaranteed explicit Runge-Kutta stepping.

One accepted step produces a tight enclosure of the flow map at t+h plus an
a priori enclosure over the whole step:

* `guaranteed_step` evaluates the flow over the start set, f0 = f(env),
  once per call, and every attempt reads it: Picard sizes its first
  candidate from it, the stages use it as k1, and `StepOutcome.f0` hands
  it on to the caller's segment pad and crossing interpolant.
* `picard_enclosure` finds a set env + D, the start set plus one interval
  offset per variable, that provably maps into itself under the integral
  operator of the IVP (verified, never assumed), so every trajectory from
  the start set stays inside it for the step. Only the offsets iterate:
  the image is env + [0, h] * f(box), and both sets share env, so
  comparing offsets is exact set containment. The first candidate pads
  the Euler offset [0, h] * box(f0), and mostly verifies at once. The
  verified candidate's image holds every trajectory, and so does the
  image of that image; the result is their meet, with no re-check.
* `rk_stages` evaluates the scheme in affine arithmetic with the Butcher
  coefficients treated as exact rationals (their float representation error
  is folded into slack), so the result encloses the exact-real scheme.
  k1 is f0; each later stage argument, and the result, is one `af.lin`
  call, with the start form a term of unit scalar.
* `truncation_bound` bounds the local distance between scheme and true
  solution through the integral form of the Taylor remainder: it lies in
  h^(p+1)/(p+1)! * (conv{f^(p)(x(xi))} - conv{Phi^(p+1)(tau, x0)}), the
  hulls of the p-th flow derivative along the trajectory and of the (p+1)-th
  step-time derivative of the scheme polynomial, for xi and tau in [0, h].
  Both sides come built in the location's `FlowContext`, which the engine
  builds whole when a run starts. One mean weight serves every component, so
  there is no separate intermediate time per component. An affine form over
  symbols the components share is a convex zonotope, and a form that holds
  every value of a side holds its hull. That licenses the shared symbols.
  The sharing carries real width: renaming each component's non-state
  symbols apart widens lorenz's final box from 3.27 to 5.70.
* `step_control` sizes the next step from an accepted one's error
  estimate. In an automaton with edges that is the classical embedded-pair
  estimate on the center point, which also rejects an attempt before any
  set-valued work. In one without edges (`FlowContext.by_truncation`) it
  is half the widest truncation width, the verified bound on the error of
  the result the step keeps. Soundness never depends on either.
* `env_condense` is the one order reduction of a set: it keeps the shared
  noise symbols whose boxing would cost the most width, jointly across
  the variables, and merges every other symbol of a form into one fresh
  symbol. It keeps at most a budget of them, and no more than it takes
  for the rest to cost at most a floor's share of all of them. The engine
  applies it to every set a step starts from. There the floor binds on
  watertank, car and hybrid3d, whose Picard offsets and truncation
  remainders are worth almost nothing, and the budget on vanderpol,
  brusselator and lorenz, whose costs fall off smoothly.

A Butcher table declares only its coefficients. Its order p, and the order
of its embedded estimate, are derived when it is built, by checking the
rooted-tree order conditions up to order 5 in exact rationals: ode23, the
table every step uses, is (3, 2). So are the float enclosures of its
coefficients that the stages read.

State environments are plain dicts variable -> AffineForm.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import TYPE_CHECKING

from . import _round as rd
from . import affine as af
from . import expr as ex
from . import interval as iv
from .affine import AffineForm, NoiseAllocator
from .errors import DomainError, IntegrationError, ModelError
from .interval import Interval

if TYPE_CHECKING:
    from .config import SimConfig

Env = dict  # variable name -> AffineForm


# ---------------------------------------------------------------- tables


def _coef(fr: Fraction):
    """(float value, radius) enclosure of an exact rational coefficient."""
    mid = float(fr)
    num, den = float(fr.numerator), float(fr.denominator)
    if Fraction(mid) == fr:
        return mid, 0.0
    lo = rd.div_down(num, den)
    hi = rd.div_up(num, den)
    return mid, rd.next_up(max(mid - lo, hi - mid))


def _row_enc(row) -> tuple:
    """(column, mid, r) for each nonzero coefficient of `row` (`_coef`)."""
    return tuple((j, *_coef(q)) for j, q in enumerate(row) if q)


def _graft(t):
    """Each rooted tree made by adding one leaf to the tree t (the sorted
    tuple of its root's subtrees)."""
    yield tuple(sorted(t + ((),)))
    for i, u in enumerate(t):
        yield from (tuple(sorted(t[:i] + (v,) + t[i + 1:])) for v in _graft(u))


_TREES = [{()}]  # rooted trees by order - 1: 1, 1, 2, 4 and 9 of them
while len(_TREES) < 5:
    _TREES.append({g for t in _TREES[-1] for g in _graft(t)})


def _order(a, w) -> int:
    """Largest p <= 5 for which the weights w on the stages a meet every
    rooted-tree condition sum_i w_i Phi_i(t) = 1/gamma(t) of order <= p."""
    def phi(t):  # (Phi_i(t) for each stage i, gamma(t), node count of t)
        out, gamma, nodes = [Fraction(1)] * len(w), 1, 1
        for u in t:
            pu, gu, nu = phi(u)
            out = [o * sum(x * y for x, y in zip(a[i], pu))
                   for i, o in enumerate(out)]
            gamma, nodes = gamma * gu, nodes + nu
        return out, gamma * nodes, nodes

    for p, trees in enumerate(_TREES):
        for pt, gamma, _ in map(phi, trees):
            if sum(x * y for x, y in zip(w, pt)) * gamma != 1:
                return p
    return len(_TREES)


@dataclass(frozen=True)
class ButcherTable:
    """Explicit Runge-Kutta tableau with exact rational coefficients.

    Only coefficients are declared. `bhat` holds embedded weights for the
    error estimate; one extra weight means a first-same-as-last stage, the
    row b, evaluated at the step result. Everything else is derived when
    the table is built:

    * `order` is the largest p <= 5 for which b meets every rooted-tree
      order condition exactly in `Fraction`: the truncation bound's
      order, and the step-size growth of a step sized by its truncation
      width. `est_order` is the same for bhat, or `order` without it: the
      step-size growth of a step sized by the embedded pair. A table
      below order 1 is a ModelError.
    * `a_enc` and `b_enc` enclose the nonzero coefficients of each row of
      a, and of b, as (column, mid, r) triples: the float `mid` nearest
      the coefficient and a radius `r` with the coefficient in
      [mid - r, mid + r], 0 exactly where it is a float (`_coef`). The
      stages read these, so no `Fraction` is touched inside a step.
    * `a_float`, `b_float` and `bhat_float` are the coefficients rounded
      to floats, for the scalar estimate and the symbolic stage side.
    """

    name: str
    a: tuple  # tuple of tuples of Fraction, strictly lower triangular
    b: tuple
    bhat: tuple | None = None

    def __post_init__(self):
        s = len(self.b)
        if [len(row) for row in self.a] != list(range(s)):
            raise ModelError(f"table {self.name}: a is not strictly lower triangular")
        if len(self.bhat or self.b) not in (s, s + 1):
            raise ModelError(f"table {self.name}: bhat needs {s} or {s + 1} weights")
        derived = {"order": _order(self.a, self.b),
                   "est_order": _order((*self.a, self.b), self.bhat or self.b),
                   "a_enc": tuple(map(_row_enc, self.a)),
                   "b_enc": _row_enc(self.b),
                   "a_float": tuple(tuple(map(float, r)) for r in self.a),
                   "b_float": tuple(map(float, self.b)),
                   "bhat_float": tuple(map(float, self.bhat or ()))}
        if min(derived["order"], derived["est_order"]) < 1:
            raise ModelError(f"table {self.name}: weights below order 1")
        for k, v in derived.items():
            object.__setattr__(self, k, v)

    @property
    def stages(self):
        return len(self.b)


F = Fraction

ODE23 = ButcherTable("ode23", ((), (F(1, 2),), (F(0), F(3, 4))),
                     (F(2, 9), F(1, 3), F(4, 9)),
                     bhat=(F(7, 24), F(1, 4), F(1, 3), F(1, 8)))

H_MIN = 1e-6                # smallest step size
PICARD_MAX_ITERS = 20       # candidate boxes tried per Picard enclosure
INFLATION = 0.1             # first Picard pad, relative to the Euler offset's width


@dataclass
class StepOutcome:
    """An accepted step. `f0`, the flow over its start set, is evaluated
    once per `guaranteed_step` call and is the step's k1."""
    x_next: Env          # tight enclosure at t + h_used
    hull: Env            # a priori enclosure over [t, t + h_used]
    h_used: float
    h_next: float
    f0: Env              # f(env) at t
    rejections: int = 0


class FlowContext:
    """Everything a step in one location reads of its flow under `table`,
    built whole when the context is made; the engine makes one per location
    when a run starts. No guard state: the engine keeps the edges' kits.

    * `lie[k]`: the k-th Lie derivative of the flow by variable, for
      k = 0 (the flow) ... max(p, 3): the truncation bound reads p, the
      interpolant's remainder 3. Each order is one forward pass of
      `ex.derivative` seeded with the flow, with one memo shared across
      the orders, since each order's DAG contains much of the one below.
    * `stage`: the (p+1)-th step-time derivative of the scheme polynomial
      by variable, the truncation bound's stage side; `stage_zero`: every
      root of it is the constant 0. Above `ex.NODE_CAP` nodes it raises
      ConfigError.
    * `stage_reads`: the variables `stage` reads.
    * `trunc_zero`: `stage_zero`, and every root of `lie[p]` is the
      constant 0 too, so the truncation bound is exactly 0.
    * `scalar_flow`: the flow compiled to one scalar function.
    * `by_truncation`: `guaranteed_step` accepts and sizes an attempt by
      its truncation width, not by the embedded pair. The engine sets it
      in an automaton without edges; by default it is False.
    """

    def __init__(self, variables, flow: dict, table: ButcherTable,
                 by_truncation: bool = False):
        self.variables = tuple(variables)
        self.flow = dict(flow)
        self.table = table
        self.by_truncation = by_truncation
        memo: dict = {}
        self.lie = [[self.flow[v] for v in self.variables]]
        for _ in range(max(table.order, 3)):
            self.lie.append([ex.derivative(e, self.flow, memo)
                             for e in self.lie[-1]])
        self.stage = ex.stage_poly_derivative(
            table.a_float, table.b_float, self.flow, self.variables,
            table.order + 1)
        self.stage_zero = all(e is ex.ZERO for e in self.stage)
        self.stage_reads = frozenset().union(*map(ex.free_vars, self.stage))
        self.trunc_zero = self.stage_zero and all(
            e is ex.ZERO for e in self.lie[table.order])
        self.scalar_flow = ex.compile_scalar(self.lie[0], self.variables)

    def eval_flow(self, env: Env, alloc) -> Env:
        vals = ex.eval_affine_many(self.lie[0], env, alloc)
        return dict(zip(self.variables, vals))


# ------------------------------------------------------------ env helpers


def env_remap(env: Env, alloc) -> Env:
    """Copy with fresh noise ids: internal correlations kept, external broken."""
    mapping: dict = {}
    return {v: af.remap(f, mapping, alloc) for v, f in env.items()}


def env_condense(env: Env, budget: int, floor: float, alloc) -> Env:
    """The set `env` reduced jointly to at most `budget` shared symbols,
    and to fewer where the rest are negligible.

    A symbol's cost of boxing is ||g||_1 - ||g||_inf of its coefficients g
    across the forms (Girard's criterion). Of the symbols that two or more
    forms read, sorted costliest first, the shortest prefix at most
    `budget` long is kept whose left-out symbols cost at most `floor` of
    the summed cost of them all (both sums taken from the cheapest up);
    when no such prefix exists, the first `budget` are kept. In each form
    every other symbol is replaced by one fresh symbol, together with the
    form's rounding slack s, which is then 0; the symbol's coefficient C
    bounds s plus the sum of their absolute values. That is sound, for
    whichever symbols are kept: the fresh symbol, read by this form alone,
    takes the value (sum(c_j eps_j) + s e)/C, where e in [-1, 1] is the
    slack's share, so it lies in [-1, 1]. A merge leaves every form's
    range as it was, up to rounding upward; what it loses is correlation
    between the forms, which later steps would have used. Over the set
    it returns, the radius of a combination sum(a_v x_v) with every
    |a_v| <= 1 grows by at most twice the merged shared symbols' cost, so
    by at most 2 * floor of the shared symbols' cost when the floor
    decides. A private symbol costs 0 and is always merged, and merging it
    loses nothing, since the affine operations see a form's private
    symbols only through their sum. Folding the slack loses nothing
    either, up to rounding: the operations add slacks in absolute value,
    so a slack never cancels, while a symbol's coefficients can. A form
    without slack that has nothing to merge but one private symbol is left
    as it is.
    """
    # one pass over the forms, in env order: per symbol, its readers and
    # the running sum and max of its coefficients' magnitudes
    readers: dict = {}
    l1: dict = {}
    linf: dict = {}
    for f in env.values():
        for i, c in f.dev.items():
            m = abs(c)
            if i in readers:
                readers[i] += 1
                l1[i] += m
                if m > linf[i]:
                    linf[i] = m
            else:
                readers[i], l1[i], linf[i] = 1, m, m
    # (-cost, symbol) for each symbol two or more forms read, costliest
    # first. tails[j], the cost of the j cheapest summed cheapest first,
    # never falls as j grows, so `merged` is the most of the cheapest that
    # fit under the floor; the budget may merge more
    ranked = sorted([(linf[i] - l1[i], i) for i, n in readers.items()
                     if n > 1])
    tails = [0.0]
    for c, _ in reversed(ranked):
        tails.append(tails[-1] - c)
    merged = bisect_right(tails, floor * tails[-1]) - 1
    kept = min(len(ranked) - merged, budget)
    keep = frozenset([i for _, i in ranked[:kept]])
    out = {}
    for v, f in env.items():
        dropped = [i for i in f.dev if i not in keep]
        if (f.slack == 0.0 and len(dropped) < 2
                and all(readers[i] == 1 for i in dropped)):
            out[v] = f
            continue
        dev = {i: c for i, c in f.dev.items() if i in keep}
        dev[alloc.fresh()] = rd.add_up(
            rd.sum_abs_up(f.dev[i] for i in dropped), f.slack)
        out[v] = AffineForm(f.center, dev)
    return out


def _scaled_coef(h: float, mid: float, r: float):
    """Float interval around h * c for a coefficient c in [mid - r, mid + r]
    (`_coef`)."""
    if r == 0.0:
        s = h * mid
        if mid in (1.0, -1.0, 0.5, -0.5):  # exact scalings
            return s, s
        return rd.next_down(s), rd.next_up(s)
    return rd.mul_down(h, rd.next_down(mid - r)), rd.mul_up(h, rd.next_up(mid + r))


def inflate_form(x: AffineForm, rel: float, absolute: float) -> AffineForm:
    pad = rd.next_up(rd.mul_up(af.to_interval(x).mag, rel) + absolute)
    return AffineForm(x.center, dict(x.dev), rd.next_up(x.slack + pad))


# ----------------------------------------------------------------- picard


def picard_enclosure(ctx: FlowContext, env: Env, f0: Env, h: float,
                     alloc: NoiseAllocator) -> Env | None:
    """Verified a priori enclosure of all trajectories over [t, t+h].

    A candidate is env + D: the start set plus one interval offset D[v]
    per variable, and only D changes from one candidate to the next. Its
    image is env + P(D) with P(D) = [0, h] * f(B), f evaluated over the
    box B = box(env) + D: the self-map check behind the enclosure lemma
    quantifies over all functions into the candidate *box*, so the flow
    argument is the box, not the correlated set. Both sets add their
    offset to the same env, so P(D)[v] in D[v] for every v is exactly the
    containment env + P(D) in env + D. The start set is read once, for its
    box, and the result is built once.

    The lemma: if P(D) lies in D, every trajectory from the start set
    stays in box(env) + D over the step, so its offset x(t) - x(0), the
    integral of f along it, lies in P(D). The same argument holds for any
    set of offsets that holds every trajectory's: its image holds them
    too, with no check needed. So once a candidate D verifies, both
    img = P(D) and P(img) hold every offset, and the result is
    env + (img meet P(img)), met bound by bound. That meet is never empty,
    since [0, h] * y holds 0 for every y, so both intervals hold 0. An
    image P(img) that leaves the flow's domain leaves img as it is.

    The first candidate is the Euler offset [0, h] * box(f0), with
    f0 = f(env) as `guaranteed_step` gives it, padded on each side by
    `INFLATION` of its width plus a few ulps of box(env). A candidate that
    fails is replaced by its own image, epsilon-inflated.

    Returns None if no candidate verified within `PICARD_MAX_ITERS` (the
    caller should halve h).
    """
    if h <= 0.0:
        raise IntegrationError("picard_enclosure needs h > 0")
    names = ctx.variables
    start = {v: af.to_interval(env[v]) for v in names}
    span = Interval(0.0, h)

    def image(d):
        boxed = {v: af.from_interval(iv.add(start[v], d[v]), alloc)
                 for v in names}
        fz = ctx.eval_flow(boxed, alloc)
        return {v: iv.mul(span, af.to_interval(fz[v])) for v in names}

    cand = {}
    for v in names:
        e = iv.mul(span, af.to_interval(f0[v]))
        d = rd.next_up(e.width * INFLATION + 1e-15 * (1.0 + start[v].mag))
        cand[v] = iv.add(e, Interval(-d, d))
    infl = 1e-3  # epsilon-inflation of rejected candidates; grows on stall
    for it in range(PICARD_MAX_ITERS):
        try:
            img = image(cand)
        except DomainError:
            # inflation drove the candidate out of the flow's domain (or to
            # overflow): no enclosure at this step size
            return None
        if all(img[v].subset_of(cand[v]) for v in names):
            break
        for v in names:  # pad the image by infl of its box, box(env) + img
            box = iv.add(start[v], img[v])
            d = rd.next_up(box.width * infl + 1e-15 * (1.0 + box.mag))
            cand[v] = iv.add(img[v], Interval(-d, d))
        if (it + 1) % 4 == 0:
            infl *= 4.0
    else:
        return None
    try:
        narrow = image(img)
    except DomainError:
        narrow = img
    return {v: env[v] + af.from_interval(
                Interval(max(img[v].lo, narrow[v].lo),
                         min(img[v].hi, narrow[v].hi)), alloc)
            for v in names}


# ----------------------------------------------------------------- stages


def rk_stages(ctx: FlowContext, env: Env, f0: Env, h: float, alloc) -> Env:
    """Enclosure of the exact-real scheme result at t+h.

    The first stage is k1 = f0 = f(env), as `guaranteed_step` gives it.
    Each later stage argument env[v] + sum_j h a_ij k_j[v], and the result
    env[v] + sum_i h b_i k_i[v], is one `af.lin` call over the start form
    and the stages, with each h*coefficient enclosed in the float interval
    `_scaled_coef` gives from the table's derived enclosure of the
    coefficient. The kernel charges the coefficient widths and every
    rounding to slack, so the result is sound without an intermediate form
    per term.
    """
    ks = [f0]

    def combine(row):
        coefs = [(*_scaled_coef(h, mid, r), j) for j, mid, r in row]
        return {v: af.lin(0.0, [(1.0, 1.0, env[v]),
                                 *[(lo, hi, ks[j][v]) for lo, hi, j in coefs]])
                for v in ctx.variables}

    for row in ctx.table.a_enc[1:]:
        ks.append(ctx.eval_flow(combine(row), alloc))
    return combine(ctx.table.b_enc)


def embedded_error(ctx: FlowContext, env: Env, h: float) -> float | None:
    """Classical embedded-pair estimate |x - z| on the center point; None
    when the table has no embedded weights (or the center leaves the flow's
    domain).

    This is exactly the scalar method's accuracy steer, computed with the
    compiled flow; set widths are policed separately through the truncation
    bound. A set-magnitude difference would be dominated by the
    linearization symbols of wide states, collapsing the step size without
    improving soundness.
    """
    t = ctx.table
    if t.bhat is None:
        return None
    f = ctx.scalar_flow
    x0 = [env[v].center for v in ctx.variables]
    n = len(x0)
    a_f, b_f, bhat = t.a_float, t.b_float, t.bhat_float
    try:
        k = [f(x0)]
        for i in range(1, t.stages):
            row = a_f[i]
            state = [x0[j] + h * sum(row[m] * k[m][j] for m in range(i))
                     for j in range(n)]
            k.append(f(state))
        xn = [x0[j] + h * sum(b_f[i] * k[i][j] for i in range(t.stages))
              for j in range(n)]
        if len(bhat) == t.stages + 1:
            k.append(f(xn))
        zn = [x0[j] + h * sum(bhat[i] * k[i][j] for i in range(len(bhat)))
              for j in range(n)]
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    return max(abs(a - b) for a, b in zip(xn, zn))


# ------------------------------------------------------------- truncation


def truncation_bound(ctx: FlowContext, env: Env, z_env: Env, h: float,
                     alloc) -> Env:
    """Enclosure of the local truncation error over the step.

    Both the flow and the scheme agree with their Taylor polynomials of
    degree p, so their difference is the difference of the two integral
    remainders: one mean, with the weight (h - s)^p/p! of total mass
    h^(p+1)/(p+1)!, of f^(p)(x(s)) - Phi^(p+1)(s, x0) over s in [0, h].
    The weight is the same for every component, so the error lies in
    h^(p+1)/(p+1)! * (conv{f^(p)(x(xi))} - conv{Phi^(p+1)(tau, x0)}).
    Each side is evaluated as one affine form per component over symbols
    the components share, which is a convex zonotope and so contains the
    hull of that side's values: the Lie side over the a priori enclosure
    z_env, keeping its correlation with the state, and the stage side over
    a renamed copy of the start set and tau in [0, h]. Only the forms the
    stage side reads are renamed. The engine hands the step a reduced
    start set (`env_condense`), whose forms hold one private symbol each,
    so both sides run over a few symbols per variable. The scheme-side
    derivative gets a small relative inflation covering the float
    representation of the Butcher coefficients inside the symbolic
    polynomial. The weight's mass is an interval, and it scales each
    component without a fresh symbol, as one interval term of `af.lin`.

    A stage side that is the constant 0 (`FlowContext.stage_zero`) is not
    evaluated: the bound is the scaled Lie side alone, with no remap, no
    tau symbol and no inflation. That 0 is exact, not a rounded one. It
    arises where the flow is linear: each stage k_i is then a polynomial of
    degree i - 1 in tau whatever the coefficients, so the scheme polynomial
    x + tau * sum(b_i k_i) has degree <= s, the stage count. For ode23,
    s = p = 3, so its 4th derivative is 0 for the exact coefficients as
    well as for their floats. When the Lie side is the constant 0 as well
    (`FlowContext.trunc_zero`, as for a falling body y' = v, v' = -g),
    the scheme is exact and the bound is exact zero forms, with nothing
    evaluated.
    """
    if ctx.trunc_zero:
        return {v: AffineForm(0.0) for v in ctx.variables}
    p = ctx.table.order
    a_vals = ex.eval_affine_many(ctx.lie[p], z_env, alloc)
    fact = float(math.factorial(p + 1))
    scale_iv = iv.div(iv.pow_int(Interval(h, h), p + 1), Interval(fact, fact))
    if ctx.stage_zero:
        return {vname: af.lin(0.0, ((scale_iv.lo, scale_iv.hi, av),))
                for vname, av in zip(ctx.variables, a_vals)}
    denv = env_remap({v: f for v, f in env.items() if v in ctx.stage_reads},
                     alloc)
    denv[ex.TAU] = af.from_interval(Interval(0.0, h), alloc)
    b_vals = ex.eval_affine_many(ctx.stage, denv, alloc)
    return {vname: af.lin(0.0, ((scale_iv.lo, scale_iv.hi,
                                 av - inflate_form(bv, 1e-12, 1e-306)),))
            for vname, av, bv in zip(ctx.variables, a_vals, b_vals)}


# ------------------------------------------------------------ step control


def step_control(err: float, h: float, cfg: SimConfig, order: int) -> float:
    """The next step size after a step of size h accepted with the error
    estimate err <= `cfg.tol`: the classical (tol/err)^(1/(p+1)) rule with
    a 0.9 safety factor, within [H_MIN, `cfg.max_dt`]."""
    if err == 0.0:
        h_next = cfg.max_dt
    else:
        h_next = 0.9 * h * (cfg.tol / err) ** (1.0 / (order + 1))
    return min(max(h_next, H_MIN), cfg.max_dt)


# ------------------------------------------------------------ whole step


def guaranteed_step(ctx: FlowContext, env: Env, h: float, cfg: SimConfig,
                    alloc: NoiseAllocator, diag: str = "") -> StepOutcome:
    """One accepted guaranteed step, retrying internally with smaller h.

    The flow over the start set, f0 = f(env), is evaluated once, before the
    first attempt; every attempt's Picard enclosure and first stage read
    it, and the outcome returns it. Sound over any start set, and cheaper
    over one with few symbols, such as the reduced sets (`env_condense`)
    the engine hands it. Reads `cfg.tol` and `cfg.max_dt`.

    An attempt's error estimate is one of two, and it must be within
    `cfg.tol`:

    * By default, the embedded pair's point estimate (`embedded_error`),
      taken first: one above `cfg.tol` rejects the attempt before Picard,
      the stages or the truncation bound run. The next size grows with
      the estimate's order, `table.est_order`.
    * With `ctx.by_truncation` (the engine's choice in an automaton
      without edges), or when the table has no embedded weights or the
      center leaves the flow's domain: half the widest component of the
      truncation bound, which encloses the true error of the kept order-p
      result. The next size grows with `table.order`.

    An attempt fails when its estimate exceeds `cfg.tol` or its Picard
    enclosure fails; each failure halves h, and one at H_MIN raises
    IntegrationError naming the check that failed.
    """
    h = min(max(h, H_MIN), cfg.max_dt)
    f0 = ctx.eval_flow(env, alloc)
    for rejections in count():
        est = None if ctx.by_truncation else embedded_error(ctx, env, h)
        if est is not None and est > cfg.tol:
            failed = f"error estimate {est:g} above tolerance {cfg.tol:g}"
        elif (z := picard_enclosure(ctx, env, f0, h, alloc)) is None:
            failed = "Picard enclosure failed"
        else:
            x_prime = rk_stages(ctx, env, f0, h, alloc)
            trunc = truncation_bound(ctx, env, z, h, alloc)
            order = ctx.table.est_order
            if est is None:
                est = max(af.to_interval(trunc[v]).width
                          for v in ctx.variables) / 2.0
                order = ctx.table.order
            if est <= cfg.tol:
                x_next = {v: x_prime[v] + trunc[v] for v in ctx.variables}
                hull = {}
                for v in ctx.variables:
                    if af.to_interval(x_next[v]).subset_of(af.to_interval(z[v])):
                        hull[v] = z[v]
                    else:
                        hull[v] = af.hull(z[v], x_next[v], alloc)
                h_next = step_control(est, h, cfg, order)
                return StepOutcome(x_next, hull, h, h_next, f0, rejections)
            failed = (f"truncation estimate {est:g} above tolerance "
                      f"{cfg.tol:g}")
        if h <= H_MIN * (1.0 + 1e-9):
            raise IntegrationError(f"{failed} at minimal step size h={h:g} {diag}")
        h = max(h / 2.0, H_MIN)
