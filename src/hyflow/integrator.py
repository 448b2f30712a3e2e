"""Guaranteed explicit Runge-Kutta stepping.

One accepted step produces a tight enclosure of the flow map at t+h plus an
a priori enclosure over the whole step:

* `picard_enclosure` finds a box that provably maps into itself under the
  integral operator of the IVP (verified, never assumed), so every
  trajectory from the start set stays inside it for the step.
* `rk_stages` evaluates the scheme in affine arithmetic with the Butcher
  coefficients treated as exact rationals (their float representation error
  is folded into slack), so the result encloses the exact-real scheme.
* `truncation_bound` bounds the local distance between scheme and true
  solution through the two Lagrange remainders: the p-th flow derivative
  over the a priori enclosure, minus the (p+1)-th step-time derivative of
  the scheme polynomial over the start set.
* `step_control` drives the step size from the classical embedded-pair
  estimate; soundness never depends on it.

State environments are plain dicts variable -> AffineForm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True)
class ButcherTable:
    """Explicit Runge-Kutta tableau with exact rational coefficients.

    `order` is the order used for the truncation bound; it must not exceed
    the scheme's true order (a lower value is sound, just more
    conservative). `bhat` holds embedded weights for the error estimate; one
    extra weight means a first-same-as-last stage evaluated at the step
    result.
    """

    name: str
    a: tuple  # tuple of tuples of Fraction, strictly lower triangular
    b: tuple
    c: tuple
    order: int
    bhat: tuple | None = None

    def __post_init__(self):
        if sum(self.b) != 1:
            raise ModelError(f"table {self.name}: sum(b) != 1")
        for i, row in enumerate(self.a):
            if len(row) != i:
                raise ModelError(f"table {self.name}: a is not strictly lower triangular")
            if sum(row) != self.c[i]:
                raise ModelError(f"table {self.name}: row sum != c[{i}]")

    @property
    def stages(self):
        return len(self.b)

    def a_float(self):
        return tuple(tuple(float(x) for x in row) for row in self.a)

    def b_float(self):
        return tuple(float(x) for x in self.b)


F = Fraction

ODE23 = ButcherTable(
    name="ode23",
    a=((), (F(1, 2),), (F(0), F(3, 4))),
    b=(F(2, 9), F(1, 3), F(4, 9)),
    c=(F(0), F(1, 2), F(3, 4)),
    order=2,
    bhat=(F(7, 24), F(1, 4), F(1, 3), F(1, 8)),
)

RK4 = ButcherTable(
    name="rk4",
    a=((), (F(1, 2),), (F(0), F(1, 2)), (F(0), F(0), F(1))),
    b=(F(1, 6), F(1, 3), F(1, 3), F(1, 6)),
    c=(F(0), F(1, 2), F(1, 2), F(1)),
    order=4,
)

EULER = ButcherTable(name="euler", a=((),), b=(F(1),), c=(F(0),), order=1)

TABLES = {"ode23": ODE23, "rk4": RK4, "euler": EULER}

H_MIN = 1e-6                # smallest step size
PICARD_MAX_ITERS = 20       # candidate boxes tried per Picard enclosure
INFLATION = 0.1             # relative pad of the first Picard candidate
REFINE_SWEEPS = 3           # tightening sweeps after a verified enclosure
TRUNC_REJECT_FACTOR = 10.0  # reject a step whose truncation width > this*tol


@dataclass
class StepOutcome:
    x_next: Env          # tight enclosure at t + h_used
    hull: Env            # a priori enclosure over [t, t + h_used]
    stages: list         # stage values k_i (list of Env)
    err_est: float       # embedded scalar estimate driving step control
    trunc: Env           # truncation-error enclosure added into x_next
    h_used: float
    h_next: float
    rejections: int = 0


class FlowContext:
    """Per-(location, table) cache of symbolic machinery."""

    def __init__(self, variables, flow: dict, table: ButcherTable):
        self.variables = tuple(variables)
        self.flow = dict(flow)
        self.table = table
        self._flow_list = [self.flow[v] for v in self.variables]
        self._lie = [self.flow]
        self._phi_deriv = None
        self._scalar_flow = None

    def eval_flow(self, env: Env, alloc) -> Env:
        vals = ex.eval_affine_many(self._flow_list, env, alloc)
        return dict(zip(self.variables, vals))

    def scalar_flow(self):
        if self._scalar_flow is None:
            self._scalar_flow = ex.compile_scalar(self._flow_list,
                                                  self.variables)
        return self._scalar_flow

    def f_deriv(self, k: int) -> dict:
        """k-th derivative of the flow vector along itself (f is k=0)."""
        while len(self._lie) <= k:
            prev = self._lie[-1]
            self._lie.append(
                {v: ex.total_derivative(e, self.flow) for v, e in prev.items()}
            )
        return self._lie[k]

    def phi_deriv(self) -> dict:
        if self._phi_deriv is None:
            t = self.table
            self._phi_deriv = ex.stage_poly_derivative(
                t.a_float(), t.b_float(), self.flow, self.variables, t.order + 1
            )
        return self._phi_deriv


# ------------------------------------------------------------ env helpers


def env_box(env: Env) -> dict:
    return {v: af.to_interval(f) for v, f in env.items()}


def env_subset(a: Env, b: Env, names) -> bool:
    for v in names:
        if not af.to_interval(a[v]).subset_of(af.to_interval(b[v])):
            return False
    return True


def env_hull(a: Env, b: Env, alloc, names=None) -> Env:
    keys = names if names is not None else a.keys()
    return {v: af.hull(a[v], b[v], alloc) for v in keys}


def env_remap(env: Env, alloc) -> Env:
    """Copy with fresh noise ids: internal correlations kept, external broken."""
    mapping: dict = {}
    return {v: af.remap(f, mapping, alloc) for v, f in env.items()}


def env_condense(env: Env, budget: int, alloc) -> Env:
    return {v: af.condense(f, budget, alloc) for v, f in env.items()}


def _decorrelate_box(env: Env, alloc, names) -> Env:
    return {v: af.from_interval(af.to_interval(env[v]), alloc) for v in names}


def scale_interval(x: AffineForm, lo: float, hi: float) -> AffineForm:
    """x scaled by an uncertain scalar s in [lo, hi]; no fresh symbol."""
    mid = 0.5 * (lo + hi)
    r = rd.next_up(max(hi - mid, mid - lo))
    out = af.scale(x, mid)
    if r != 0.0:
        extra = rd.mul_up(r, af.to_interval(x).mag)
        out = AffineForm(out.center, out.dev, rd.next_up(out.slack + extra))
    return out


def _scaled_coef(h: float, fr: Fraction):
    mid, r = _coef(fr)
    if r == 0.0:
        if mid == 0.0:
            return 0.0, 0.0
        s = h * mid
        if mid in (1.0, -1.0, 0.5, -0.5):  # exact scalings
            return s, s
        return rd.next_down(s), rd.next_up(s)
    return rd.mul_down(h, rd.next_down(mid - r)), rd.mul_up(h, rd.next_up(mid + r))


def _add_scaled(acc: AffineForm, k: AffineForm, h: float, fr: Fraction) -> AffineForm:
    if fr == 0:
        return acc
    lo, hi = _scaled_coef(h, fr)
    return acc + scale_interval(k, lo, hi)


def inflate_form(x: AffineForm, rel: float, absolute: float) -> AffineForm:
    pad = rd.next_up(rd.mul_up(af.to_interval(x).mag, rel) + absolute)
    return AffineForm(x.center, dict(x.dev), rd.next_up(x.slack + pad))


# ----------------------------------------------------------------- picard


def _picard_map(ctx: FlowContext, env0: Env, cand: Env, h: float, alloc) -> Env:
    """One application of the integral operator, box-decorrelated.

    The self-map check underlying the enclosure lemma quantifies over all
    functions into the candidate *box*, so the flow argument must be the
    box, not the correlated zonotope.
    """
    boxed = _decorrelate_box(cand, alloc, ctx.variables)
    fz = ctx.eval_flow(boxed, alloc)
    span = Interval(0.0, h)
    out = {}
    for v in ctx.variables:
        prod = iv.mul(span, af.to_interval(fz[v]))
        out[v] = env0[v] + af.from_interval(prod, alloc)
    return out


def picard_enclosure(ctx: FlowContext, env: Env, h: float,
                     alloc: NoiseAllocator) -> Env | None:
    """Verified a priori enclosure of all trajectories over [t, t+h].

    Returns z with picard_map(z) contained in z (re-checked, not assumed),
    refined by a few extra sweeps; None if no candidate verified within the
    iteration budget (caller should halve h).
    """
    if h <= 0.0:
        raise IntegrationError("picard_enclosure needs h > 0")
    names = ctx.variables

    def padded(e, rel, absolute):
        out = {}
        for v in names:
            box = af.to_interval(e[v])
            d = rd.next_up(box.width * rel + absolute * (1.0 + box.mag))
            out[v] = e[v] + af.from_interval(Interval(-d, d), alloc)
        return out

    f0 = ctx.eval_flow(env, alloc)
    cand = {}
    for v in names:
        m = af.to_interval(f0[v]).mag
        pad = rd.mul_up(rd.mul_up(m, h), 1.0 + INFLATION)
        cand[v] = env[v] + af.from_interval(Interval(-pad, pad), alloc) if pad else env[v]
    verified = None
    infl = 1e-3  # epsilon-inflation of rejected candidates; grows on stall
    for it in range(PICARD_MAX_ITERS):
        try:
            img = _picard_map(ctx, env, cand, h, alloc)
        except DomainError:
            # inflation drove the candidate out of the flow's domain (or to
            # overflow): no enclosure at this step size
            return None
        if env_subset(img, cand, names):
            verified = cand
            break
        cand = padded(img, infl, 1e-15)
        if (it + 1) % 4 == 0:
            infl *= 4.0
    if verified is None:
        return None
    z = verified
    img = _picard_map(ctx, env, z, h, alloc)  # known subset of z
    for _ in range(REFINE_SWEEPS):
        # a few ULPs of padding keep the re-verification from failing on
        # rounding noise while preserving the verified-fixpoint contract
        c = padded(img, 0.0, 1e-14)
        try:
            img2 = _picard_map(ctx, env, c, h, alloc)
        except DomainError:
            break
        if env_subset(img2, c, names):
            z, img = c, img2
        else:
            break
    return z


# ----------------------------------------------------------------- stages


def rk_stages(ctx: FlowContext, env: Env, h: float, alloc) -> tuple:
    """(scheme result at t+h, stage values); encloses the exact-real scheme."""
    t = ctx.table
    ks = []
    for i in range(t.stages):
        if i == 0:
            stage_env = env
        else:
            stage_env = {}
            row = t.a[i]
            for v in ctx.variables:
                acc = env[v]
                for j, aij in enumerate(row):
                    acc = _add_scaled(acc, ks[j][v], h, aij)
                stage_env[v] = acc
        ks.append(ctx.eval_flow(stage_env, alloc))
    x_next = {}
    for v in ctx.variables:
        acc = env[v]
        for i, bi in enumerate(t.b):
            acc = _add_scaled(acc, ks[i][v], h, bi)
        x_next[v] = acc
    return x_next, ks


def embedded_error(ctx: FlowContext, env: Env, x_next: Env, ks: list, h: float,
                   alloc) -> float | None:
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
    f = ctx.scalar_flow()
    x0 = [env[v].center for v in ctx.variables]
    n = len(x0)
    a_f = t.a_float()
    try:
        k = [f(x0)]
        for i in range(1, t.stages):
            row = a_f[i]
            state = [x0[j] + h * sum(row[m] * k[m][j] for m in range(i))
                     for j in range(n)]
            k.append(f(state))
        b_f = t.b_float()
        xn = [x0[j] + h * sum(b_f[i] * k[i][j] for i in range(t.stages))
              for j in range(n)]
        bhat = [float(w) for w in t.bhat]
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

    The two remainder enclosures are combined independently (the unknown
    intermediate times are independent), so the bound scales as h^(p+1).
    The scheme-side derivative gets a small relative inflation covering the
    float representation of the Butcher coefficients inside the symbolic
    polynomial.
    """
    p = ctx.table.order
    fp = ctx.f_deriv(p)
    a_vals = ex.eval_affine_many([fp[v] for v in ctx.variables], z_env, alloc)
    phi = ctx.phi_deriv()
    denv = env_remap(env, alloc)
    denv[ex.TAU] = af.from_interval(Interval(0.0, h), alloc)
    b_vals = ex.eval_affine_many([phi[v] for v in ctx.variables], denv, alloc)
    fact = float(math.factorial(p + 1))
    scale_iv = iv.div(iv.pow_int(Interval(h, h), p + 1), Interval(fact, fact))
    out = {}
    for vname, av, bv in zip(ctx.variables, a_vals, b_vals):
        bv = inflate_form(bv, 1e-12, 1e-306)
        diff = av - bv
        out[vname] = af.mul(af.from_interval(scale_iv, alloc), diff, alloc)
    return out


# ------------------------------------------------------------ step control


def step_control(err: float, tol: float, h: float, cfg: SimConfig,
                 order: int) -> tuple:
    """(accept, next step size); growth uses the classical (tol/err)^(1/(p+1))
    rule with a 0.9 safety factor, rejection halves."""
    if err <= tol:
        if err == 0.0:
            h_next = cfg.max_dt
        else:
            h_next = 0.9 * h * (tol / err) ** (1.0 / (order + 1))
        return True, min(max(h_next, H_MIN), cfg.max_dt)
    return False, max(h / 2.0, H_MIN)


# ------------------------------------------------------------ whole step


def guaranteed_step(ctx: FlowContext, env: Env, h: float, cfg: SimConfig,
                    alloc: NoiseAllocator, diag: str = "") -> StepOutcome:
    """One accepted guaranteed step, retrying internally with smaller h.

    Reads `cfg.tol` and `cfg.max_dt`. Raises IntegrationError when the
    minimal step size cannot produce a verified enclosure or an acceptable
    error estimate.
    """
    h = min(max(h, H_MIN), cfg.max_dt)
    rejections = 0
    for _ in range(200):
        at_floor = h <= H_MIN * (1.0 + 1e-9)
        z = picard_enclosure(ctx, env, h, alloc)
        if z is None:
            if at_floor:
                raise IntegrationError(
                    f"Picard enclosure failed at minimal step size h={h:g} {diag}"
                )
            h = max(h / 2.0, H_MIN)
            rejections += 1
            continue
        x_prime, ks = rk_stages(ctx, env, h, alloc)
        trunc = truncation_bound(ctx, env, z, h, alloc)
        x_next = {v: x_prime[v] + trunc[v] for v in ctx.variables}
        est = embedded_error(ctx, env, x_prime, ks, h, alloc)
        if est is None:
            est = max(af.to_interval(trunc[v]).width for v in ctx.variables) / 2.0
        accept, h_next = step_control(est, cfg.tol, h, cfg, ctx.table.order)
        if accept:
            worst = max(af.to_interval(trunc[v]).width for v in ctx.variables)
            if worst > TRUNC_REJECT_FACTOR * cfg.tol and not at_floor:
                accept = False
                h_next = max(h / 2.0, H_MIN)
        if accept:
            hull = {}
            for v in ctx.variables:
                if af.to_interval(x_next[v]).subset_of(af.to_interval(z[v])):
                    hull[v] = z[v]
                else:
                    hull[v] = af.hull(z[v], x_next[v], alloc)
            return StepOutcome(x_next, hull, ks, est, trunc, h, h_next,
                               rejections)
        if at_floor:
            raise IntegrationError(
                f"error estimate {est:g} above tolerance {cfg.tol:g} at minimal "
                f"step size {diag}"
            )
        h = h_next
        rejections += 1
    raise IntegrationError(f"step control failed to converge {diag}")
