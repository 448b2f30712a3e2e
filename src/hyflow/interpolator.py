"""Guaranteed continuous extension over one integration step.

From enclosures of the solution at both ends of a step of length H, and of
the flow there, builds the cubic Hermite interpolant and evaluates it over
interval times in affine arithmetic, adding the rigorous Lagrange
remainder f'''(z)/4! * tau^2 (tau - H)^2, with the third flow derivative
taken over the step's a priori enclosure z. The result encloses every
trajectory value at every time in the argument. A crossing that extends
over several steps is interpolated by one such piece over the whole
extension, with the remainder over the accumulated hull.

With s = tau / H the interpolant is evaluated in partition-of-unity form

    x_0 + tau (1 - s)^2 f_0 + (3 - 2s) s^2 (x_1 - x_0) + (tau - H) s^2 f_1

instead of as a sum over x_0, f_0, x_1 and f_1. The value basis sums to
one, so the identity is exact; the plain sum would lose it, because each
basis form carries its own linearisation symbols, and its width would then
scale with |x| instead of with x_1 - x_0, which `GPoly` holds.
`eval_gpoly(..., names=...)` evaluates only the named variables (a guard
reads a few); each result is bitwise the one a full evaluation gives. At a
point time the basis is three interval scalars, so each variable is one
linear combination of its node data; over an interval of times it is
affine forms in one shared time symbol.

Times are local to the step: tau = 0 at its start and the span is [0, H];
callers translate to absolute time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import affine as af
from . import expr as ex
from . import interval as iv
from .affine import NoiseAllocator
from .errors import DomainError
from .integrator import FlowContext
from .interval import Interval


@dataclass
class GPoly:
    """One span's interpolant: node data and remainder scale, but no flow
    or guard; a caller reading a guard along it brings the guard's kit."""
    variables: tuple
    span: float          # H
    x0: dict             # enclosure of x at tau = 0
    f0: dict             # enclosure of f(x) at tau = 0
    dx: dict             # x1 - x0, the data of the partition-of-unity form
    f1: dict             # enclosure of f(x) at tau = H
    rem_scale: dict      # var -> Interval: f'''(z) / 4!


def build_gpoly(ctx: FlowContext, x0: dict, f0: dict, x1: dict, span: float,
                z_env: dict, alloc: NoiseAllocator) -> GPoly:
    """The interpolant on [0, span] through the enclosures `x0` at its
    start and `x1` at its end; `f0` is the flow over `x0`, as the step
    from it returned it (`StepOutcome.f0`), and `z_env` is the a priori
    enclosure of the span. The remainder reads f'''(x(xi)) only at times
    xi inside the span, where every trajectory lies in `z_env`, so f''' is
    taken over `z_env` as given: the node enclosures add nothing to it."""
    f1 = ctx.eval_flow(x1, alloc)
    f3_forms = ex.eval_affine_many(ctx.lie[3], z_env, alloc)
    rem_scale = {v: iv.div(af.to_interval(f), Interval(24.0, 24.0))  # 4!
                 for v, f in zip(ctx.variables, f3_forms)}
    dx = {v: x1[v] - x0[v] for v in ctx.variables}
    return GPoly(ctx.variables, span, x0, f0, dx, f1, rem_scale)


def eval_gpoly(g: GPoly, t: Interval, alloc: NoiseAllocator,
               names=None) -> dict:
    """Sound enclosure of x(tau) for every tau in `t` and every tracked
    trajectory; `t` must lie within the step span (tiny outward tolerance).
    With `names`, only those variables are evaluated and returned."""
    h = g.span
    tol = 1e-9 * (1.0 + h)
    if t.lo < -tol or t.hi > h + tol:
        raise DomainError(
            f"time [{t.lo}, {t.hi}] outside interpolation span [0, {h}]")
    # the basis of the form above: b0 = tau (1 - s)^2, a1 = (3 - 2s) s^2
    # and b1 = (tau - H) s^2, with s = tau / H
    inv = iv.div(Interval(1.0, 1.0), Interval(h, h))
    if t.lo == t.hi:
        s = iv.mul(t, inv)
        s2 = iv.pow_int(s, 2)
        basis = [iv.mul(t, iv.pow_int(iv.sub(Interval(1.0, 1.0), s), 2)),
                 iv.mul(iv.sub(Interval(3.0, 3.0), iv.add(s, s)), s2),
                 iv.mul(iv.sub(t, Interval(h, h)), s2)]

        def term(b, x):
            return (b.lo, b.hi, x)
    else:
        tau = af.from_interval(t, alloc)
        s = af.lin(0.0, ((inv.lo, inv.hi, tau),))
        u = 1.0 - s
        s2 = af.mul(s, s, alloc)
        basis = [af.mul(tau, af.mul(u, u, alloc), alloc),
                 af.mul(af.add_const(s * -2.0, 3.0), s2, alloc),
                 af.mul(tau - h, s2, alloc)]

        def term(b, x):
            return (1.0, 1.0, af.mul(b, x, alloc))
    # remainder factor tau^2 (tau - H)^2, evaluated as an interval
    prod = iv.mul(iv.pow_int(t, 2), iv.pow_int(iv.sub(t, Interval(h, h)), 2))
    out = {}
    for v in g.variables:
        if names is not None and v not in names:
            continue
        terms = [(1.0, 1.0, g.x0[v]),
                 *map(term, basis, (g.f0[v], g.dx[v], g.f1[v]))]
        rem = iv.mul(g.rem_scale[v], prod)
        if rem.lo != 0.0 or rem.hi != 0.0:
            terms.append((1.0, 1.0, af.from_interval(rem, alloc)))
        out[v] = af.lin(0.0, terms)
    return out
