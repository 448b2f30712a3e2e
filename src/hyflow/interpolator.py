"""Guaranteed continuous extension between integration nodes.

From enclosures of the solution and its derivative at the step endpoints
(more nodes are supported), builds the Hermite-Birkhoff interpolation
polynomial and evaluates it over set-valued times in affine arithmetic,
adding the rigorous Lagrange remainder: the (2n+1)-th flow derivative over
the step's a priori enclosure times the squared node polynomial. The result
encloses every trajectory value at every time in the argument.

The value basis sums to one (it interpolates the constant 1 exactly), so
the interpolant is evaluated in partition-of-unity form

    x_0 + B_0 f_0 + sum_{i>=1} [A_i (x_i - x_0) + B_i f_i]

instead of sum A_i x_i + B_i f_i. The identity is exact; the plain sum would
lose it, because every A_i carries its own linearisation symbols, and its
width would then scale with |x| instead of with the node differences
x_i - x_0, which `GPoly` computes once.
`eval_gpoly(..., names=...)` evaluates only the named variables (a guard
reads a few); each result is bitwise the one a full evaluation gives.

Times are local to the step: node 0 sits at tau = 0 and the span is
[0, H]; callers translate to absolute time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import affine as af
from . import expr as ex
from . import interval as iv
from .affine import AffineForm, NoiseAllocator
from .errors import DomainError, ModelError
from .integrator import FlowContext, scale_interval
from .interval import Interval


@dataclass
class GPoly:
    variables: tuple
    taus: tuple                # strictly increasing node times in [0, H]
    node_envs: tuple           # enclosures of x at each node
    deriv_envs: tuple          # enclosures of f(x) at each node
    span: float                # H
    inv_denoms: tuple          # 1 / prod(t_i - t_j), as Interval per node
    dl_at_node: tuple          # l_i'(t_i) = sum 1/(t_i - t_k), as Interval
    rem_scale: dict            # var -> Interval: f^(N)(span, z) / (N+1)!
    degree: int                # N = 2n + 1
    # x_i - x_0 per node i >= 1, the data of the partition-of-unity form
    node_diffs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        x0 = self.node_envs[0]
        self.node_diffs = tuple({v: env[v] - x0[v] for v in self.variables}
                                for env in self.node_envs[1:])


def build_gpoly(ctx: FlowContext, nodes, span: float, z_env: dict,
                alloc: NoiseAllocator) -> GPoly:
    """nodes: [(tau_i, env_i)] with 0 <= tau_i <= span, strictly increasing."""
    taus = tuple(t for t, _ in nodes)
    if len(taus) < 2:
        raise ModelError("interpolation needs at least two nodes")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ModelError(f"node times must be strictly increasing: {taus}")
    envs = tuple(env for _, env in nodes)
    derivs = tuple(ctx.eval_flow(env, alloc) for env in envs)
    # the a priori enclosure must cover the nodes (hull in anything missing)
    z_use = dict(z_env)
    for env in envs:
        for v in ctx.variables:
            if not af.to_interval(env[v]).subset_of(af.to_interval(z_use[v])):
                z_use[v] = af.hull(z_use[v], env[v], alloc)
    n = len(taus) - 1
    degree = 2 * n + 1
    fN = ctx.f_deriv(degree)
    fN_forms = ex.eval_affine_many([fN[v] for v in ctx.variables], z_use, alloc)
    fact = float(math.factorial(degree + 1))
    rem_scale = {
        v: iv.div(af.to_interval(f), Interval(fact, fact))
        for v, f in zip(ctx.variables, fN_forms)
    }
    inv_denoms = []
    dl = []
    for i, ti in enumerate(taus):
        den = Interval(1.0, 1.0)
        s = Interval(0.0, 0.0)
        for j, tj in enumerate(taus):
            if j == i:
                continue
            d = Interval(ti, ti)
            d = iv.sub(d, Interval(tj, tj))
            den = iv.mul(den, d)
            s = iv.add(s, iv.div(Interval(1.0, 1.0), d))
        inv_denoms.append(iv.div(Interval(1.0, 1.0), den))
        dl.append(s)
    return GPoly(ctx.variables, taus, envs, derivs, span,
                 tuple(inv_denoms), tuple(dl), rem_scale, degree)


def eval_gpoly(g: GPoly, t: AffineForm | Interval, alloc: NoiseAllocator,
               names=None) -> dict:
    """Sound enclosure of x(tau) for every tau in `t` and every tracked
    trajectory; `t` must lie within the step span (tiny outward tolerance).
    With `names`, only those variables are evaluated and returned."""
    if isinstance(t, Interval):
        t_box = t
        t_form = af.from_interval(t, alloc)
    else:
        t_form = t
        t_box = af.to_interval(t)
    tol = 1e-9 * (1.0 + g.span)
    if t_box.lo < -tol or t_box.hi > g.span + tol:
        raise DomainError(
            f"time [{t_box.lo}, {t_box.hi}] outside interpolation span [0, {g.span}]"
        )
    # basis values A_i(t) (i >= 1; A_0 = 1 - sum of the others is never
    # needed) and B_i(t) as affine forms (scalar in the state vars)
    a_basis = []
    b_basis = []
    for i, ti in enumerate(g.taus):
        ell = None
        for j, tj in enumerate(g.taus):
            if j == i:
                continue
            factor = t_form - tj
            ell = factor if ell is None else af.mul(ell, factor, alloc)
        inv = g.inv_denoms[i]
        ell = scale_interval(ell, inv.lo, inv.hi)
        ell2 = af.mul(ell, ell, alloc)
        dt = t_form - ti
        if i > 0:
            two_dl = iv.scale(g.dl_at_node[i], 2.0)
            corr = af.add_const(af.neg(scale_interval(dt, two_dl.lo, two_dl.hi)),
                                1.0)
            a_basis.append(af.mul(corr, ell2, alloc))
        b_basis.append(af.mul(dt, ell2, alloc))
    # remainder: f^(N)/(N+1)! * prod (t - t_i)^2, evaluated as an interval
    prod = Interval(1.0, 1.0)
    for ti in g.taus:
        prod = iv.mul(prod, iv.pow_int(iv.sub(t_box, Interval(ti, ti)), 2))
    x0, f0 = g.node_envs[0], g.deriv_envs[0]
    out = {}
    for v in g.variables:
        if names is not None and v not in names:
            continue
        acc = x0[v] + af.mul(b_basis[0], f0[v], alloc)
        for a_i, b_i, diff, deriv in zip(a_basis, b_basis[1:], g.node_diffs,
                                         g.deriv_envs[1:]):
            acc = acc + af.mul(a_i, diff[v], alloc)
            acc = acc + af.mul(b_i, deriv[v], alloc)
        rem = iv.mul(g.rem_scale[v], prod)
        if rem.lo != 0.0 or rem.hi != 0.0:
            acc = acc + af.from_interval(rem, alloc)
        out[v] = acc
    return out

