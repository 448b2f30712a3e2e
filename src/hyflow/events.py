"""Guaranteed zero-crossing detection and discrete-jump handling.

A step classifies each armed edge by trivalent guard evaluations: the
guard must be surely false at the step start, an edge whose guard is
surely false over the step hull cannot fire, and every other edge is
reported with the guard's verdict at the step end. That verdict is all the
engine needs to decide a crossing: TRUE means every trajectory has crossed
by the end, UNKNOWN that some may not have yet, FALSE that any crossing
turned back within the step.

Crossing times are narrowed from the ends of the span inward, over the
guaranteed interpolant, which holds every trajectory's state at each time:
each guard comparison and its Lie derivative along the flow, at an end,
bound every trajectory's value and rate there, and the second Lie
derivative over the bracket bounds how fast any rate changes. Where the
guard has a verdict at an end by a margin, it keeps it until the margin
can close, and the end moves that far; each round re-evaluates the moved
ends and re-bounds over the shrunken bracket, until neither end moves.
`tight_interval` advances its left end through surely false times and
retreats its right end through surely true ones; `resolve_hull_only`
moves both through surely false times, and refutes the guard where they
meet. One routine (`_narrow`) serves both and every guard kind, and it
interpolates only the variables the guard and its derivatives read.

A guard kit (`guard_kit`) holds all that `_narrow` and the monotonicity
certificate (`edge_cannot_fire`) read of an edge's guard: the guard, its
comparisons, whether they are smooth, their first and second Lie
derivatives along the flow of the edge's source, and the variables each
order reads. The engine builds one kit per edge when a run starts and
passes it to each of these routines, so its DAGs and programs last the
run.

After a jump, `chain_immediate` follows the transitions whose guards are
already true and splits on an ambiguous one, so every special case becomes
a disjunctive branch, never a silent continuation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _round as rd
from . import affine as af
from . import expr as ex
from .affine import NoiseAllocator, Rel
from .errors import DomainError, InvariantViolation, ZenoError
from .interpolator import GPoly, eval_gpoly
from .interval import Interval
from .trivalent import Trivalent

MAX_CHAIN = 16   # immediate transitions before a ZenoError
MAX_ROUNDS = 5   # narrowing rounds per crossing window


def classify(ha, location, env_start, env_end, env_hull, alloc, skip=()):
    """Edge index -> the guard's verdict at the step end, for each outgoing
    edge not in `skip` (the disarmed ones) that the step hull does not
    refute (TRUE, UNKNOWN or FALSE, as in the module docstring). Raises
    InvariantViolation when an armed guard is not surely false at the step
    start (the guard/reset pair then needs reformulation).
    """
    ends = {}
    for idx, edge in ha.outgoing(location):
        if idx in skip:
            continue
        if ex.eval_guard(edge.guard, env_start, alloc) is not Trivalent.FALSE:
            raise InvariantViolation(
                f"guard of {edge.label} not surely false at step start in "
                f"location '{location}'")
        if ex.eval_guard(edge.guard, env_hull, alloc) is not Trivalent.FALSE:
            ends[idx] = ex.eval_guard(edge.guard, env_end, alloc)
    return ends


class GuardKit(NamedTuple):
    guard: object           # the guard, a Comparison or a BoolOp
    comps: tuple            # its comparisons, in order
    smooth: bool            # no comparison has a kink or a jump (`ex.smooth`)
    roots: tuple            # their expressions, then their Lie derivatives
    curves: tuple           # their second Lie derivatives
    names: frozenset        # the variables `roots` read
    curve_names: frozenset  # the variables `curves` read


def _comparisons(guard) -> list:
    return ([guard] if isinstance(guard, ex.Comparison)
            else [c for item in guard.items for c in _comparisons(item)])


def guard_kit(guard, flow: dict) -> GuardKit:
    """The kit of `guard` along `flow` (var -> Expr); one that is not
    smooth gets no derivatives. The engine builds one per edge, along the
    flow of its source, when a run starts."""
    comps = tuple(_comparisons(guard))
    exprs = [c.expr for c in comps]
    smooth = ex.smooth(*exprs)
    rates = [ex.derivative(e, flow) for e in exprs] if smooth else []
    curves = tuple(ex.derivative(d, flow) for d in rates)
    roots = (*exprs, *rates)
    return GuardKit(guard, comps, smooth, roots, curves,
                    frozenset().union(*map(ex.free_vars, roots)),
                    frozenset().union(*map(ex.free_vars, curves)))


def edge_cannot_fire(kit: GuardKit, hull_env, alloc) -> bool:
    """Monotonicity certificate: the guard value moves away from (or along)
    the boundary throughout a step, along the flow of the kit, whose states
    stay in `hull_env`. For a guard `g < 0` whose step starts with g >= 0
    (surely false, or on the boundary right after a jump), a nonnegative
    Lie derivative of g (the kit's) over the whole hull proves g stays
    >= 0. A guard that is not smooth is never certified: its derivative
    does not see a jump or a kink."""
    g = kit.guard
    if not isinstance(g, ex.Comparison) or not kit.smooth:
        return False
    _, rate = kit.roots
    away = Rel.GE if g.rel in (Rel.LT, Rel.LE) else Rel.LE
    return af.compare(ex.eval_affine(rate, hull_env, alloc),
                      away) is Trivalent.TRUE


def _reach(guard, verdict, ahead: bool, at: dict, curve: dict) -> float:
    """How far from a bracket end, forward when `ahead` else backward, the
    guard surely keeps `verdict` (TRUE or FALSE): 0 where it does not
    surely have it at the end, inf where its margins cannot close. `at`
    maps each comparison to the ranges of its expression and of its first
    Lie derivative at the end; `curve` to the range of its second Lie
    derivative over the bracket the move stays in.

    A comparison's margin m (its expression, negated where the verdict
    needs it negative) is at least `margin` > 0 at the end, falls at most
    `fall` per unit of time moved there, and its fall speeds up by at most
    `accel` per unit of time over the bracket: m stays positive up to the
    first root of margin - fall s - accel s^2 / 2, rounded down. A false
    `and` and a true `or` need one item, and take their items' largest
    reach; the others need every item, and take the smallest.
    """
    if isinstance(guard, ex.BoolOp):
        reach = [_reach(g, verdict, ahead, at, curve) for g in guard.items]
        one = (guard.kind == "and") == (verdict is Trivalent.FALSE)
        return max(reach) if one else min(reach)
    (q, d), k = at[guard], curve[guard]
    plain = (guard.rel in (Rel.GT, Rel.GE)) == (verdict is Trivalent.TRUE)
    margin = q.lo if plain else -q.hi
    if margin <= 0.0:
        return 0.0
    fall = -d.lo if plain == ahead else d.hi
    accel = -k.lo if plain else k.hi
    disc = rd.add_up(rd.mul_up(fall, fall), rd.mul_up(2.0 * accel, margin))
    if disc < 0.0:
        return math.inf
    den = rd.add_up(fall, rd.next_up(math.sqrt(disc)))
    return rd.div_down(2.0 * margin, den) if den > 0.0 else math.inf


def _narrow(gpoly: GPoly, kit: GuardKit, span: Interval,
            alloc: NoiseAllocator, right: Trivalent) -> Interval | None:
    """`span` narrowed from both ends: the left end advances through times
    where the guard is surely false, the right end retreats through times
    where it has the verdict `right`. None when the two moves meet, so that
    no time in `span` escapes them.

    Each round evaluates the guard kit's comparisons and first Lie
    derivatives at the ends that moved, bounds its second Lie derivatives
    over the bracket, and moves each end by its `_reach`, rounded inward
    and kept within that bracket. It stops when neither end moves, after
    MAX_ROUNDS rounds, or at a DomainError (the bracket is then left as it
    is). A guard with a kink or a jump is not narrowed at all; the flow, as
    for the interpolant's remainder, is taken to be smooth.
    """
    if not kit.smooth:
        return span  # the margins' Taylor bound needs two derivatives
    guard = kit.guard
    flat = dict.fromkeys(kit.comps, Interval(0.0, 0.0))

    def point(t: float) -> dict:
        env = eval_gpoly(gpoly, Interval(t, t), alloc, names=kit.names)
        forms = [af.to_interval(f) for f in
                 ex.eval_affine_many(kit.roots, env, alloc)]
        return dict(zip(kit.comps, zip(forms, forms[len(kit.comps):])))

    a, b = span.lo, span.hi
    at_a = at_b = None
    for _ in range(MAX_ROUNDS):
        try:
            if at_a is None:
                at_a = point(a)
            if at_b is None:
                at_b = at_a if a == b else point(b)
            # an end moves only where the guard has its verdict: there its
            # reach is positive under any bound, a zero one included
            if not (_reach(guard, Trivalent.FALSE, True, at_a, flat)
                    or _reach(guard, right, False, at_b, flat)):
                break
            env = eval_gpoly(gpoly, Interval(a, b), alloc,
                             names=kit.curve_names)
            forms = ex.eval_affine_many(kit.curves, env, alloc)
            curve = dict(zip(kit.comps, map(af.to_interval, forms)))
        except DomainError:
            break
        a2 = min(b, rd.add_down(
            a, _reach(guard, Trivalent.FALSE, True, at_a, curve)))
        b2 = max(a, rd.sub_up(b, _reach(guard, right, False, at_b, curve)))
        if a2 >= b2:
            return None
        if a2 <= a and b2 >= b:
            break
        if a2 > a:
            a, at_a = a2, None
        if b2 < b:
            b, at_b = b2, None
    return Interval(a, b)


def tight_interval(gpoly: GPoly, kit: GuardKit, span: Interval,
                   alloc: NoiseAllocator) -> Interval:
    """Enclosure of the first crossing time within `span`.

    Preconditions (established by the caller): the guard is surely false at
    the span start and surely true at its end. Every trajectory is false up
    to the left end, which only advances through surely false times, and
    true just after the right end, which only retreats through surely true
    times: its first crossing lies between. The round cap only widens the
    result; the moves meet only against the preconditions (span returned).
    """
    window = _narrow(gpoly, kit, span, alloc, Trivalent.TRUE)
    return span if window is None else window


def cross(edge, gpoly: GPoly, t_zc: Interval, alloc: NoiseAllocator) -> dict:
    """The state of the trajectories that take `edge` within `t_zc`: the
    interpolant over the crossing window, with the edge's reset applied."""
    return edge.reset.apply_affine(eval_gpoly(gpoly, t_zc, alloc), alloc)


def resolve_hull_only(gpoly: GPoly, kit: GuardKit, span: Interval,
                      alloc: NoiseAllocator) -> Interval | None:
    """Tell a spurious hull activation from a possible double crossing in
    the step: None when the guard is refuted everywhere in `span`, else the
    hull of the times that could not be refuted. Both ends move through
    surely false times only, each no further than any trajectory's margin
    to the guard could close; the right end's move runs backward in time,
    so a margin closes there where it grows forward.
    """
    return _narrow(gpoly, kit, span, alloc, Trivalent.FALSE)


def chain_immediate(ha, location: str, env: dict, entered_by: int | None,
                    alloc: NoiseAllocator, tolerate: frozenset = frozenset(),
                    prints: tuple = (), hops: int = 0) -> list:
    """Follow discrete transitions whose guards are already true, until a
    quiescent location; returns the (location, env, prints, disarmed)
    alternatives, one when the chain is unambiguous, each with `prints` and
    the prints of every hop it took.

    A guard that is neither surely true nor surely false splits the chain:
    the trajectories that take the edge go on from its target, the others
    from here with the edge tolerated. Boundary-straddling edges are left
    disarmed rather than taken: the just-taken edge when its reset provably
    lands on the guard boundary, and edges in `tolerate` (the not-taken
    side of an ambiguous hop, whose trajectories by assumption have not
    crossed); the engine's monotonicity certificate re-checks them every
    step. Raises ZenoError when a chain takes more than MAX_CHAIN hops,
    `hops` of them before this call.
    """
    disarmed = set()
    take = branch = None
    for idx, edge in ha.outgoing(location):
        tri = ex.eval_guard(edge.guard, env, alloc)
        if tri is Trivalent.TRUE:
            take = (idx, edge)
            break
        if tri is Trivalent.UNKNOWN:
            if (idx == entered_by and edge.boundary_reset) or idx in tolerate:
                disarmed.add(idx)
            elif branch is None:
                branch = (idx, edge)
    if take is None and branch is None:
        return [(location, env, prints, disarmed)]
    if hops == MAX_CHAIN:
        raise ZenoError(
            f"more than {MAX_CHAIN} immediate transitions from location "
            f"'{location}'; suspected Zeno behavior or a reset that does "
            f"not exit its guard")
    idx, edge = take or branch
    options = chain_immediate(ha, edge.target,
                              edge.reset.apply_affine(env, alloc), idx, alloc,
                              prints=(*prints, *edge.reset.prints),
                              hops=hops + 1)
    if take is None:
        options += chain_immediate(ha, location, env, entered_by, alloc,
                                   tolerate | {idx}, prints, hops)
    return options
