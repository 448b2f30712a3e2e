"""Guaranteed zero-crossing detection and discrete-jump handling.

A step classifies each armed edge by trivalent guard evaluations: the
guard must be surely false at the step start, an edge whose guard is
surely false over the step hull cannot fire, and every other edge is
reported with the guard's verdict at the step end. That verdict is all the
engine needs to decide a crossing: TRUE means every trajectory has crossed
by the end, UNKNOWN that some may not have yet, FALSE that any crossing
turned back within the step.

Crossing times are narrowed by ordered bisection over the guaranteed
interpolant. `tight_interval` brackets a crossing whose guard is surely
true at the span end: its lower pass discards sub-spans where the guard is
surely false, its upper pass spans where it is surely true.
`resolve_hull_only` brackets a possible crossing that need not have
happened by the span end: both its passes discard surely false spans. One
routine (`_boundary`) runs every pass; it interpolates only the guard's
free variables, and a verdict memo scoped to one call lets a second pass
reuse the spans the first one evaluated (each pass still counts every span
it visits against its budget, so the memo changes cost, never a result).
After a jump, `chain_immediate` follows the transitions whose guards are
already true and splits on an ambiguous one, so every special case becomes
a disjunctive branch, never a silent continuation.
"""

from __future__ import annotations

from collections import deque

from . import affine as af
from . import expr as ex
from .affine import NoiseAllocator, Rel
from .errors import InvariantViolation, ZenoError
from .interpolator import GPoly, eval_gpoly
from .interval import Interval
from .trivalent import Trivalent


MAX_CHAIN = 16              # immediate transitions before a ZenoError
MAX_BISECTION_EVALS = 600   # interpolant spans one bisection pass may visit
ZC_PRECISION = 1e-6         # width at which crossing-time bisection stops


def classify(ha, location, env_start, env_end, env_hull, alloc, skip=()):
    """Edge index -> the guard's verdict at the step end, for each outgoing
    edge not in `skip` (the disarmed ones) that the step hull does not
    refute. TRUE: every trajectory has crossed by the end. UNKNOWN: the
    crossing may not be over yet. FALSE: any crossing within the step
    turned back before its end (the hull alone activates the edge).

    Raises InvariantViolation when an armed guard is not surely false at the
    step start (the guard/reset pair then needs reformulation).
    """
    ends = {}
    for idx, edge in ha.outgoing(location):
        if idx in skip:
            continue
        g0 = ex.eval_guard(edge.guard, env_start, alloc)
        if g0 is not Trivalent.FALSE:
            raise InvariantViolation(
                f"guard of {edge.label} not surely false at step start in "
                f"location '{location}'"
            )
        if ex.eval_guard(edge.guard, env_hull, alloc) is not Trivalent.FALSE:
            ends[idx] = ex.eval_guard(edge.guard, env_end, alloc)
    return ends


def edge_cannot_fire(edge, flow, hull_env, alloc) -> bool:
    """Monotonicity certificate: the guard value moves away from (or along)
    the boundary throughout a step whose states stay in `hull_env`.

    For a guard `g < 0` whose step starts with g >= 0 (surely false, or on
    the boundary right after a jump), a nonnegative derivative of g along
    the flow over the whole hull proves g stays >= 0, so the edge cannot
    fire during the step. That Lie derivative is one forward pass of
    `ex.derivative` seeded with the flow, with no per-node derivative memo;
    it raises ModelError on a variable without a flow, and then no
    certificate holds.
    """
    g = edge.guard
    if not isinstance(g, ex.Comparison):
        return False
    try:
        gdot = ex.derivative(g.expr, flow)
        d = ex.eval_affine(gdot, hull_env, alloc)
    except ex.ModelError:
        return False
    if g.rel in (Rel.LT, Rel.LE):
        return af.compare(d, Rel.GE) is Trivalent.TRUE
    return af.compare(d, Rel.LE) is Trivalent.TRUE


def _boundary(gpoly: GPoly, guard, a: float, b: float, precision: float,
              alloc: NoiseAllocator, max_evals: int, memo: dict, *,
              discard: Trivalent, from_left: bool) -> float | None:
    """Ordered bisection of [a, b]: the first point, scanning from the left
    (else from the right), of a span whose guard verdict is not `discard`.

    A span stops the scan when its verdict is the other definite one, when
    it is no wider than `precision`, or when the pass has visited
    `max_evals` spans. Returns None when every span is discarded. `memo`
    maps (a, b) to the verdict over that span.
    """
    names = ex.guard_free_vars(guard)
    work = deque([(a, b)])
    evals = 0
    while work:
        a, b = work.popleft() if from_left else work.pop()
        tri = memo.get((a, b))
        if tri is None:
            env = eval_gpoly(gpoly, Interval(a, b), alloc, names=names)
            tri = memo[(a, b)] = ex.eval_guard(guard, env, alloc)
        evals += 1
        if tri is discard:
            continue
        if (tri is not Trivalent.UNKNOWN or (b - a) <= precision
                or evals >= max_evals):
            return a if from_left else b
        m = 0.5 * (a + b)
        if from_left:
            work.appendleft((m, b))
            work.appendleft((a, m))
        else:
            work.append((a, m))
            work.append((m, b))
    return None


def tight_interval(gpoly: GPoly, guard, span: Interval, precision: float,
                   alloc: NoiseAllocator,
                   max_evals: int = MAX_BISECTION_EVALS) -> Interval:
    """Enclosure of the first crossing time within `span`.

    Preconditions (established by the caller): the guard is surely false at
    the span start and surely true at the span end. Soundness does not
    depend on the evaluation budget; exhausting it only widens the result.
    """
    lo, hi = span.lo, span.hi
    memo: dict = {}
    # lower pass: leftmost point not provably false
    lower = _boundary(gpoly, guard, lo, hi, precision, alloc, max_evals,
                      memo, discard=Trivalent.FALSE, from_left=True)
    # upper pass: rightmost point not provably true
    upper = _boundary(gpoly, guard, lo, hi, precision, alloc, max_evals,
                      memo, discard=Trivalent.TRUE, from_left=False)
    lower = hi if lower is None else lower
    upper = lo if upper is None else upper
    if lower > upper:  # numeric safety: keep a sound, possibly wider interval
        lower, upper = upper, lower
    return Interval(lower, upper)


def cross(edge, gpoly: GPoly, t_zc: Interval, alloc: NoiseAllocator) -> dict:
    """The state of the trajectories that take `edge` within `t_zc`: the
    interpolant over the crossing window, with the edge's reset applied."""
    return edge.reset.apply_affine(eval_gpoly(gpoly, t_zc, alloc), alloc)


def resolve_hull_only(gpoly: GPoly, guard, span: Interval, precision: float,
                      alloc: NoiseAllocator,
                      max_evals: int = MAX_BISECTION_EVALS) -> Interval | None:
    """Distinguish a spurious hull activation from a possible double
    crossing within the step.

    Returns None when bisection over the interpolant refutes the guard
    everywhere, else the hull of the times that could not be refuted.
    """
    lo, hi = span.lo, span.hi
    memo: dict = {}
    lower = _boundary(gpoly, guard, lo, hi, precision, alloc, max_evals,
                      memo, discard=Trivalent.FALSE, from_left=True)
    if lower is None:
        return None
    # latest time not provably false bounds the possible crossing window
    upper = _boundary(gpoly, guard, lower, hi, precision, alloc, max_evals,
                      memo, discard=Trivalent.FALSE, from_left=False)
    upper = hi if upper is None else upper
    return Interval(lower, max(lower, upper))


def chain_immediate(ha, location: str, env: dict, entered_by: int | None,
                    alloc: NoiseAllocator, tolerate: frozenset = frozenset(),
                    prints: tuple = (), hops: int = 0) -> list:
    """Follow discrete transitions whose guards are already true, until a
    quiescent location; returns the (location, env, prints, disarmed)
    alternatives, one when the chain is unambiguous, each with `prints`
    and the prints of every hop it took.

    A guard that is neither surely true nor surely false splits the chain:
    the trajectories that take the edge go on from its target, the others
    from here with the edge tolerated. Boundary-straddling edges are left
    disarmed rather than taken: either the just-taken edge when its reset
    provably lands on the guard boundary, or edges in `tolerate` (the
    not-taken side of an ambiguous hop, whose trajectories by assumption
    have not crossed). Disarmed edges are re-checked every step by the
    engine's monotonicity certificate. Raises ZenoError when a chain takes
    more than MAX_CHAIN hops, `hops` of them before this call.
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
