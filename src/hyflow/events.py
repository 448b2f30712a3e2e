"""Guaranteed zero-crossing detection and discrete-jump handling.

Edge activations are classified with trivalent guard evaluations on the
tight enclosures and the step hull. Crossing times are narrowed by ordered
bisection over the guaranteed interpolant: the lower pass discards
sub-spans where the guard is surely false, the upper pass discards spans
where it is surely true, so every trajectory's first crossing time lies in
the returned interval. One routine (`_boundary`) runs every pass of
`tight_interval` and `resolve_hull_only`; it interpolates only the guard's
free variables, and a verdict memo scoped to one call lets a second pass
reuse the spans the first one evaluated (each pass still counts every span
it visits against its budget, so the memo changes cost, never a result).
Special cases (hull-only activations, simultaneous edges, immediate chains)
degrade to disjunctive branches, never to silent continuations.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from . import affine as af
from . import expr as ex
from .affine import NoiseAllocator, Rel
from .errors import InvariantViolation, ZenoError
from .interpolator import GPoly, eval_gpoly
from .interval import Interval
from .trivalent import Trivalent


class EdgeStatus(enum.Enum):
    INACTIVE = "inactive"
    SURE = "sure"
    MAYBE = "maybe"
    HULL_ONLY = "hull-only"


MAX_CHAIN = 16              # immediate transitions before a ZenoError
MIN_SEPARATION = 1e-5       # step below which simultaneous edges branch
MAX_EXTENSIONS = 24         # steps a MAYBE crossing may extend past its step
MAX_BISECTION_EVALS = 600   # interpolant spans one bisection pass may visit


@dataclass
class CrossingResult:
    t_zc: Interval       # crossing-time enclosure, local to the step start
    state_zc: dict       # enclosure of the pre-reset state at the crossing
    edge_index: int
    post_env: dict
    post_location: str
    prints: tuple


def classify(ha, location, env_start, env_end, env_hull, alloc, skip=()):
    """EdgeStatus per outgoing edge; `skip` lists disarmed edge indices.

    Raises InvariantViolation when an armed guard is not surely false at the
    step start (the guard/reset pair then needs reformulation).
    """
    statuses = {}
    for idx, edge in ha.outgoing(location):
        if idx in skip:
            continue
        g0 = ex.eval_guard(edge.guard, env_start, alloc)
        if g0 is not Trivalent.FALSE:
            raise InvariantViolation(
                f"guard of {edge.label} not surely false at step start in "
                f"location '{location}'"
            )
        gh = ex.eval_guard(edge.guard, env_hull, alloc)
        if gh is Trivalent.FALSE:
            statuses[idx] = EdgeStatus.INACTIVE
            continue
        g1 = ex.eval_guard(edge.guard, env_end, alloc)
        if g1 is Trivalent.TRUE:
            statuses[idx] = EdgeStatus.SURE
        elif g1 is Trivalent.UNKNOWN:
            statuses[idx] = EdgeStatus.MAYBE
        else:
            statuses[idx] = EdgeStatus.HULL_ONLY
    return statuses


def edge_cannot_fire(edge, flow, hull_env, alloc) -> bool:
    """Monotonicity certificate: the guard value moves away from (or along)
    the boundary throughout a step whose states stay in `hull_env`.

    For a guard `g < 0` whose step starts with g >= 0 (surely false, or on
    the boundary right after a jump), a nonnegative derivative of g along
    the flow over the whole hull proves g stays >= 0, so the edge cannot
    fire during the step.
    """
    g = edge.guard
    if not isinstance(g, ex.Comparison):
        return False
    try:
        gdot = ex.total_derivative(g.expr, flow)
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


def cross(edge, edge_index: int, gpoly: GPoly, t_zc: Interval,
          alloc: NoiseAllocator) -> CrossingResult:
    """Evaluate the interpolant at the crossing time and apply the reset."""
    state_zc = eval_gpoly(gpoly, t_zc, alloc)
    post = edge.reset.apply_affine(state_zc, alloc)
    return CrossingResult(t_zc, state_zc, edge_index, post, edge.target,
                          edge.reset.prints)


def resolve_hull_only(gpoly: GPoly, guard, span: Interval, precision: float,
                      alloc: NoiseAllocator,
                      max_evals: int = MAX_BISECTION_EVALS):
    """Distinguish a spurious hull activation from a possible double
    crossing within the step.

    Returns ("none", None) when bisection over the interpolant refutes the
    guard everywhere, else ("branch", t_zc) with the hull of the times that
    could not be refuted.
    """
    lo, hi = span.lo, span.hi
    memo: dict = {}
    lower = _boundary(gpoly, guard, lo, hi, precision, alloc, max_evals,
                      memo, discard=Trivalent.FALSE, from_left=True)
    if lower is None:
        return "none", None
    # latest time not provably false bounds the possible crossing window
    upper = _boundary(gpoly, guard, lower, hi, precision, alloc, max_evals,
                      memo, discard=Trivalent.FALSE, from_left=False)
    upper = hi if upper is None else upper
    return "branch", Interval(lower, max(lower, upper))


def separation_action(active_indices, h: float):
    """Policy for more than one activated edge in a step: retry with half
    the step until the activations separate, else branch per edge.
    MIN_SEPARATION lies above integrator.H_MIN, so a retried step is never
    clamped up to the step floor."""
    if len(active_indices) <= 1:
        return "pass", h
    half = h / 2.0
    if half >= MIN_SEPARATION:
        return "retry", half
    return "branch", list(active_indices)


@dataclass
class ChainOutcome:
    location: str
    env: dict
    prints: list
    disarmed: set
    # populated instead of the fields above when the chain is ambiguous:
    # list of (location, env, entered_by_edge_index_or_None, prints, tolerate)
    branch_options: list | None = None


def chain_immediate(ha, location: str, env: dict, entered_by: int | None,
                    alloc: NoiseAllocator,
                    tolerate: frozenset = frozenset()) -> ChainOutcome:
    """Follow discrete transitions whose guards are already true, until a
    quiescent location.

    Boundary-straddling edges are left disarmed rather than taken: either
    the just-taken edge when its reset provably lands on the guard
    boundary, or edges in `tolerate` (the not-taken side of an earlier
    ambiguous branch, whose trajectories by assumption have not crossed).
    Disarmed edges are re-checked every step by the engine's monotonicity
    certificate. Raises ZenoError when the chain exceeds the cap.
    """
    prints: list = []
    for _hop in range(MAX_CHAIN + 1):
        disarmed = set()
        take = None
        branch = None
        for idx, edge in ha.outgoing(location):
            tri = ex.eval_guard(edge.guard, env, alloc)
            if tri is Trivalent.TRUE:
                take = (idx, edge)
                break
            if tri is Trivalent.UNKNOWN:
                if (idx == entered_by and edge.boundary_reset) or idx in tolerate:
                    disarmed.add(idx)
                    continue
                if branch is None:
                    branch = (idx, edge)
        if take is None and branch is not None:
            idx, edge = branch
            taken_env = edge.reset.apply_affine(env, alloc)
            return ChainOutcome(
                location, env, prints, set(),
                branch_options=[
                    (edge.target, taken_env, idx,
                     prints + list(edge.reset.prints), frozenset()),
                    (location, env, entered_by, list(prints),
                     tolerate | {idx}),
                ],
            )
        if take is None:
            return ChainOutcome(location, env, prints, disarmed)
        if _hop == MAX_CHAIN:
            break
        idx, edge = take
        env = edge.reset.apply_affine(env, alloc)
        prints.extend(edge.reset.prints)
        location = edge.target
        entered_by = idx
        tolerate = frozenset()
    raise ZenoError(
        f"more than {MAX_CHAIN} immediate transitions from location "
        f"'{location}'; suspected Zeno behavior or a reset that does not "
        f"exit its guard"
    )
