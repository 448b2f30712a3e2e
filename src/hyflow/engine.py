"""Main guaranteed simulation loop.

Produces a flowpipe: per accepted step, a time enclosure, a tight state
enclosure at that time, and a step hull covering the whole step; discrete
jumps tighten the time via the event solver and apply resets. Ambiguous
event resolutions fork the flowpipe into branches (disjunctive analysis);
every branch is explored depth-first up to a cap, and an aborted branch is
reported rather than silently dropped, so the union of branches remains a
sound over-approximation of all trajectories whenever `complete` is true.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import _round as rd
from . import affine as af
from . import expr as ex
from .affine import NoiseAllocator
from .errors import (ConfigError, DomainError, HyflowError, IntegrationError,
                     InvariantViolation, ModelError, ZenoError)
from .config import SimConfig
from .events import (MAX_CHAIN, MAX_EXTENSIONS, EdgeStatus, chain_immediate,
                     classify, cross, edge_cannot_fire, resolve_hull_only,
                     separation_action, tight_interval)
from .expr import HybridAutomaton, prepare_automaton
from .integrator import (TABLES, FlowContext, env_condense, env_hull,
                         guaranteed_step)
from .interpolator import build_gpoly
from .interval import Interval
from .reference import ReferenceSimulator
from .trivalent import Trivalent

CONDENSE_BUDGET = 100  # noise symbols per variable kept at each step start
HULL_CONDENSE = 30     # noise symbols per variable of an interpolant's hull
BRANCH_CAP = 64        # branches, finished plus queued, before BranchCap
MAX_STEPS = 100_000    # steps per branch before it aborts


@dataclass
class FlowpipeSegment:
    t: Interval          # time enclosure at the segment start
    t_end: Interval      # time enclosure at the segment end
    tight: dict          # var -> Interval at t
    hull: dict           # var -> Interval over [t, t_end]
    location: str
    events: tuple = ()   # labels/prints of the crossing ending this segment


@dataclass
class Branch:
    index: int
    parent: int | None
    segments: list
    complete: bool
    abort_reason: str = ""
    crossings: list = field(default_factory=list)  # (Interval abs time, label)


@dataclass
class Flowpipe:
    variables: tuple
    branches: list
    complete: bool
    t0: float
    t_f: float
    stats: dict


@dataclass
class _Task:
    location: str
    env: dict
    t: Interval
    h: float
    alloc: NoiseAllocator
    segments: list
    crossings: list
    disarmed: set
    parent: int | None
    forced_edge: int | None = None
    steps: int = 0


def _shift(t: Interval, lo: float, hi: float) -> Interval:
    return Interval(rd.add_down(t.lo, lo), rd.add_up(t.hi, hi))


def _box(env):
    return {v: af.to_interval(f) for v, f in env.items()}


def _padded_box(ctx, env, slab_width, alloc):
    """State box widened by the drift over a time slab.

    A segment's time stamp is an interval (accumulated rounding, and the
    crossing-time width after jumps); the state enclosure holds at each
    trajectory's exact time inside it, so covering the whole slab costs an
    extra width * |flow| margin. The 1.001 factor absorbs the flow's
    variation across the drift for any Lipschitz constant up to ~1e3/width.
    """
    if slab_width <= 0.0:
        return _box(env)
    fvals = ctx.eval_flow(env, alloc)
    out = {}
    for v, form in env.items():
        b = af.to_interval(form)
        m = af.to_interval(fvals[v]).mag
        pad = rd.next_up(rd.mul_up(slab_width, m) * 1.001)
        out[v] = Interval(rd.sub_down(b.lo, pad), rd.add_up(b.hi, pad))
    return out


class _Engine:
    def __init__(self, ha: HybridAutomaton, cfg: SimConfig):
        self.ha = ha
        self.cfg = cfg
        table = TABLES[cfg.scheme]
        self.ctxs = {loc: FlowContext(ha.variables, flow, table)
                     for loc, flow in ha.flows.items()}
        self.stats = {"steps": 0, "rejections": 0, "crossings": 0,
                      "branches": 0, "wall_time": 0.0}
        self.branches: list = []
        self.tasks: list = []

    # ----------------------------------------------------------- plumbing

    def _finish(self, task: _Task, complete: bool, reason: str = ""):
        b = Branch(len(self.branches), task.parent, task.segments, complete,
                   reason, task.crossings)
        self.branches.append(b)
        return b

    def _spawn(self, task: _Task, location, env, t, h, disarmed,
               forced_edge=None) -> _Task:
        return _Task(location, env, t, h, task.alloc.fork(),
                     list(task.segments), list(task.crossings), set(disarmed),
                     task.parent, forced_edge, task.steps)

    def _resolve_chain(self, task, location, env, entered_by, prints,
                       tolerate=frozenset(), depth=0):
        """Run the immediate-transition chain; returns a list of
        (location, env, prints, disarmed) alternatives (one when the chain
        is unambiguous)."""
        if depth > MAX_CHAIN:
            raise ZenoError("immediate-transition chain kept branching")
        out = chain_immediate(self.ha, location, env, entered_by, task.alloc,
                              tolerate)
        if out.branch_options is None:
            return [(out.location, out.env, prints + out.prints, out.disarmed)]
        results = []
        for loc2, env2, entered2, prints2, tol2 in out.branch_options:
            results.extend(
                self._resolve_chain(task, loc2, env2, entered2,
                                    prints + prints2, tol2, depth + 1)
            )
        return results

    def _gpoly(self, task, env_start, env_end, span, hull_env):
        ctx = self.ctxs[task.location]
        hull_c = env_condense(hull_env, HULL_CONDENSE, task.alloc)
        return build_gpoly(ctx, [(0.0, env_start), (span, env_end)], span,
                           hull_c, task.alloc)

    def _segment(self, task, hull_env, t_end, events=()) -> FlowpipeSegment:
        ctx = self.ctxs[task.location]
        tight = _padded_box(ctx, task.env, task.t.width, task.alloc)
        hull = _padded_box(ctx, hull_env, t_end.width, task.alloc)
        return FlowpipeSegment(task.t, t_end, tight, hull, task.location,
                               tuple(events))

    # ------------------------------------------------------------ the loop

    def run(self, task: _Task):
        """Advance one branch until completion, abort, or a split (children
        are queued)."""
        cfg, ha = self.cfg, self.ha
        try:
            while True:
                if task.t.lo > cfg.duration:
                    task.segments.append(self._segment(task, task.env, task.t))
                    self._finish(task, True)
                    return
                if task.steps >= MAX_STEPS:
                    self._finish(task, False, "step budget exhausted")
                    return
                ctx = self.ctxs[task.location]
                out = guaranteed_step(
                    ctx, task.env, task.h, cfg, task.alloc,
                    diag=f"(t >= {task.t.lo:.6g}, location '{task.location}')")
                task.steps += 1
                self.stats["steps"] += 1
                self.stats["rejections"] += out.rejections
                rearm = self._check_disarmed(task, out, task.disarmed)
                if rearm is None:
                    return  # aborted inside
                statuses = classify(ha, task.location, task.env, out.x_next,
                                    out.hull, task.alloc, skip=task.disarmed)
                if task.forced_edge is not None:
                    statuses = {task.forced_edge:
                                statuses.get(task.forced_edge,
                                             EdgeStatus.INACTIVE)}
                actives = sorted(i for i, s in statuses.items()
                                 if s in (EdgeStatus.SURE, EdgeStatus.MAYBE))
                hull_only = sorted(i for i, s in statuses.items()
                                   if s is EdgeStatus.HULL_ONLY)
                if len(actives) > 1:
                    action, payload = separation_action(actives, out.h_used)
                    if action == "retry":
                        task.h = payload
                        continue
                    self._split_per_edge(task, out, payload)
                    return
                if len(actives) == 1:
                    done = self._handle_crossing(task, out, actives[0],
                                                 statuses[actives[0]], rearm)
                    if done:
                        return
                    continue
                if hull_only and not self._clear_hull_only(task, out,
                                                           hull_only, rearm):
                    return  # branched inside
                # plain continuous step
                task.segments.append(self._segment(
                    task, out.hull, _shift(task.t, out.h_used, out.h_used)))
                task.t = _shift(task.t, out.h_used, out.h_used)
                task.env = env_condense(out.x_next, CONDENSE_BUDGET,
                                        task.alloc)
                task.h = out.h_next
                task.disarmed -= rearm
        except (IntegrationError, InvariantViolation, ZenoError, DomainError,
                ConfigError, ModelError) as e:
            self._finish(task, False, f"{type(e).__name__}: {e}")

    # ------------------------------------------------------ event handling

    def _check_disarmed(self, task, out, disarmed) -> set | None:
        """Certify the `disarmed` edges over the step hull. Returns the
        edges to re-arm once the step is committed (guard surely false at
        the step end, or not an edge of this location); None => aborted.
        Until then the step, its retries and its children keep the disarmed
        set it started with."""
        ctx = self.ctxs[task.location]
        rearm = set()
        for idx in sorted(disarmed):
            edge = self.ha.edges[idx]
            if edge.source != task.location:
                rearm.add(idx)
                continue
            if not edge_cannot_fire(edge, ctx.flow, out.hull, task.alloc):
                self._finish(task, False,
                             f"InvariantViolation: cannot certify disarmed "
                             f"{edge.label} (guard straddles its boundary and "
                             f"the flow direction is not provable)")
                return None
            tri = ex.eval_guard(edge.guard, out.x_next, task.alloc)
            if tri is Trivalent.FALSE:
                rearm.add(idx)
            elif tri is Trivalent.TRUE:
                self._finish(task, False,
                             f"InvariantViolation: disarmed {edge.label} "
                             f"became surely true despite certificate")
                return None
        return rearm

    def _split_per_edge(self, task, out, edge_indices):
        """Simultaneous activation at minimal separation: one child per
        edge, each honoring only its own edge for this step."""
        for idx in edge_indices:
            child = self._spawn(task, task.location, task.env, task.t,
                                out.h_used, task.disarmed, forced_edge=idx)
            self._queue(child)

    def _queue(self, task):
        if len(self.branches) + len(self.tasks) >= BRANCH_CAP:
            self._finish(task, False, "BranchCap: disjunctive analysis "
                                      "exceeded the branch cap")
        else:
            self.tasks.append(task)

    def _handle_crossing(self, task, out, idx, status, rearm) -> bool:
        """Process the single activated edge. Returns True when the current
        task ended (split or abort); False to continue stepping.

        Extension steps past the step `out` start where it ends, so they
        see the edges it re-armed (`rearm`) and certify or re-arm the rest,
        as a plain step would."""
        cfg, ha = self.cfg, self.ha
        ctx = self.ctxs[task.location]
        edge = ha.edges[idx]
        acc_hull = out.hull
        env_end = out.x_next
        span = out.h_used
        missed_branch = False
        disarmed = task.disarmed - rearm
        if status is EdgeStatus.MAYBE:
            h_ext = out.h_next
            for _ext in range(MAX_EXTENSIONS + 1):
                tri = ex.eval_guard(edge.guard, env_end, task.alloc)
                if tri is Trivalent.TRUE:
                    break
                if _ext == MAX_EXTENSIONS:
                    missed_branch = True
                    break
                env_end = env_condense(env_end, CONDENSE_BUDGET, task.alloc)
                out2 = guaranteed_step(ctx, env_end, h_ext, cfg, task.alloc,
                                       diag=f"(extending across guard of "
                                            f"{edge.label})")
                task.steps += 1
                self.stats["steps"] += 1
                rearm2 = self._check_disarmed(task, out2, disarmed)
                if rearm2 is None:
                    return True  # aborted inside
                others = classify(ha, task.location, env_end, out2.x_next,
                                  out2.hull, task.alloc, skip=disarmed | {idx})
                conflict = [j for j, s in others.items()
                            if s is not EdgeStatus.INACTIVE]
                if conflict:
                    # another edge wakes up while extending: fall back to a
                    # per-edge disjunction over the original step state
                    self._split_per_edge(task, out, sorted({idx, *conflict}))
                    return True
                acc_hull = env_hull(acc_hull, out2.hull, task.alloc)
                env_end = out2.x_next
                disarmed -= rearm2
                span += out2.h_used
                h_ext = out2.h_next
        gpoly = self._gpoly(task, task.env, env_end, span, acc_hull)
        t_zc = tight_interval(gpoly, edge.guard, Interval(0.0, span),
                              cfg.zc_precision, task.alloc)
        result = cross(edge, idx, gpoly, t_zc, task.alloc)
        self.stats["crossings"] += 1
        seg = self._segment(task, acc_hull, _shift(task.t, span, span),
                            events=(edge.label,) + tuple(result.prints))
        abs_zc = _shift(task.t, t_zc.lo, t_zc.hi)
        options = self._resolve_chain(task, result.post_location,
                                      result.post_env, idx,
                                      list(result.prints))
        followups = []
        if missed_branch:
            followups.append((task.location, env_end, [],
                              disarmed | {idx}, "missed"))
        if len(options) == 1 and not followups:
            loc2, env2, prints2, disarmed2 = options[0]
            task.segments.append(seg)
            task.crossings.append((abs_zc, edge.label))
            task.location = loc2
            task.env = env_condense(env2, CONDENSE_BUDGET, task.alloc)
            task.t = abs_zc
            task.h = min(out.h_used, cfg.dt)
            task.disarmed = set(disarmed2)
            task.forced_edge = None
            return False
        for loc2, env2, prints2, disarmed2 in options:
            child = self._spawn(task, loc2,
                                env_condense(env2, CONDENSE_BUDGET,
                                             task.alloc),
                                abs_zc, min(out.h_used, cfg.dt), disarmed2)
            child.segments.append(seg)
            child.crossings.append((abs_zc, edge.label))
            self._queue(child)
        for loc2, env2, prints2, disarmed2, _kind in followups:
            child = self._spawn(task, loc2,
                                env_condense(env2, CONDENSE_BUDGET,
                                             task.alloc),
                                _shift(task.t, span, span),
                                min(out.h_used, cfg.dt), disarmed2)
            child.segments.append(self._segment(
                task, acc_hull, _shift(task.t, span, span)))
            self._queue(child)
        return True

    def _clear_hull_only(self, task, out, hull_only, rearm) -> bool:
        """Check hull-only activations. True when all are refuted (the step
        may be accepted as event-free); False when the task branched, and
        then the no-crossing child commits the step and re-arms `rearm`."""
        ctx = self.ctxs[task.location]
        suspects = []
        gpoly = None
        windows = {}
        for idx in hull_only:
            edge = self.ha.edges[idx]
            if edge_cannot_fire(edge, ctx.flow, out.hull, task.alloc):
                continue
            if gpoly is None:
                gpoly = self._gpoly(task, task.env, out.x_next, out.h_used,
                                    out.hull)
            verdict, window = resolve_hull_only(
                gpoly, edge.guard, Interval(0.0, out.h_used),
                self.cfg.zc_precision, task.alloc)
            if verdict == "none":
                continue
            suspects.append(idx)
            windows[idx] = window
        if not suspects:
            return True
        # disjunction: each suspect may have fired inside its window, or
        # nothing fired at all
        for idx in suspects:
            edge = self.ha.edges[idx]
            window = windows[idx]
            result = cross(edge, idx, gpoly, window, task.alloc)
            self.stats["crossings"] += 1
            abs_zc = _shift(task.t, window.lo, window.hi)
            try:
                options = self._resolve_chain(task, result.post_location,
                                              result.post_env, idx,
                                              list(result.prints))
            except ZenoError:
                options = []
            for loc2, env2, prints2, disarmed2 in options:
                child = self._spawn(task, loc2,
                                    env_condense(env2, CONDENSE_BUDGET,
                                                 task.alloc),
                                    abs_zc, min(out.h_used, self.cfg.dt),
                                    disarmed2)
                child.segments.append(self._segment(
                    task, out.hull, _shift(task.t, out.h_used, out.h_used),
                    events=(edge.label, "possible-crossing")
                           + tuple(result.prints)))
                child.crossings.append((abs_zc, edge.label))
                self._queue(child)
        no_cross = self._spawn(task, task.location,
                               env_condense(out.x_next, CONDENSE_BUDGET,
                                            task.alloc),
                               _shift(task.t, out.h_used, out.h_used),
                               out.h_next, task.disarmed - rearm)
        no_cross.segments.append(self._segment(
            task, out.hull, _shift(task.t, out.h_used, out.h_used)))
        self._queue(no_cross)
        return False


def _split_box(box: dict, variables, k: int):
    """Subdivide each positive-width interval into k parts (grid union)."""
    if k <= 1:
        return [dict(box)]
    import itertools

    axes = []
    for v in variables:
        b = box[v]
        if b.hi > b.lo:
            cuts = [b.lo + (b.hi - b.lo) * i / k for i in range(k + 1)]
            cuts[0], cuts[-1] = b.lo, b.hi
            axes.append([(v, Interval(cuts[i], cuts[i + 1]))
                         for i in range(k)])
        else:
            axes.append([(v, b)])
    return [dict(combo) for combo in itertools.product(*axes)]


def simulate(ha: HybridAutomaton, cfg: SimConfig) -> Flowpipe:
    """Compute a guaranteed flowpipe of the automaton over [0, duration].

    With cfg.split > 1 the initial box is gridded and each cell gets its own
    branch: the branch union still covers every trajectory, while the
    smaller cells keep the nonlinear linearization remainders (which grow
    with the square of the set width) under control.
    """
    started = time.perf_counter()
    prepared, _warnings = prepare_automaton(ha)
    eng = _Engine(prepared, cfg)
    t0 = Interval(0.0, 0.0)
    for box in reversed(_split_box(prepared.initial_box, prepared.variables,
                                   cfg.split)):
        alloc = NoiseAllocator()
        env0 = {v: af.from_interval(box[v], alloc)
                for v in prepared.variables}
        for idx, e in prepared.outgoing(prepared.initial_location):
            if ex.eval_guard(e.guard, env0, alloc) is not Trivalent.FALSE:
                raise ModelError(
                    f"guard of {e.label} is not surely false on the initial "
                    f"set; reformulate the guard or shrink the initial box")
        eng.tasks.append(_Task(prepared.initial_location, env0, t0, cfg.dt,
                               alloc, [], [], set(), None))
    while eng.tasks:
        eng.run(eng.tasks.pop())
    eng.stats["branches"] = len(eng.branches)
    eng.stats["wall_time"] = time.perf_counter() - started
    complete = all(b.complete for b in eng.branches) and bool(eng.branches)
    return Flowpipe(prepared.variables, eng.branches, complete, 0.0,
                    cfg.duration, eng.stats)


# ------------------------------------------------------------- validation


def validate_monte_carlo(ha: HybridAutomaton, pipe: Flowpipe, samples: int,
                         seed: int, h_ref: float | None = None,
                         rel_tol: float = 1e-7) -> dict:
    """Independent containment check of the flowpipe.

    Integrates random initial points with a fine fixed-step scalar RK4 plus
    bisection event handling, and checks that every sampled state lies in
    the covering segments of at least one complete branch (step hull for
    intra-step times, tight enclosure at segment times). Times within a
    crossing window are skipped: the reference jump time inside the window
    makes pre/post states ambiguous there.
    """
    prepared, _ = prepare_automaton(ha)
    complete_branches = [b for b in pipe.branches if b.complete]
    if samples <= 0:
        return {"samples": 0, "contained": 0, "skipped": 0, "rate": 1.0,
                "violations": []}
    if not complete_branches:
        raise ModelError("flowpipe has no complete branch to validate")
    span = pipe.t_f - pipe.t0
    if h_ref is None:
        h_ref = min(1e-3, max(span / 20000.0, 1e-5))
    sim = ReferenceSimulator(prepared, h_ref)
    rng = random.Random(seed)
    order = list(prepared.variables)
    contained = 0
    skipped = 0
    violations = []
    for s in range(samples):
        x0 = [rng.uniform(prepared.initial_box[v].lo, prepared.initial_box[v].hi)
              for v in order]
        try:
            traj = sim.run(x0, pipe.t0, pipe.t_f)
        except (ModelError, HyflowError, OverflowError, ValueError) as e:
            skipped += 1
            violations.append({"sample": s, "skipped": str(e)})
            continue
        ok, detail = False, None
        for b in complete_branches:
            good, detail = _branch_contains(b, traj, order, pipe.t_f, h_ref,
                                            rel_tol)
            if good:
                ok = True
                break
        if ok:
            contained += 1
        elif len(violations) < 25:
            violations.append({"sample": s, "x0": x0, "detail": detail})
    return {
        "samples": samples,
        "contained": contained,
        "skipped": skipped,
        "rate": contained / max(1, samples - skipped),
        "violations": violations,
    }


def _in_window(t, windows):
    return any(w.lo <= t <= w.hi for w in windows)


def _branch_contains(branch, traj, order, t_f, h_ref, rel_tol):
    pad = 2.0 * h_ref
    windows = [Interval(c.lo - pad, c.hi + pad) for c, _ in branch.crossings]
    for seg in branch.segments:
        checks = []
        for t in (seg.t.lo, seg.t.mid, seg.t.hi):
            checks.append((t, seg.tight))
        lo, hi = seg.t.lo, seg.t_end.hi
        # a segment's hull covers each trajectory only until its own jump,
        # so stop hull sampling at the first crossing window opening inside
        # this segment's span (post-jump times belong to later segments)
        for w in windows:
            if lo < w.lo <= hi:
                hi = w.lo
        if hi > lo:
            for k in range(5):
                checks.append((lo + (hi - lo) * k / 4.0, seg.hull))
        for t, boxes in checks:
            if t > t_f or _in_window(t, windows):
                continue
            state = traj.state_at(t)
            for i, v in enumerate(order):
                box = boxes[v]
                eps = rel_tol * (1.0 + abs(state[i]))
                if not (box.lo - eps <= state[i] <= box.hi + eps):
                    return False, {
                        "t": t, "var": v, "value": state[i],
                        "box": [box.lo, box.hi],
                        "kind": "tight" if boxes is seg.tight else "hull",
                    }
    return True, None
