"""Main guaranteed simulation loop.

Produces a flowpipe: per accepted step, a time enclosure, a tight state
enclosure at that time, and a step hull covering the whole step; discrete
jumps tighten the time via the event solver and apply resets. Ambiguous
event resolutions fork the flowpipe into branches (disjunctive analysis);
every branch is explored depth-first up to a cap, and an aborted branch is
reported rather than silently dropped, so the union of branches remains a
sound over-approximation of all trajectories whenever `complete` is true.

`_Engine.__init__` builds, once per run, one `FlowContext` per location
(the flow's Lie derivatives, the truncation bound's stage side and the
scalar flow, all built whole) and one guard kit per edge; every step and
crossing reads them. A stage side over the size cap raises ConfigError
there, before any branch starts. In an automaton without edges the
contexts size each step by its verified truncation width
(`FlowContext.by_truncation`); with edges, by ODE23's embedded pair, since
where steps fall moves the crossing windows.

Every step ends in a list of successors, one per set of trajectories it
hands on. A live successor (`_Next`) continues from a location, state,
time and step size after its own segment, and carries its crossing if it
jumped; an aborted one is the reason (a string) its trajectories are no
longer followed.

One routine, `_crossing`, decides every edge the step hull does not
refute, from the guard's verdict at the step end (`classify`). While the
verdict is UNKNOWN the step extends, up to MAX_EXTENSIONS steps; a surely
true end brackets the crossing window with `tight_interval`, any other end
with `resolve_hull_only`. Both narrow the window from its ends over the
step's interpolant, as far as certified bounds on the guard's rate along
the flow allow (see `events`). Each window gives one successor per option of
the immediate-transition chain after the reset. When the end is not surely
true, the trajectories that have not crossed go on too. While several
edges are surely or maybe crossed in one step, the step is halved, down to
MIN_SEPARATION; then each edge is decided from that step, in index order.
A step that no edge surely or maybe crosses ends in the successors of its
suspect edges, then in the step itself.

`_commit` is the one routine that turns successors into tasks: a lone live
successor continues the current task in place (no fork, and it does not
count against the branch cap); otherwise each live successor is forked and
queued in order, and each aborted one is finished as a branch.

`_enter`, which every successor passes through, reduces the task's set
jointly (`env_condense`): it keeps the CONDENSE_BUDGET shared noise
symbols whose boxing would cost the most width, or fewer, as long as the
ones it lets go cost at most CONDENSE_FLOOR of all shared symbols' cost,
and in each variable merges every other symbol and the rounding slack
into one fresh symbol (its docstring states why that is sound). So steps,
crossings and segment boxes all run over at most CONDENSE_BUDGET shared
symbols and one private symbol per variable. The floor binds on
watertank (8 shared symbols), car (1) and hybrid3d (about 5), the budget
on vanderpol, brusselator and lorenz.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import _round as rd
from . import affine as af
from . import expr as ex
from . import interval as iv
from .affine import NoiseAllocator
from .errors import (DomainError, HyflowError, IntegrationError,
                     InvariantViolation, ModelError, ZenoError)
from .config import SimConfig
from .events import (chain_immediate, classify, cross, edge_cannot_fire,
                     guard_kit, resolve_hull_only, tight_interval)
from .expr import HybridAutomaton, prepare_automaton
from .integrator import ODE23, FlowContext, env_condense, guaranteed_step
from .interpolator import build_gpoly
from .interval import Interval
from .reference import ReferenceSimulator
from .trivalent import Trivalent

CONDENSE_BUDGET = 30   # most shared noise symbols a set keeps at each step
                       # start; it binds on vanderpol, brusselator, lorenz
CONDENSE_FLOOR = 2.0 ** -20  # share of the shared symbols' cost the merged
                       # ones may have; it binds on watertank, car, hybrid3d
MIN_SEPARATION = 1e-5  # step below which simultaneous edges branch; above
                       # integrator.H_MIN, so a halved step is never clamped
MAX_EXTENSIONS = 24    # steps a crossing may extend past its step
BRANCH_CAP = 64        # branches, finished plus queued, before BranchCap
MAX_STEPS = 100_000    # steps per branch before it aborts


@dataclass
class FlowpipeSegment:
    t: Interval          # time enclosure at the segment start
    t_end: Interval      # time enclosure at the segment end
    tight: dict          # var -> Interval at t
    hull: dict           # var -> Interval over [t, t_end]
    location: str
    events: tuple = ()   # label and prints of the crossing ending it, and of
                         # the immediate hops after it


@dataclass
class Branch:
    index: int
    parent: int | None  # always None: a task that forks is never finished
    segments: list
    complete: bool
    abort_reason: str = ""
    crossings: list = field(default_factory=list)  # (Interval abs time, label)


@dataclass
class Flowpipe:
    variables: tuple
    branches: list
    complete: bool
    t_f: float
    stats: dict
    warnings: tuple = ()  # edges whose boundary exit is not verified


@dataclass
class _Task:
    location: str
    env: dict
    t: Interval
    h: float
    segments: list
    crossings: list
    disarmed: set
    steps: int = 0


@dataclass
class _Next:
    """A live successor of a step: its trajectories continue from `env` at
    `t` in `location` with step size `h`, after `segment` and, when they
    jumped, `crossing` (abs time, label)."""
    location: str
    env: dict
    t: Interval
    h: float
    disarmed: set
    segment: FlowpipeSegment
    crossing: tuple | None = None


def _where(task, t: Interval, out) -> str:
    """The time span and location of the step `out` from time `t`."""
    t = iv.add(t, Interval(0.0, out.h_used))
    return (f"over t in [{t.lo:.6g}, {t.hi:.6g}] in location "
            f"'{task.location}'")


def _padded_box(env, fvals, slab_width):
    """State box widened by the drift over a time slab.

    A segment's time stamp is an interval (accumulated rounding, and the
    crossing-time width after jumps); the state enclosure holds at each
    trajectory's exact time inside it, so covering the whole slab costs an
    extra width * |flow| margin, with `fvals` the flow over `env`: for a
    tight box, the flow its step evaluated over the start set
    (`StepOutcome.f0`).

    The pad is sound only while |f| along a drifting trajectory stays
    within 1.001 |f(env)|. With L a Lipschitz constant of f along the
    drift, |f| can grow by e^(L*width), so the 1.001 factor covers only
    L * width <~ 1e-3; nothing checks that. A wider product is not covered:
    after thermostat's jumps L = 0.1 and width = 0.168 give 0.017, and the
    published boxes miss trajectories (ROADMAP A7).
    """
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
        self.ctxs = {loc: FlowContext(ha.variables, flow, ODE23,
                                      by_truncation=not ha.edges)
                     for loc, flow in ha.flows.items()}
        self.kits = [guard_kit(e.guard, ha.flows[e.source]) for e in ha.edges]
        self.stats = {"steps": 0, "rejections": 0, "crossings": 0,
                      "branches": 0}
        self.alloc = NoiseAllocator()  # one noise-symbol id space per run
        self.branches: list = []
        self.tasks: list = []

    # ----------------------------------------------------------- plumbing

    def _finish(self, task: _Task, complete: bool, reason: str = ""):
        self.branches.append(Branch(len(self.branches), None, task.segments,
                                    complete, reason, task.crossings))

    def _segment(self, task, f0, hull_env, t_end) -> FlowpipeSegment:
        """The segment of a step from the task's set, over which the flow
        is `f0`, with the step hull `hull_env` up to `t_end`."""
        fh = self.ctxs[task.location].eval_flow(hull_env, self.alloc)
        tight = _padded_box(task.env, f0, task.t.width)
        hull = _padded_box(hull_env, fh, t_end.width)
        return FlowpipeSegment(task.t, t_end, tight, hull, task.location)

    # ------------------------------------------------------------ the loop

    def run(self, task: _Task):
        """Advance one branch until completion, abort, or a fork (the
        successors are queued)."""
        try:
            while task.t.lo <= self.cfg.duration:
                if task.steps >= MAX_STEPS:
                    self._finish(task, False, "step budget exhausted")
                    return
                if not self._commit(task, self._successors(task)):
                    return
            # the last set is its own hull
            f = self.ctxs[task.location].eval_flow(task.env, self.alloc)
            task.segments.append(self._segment(task, f, task.env, task.t))
            self._finish(task, True)
        except (IntegrationError, InvariantViolation, ZenoError, DomainError,
                ModelError) as e:
            self._finish(task, False, f"{type(e).__name__}: {e}")

    def _commit(self, task, succs) -> bool:
        """Turn a step's successors into tasks. True when `task` goes on: a
        lone live successor is committed in place. Otherwise each live
        successor is forked off `task` and queued in order, each aborted
        one is finished as a branch, and `task` is done."""
        if len(succs) == 1 and isinstance(succs[0], _Next):
            self._enter(task, succs[0])
            return True
        for s in succs:
            child = replace(task, segments=list(task.segments),
                            crossings=list(task.crossings))
            if not isinstance(s, _Next):
                self._finish(child, False, s)
                continue
            self._enter(child, s)
            if len(self.branches) + len(self.tasks) >= BRANCH_CAP:
                w, v, t = max(((b.width, v, seg.t)
                               for seg in child.segments
                               for v, b in seg.tight.items()),
                              key=lambda wvt: wvt[0])
                self._finish(child, False, "BranchCap: disjunctive analysis "
                             f"exceeded the branch cap; its widest tight "
                             f"box is {w:.3g} in {v} at t in "
                             f"[{t.lo:.6g}, {t.hi:.6g}]")
            else:
                self.tasks.append(child)
        return False

    def _enter(self, task, s: _Next):
        task.segments.append(s.segment)
        if s.crossing is not None:
            task.crossings.append(s.crossing)
        task.location, task.t, task.h = s.location, s.t, s.h
        task.env = env_condense(s.env, CONDENSE_BUDGET, CONDENSE_FLOOR,
                                self.alloc)
        task.disarmed = set(s.disarmed)

    def _step(self, task, env, t, h, disarmed, diag, skip=frozenset()):
        """One guaranteed step from `env` at time `t` in the task's
        location: certify the `disarmed` edges over it and classify the
        others (but `skip`). Returns (outcome, edges to re-arm once
        committed, verdicts at the step end of the edges its hull does not
        refute)."""
        out = guaranteed_step(self.ctxs[task.location], env, h, self.cfg,
                              self.alloc, diag=diag)
        task.steps += 1
        self.stats["steps"] += 1
        self.stats["rejections"] += out.rejections
        rearm = self._check_disarmed(task, out, disarmed, t)
        ends = classify(self.ha, task.location, env, out.x_next, out.hull,
                        self.alloc, skip=disarmed | skip)
        return out, rearm, ends

    def _successors(self, task) -> list:
        """Take one step from `task`; returns how it ends."""
        h = task.h
        while True:
            out, rearm, ends = self._step(
                task, task.env, task.t, h, task.disarmed,
                f"(t >= {task.t.lo:.6g}, location '{task.location}')")
            actives = [i for i in sorted(ends)
                       if ends[i] is not Trivalent.FALSE]
            if len(actives) < 2 or out.h_used / 2.0 < MIN_SEPARATION:
                break
            h = out.h_used / 2.0
        succs = [s for idx in sorted(ends)
                 for s in self._crossing(task, out, idx, ends[idx], rearm)]
        if not actives:
            t_end = iv.add(task.t, Interval(out.h_used, out.h_used))
            succs.append(_Next(task.location, out.x_next, t_end, out.h_next,
                               task.disarmed - rearm,
                               self._segment(task, out.f0, out.hull, t_end)))
        return succs

    # ------------------------------------------------------ event handling

    def _check_disarmed(self, task, out, disarmed, t) -> set:
        """Certify the `disarmed` edges, all of the task's location, over
        the hull of the step `out` from time `t` (raises
        InvariantViolation when one may fire). Returns the edges to re-arm
        once the step is committed (guard surely false at the step end);
        until then the step, its retries and its successors keep the
        disarmed set it started with."""
        rearm = set()
        for idx in sorted(disarmed):
            edge = self.ha.edges[idx]
            if not edge_cannot_fire(self.kits[idx], out.hull, self.alloc):
                raise InvariantViolation(
                    f"cannot certify disarmed {edge.label} "
                    f"{_where(task, t, out)} (guard straddles its boundary "
                    f"and the flow direction is not provable)")
            tri = ex.eval_guard(edge.guard, out.x_next, self.alloc)
            if tri is Trivalent.FALSE:
                rearm.add(idx)
            elif tri is Trivalent.TRUE:
                raise InvariantViolation(
                    f"disarmed {edge.label} became surely true "
                    f"{_where(task, t, out)} despite its certificate")
        return rearm

    def _crossing(self, task, out, idx, end, rearm) -> list:
        """Successors of edge `idx` after the step `out`, whose end gives
        its guard the verdict `end`.

        While the verdict is UNKNOWN the step extends, up to MAX_EXTENSIONS
        steps, and stops at a surely true or surely false end. Extension
        steps start where `out` ends, so they see the edges it re-armed
        (`rearm`) and certify or re-arm the rest, as a plain step would.
        When another edge wakes up during the extension, the step ends in
        one aborted successor that names both edges. A surely true end
        brackets the crossing with `tight_interval`. Any other end first
        tries the monotonicity certificate, then brackets the times not
        refuted with `resolve_hull_only`, if any. The trajectories that
        have not crossed go on as well. When the step's own end left the
        crossing undecided (`maybe`), they go on from the extension's end,
        with the edge re-armed after a surely false end and disarmed after
        the limit; when the step's own end is surely false, `_successors`
        hands them on with the step."""
        edge, kit = self.ha.edges[idx], self.kits[idx]
        maybe = end is Trivalent.UNKNOWN
        hull, env_end = out.hull, out.x_next
        span, h_ext = out.h_used, out.h_next
        disarmed = task.disarmed - rearm
        for _ in range(MAX_EXTENSIONS):
            if end is not Trivalent.UNKNOWN:
                break
            env_end = env_condense(env_end, CONDENSE_BUDGET, CONDENSE_FLOOR,
                                   self.alloc)
            out2, rearm2, others = self._step(
                task, env_end, iv.add(task.t, Interval(span, span)), h_ext,
                disarmed,
                f"(extending across guard of {edge.label})", {idx})
            if others:
                t = iv.add(task.t, Interval(span, span + out2.h_used))
                woken = ", ".join(self.ha.edges[j].label for j in others)
                return [f"EventConflict: {woken} may fire while the crossing "
                        f"of {edge.label} extends, at t in "
                        f"[{t.lo:.6g}, {t.hi:.6g}]"]
            hull = {v: af.hull(hull[v], out2.hull[v], self.alloc)
                    for v in hull}
            env_end = out2.x_next
            disarmed -= rearm2
            span += out2.h_used
            h_ext = out2.h_next
            end = ex.eval_guard(edge.guard, env_end, self.alloc)
        h_jump = min(out.h_used, self.cfg.dt)
        window = None
        if end is Trivalent.TRUE or not edge_cannot_fire(kit, hull,
                                                         self.alloc):
            gpoly = build_gpoly(self.ctxs[task.location], task.env, out.f0,
                                env_end, span, hull, self.alloc)
            narrow = (tight_interval if end is Trivalent.TRUE
                      else resolve_hull_only)
            window = narrow(gpoly, kit, Interval(0.0, span), self.alloc)
        stays = maybe and end is not Trivalent.TRUE
        if window is None and not stays:
            return []
        t_end = iv.add(task.t, Interval(span, span))
        seg = self._segment(task, out.f0, hull, t_end)
        succs = []
        if window is not None:
            tags = ("possible-crossing",) if end is Trivalent.FALSE else ()
            succs = self._jump(task, gpoly, seg, idx, window, h_jump, tags)
        if stays:
            if end is Trivalent.UNKNOWN:
                disarmed = disarmed | {idx}
            succs.append(_Next(task.location, env_end, t_end, h_jump,
                               disarmed, seg))
        return succs

    def _jump(self, task, gpoly, seg, idx, t_zc, h, tags=()) -> list:
        """Successors of taking edge `idx` within `t_zc` (local to the
        step), after the step's segment `seg`: one per option of the
        immediate-transition chain after the reset, each with its own
        prints; an endless chain aborts."""
        edge = self.ha.edges[idx]
        post = cross(edge, gpoly, t_zc, self.alloc)
        self.stats["crossings"] += 1
        abs_zc = iv.add(task.t, t_zc)
        try:
            options = chain_immediate(self.ha, edge.target, post, idx,
                                      self.alloc, prints=edge.reset.prints)
        except ZenoError as e:
            return [f"ZenoError: {e}"]
        return [_Next(loc, env, abs_zc, h, disarmed,
                      replace(seg, events=(edge.label, *tags, *prints)),
                      (abs_zc, edge.label))
                for loc, env, prints, disarmed in options]


def simulate(ha: HybridAutomaton, cfg: SimConfig) -> Flowpipe:
    """Compute a guaranteed flowpipe of the automaton over [0, duration]:
    one task tree grown from the whole initial box. The flowpipe's
    `warnings` are those of `prepare_automaton`: edges whose boundary exit
    the strictness transform could not verify."""
    prepared, warnings = prepare_automaton(ha)
    eng = _Engine(prepared, cfg)
    box = prepared.initial_box
    env0 = {v: af.from_interval(box[v], eng.alloc) for v in prepared.variables}
    for idx, e in prepared.outgoing(prepared.initial_location):
        if ex.eval_guard(e.guard, env0, eng.alloc) is not Trivalent.FALSE:
            raise ModelError(
                f"guard of {e.label} is not surely false on the initial "
                f"set; reformulate the guard or shrink the initial box")
    eng.tasks.append(_Task(prepared.initial_location, env0,
                           Interval(0.0, 0.0), cfg.dt, [], [], set()))
    while eng.tasks:
        eng.run(eng.tasks.pop())
    eng.stats["branches"] = len(eng.branches)
    complete = all(b.complete for b in eng.branches) and bool(eng.branches)
    return Flowpipe(prepared.variables, eng.branches, complete, cfg.duration,
                    eng.stats, tuple(warnings))


# ------------------------------------------------------------- validation


REL_TOL = 1e-7  # relative tolerance of a reference state against a box


def reference_step(span: float) -> float:
    """The fixed step of the reference runs that check a flowpipe over a
    time span of `span`."""
    return min(1e-3, max(span / 20000.0, 1e-5))


def validate_monte_carlo(ha: HybridAutomaton, pipe: Flowpipe, samples: int,
                         seed: int) -> dict:
    """`validate_points` from `samples` initial points drawn uniformly from
    the initial box with `random.Random(seed)`."""
    rng = random.Random(seed)
    box = ha.initial_box
    return validate_points(ha, pipe, [
        [rng.uniform(box[v].lo, box[v].hi) for v in ha.variables]
        for _ in range(samples)])


def validate_points(ha: HybridAutomaton, pipe: Flowpipe, points) -> dict:
    """Independent containment check of the flowpipe from the initial
    points `points`, each a list of values in variable order.

    Integrates each point with a fine fixed-step scalar RK4 plus bisection
    event handling, and checks that every sampled state lies in the
    covering segments of at least one complete branch (step hull for
    intra-step times, tight enclosure at segment times). Times within a
    crossing window are skipped: the reference jump time inside the window
    makes pre/post states ambiguous there. A point whose reference run
    fails is skipped.
    """
    if not points:
        return {"samples": 0, "contained": 0, "skipped": 0, "rate": 1.0,
                "violations": []}
    complete_branches = [b for b in pipe.branches if b.complete]
    if not complete_branches:
        raise ModelError("flowpipe has no complete branch to validate")
    h_ref = reference_step(pipe.t_f)
    sim = ReferenceSimulator(prepare_automaton(ha)[0], h_ref)
    contained = skipped = 0
    violations = []
    for s, x0 in enumerate(points):
        try:
            traj = sim.run(x0, pipe.t_f)
        except (HyflowError, OverflowError, ValueError) as e:
            skipped += 1
            violations.append({"sample": s, "skipped": str(e)})
            continue
        for b in complete_branches:
            good, detail = _branch_contains(pipe, b, traj, h_ref)
            if good:
                contained += 1
                break
        else:
            if len(violations) < 25:
                violations.append({"sample": s, "x0": list(x0),
                                   "detail": detail})
    n = len(points)
    return {"samples": n, "contained": contained, "skipped": skipped,
            "rate": contained / max(1, n - skipped), "violations": violations}


def _in_window(t, windows):
    return any(w.lo <= t <= w.hi for w in windows)


def _branch_contains(pipe, branch, traj, h_ref):
    """(True, None) when `branch` of `pipe` holds the reference trajectory
    `traj` up to REL_TOL, else (False, where it escapes)."""
    pad = 2.0 * h_ref
    windows = [Interval(c.lo - pad, c.hi + pad) for c, _ in branch.crossings]
    for seg in branch.segments:
        checks = [(t, seg.tight) for t in (seg.t.lo, seg.t.mid, seg.t.hi)]
        lo, hi = seg.t.lo, seg.t_end.hi
        # a segment's hull covers each trajectory only until its own jump,
        # so stop hull sampling at the first padded crossing window that
        # overlaps the span, even one that opens before the segment starts
        # (post-jump times belong to later segments); the window of the
        # jump the segment starts from does not stop it
        for c, _ in branch.crossings:
            if lo < c.lo and c.lo - pad <= hi:
                hi = c.lo - pad
                break
        if hi > lo:
            for k in range(5):
                checks.append((lo + (hi - lo) * k / 4.0, seg.hull))
        for t, boxes in checks:
            if t > pipe.t_f or _in_window(t, windows):
                continue
            for v, x in zip(pipe.variables, traj.state_at(t)):
                box = boxes[v]
                eps = REL_TOL * (1.0 + abs(x))
                if not (box.lo - eps <= x <= box.hi + eps):
                    return False, {
                        "t": t, "var": v, "value": x,
                        "box": [box.lo, box.hi],
                        "kind": "tight" if boxes is seg.tight else "hull",
                    }
    return True, None
