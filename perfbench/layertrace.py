"""CPU-time spans around hyflow's public entry points.

Each entry point is patched in the module that *calls* it (a name bound by
`from .x import f` must be replaced where it was bound), so the wrapper
sees exactly the calls the engine makes. A span records its layer, its
parent span and its CPU-clock start and end; spans stay in memory and
are summarised when the instance ends. `affine.mul` runs millions of times,
so it gets counters instead of spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module whose global name is called, attribute, layer name)
ENTRY_POINTS = (
    ("hyflow.engine", "guaranteed_step", "integrator.guaranteed_step"),
    ("hyflow.engine", "classify", "events.classify"),
    ("hyflow.engine", "tight_interval", "events.tight_interval"),
    ("hyflow.engine", "resolve_hull_only", "events.resolve_hull_only"),
    ("hyflow.engine", "cross", "events.cross"),
    ("hyflow.engine", "chain_immediate", "events.chain_immediate"),
    ("hyflow.engine", "edge_cannot_fire", "events.edge_cannot_fire"),
    ("hyflow.engine", "build_gpoly", "interpolator.build_gpoly"),
    ("hyflow.engine", "env_condense", "integrator.env_condense"),
    ("hyflow.integrator", "picard_enclosure", "integrator.picard_enclosure"),
    ("hyflow.integrator", "rk_stages", "integrator.rk_stages"),
    ("hyflow.integrator", "truncation_bound", "integrator.truncation_bound"),
    ("hyflow.integrator", "embedded_error", "integrator.embedded_error"),
    ("hyflow.events", "eval_gpoly", "interpolator.eval_gpoly"),
    ("hyflow.expr", "eval_affine_many", "expr.eval_affine_many"),
    ("hyflow.benchmarks", "parse_dsl", "dsl.parse_dsl"),
    ("hyflow.benchmarks", "parse_json_automaton",
     "jsonmodel.parse_json_automaton"),
)

# Spans the benchmark opens around its own calls.
SIMULATE = "engine.simulate"
PREPARE = "expr.prepare_automaton"

# The process is single-threaded, so its main thread's CPU clock is the
# process CPU time. `time.process_time` would do as well, except that once
# RLIMIT_CPU arms the process CPU timer it only advances in scheduler ticks
# (4 ms here), which spans of a few milliseconds cannot use.
clock = time.thread_time


class Tracer:
    """Spans as [layer, parent index or -1, start, end], in start order."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        # guaranteed_step returns (accepted steps), picard_enclosure None
        # results, and the largest noise-symbol count of a step-start variable
        self.counts = {"steps_accepted": 0, "picard_fail": 0,
                       "step_symbols_max": 0, "mul_calls": 0,
                       "mul_symbols": 0}

    def wrap(self, layer, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [layer, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _step_start(self, args):
        env = args[1]
        n = max((len(f.dev) for f in env.values()), default=0)
        if n > self.counts["step_symbols_max"]:
            self.counts["step_symbols_max"] = n

    def _step_done(self, _result):
        self.counts["steps_accepted"] += 1

    def _picard_done(self, result):
        if result is None:
            self.counts["picard_fail"] += 1

    def install(self, entry_points=ENTRY_POINTS):
        """Patch every entry point and `affine.mul`; returns an undo
        function. A missing attribute raises, so a renamed entry point
        fails loudly instead of reporting zero calls."""
        hooks = {
            "integrator.guaranteed_step": (self._step_start, self._step_done),
            "integrator.picard_enclosure": (None, self._picard_done),
        }
        undo = []
        for mod_name, attr, layer in entry_points:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            before, after = hooks.get(layer, (None, None))
            setattr(mod, attr, self.wrap(layer, fn, before, after))
            undo.append((mod, attr, fn))
        affine = importlib.import_module("hyflow.affine")
        mul, counts = affine.mul, self.counts

        def counted_mul(x, y, alloc):
            counts["mul_calls"] += 1
            counts["mul_symbols"] += len(x.dev) + len(y.dev)
            return mul(x, y, alloc)

        affine.mul = counted_mul
        undo.append((affine, "mul", mul))

        def restore():
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

        return restore

    def _child_time(self) -> list:
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self) -> dict:
        """Per layer: calls, inclusive and self CPU seconds. Self time is the
        span's duration minus the time its child spans cover."""
        child = self._child_time()
        layers = defaultdict(lambda: {"calls": 0, "cpu_s": 0.0, "self_s": 0.0})
        for i, (name, _parent, start, end) in enumerate(self.spans):
            agg = layers[name]
            agg["calls"] += 1
            agg["cpu_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return dict(layers)

    def check(self, root: str = SIMULATE) -> dict:
        """Accounting of the spans under the root span: its inclusive time,
        the sum of the self times below and including it (equal when every
        span nests in its parent), and spans that leave their parent's
        interval or have negative self time."""
        child = self._child_time()
        inside = [False] * len(self.spans)
        root_s = self_sum_s = 0.0
        errors = []
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent < 0:
                inside[i] = name == root
                if inside[i]:
                    root_s += end - start
            else:
                inside[i] = inside[parent]
                _, _, pstart, pend = self.spans[parent]
                if start < pstart or end > pend:
                    errors.append(f"span {i} ({name}) leaves its parent")
            if end - start - child[i] < -1e-9:
                errors.append(f"span {i} ({name}) has negative self time")
            if inside[i]:
                self_sum_s += end - start - child[i]
        return {"simulate_s": root_s, "self_sum_s": self_sum_s,
                "nesting_errors": errors[:5]}
