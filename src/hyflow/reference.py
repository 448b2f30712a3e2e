"""Non-validated reference simulator: fixed-step scalar RK4 with
event detection by sign change and bisection on a cubic dense output.

This is the independent oracle used by Monte-Carlo validation and tests.
It shares nothing with the guaranteed path except the parsed model and the
chain limit `events.MAX_CHAIN`: flows, guards and resets are compiled to
plain scalar functions and integrated in ordinary floating point.
"""

from __future__ import annotations

import bisect

from . import events
from . import expr as ex
from .errors import ModelError


def _hermite(x0, d0, x1, d1, h, tau):
    """Cubic Hermite through x0 (slope d0) at tau = 0 and x1 (slope d1) at
    tau = 1, on a cell of length h, at the cell fraction tau."""
    a = 2 * tau**3 - 3 * tau**2 + 1
    b = (tau**3 - 2 * tau**2 + tau) * h
    c = -2 * tau**3 + 3 * tau**2
    d = (tau**3 - tau**2) * h
    return [a * x0[k] + b * d0[k] + c * x1[k] + d * d1[k]
            for k in range(len(x0))]


class ReferenceTrajectory:
    """Dense scalar trajectory: grid of (t, state, derivative) per
    continuous piece, cubic Hermite interpolation inside grid cells."""

    def __init__(self):
        self.times: list = []
        self.states: list = []
        self.derivs: list = []
        # jump indices: grid positions where a discontinuity starts
        self._jumps: set = set()

    def _append(self, t, x, d):
        self.times.append(t)
        self.states.append(tuple(x))
        self.derivs.append(tuple(d))

    def state_at(self, t: float) -> tuple:
        ts = self.times
        if t <= ts[0]:
            return self.states[0]
        if t >= ts[-1]:
            return self.states[-1]
        i = bisect.bisect_right(ts, t) - 1
        if i + 1 >= len(ts) or i in self._jumps:
            return self.states[i]
        t0, t1 = ts[i], ts[i + 1]
        h = t1 - t0
        if h <= 0.0:
            return self.states[i]
        return tuple(_hermite(self.states[i], self.derivs[i],
                              self.states[i + 1], self.derivs[i + 1], h,
                              (t - t0) / h))


class ReferenceSimulator:
    def __init__(self, ha, h_ref: float = 1e-3):
        self.ha = ha
        self.h = h_ref
        order = list(ha.variables)
        self._flows = {
            loc: ex.compile_scalar([flow[v] for v in order], order)
            for loc, flow in ha.flows.items()
        }
        self._guards = [ex.compile_guard_scalar(e.guard, order) for e in ha.edges]
        self._resets = []
        for e in ha.edges:
            assigned = [v for v, _ in e.reset.assigns]
            fns = ex.compile_scalar([expr for _, expr in e.reset.assigns], order) \
                if assigned else None
            idxs = [order.index(v) for v in assigned]
            self._resets.append((fns, idxs))

    def _rk4(self, loc, x, h):
        f = self._flows[loc]
        k1 = f(x)
        k2 = f([x[i] + h / 2 * k1[i] for i in range(len(x))])
        k3 = f([x[i] + h / 2 * k2[i] for i in range(len(x))])
        k4 = f([x[i] + h * k3[i] for i in range(len(x))])
        return [x[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                for i in range(len(x))]

    def _apply_reset(self, edge_idx, x):
        fns, idxs = self._resets[edge_idx]
        if fns is None:
            return list(x)
        vals = fns(list(x))
        out = list(x)
        for pos, v in zip(idxs, vals):
            out[pos] = v
        return out

    def _chain(self, loc, x, entered_by=None):
        """Follow the edges whose guards are true at x, until none is.
        The edge just taken, `entered_by`, is skipped when its reset may
        land on its own guard boundary (`boundary_reset`), as the engine's
        chain leaves it disarmed; the step loop fires it again only once
        its guard has turned false."""
        for _ in range(events.MAX_CHAIN):
            hit = None
            for idx, edge in self.ha.outgoing(loc):
                if idx == entered_by and edge.boundary_reset:
                    continue
                if self._guards[idx](list(x)):
                    hit = (idx, edge)
                    break
            if hit is None:
                return loc, x
            entered_by, edge = hit
            x = self._apply_reset(entered_by, x)
            loc = edge.target
        raise ModelError("reference simulation: immediate-transition chain too long")

    def run(self, x0, t_f: float) -> ReferenceTrajectory:
        """The trajectory from the initial state `x0` at time 0 to `t_f`."""
        traj = ReferenceTrajectory()
        t = 0.0
        loc, x = self._chain(self.ha.initial_location, list(x0))
        f = self._flows[loc]
        traj._append(t, x, f(x))
        guard_idx = [idx for idx, _ in self.ha.outgoing(loc)]
        steps = 0
        max_steps = int(t_f / self.h * 4) + 64
        while t < t_f:
            steps += 1
            if steps > max_steps:
                raise ModelError("reference simulation exceeded step budget")
            h = min(self.h, t_f - t)
            if h <= 0:
                break
            x_new = self._rk4(loc, x, h)
            # event check: guard newly true at step end
            fired = None
            for idx in guard_idx:
                if self._guards[idx](x_new) and not self._guards[idx](x):
                    fired = idx
                    break
            if fired is None:
                t += h
                x = x_new
                traj._append(t, x, f(x))
                continue
            # bisect the crossing time on a cubic between x and x_new
            edge = self.ha.edges[fired]
            g = self._guards[fired]
            d0, d1 = f(x), f(x_new)
            lo_tau, hi_tau = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo_tau + hi_tau)
                if g(_hermite(x, d0, x_new, d1, h, mid)):
                    hi_tau = mid
                else:
                    lo_tau = mid
                if hi_tau - lo_tau < 1e-14:
                    break
            t_evt = t + hi_tau * h
            x_evt = _hermite(x, d0, x_new, d1, h, hi_tau)
            traj._append(t_evt, x_evt, f(x_evt))
            traj._jumps.add(len(traj.times) - 1)
            x = self._apply_reset(fired, x_evt)
            loc = edge.target
            loc, x = self._chain(loc, x, fired)
            f = self._flows[loc]
            guard_idx = [idx for idx, _ in self.ha.outgoing(loc)]
            t = t_evt
            traj._append(t, x, f(x))
        return traj
