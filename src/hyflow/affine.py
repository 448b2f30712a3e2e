"""Affine arithmetic over the reals with floating-point soundness.

A set of values is an affine form: a center plus a linear combination of
noise symbols ranging over [-1, 1], plus a nonnegative `slack` that absorbs
every floating-point rounding error as an anonymous symmetric deviation.
Linear operations are exact on the symbolic part (so x - x collapses to a
near-zero form instead of the interval-arithmetic blowup); nonlinear
operations linearize at the center and bound the remainder with a fresh
noise symbol.

Linear combinations take one pass and one running-error sum however many
terms they have: `lin` with exact float coefficients (each linear subtree
of a compiled `expr` program is one call), `scale_interval` by an
uncertain scalar in an interval (a division by a constant, the
interpolator's 1/H), and `add_scaled_many` with interval coefficients over
a base form (the Runge-Kutta stages).

Noise symbols are plain integers issued by a `NoiseAllocator`; all forms
that interact must share one allocator. A simulation run has one
allocator, and so one id space, for its whole task tree.
"""

from __future__ import annotations

import enum
import math
import operator

from . import _round as rd
from . import interval as iv
from .errors import DomainError
from .interval import Interval
from .trivalent import Trivalent

# Coefficients below this magnitude are folded into slack to avoid denormal
# slowdown and dict churn.
_TINY = 1e-300


class Rel(enum.Enum):
    """The relation of a comparison `x rel 0`. Its value is its text;
    `holds` is its scalar predicate, `negated` the relation holding exactly
    where it fails, and `strict` the strict relation of its direction."""

    LT = "<", operator.lt, ">="
    LE = "<=", operator.le, ">"
    GT = ">", operator.gt, "<="
    GE = ">=", operator.ge, "<"

    def __new__(cls, text, holds, negated_text):
        member = object.__new__(cls)
        member._value_ = text
        member.holds = holds
        member._negated_text = negated_text
        return member

    @property
    def negated(self) -> "Rel":
        return Rel(self._negated_text)

    @property
    def strict(self) -> "Rel":
        return Rel(self.value[0])


class NoiseAllocator:
    """Issues strictly increasing noise-symbol ids: a fresh id is new to
    every form issued before it, whichever branch of a run holds it."""

    __slots__ = ("_next",)

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> int:
        n = self._next
        self._next = n + 1
        return n


class AffineForm:
    """center + sum(dev[i] * eps_i) +/- slack, eps_i in [-1, 1]."""

    __slots__ = ("center", "dev", "slack")

    def __init__(self, center: float, dev: dict | None = None, slack: float = 0.0):
        if not math.isfinite(center) or not math.isfinite(slack):
            raise DomainError(f"non-finite affine form (center={center}, slack={slack})")
        if dev:
            cleaned = {}
            for i, v in dev.items():
                a = abs(v)
                if a < _TINY:
                    if a != 0.0:
                        slack = rd.next_up(slack + a)
                elif math.isfinite(v):
                    cleaned[i] = v
                else:
                    raise DomainError(f"non-finite deviation {v} for symbol {i}")
            dev = cleaned
        self.center = center
        self.dev = dev if dev else {}
        self.slack = slack

    def __repr__(self):
        terms = "".join(f" {v:+g}*e{i}" for i, v in self.dev.items())
        return f"AffineForm({self.center:g}{terms} ± {self.slack:g})"

    # Linear operators; multiplication by a form needs an allocator and
    # lives in `mul` below.
    def __add__(self, other):
        if isinstance(other, AffineForm):
            return _add(self, other, 1.0)
        return add_const(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, AffineForm):
            return _add(self, other, -1.0)
        return add_const(self, -float(other))

    def __rsub__(self, other):
        return add_const(neg(self), float(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, AffineForm):
            raise TypeError("use mul(x, y, alloc) for form*form products")
        return scale(self, float(other))

    __rmul__ = __mul__

    @property
    def radius(self) -> float:
        """Upper bound on the total deviation around the center."""
        t = self.slack
        n = 1
        for v in self.dev.values():
            t += v if v >= 0.0 else -v
            n += 1
        if t != 0.0:
            t += t * (n * _EPS) + n * _SUBNORM  # the sum's rounding, outward
        return t


ZERO = AffineForm(0.0)


def from_interval(box: Interval, alloc: NoiseAllocator) -> AffineForm:
    """Fresh affine form whose concretization contains `box`."""
    c = 0.5 * (box.lo + box.hi)
    if not math.isfinite(c):
        c = 0.5 * box.lo + 0.5 * box.hi
    r = 0.5 * (box.hi - box.lo)
    # Outward-rounding deficit on either side goes into slack.
    slack = 0.0
    low_gap = rd.sub_up(rd.sub_up(c, r), box.lo)
    if low_gap > 0.0:
        slack = low_gap
    high_gap = rd.sub_up(box.hi, rd.add_down(c, r))
    if high_gap > slack:
        slack = high_gap
    if r == 0.0:
        return AffineForm(c, None, slack)
    return AffineForm(c, {alloc.fresh(): r}, slack)


def to_interval(x: AffineForm) -> Interval:
    t, c = x.radius, x.center
    if t == 0.0:
        return Interval(c, c)
    return Interval(rd.next_down(c - t), rd.next_up(c + t))


# Running-error accounting: every float operation r satisfies
# |fl(r) - r| <= eps*|fl(r)| + subnorm, so summing |fl(r)| over the
# operations of one affine op and scaling once bounds all rounding errors.
# _EPS has headroom over 2^-52 to cover the rounding of the error sum
# itself.
_EPS = 2.3e-16
_SUBNORM = 5e-324


def _mk(center: float, dev: dict, slack: float) -> AffineForm:
    # internal fast constructor: coefficient overflow surfaces through the
    # error sums (slack turns infinite), so checking center and slack is
    # enough to keep non-finite forms impossible
    if not (math.isfinite(center) and math.isfinite(slack)):
        raise DomainError(f"non-finite affine form (center={center}, slack={slack})")
    f = AffineForm.__new__(AffineForm)
    f.center = center
    f.dev = dev
    f.slack = slack
    return f


def _finish_slack(base: float, esum: float, ecnt: int) -> float:
    if esum == 0.0 and ecnt == 0:
        return base
    return rd.next_up(base + esum * _EPS + (ecnt + 1) * _SUBNORM)


def _add(x: AffineForm, y: AffineForm, sign: float) -> AffineForm:
    yc = y.center if sign > 0 else -y.center
    center = x.center + yc
    esum = abs(center)
    ecnt = 1
    dev = dict(x.dev)
    if sign > 0:
        for i, yi in y.dev.items():
            xi = dev.get(i)
            if xi is None:
                dev[i] = yi
            else:
                g = xi + yi
                esum += abs(g)
                ecnt += 1
                if g == 0.0:
                    del dev[i]
                else:
                    dev[i] = g
    else:
        for i, yi in y.dev.items():
            xi = dev.get(i)
            if xi is None:
                dev[i] = -yi
            else:
                g = xi - yi
                esum += abs(g)
                ecnt += 1
                if g == 0.0:
                    del dev[i]
                else:
                    dev[i] = g
    slack = rd.next_up(x.slack + y.slack) if y.slack != 0.0 else x.slack
    return _mk(center, dev, _finish_slack(slack, esum, ecnt))


def add_const(x: AffineForm, c: float) -> AffineForm:
    if c == 0.0:
        return x
    s = x.center + c
    err = rd.two_sum_err(x.center, c, s)
    slack = x.slack if err == 0.0 else rd.next_up(x.slack + err)
    return _mk(s, dict(x.dev), slack)


def scale(x: AffineForm, a: float) -> AffineForm:
    if a == 0.0:
        return AffineForm(0.0)
    if a == 1.0:
        return x
    if a == -1.0:
        return neg(x)
    c = a * x.center
    esum = abs(c)
    dev = {}
    for i, xi in x.dev.items():
        g = a * xi
        dev[i] = g
        esum += g if g >= 0.0 else -g
    ecnt = 1 + len(dev)
    slack = x.slack
    if slack != 0.0:
        sa = abs(a) * slack
        slack = sa + sa * _EPS + _SUBNORM
    return _mk(c, dev, _finish_slack(slack, esum, ecnt))


def scale_interval(x: AffineForm, lo: float, hi: float) -> AffineForm:
    """x scaled by an uncertain scalar s in [lo, hi]; no fresh symbol.
    x is scaled by the midpoint m, and (s - m) x goes to slack."""
    mid = 0.5 * (lo + hi)
    out = scale(x, mid)
    r = max(hi - mid, mid - lo)
    if r != 0.0:
        extra = rd.mul_up(rd.next_up(r), to_interval(x).mag)
        out = AffineForm(out.center, out.dev, rd.next_up(out.slack + extra))
    return out


def lin(const: float, terms) -> AffineForm:
    """const + sum(c * x) over `terms`, pairs (c, x) of an exact float c
    and a form; one pass, no fresh symbol.

    Sound by the rules of `add_scaled_many` with every scalar a point:
    every partial sum, the slacks' included, enters one running-error sum,
    and exact zero sums are dropped. A product by c = +-1 is exact; the
    products by any other c are charged at once, as |c| times x's center
    and deviations in magnitude. `expr` compiles each linear subtree of a
    DAG to one call.
    """
    center = const
    dev: dict = {}
    slack = esum = 0.0
    ecnt = 0
    for c, x in terms:
        xdev = x.dev
        xs = x.slack
        center += c * x.center
        esum += center if center >= 0.0 else -center
        ecnt += 2 * len(xdev) + 4
        if c == 1.0 or c == -1.0:
            if xs != 0.0:
                slack += xs
                esum += slack
        else:
            a = abs(c)
            esum += a * (abs(x.center) + sum(map(abs, xdev.values())))
            if xs != 0.0:
                xs *= a
                slack += xs
                esum += xs + slack
        if not dev:
            dev = dict(xdev) if c == 1.0 else {i: c * v for i, v in xdev.items()}
            continue
        for i, xi in xdev.items():
            d = dev.get(i)
            if d is None:
                dev[i] = c * xi
                continue
            s = d + c * xi
            if s == 0.0:
                del dev[i]
            else:
                dev[i] = s
                esum += s if s >= 0.0 else -s
    return _mk(center, dev, _finish_slack(slack, esum, ecnt))


def add_scaled_many(base: AffineForm, terms) -> AffineForm:
    """base + sum(s * x) over `terms`, triples (lo, hi, x) with the
    uncertain scalar s in [lo, hi]; one pass, no fresh symbol.

    Sound by the rules of `scale` then `_add`, in the same order, so the
    center and coefficients are the same floats: x is scaled by the
    midpoint m, every product and partial sum enters one running-error
    sum, and exact zero coefficients are dropped. The rest, (s - m) x with
    |s - m| <= r, is bounded by r |x| and goes to slack with |m| times x's
    slack; |x| is x's interval magnitude, as `to_interval` rounds it.
    """
    center = base.center
    dev = dict(base.dev)
    slack = base.slack
    esum, ecnt = 0.0, 0
    for lo, hi, x in terms:
        mid = 0.5 * (lo + hi)
        c = mid * x.center
        center += c
        esum += abs(c) + abs(center)
        t = x.slack
        for i, xi in x.dev.items():
            t += xi if xi >= 0.0 else -xi
            g = mid * xi
            d = dev.get(i)
            if d is None:
                esum += g if g >= 0.0 else -g
                if g != 0.0:
                    dev[i] = g
                continue
            s = d + g
            esum += abs(g) + abs(s)
            ecnt += 1
            if s == 0.0:
                del dev[i]
            else:
                dev[i] = s
        n = len(x.dev) + 1
        ecnt += n + 1
        if x.slack != 0.0:
            slack = rd.next_up(slack + rd.mul_up(abs(mid), x.slack))
        mag = abs(x.center)
        if t != 0.0:
            t += t * (n * _EPS) + n * _SUBNORM
            mag = max(abs(rd.next_down(x.center - t)), abs(rd.next_up(x.center + t)))
        r = rd.next_up(max(hi - mid, mid - lo))
        slack = rd.next_up(slack + rd.mul_up(r, mag))
    return _mk(center, dev, _finish_slack(slack, esum, ecnt))


def neg(x: AffineForm) -> AffineForm:
    return _mk(-x.center, {i: -v for i, v in x.dev.items()}, x.slack)


def mul(x: AffineForm, y: AffineForm, alloc: NoiseAllocator) -> AffineForm:
    """Range-sound product: linearization plus one fresh quadratic symbol."""
    if not y.dev and y.slack == 0.0:
        return scale(x, y.center)
    if not x.dev and x.slack == 0.0:
        return scale(y, x.center)
    xc, yc = x.center, y.center
    center = xc * yc
    xdev, ydev = x.dev, y.dev
    dev = {}
    ax = 0.0
    for i, xi in xdev.items():
        ax += xi if xi >= 0.0 else -xi
        yi = ydev.get(i)
        g = xi * yc if yi is None else xi * yc + xc * yi
        if g != 0.0:
            dev[i] = g
    ay = 0.0
    for i, yi in ydev.items():
        ay += yi if yi >= 0.0 else -yi
        if i not in xdev:
            g = xc * yi
            if g != 0.0:
                dev[i] = g
    # The products xi*yc and xc*yi are charged at once, through ax and ay,
    # and twice over: on a shared symbol their sum is at most the two
    nx, ny = len(xdev), len(ydev)
    esum = abs(center) + 2.0 * (abs(yc) * ax + abs(xc) * ay)
    ecnt = 1 + 2 * (nx + ny)
    ax += ax * (nx * _EPS) + nx * _SUBNORM
    ay += ay * (ny * _EPS) + ny * _SUBNORM
    sx, sy = x.slack, y.slack
    # D_x * D_y is exactly 0 when either deviation sum is empty, and then
    # it needs neither a rounding charge nor a fresh symbol
    nu = 0.0
    if nx and ny:
        nu = ax * ay
        nu += nu * (4.0 * _EPS) + _SUBNORM
    # Cross terms between slacks, centers and deviations cannot stay
    # correlated; they all land in slack.
    slack = 0.0
    if sx != 0.0 or sy != 0.0:
        cross = abs(xc) * sy + abs(yc) * sx + ax * sy + sx * ay + sx * sy
        slack = cross + cross * (8.0 * _EPS) + _SUBNORM
    if nu != 0.0:
        dev[alloc.fresh()] = nu
    return _mk(center, dev, _finish_slack(slack, esum, ecnt))


def square(x: AffineForm, alloc: NoiseAllocator) -> AffineForm:
    """Sharp affine square: (c + D)^2 = c^2 + 2cD + D^2 with the quadratic
    part D^2 in [0, r^2] recentered, so the fresh symbol carries r^2/2
    instead of the generic product's r^2."""
    if not x.dev and x.slack == 0.0:
        c = x.center * x.center
        return _mk(c, {}, _finish_slack(0.0, abs(c), 1))
    c = x.center
    a = x.slack
    n = 1
    for v in x.dev.values():
        a += v if v >= 0.0 else -v
        n += 1
    a += a * (n * _EPS) + n * _SUBNORM  # upper bound on |D|
    r2 = a * a
    r2 += r2 * (2.0 * _EPS) + _SUBNORM
    half = 0.5 * r2
    center = c * c + half
    esum = abs(c * c) + center + half
    ecnt = 3
    two_c = 2.0 * c
    dev = {}
    for i, xi in x.dev.items():
        g = two_c * xi
        esum += g if g >= 0.0 else -g
        ecnt += 1
        if g != 0.0:
            dev[i] = g
    slack = 0.0
    if x.slack != 0.0:
        sc = abs(two_c) * x.slack
        slack = sc + sc * _EPS + _SUBNORM
    dev[alloc.fresh()] = half
    return _mk(center, dev, _finish_slack(slack, esum, ecnt))


def _unary_taylor(x, alloc, f0_fn, d0_fn, d2_mag):
    """First-order Taylor at the center with an interval-bounded remainder.

    d2_mag bounds |f''| over the range of `x`, so the remainder over that
    range is d2_mag/2 * radius^2, carried by a fresh symbol. Library
    evaluation error for f and f' is covered by LIBM_STEPS ulps.
    """
    c = x.center
    f0 = f0_fn(c)
    d0 = d0_fn(c)
    rad = x.radius
    delta = rd.mul_up(rd.mul_up(0.5 * d2_mag, rad), rad)
    err = rd.LIBM_STEPS * rd.ulp(f0)
    if d0 != 0.0:
        err = rd.next_up(err + rd.mul_up(rd.LIBM_STEPS * rd.ulp(d0), rad))
    dev = {}
    esum = 0.0
    for i, xi in x.dev.items():
        g = d0 * xi
        esum += g if g >= 0.0 else -g
        if g != 0.0:
            dev[i] = g
    if x.slack != 0.0:
        sd = abs(d0) * x.slack
        err = rd.next_up(err + sd + sd * _EPS + _SUBNORM)
    if delta != 0.0:
        dev[alloc.fresh()] = delta
    return _mk(f0, dev, _finish_slack(err, esum, len(dev)))


# name -> (point fn, derivative at a point, |f''| over an interval given
# the interval and the function's range over it, range fn)
def _range_mag(_b, rng):
    return rng.mag  # sin, cos and exp are their own f'' up to sign


def _d2_sqrt(b, _rng):
    root3 = iv.pow_int(iv.sqrt(b), 3)
    return iv.div(Interval(0.25, 0.25), root3).mag


def _d2_log(b, _rng):
    return iv.div(Interval(1.0, 1.0), iv.pow_int(b, 2)).mag


def _d2_recip(b, _rng):
    return iv.div(Interval(2.0, 2.0), iv.pow_int(b, 3)).mag


_UNARY = {
    "sin": (math.sin, math.cos, _range_mag, iv.sin),
    "cos": (math.cos, lambda c: -math.sin(c), _range_mag, iv.cos),
    "exp": (math.exp, math.exp, _range_mag, iv.exp),
    "sqrt": (math.sqrt, lambda c: 0.5 / math.sqrt(c), _d2_sqrt, iv.sqrt),
    "log": (math.log, lambda c: 1.0 / c, _d2_log, iv.log),
    "recip": (lambda c: 1.0 / c, lambda c: -1.0 / (c * c), _d2_recip,
              lambda b: iv.div(Interval(1.0, 1.0), b)),
}


def nonlinear_unary(name: str, x: AffineForm, alloc: NoiseAllocator) -> AffineForm:
    """Apply sin/cos/exp/sqrt/log/recip to an affine form: a first-order
    Taylor model, or the plain range where that is tighter."""
    f0_fn, d0_fn, d2_fn, range_fn = _UNARY[name]
    box = to_interval(x)
    # Hard domain checks: no sound finite enclosure exists outside these.
    if name == "sqrt" and box.lo < 0.0:
        raise DomainError(f"sqrt of range [{box.lo}, {box.hi}]")
    if name == "log" and box.lo <= 0.0:
        raise DomainError(f"log of range [{box.lo}, {box.hi}]")
    if name == "recip" and box.lo <= 0.0 <= box.hi:
        raise DomainError(f"reciprocal of range [{box.lo}, {box.hi}] containing zero")
    rng = range_fn(box)
    try:
        form = _unary_taylor(x, alloc, f0_fn, d0_fn, d2_fn(box, rng))
    except (DomainError, OverflowError, ZeroDivisionError):
        form = None
    if form is not None:
        # A remainder wider than the plain range means the linearization is
        # useless here (wide input); the box is then both tighter and sound.
        got = to_interval(form)
        if got.width <= 4.0 * rng.width or got.subset_of(rng):
            return form
    return from_interval(rng, alloc)


def _abs_form(x: AffineForm, alloc: NoiseAllocator) -> AffineForm:
    box = to_interval(x)
    if box.lo >= 0.0:
        return AffineForm(x.center, dict(x.dev), x.slack)
    if box.hi <= 0.0:
        return neg(x)
    return from_interval(Interval(0.0, box.mag), alloc)


def _sgn_form(x: AffineForm, alloc: NoiseAllocator) -> AffineForm:
    box = to_interval(x)
    if box.lo > 0.0:
        return AffineForm(1.0)
    if box.hi < 0.0:
        return AffineForm(-1.0)
    return from_interval(Interval(-1.0, 1.0), alloc)


def div(x: AffineForm, y: AffineForm, alloc: NoiseAllocator) -> AffineForm:
    if not y.dev and y.slack == 0.0:
        if y.center == 0.0:
            raise DomainError("division by exact zero")
        return mul(x, nonlinear_unary("recip", AffineForm(y.center), alloc), alloc)
    return mul(x, nonlinear_unary("recip", y, alloc), alloc)


def pow_int(x: AffineForm, n: int, alloc: NoiseAllocator) -> AffineForm:
    if n == 0:
        return AffineForm(1.0)
    if n < 0:
        # reciprocal first: a wide positive x can have a square whose affine
        # range reaches below zero, and then its reciprocal is refused
        return pow_int(nonlinear_unary("recip", x, alloc), -n, alloc)
    # binary exponentiation; squaring uses the sharp centered form
    result = None
    base = x
    m = n
    while m:
        if m & 1:
            result = base if result is None else mul(result, base, alloc)
        m >>= 1
        if m:
            base = square(base, alloc)
    return result


def hull(x: AffineForm, y: AffineForm, alloc: NoiseAllocator) -> AffineForm:
    """Convex-hull join: keeps the shared linear part, pushes the rest into
    one fresh symbol. Concretization contains both operands'."""
    g0 = 0.5 * (x.center + y.center)
    kept = {}
    ydev = y.dev
    for i, xi in x.dev.items():
        yi = ydev.get(i)
        if yi is not None and (xi > 0.0) == (yi > 0.0):
            kept[i] = math.copysign(min(abs(xi), abs(yi)), xi)

    def side(form):
        d = abs(form.center - g0)
        n = 1
        for i, v in form.dev.items():
            k = kept.get(i, 0.0)
            d += abs(v - k)
            n += 2
        for i, k in kept.items():
            if i not in form.dev:
                d += abs(k)
                n += 1
        if form.slack != 0.0:
            d += form.slack
            n += 1
        if d != 0.0:
            d += d * (n * _EPS) + n * _SUBNORM
        return d

    delta = max(side(x), side(y))
    if delta != 0.0:
        kept[alloc.fresh()] = delta
    return AffineForm(g0, kept, 0.0)


def compare(x: AffineForm, rel: Rel) -> Trivalent:
    """Trivalent truth of `x rel 0` over the concretization of x. Each
    relation is a threshold, so it holds on the whole range iff it holds at
    both ends, and nowhere iff at neither."""
    box = to_interval(x)
    lo, hi = rel.holds(box.lo, 0.0), rel.holds(box.hi, 0.0)
    if lo != hi:
        return Trivalent.UNKNOWN
    return Trivalent.TRUE if lo else Trivalent.FALSE


def remap(x: AffineForm, mapping: dict, alloc: NoiseAllocator) -> AffineForm:
    """Rename noise symbols through `mapping` (extended with fresh ids).

    Breaks correlation with forms outside the mapping while preserving it
    among forms remapped together.
    """
    dev = {}
    for i, v in x.dev.items():
        j = mapping.get(i)
        if j is None:
            j = alloc.fresh()
            mapping[i] = j
        dev[j] = v
    return AffineForm(x.center, dev, x.slack)


def sample(x: AffineForm, valuation: dict, slack_pos: float = 0.0) -> float:
    """Scalar value at a noise valuation (missing symbols read as 0)."""
    t = x.center
    for i, v in x.dev.items():
        t += v * valuation.get(i, 0.0)
    return t + x.slack * slack_pos
