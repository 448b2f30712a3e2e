"""Sound interval arithmetic with outward rounding.

Bounds are plain doubles; every operation rounds outward via ULP bumping
(see `_round`), so the returned interval always contains the exact real
result set. Non-finite bounds are rejected eagerly: an interval that
overflows is an error, never a silent value.
"""

from __future__ import annotations

import math

from . import _round as rd
from .errors import DomainError

__all__ = ["Interval"]

# Conservative bounds on pi/2, pi, 2*pi used by the trig range analysis.
_PI = math.pi
_TWO_PI_LO = rd.down_steps(2.0 * math.pi, 2)
_HALF_PI = 0.5 * math.pi


class Interval:
    """Closed real interval [lo, hi] with finite double endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"non-finite interval bound [{lo}, {hi}]")
        if lo > hi:
            raise DomainError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> float:
        return rd.sub_up(self.hi, self.lo)

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    @property
    def mag(self) -> float:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi


def add(a: Interval, b: Interval) -> Interval:
    return Interval(rd.add_down(a.lo, b.lo), rd.add_up(a.hi, b.hi))


def sub(a: Interval, b: Interval) -> Interval:
    return Interval(rd.sub_down(a.lo, b.hi), rd.sub_up(a.hi, b.lo))


def mul(a: Interval, b: Interval) -> Interval:
    p1, p2, p3, p4 = a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi
    return Interval(rd.next_down(min(p1, p2, p3, p4)), rd.next_up(max(p1, p2, p3, p4)))


def div(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise DomainError(f"division by interval containing zero: [{b.lo}, {b.hi}]")
    q1, q2, q3, q4 = a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi
    return Interval(rd.next_down(min(q1, q2, q3, q4)), rd.next_up(max(q1, q2, q3, q4)))


def _ipow(x: float, n: int) -> float:
    try:
        return x**n
    except OverflowError:
        raise DomainError(f"overflow in {x}**{n}") from None


def pow_int(a: Interval, n: int) -> Interval:
    if n == 0:
        return Interval(1.0, 1.0)
    if n < 0:
        return div(Interval(1.0, 1.0), pow_int(a, -n))
    if n % 2 == 1 or a.lo >= 0.0:  # monotone increasing
        return Interval(rd.down_steps(_ipow(a.lo, n), 2), rd.up_steps(_ipow(a.hi, n), 2))
    if a.hi <= 0.0:  # even power, monotone decreasing
        return Interval(rd.down_steps(_ipow(a.hi, n), 2), rd.up_steps(_ipow(a.lo, n), 2))
    # even power straddling zero
    return Interval(0.0, rd.up_steps(_ipow(a.mag, n), 2))


def sqrt(a: Interval) -> Interval:
    if a.lo < 0.0:
        raise DomainError(f"sqrt of interval with negative bound: [{a.lo}, {a.hi}]")
    return Interval(max(0.0, rd.next_down(math.sqrt(a.lo))), rd.next_up(math.sqrt(a.hi)))


def exp(a: Interval) -> Interval:
    try:
        hi = math.exp(a.hi)
    except OverflowError:
        raise DomainError(f"exp overflow on [{a.lo}, {a.hi}]") from None
    return Interval(
        max(0.0, rd.down_steps(math.exp(a.lo), rd.LIBM_STEPS)),
        rd.up_steps(hi, rd.LIBM_STEPS),
    )


def log(a: Interval) -> Interval:
    if a.lo <= 0.0:
        raise DomainError(f"log of interval with nonpositive bound: [{a.lo}, {a.hi}]")
    return Interval(
        rd.down_steps(math.log(a.lo), rd.LIBM_STEPS),
        rd.up_steps(math.log(a.hi), rd.LIBM_STEPS),
    )


def _contains_angle(a: Interval, base: float) -> bool:
    """Does [lo, hi] contain an angle congruent to `base` mod 2*pi?

    Over-inclusive under rounding (widening the trig range is sound).
    """
    if a.width >= _TWO_PI_LO:
        return True
    k = math.floor((a.lo - base) / (2.0 * _PI))
    for kk in (k, k + 1, k + 2):
        cand = base + 2.0 * _PI * kk
        slop = 4.0 * rd.ulp(abs(cand) + abs(a.hi) + 1.0)
        if a.lo - slop <= cand <= a.hi + slop:
            return True
    return False


def _trig(a: Interval, fn, max_base: float, min_base: float) -> Interval:
    lo_v, hi_v = fn(a.lo), fn(a.hi)
    lo = min(lo_v, hi_v)
    hi = max(lo_v, hi_v)
    lo = max(-1.0, rd.down_steps(lo, rd.LIBM_STEPS))
    hi = min(1.0, rd.up_steps(hi, rd.LIBM_STEPS))
    if _contains_angle(a, max_base):
        hi = 1.0
    if _contains_angle(a, min_base):
        lo = -1.0
    return Interval(lo, hi)


def sin(a: Interval) -> Interval:
    return _trig(a, math.sin, _HALF_PI, -_HALF_PI)


def cos(a: Interval) -> Interval:
    return _trig(a, math.cos, 0.0, _PI)
