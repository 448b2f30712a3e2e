"""Interval arithmetic soundness: sampled points of exact operations must
land inside the outward-rounded result, and the trig ranges are checked
against mpmath's correctly rounded interval functions."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyflow import interval as iv
from hyflow.errors import DomainError
from hyflow.interval import Interval

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def ivs(lo, w):
    return Interval(lo, lo + abs(w))


@st.composite
def intervals(draw, min_value=-1e6, max_value=1e6):
    a = draw(st.floats(min_value=min_value, max_value=max_value))
    b = draw(st.floats(min_value=min_value, max_value=max_value))
    return Interval(min(a, b), max(a, b))


def sample(box, rng, n=20):
    out = [box.lo, box.hi, box.mid]
    for _ in range(n):
        out.append(rng.uniform(box.lo, box.hi))
    return out


@given(intervals(), intervals())
def test_add_sub_mul_sound(a, b):
    rng = random.Random(0)
    s, d, p = iv.add(a, b), iv.sub(a, b), iv.mul(a, b)
    for x in sample(a, rng, 5):
        for y in sample(b, rng, 5):
            assert s.contains(x + y)
            assert d.contains(x - y)
            assert p.contains(x * y)


@given(intervals(min_value=0.1, max_value=1e3), intervals(min_value=-1e3, max_value=1e3))
def test_div_sound(b, a):
    rng = random.Random(1)
    q = iv.div(a, b)
    for x in sample(a, rng, 5):
        for y in sample(b, rng, 5):
            assert q.contains(x / y)


def test_div_by_zero_interval():
    with pytest.raises(DomainError):
        iv.div(Interval(1.0, 2.0), Interval(-1.0, 1.0))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, -1, -2])
def test_pow_int_sound(n):
    rng = random.Random(2)
    for _ in range(50):
        lo = rng.uniform(-3, 3)
        hi = lo + rng.uniform(0, 2)
        box = Interval(lo, hi)
        if n < 0 and box.lo <= 0.0 <= box.hi:
            with pytest.raises(DomainError):
                iv.pow_int(box, n)
            continue
        r = iv.pow_int(box, n)
        for x in sample(box, rng, 10):
            assert r.contains(x**n)


@settings(max_examples=200)
@given(intervals(min_value=-50, max_value=50))
def test_trig_sound_vs_mpmath(a):
    ours_sin = iv.sin(a)
    ours_cos = iv.cos(a)
    tight_sin = mpmath.iv.sin(mpmath.iv.mpf([a.lo, a.hi]))
    tight_cos = mpmath.iv.cos(mpmath.iv.mpf([a.lo, a.hi]))
    assert ours_sin.lo <= float(mpmath.mpf(tight_sin.a)) + 1e-15
    assert ours_sin.hi >= float(mpmath.mpf(tight_sin.b)) - 1e-15
    assert ours_cos.lo <= float(mpmath.mpf(tight_cos.a)) + 1e-15
    assert ours_cos.hi >= float(mpmath.mpf(tight_cos.b)) - 1e-15


def test_trig_peaks():
    assert iv.sin(Interval(1.0, 2.0)).hi == 1.0  # contains pi/2
    assert iv.sin(Interval(4.0, 5.0)).lo == -1.0  # contains 3*pi/2
    assert iv.cos(Interval(-0.5, 0.5)).hi == 1.0
    assert iv.cos(Interval(3.0, 3.3)).lo == -1.0
    wide = iv.sin(Interval(0.0, 10.0))
    assert wide.lo == -1.0 and wide.hi == 1.0


def test_exp_log_sqrt_sound():
    rng = random.Random(3)
    for _ in range(100):
        lo = rng.uniform(0.01, 5)
        box = Interval(lo, lo + rng.uniform(0, 3))
        e, l, s = iv.exp(box), iv.log(box), iv.sqrt(box)
        for x in sample(box, rng, 10):
            assert e.contains(math.exp(x))
            assert l.contains(math.log(x))
            assert s.contains(math.sqrt(x))


def test_domain_errors():
    with pytest.raises(DomainError):
        iv.sqrt(Interval(-1.0, 1.0))
    with pytest.raises(DomainError):
        iv.log(Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        Interval(math.inf, math.inf)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)


def test_mid_width_mag():
    b = Interval(-1.0, 3.0)
    assert b.mid == 1.0
    assert b.width >= 4.0
    assert b.mag == 3.0
