"""Affine-form core: worked examples plus the sampled range-soundness,
cancellation, hull-containment and condense properties."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyflow import affine as af
from hyflow.affine import AffineForm, NoiseAllocator, Rel
from hyflow.errors import DomainError
from hyflow.interval import Interval
from hyflow.trivalent import Trivalent


def make_form(center, devs, slack=0.0):
    return AffineForm(center, dict(enumerate(devs)) if devs else None, slack)


def rand_valuation(rng, ids):
    return {i: rng.uniform(-1, 1) for i in ids}


def check_contains(result, value, tol=1e-9):
    box = af.to_interval(result)
    assert box.lo - tol <= value <= box.hi + tol, (box, value)


# ---------------------------------------------------------------- examples


def test_from_interval_examples():
    alloc = NoiseAllocator()
    x = af.from_interval(Interval(1.0, 3.0), alloc)
    assert x.center == 2.0
    assert list(x.dev.values()) == [1.0]

    y = af.from_interval(Interval(5.0, 5.0), alloc)
    assert y.center == 5.0 and not y.dev

    z = af.from_interval(Interval(0.0, 1.0), alloc)
    assert z.center == 0.5
    assert list(z.dev.values()) == [0.5]
    box = af.to_interval(z)
    assert box.lo <= 0.0 and box.hi >= 1.0


def test_from_interval_rejects_nonfinite():
    with pytest.raises(DomainError):
        Interval(float("nan"), 1.0)


def test_combine_cancellation():
    alloc = NoiseAllocator()
    x = af.from_interval(Interval(0.0, 1.0), alloc)
    d = x - x
    box = af.to_interval(d)
    assert box.width <= 4.0 * x.slack + 1e-12
    assert box.contains(0.0)


def test_combine_scale_and_shift():
    x = make_form(2.0, [1.0])
    r = af.combine(2.0, x, 0.0, af.ZERO, 1.0)
    assert r.center == 5.0
    assert list(r.dev.values()) == [2.0]


def test_combine_independent_symbols():
    a = AffineForm(1.0, {1: 1.0})
    b = AffineForm(1.0, {2: 1.0})
    s = a + b
    assert s.center == 2.0
    assert s.dev == {1: 1.0, 2: 1.0}


def test_mul_square_example():
    alloc = NoiseAllocator(10)
    x = make_form(0.5, [0.5])
    sq = af.mul(x, x, alloc)
    assert sq.center == 0.25
    assert sq.dev[0] == 0.5
    fresh = [v for k, v in sq.dev.items() if k >= 10]
    assert len(fresh) == 1 and 0.25 <= fresh[0] <= 0.25 + 1e-15
    box = af.to_interval(sq)
    assert abs(box.lo - (-0.5)) < 1e-12 and abs(box.hi - 1.0) < 1e-12


def test_mul_annihilator_and_constant():
    alloc = NoiseAllocator(10)
    x = make_form(3.0, [1.0, -2.0])
    assert af.to_interval(af.mul(x, af.ZERO, alloc)).mag == 0.0
    r = af.mul(make_form(2.0, [1.0]), AffineForm(3.0), alloc)
    assert r.center == 6.0 and list(r.dev.values()) == [3.0]


def test_to_interval_examples():
    assert af.to_interval(make_form(2.0, [1.0])).lo <= 1.0
    box = af.to_interval(AffineForm(0.25, {0: 0.5, 1: 0.25}))
    assert box.lo <= -0.5 and box.hi >= 1.0
    assert af.to_interval(AffineForm(5.0)) == Interval(5.0, 5.0)


def test_hull_examples():
    alloc = NoiseAllocator(10)
    x = make_form(1.0, [1.0])
    h = af.hull(x, x, alloc)
    bx, bh = af.to_interval(x), af.to_interval(h)
    assert bh.lo <= bx.lo and bh.hi >= bx.hi
    assert bh.width <= bx.width + 1e-12

    h2 = af.hull(AffineForm(0.0), AffineForm(2.0), alloc)
    b2 = af.to_interval(h2)
    assert b2.lo <= 0.0 and b2.hi >= 2.0

    a = AffineForm(1.0, {0: 1.0})
    b = AffineForm(3.0, {0: 1.0})
    b3 = af.to_interval(af.hull(a, b, alloc))
    assert b3.lo <= 0.0 and b3.hi >= 4.0
    # the shared symbol survives the join
    assert 0 in af.hull(a, b, alloc).dev


def test_compare_examples():
    assert af.compare(make_form(-1.5, [0.5]), Rel.LE) is Trivalent.TRUE
    assert af.compare(make_form(0.0, [1.0]), Rel.LE) is Trivalent.UNKNOWN
    assert af.compare(make_form(1.5, [0.5]), Rel.LE) is Trivalent.FALSE
    assert af.compare(AffineForm(0.0), Rel.LE) is Trivalent.TRUE
    assert af.compare(AffineForm(0.0), Rel.LT) is Trivalent.FALSE
    assert af.compare(AffineForm(0.0), Rel.GE) is Trivalent.TRUE


def test_condense_examples():
    alloc = NoiseAllocator(10)
    x = AffineForm(1.0, {0: 1.0, 1: 1.0, 2: 1.0})
    c = af.condense(x, 1, alloc)
    assert len(c.dev) == 1
    assert list(c.dev.values())[0] >= 3.0
    box = af.to_interval(c)
    assert box.lo <= -2.0 and box.hi >= 4.0

    same = af.condense(x, 3, alloc)
    assert same.dev == x.dev
    assert af.condense(AffineForm(5.0), 1, alloc).dev == {}


def test_nonlinear_examples():
    alloc = NoiseAllocator()
    zero = AffineForm(0.0)
    s = af.nonlinear_unary("sin", zero, alloc)
    assert abs(s.center) < 1e-300 and af.to_interval(s).width < 1e-300

    x = af.from_interval(Interval(0.0, 0.1), alloc)
    e = af.nonlinear_unary("exp", x, alloc)
    box = af.to_interval(e)
    assert box.lo <= 1.0 and box.hi >= math.exp(0.1)

    with pytest.raises(DomainError):
        af.nonlinear_unary("sqrt", af.from_interval(Interval(-1.0, 1.0), alloc), alloc)


def test_division():
    alloc = NoiseAllocator()
    x = af.from_interval(Interval(1.0, 2.0), alloc)
    y = af.from_interval(Interval(2.0, 4.0), alloc)
    q = af.div(x, y, alloc)
    box = af.to_interval(q)
    assert box.lo <= 0.25 and box.hi >= 1.0
    with pytest.raises(DomainError):
        af.div(x, af.from_interval(Interval(-1.0, 1.0), alloc), alloc)


# ---------------------------------------------------------- property tests


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-100, 100), st.floats(-100, 100),
    st.lists(st.floats(-10, 10), max_size=4),
    st.lists(st.floats(-10, 10), max_size=4),
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
    st.integers(0, 10_000),
)
def test_combine_range_soundness(cx, cy, dx, dy, a, b, c, seed):
    x = make_form(cx, dx)
    y = make_form(cy, dy)
    r = af.combine(a, x, b, y, c)
    rng = random.Random(seed)
    ids = set(x.dev) | set(y.dev)
    for _ in range(20):
        v = rand_valuation(rng, ids)
        val = a * af.sample(x, v) + b * af.sample(y, v) + c
        check_contains(r, val, tol=1e-6)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-20, 20), st.floats(-20, 20),
    st.lists(st.floats(-5, 5), max_size=3),
    st.lists(st.floats(-5, 5), max_size=3),
    st.integers(0, 10_000),
)
def test_mul_range_soundness(cx, cy, dx, dy, seed):
    x = make_form(cx, dx)
    y = make_form(cy, dy)
    alloc = NoiseAllocator(100)
    r = af.mul(x, y, alloc)
    rng = random.Random(seed)
    ids = set(x.dev) | set(y.dev)
    for _ in range(20):
        v = rand_valuation(rng, ids)
        val = af.sample(x, v) * af.sample(y, v)
        check_contains(r, val, tol=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["sin", "cos", "exp", "sqrt", "log", "recip", "abs", "neg"]),
    st.floats(-5, 5),
    st.lists(st.floats(-2, 2), min_size=0, max_size=3),
    st.integers(0, 10_000),
)
@example("recip", 5e-324, [], 0)
def test_unary_range_soundness(name, cx, dx, seed):
    x = make_form(cx, dx)
    box = af.to_interval(x)
    alloc = NoiseAllocator(100)
    fns = {
        "sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt,
        "log": math.log, "recip": lambda t: 1.0 / t, "abs": abs, "neg": lambda t: -t,
    }
    try:
        r = af.nonlinear_unary(name, x, alloc)
    except DomainError:
        assert (
            (name == "sqrt" and box.lo < 0)
            or (name == "log" and box.lo <= 0)
            or (name == "recip" and box.lo <= 0 <= box.hi)
            or (name == "recip"
                and not math.isfinite(1.0 / min(abs(box.lo), abs(box.hi))))
            or (name == "exp" and box.hi > 700)
        )
        return
    rng = random.Random(seed)
    for _ in range(20):
        v = rand_valuation(rng, set(x.dev))
        xv = min(max(af.sample(x, v), box.lo), box.hi)
        if name == "sqrt":
            xv = max(xv, 0.0)
        val = fns[name](xv)
        check_contains(r, val, tol=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-20, 20), st.floats(-20, 20),
    st.lists(st.floats(-5, 5), max_size=3),
    st.lists(st.floats(-5, 5), max_size=3),
)
def test_hull_containment_property(cx, cy, dx, dy):
    x = make_form(cx, dx)
    y = make_form(cy, dy)
    h = af.hull(x, y, NoiseAllocator(100))
    bh = af.to_interval(h)
    for form in (x, y):
        b = af.to_interval(form)
        assert bh.lo <= b.lo + 1e-12 and bh.hi >= b.hi - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(-20, 20), st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.integers(1, 8))
def test_condense_never_shrinks(cx, dx, budget):
    x = make_form(cx, dx)
    c = af.condense(x, budget, NoiseAllocator(100))
    assert len(c.dev) <= budget
    bx, bc = af.to_interval(x), af.to_interval(c)
    assert bc.lo <= bx.lo + 1e-12 and bc.hi >= bx.hi - 1e-12


def test_hull_pointwise_soundness_shared_symbols():
    # Joining forms that share symbols must stay sound for every valuation
    # of the shared part; exercised with third forms correlated to both.
    rng = random.Random(7)
    for _ in range(200):
        ids = [0, 1, 2]
        x = AffineForm(rng.uniform(-5, 5), {i: rng.uniform(-2, 2) for i in ids})
        y = AffineForm(rng.uniform(-5, 5), {i: rng.uniform(-2, 2) for i in ids})
        h = af.hull(x, y, NoiseAllocator(100))
        for _ in range(20):
            v = rand_valuation(rng, ids)
            lo, hi = af.to_interval(h).lo, af.to_interval(h).hi
            # every concrete point of either operand is reachable in the hull
            for form in (x, y):
                val = af.sample(form, v)
                assert lo - 1e-9 <= val <= hi + 1e-9


def test_compare_trivalent_soundness_sampled():
    rng = random.Random(11)
    for _ in range(300):
        x = AffineForm(rng.uniform(-2, 2), {0: rng.uniform(-1, 1), 1: rng.uniform(-1, 1)})
        rel = rng.choice(list(Rel))
        verdict = af.compare(x, rel)
        op = {Rel.LT: lambda t: t < 0, Rel.LE: lambda t: t <= 0,
              Rel.GT: lambda t: t > 0, Rel.GE: lambda t: t >= 0}[rel]
        for _ in range(30):
            v = rand_valuation(rng, [0, 1])
            truth = op(af.sample(x, v))
            if verdict is Trivalent.TRUE:
                assert truth
            elif verdict is Trivalent.FALSE:
                assert not truth


def test_allocator_fork():
    alloc = NoiseAllocator()
    alloc.fresh(), alloc.fresh()
    child = alloc.fork()
    assert child.fresh() == alloc.fresh()
