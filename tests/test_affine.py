"""Affine-form core: worked examples plus the sampled range-soundness,
cancellation, hull-containment, joint order reduction and scaled-sum
properties."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyflow import affine as af
from hyflow import expr as ex
from hyflow.affine import AffineForm, NoiseAllocator, Rel
from hyflow.errors import DomainError
from hyflow.integrator import env_condense
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
    r = af.add_const(x * 2.0, 1.0)
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
    # the range bounds |f''| for exp, so an overflowing range is an error
    with pytest.raises(DomainError):
        af.nonlinear_unary("exp", af.from_interval(Interval(700.0, 710.0), alloc), alloc)


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
    r = af.add_const(x * a + y * b, c)
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
    # abs and neg are exact piecewise-linear forms, not Taylor models
    forms = {"abs": af._abs_form, "neg": lambda form, _alloc: af.neg(form)}
    try:
        r = forms.get(name, partial(af.nonlinear_unary, name))(x, alloc)
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


@st.composite
def forms_sharing_symbols(draw):
    """2-3 forms over symbols 0..2, each read by any of them, plus up to 5
    symbols of their own each."""
    coef = st.floats(-2, 2).filter(lambda c: abs(c) > 1e-3)
    forms, fresh = {}, 3
    for k in range(draw(st.integers(2, 3))):
        dev = {i: draw(coef) for i in range(3) if draw(st.booleans())}
        for _ in range(draw(st.integers(0, 5))):
            dev[fresh] = draw(coef)
            fresh += 1
        forms[f"x{k}"] = AffineForm(draw(st.floats(-3, 3)), dev,
                                    draw(st.sampled_from([0.0, 1e-3])))
    return forms


@st.composite
def sum_product_sin_dags(draw, names):
    """Two roots of a random DAG of sums, products and sin over `names`."""
    nodes = [ex.var(v) for v in names]
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(["add", "mul", "sin"]))
        a = draw(st.sampled_from(nodes))
        if op == "sin":
            nodes.append(ex.sin(a))
        else:
            b = draw(st.sampled_from(nodes))
            nodes.append(ex.add(a, b) if op == "add" else ex.mul(a, b))
    return nodes[-2:]


def test_env_condense_examples():
    # symbol 0 costs |1| + |2| - 2 = 1 to box, symbol 1 costs 0.5; 2 and 3
    # are x's own
    env = {"x": AffineForm(1.0, {0: 1.0, 1: 3.0, 2: 0.25, 3: 0.25}, 1e-3),
           "y": AffineForm(0.0, {0: 2.0, 1: -0.5}),
           "z": AffineForm(5.0)}
    out = env_condense(env, 1, NoiseAllocator(10))
    assert out["x"].dev.keys() == {0, 10} and out["x"].dev[0] == 1.0
    assert out["x"].dev[10] >= 3.5 and out["x"].slack == 1e-3
    assert out["y"].dev.keys() == {0, 11} and out["y"].dev[11] >= 0.5
    assert out["z"] is env["z"]
    # within the budget only x's private symbols merge
    out = env_condense(env, 2, NoiseAllocator(10))
    assert out["x"].dev.keys() == {0, 1, 10} and out["x"].dev[10] >= 0.5
    assert out["y"] is env["y"]
    # a lone private symbol is left as it is
    one = {"x": AffineForm(0.0, {0: 1.0, 1: 1.0}), "y": AffineForm(0.0, {0: 1.0})}
    assert env_condense(one, 1, NoiseAllocator(10)) == one


def readers_of(forms):
    """symbol -> the number of forms of `forms` that read it"""
    readers: dict = {}
    for f in forms.values():
        for i in f.dev:
            readers[i] = readers.get(i, 0) + 1
    return readers


@settings(max_examples=200, deadline=None)
@given(forms_sharing_symbols(), st.integers(0, 4))
def test_env_condense_keeps_the_costliest_shared_symbols(forms, budget):
    out = env_condense(forms, budget, NoiseAllocator(1000))
    readers = readers_of(forms)
    shared = {i for i, n in readers.items() if n > 1}
    kept = {i for i, n in readers_of(out).items() if n > 1}
    assert len(kept) <= budget and kept <= shared
    for k, f in forms.items():
        g = out[k]
        fresh = set(g.dev) - set(f.dev)
        assert len(fresh) <= 1
        assert {i: c for i, c in g.dev.items() if i not in fresh} == {
            i: c for i, c in f.dev.items() if i in g.dev}
        assert (g.center, g.slack) == (f.center, f.slack)
    cost = {i: sum(abs(f.dev.get(i, 0.0)) for f in forms.values())
            - max(abs(f.dev.get(i, 0.0)) for f in forms.values())
            for i in shared}
    if kept != shared:
        assert len(kept) == budget
        assert min((cost[i] for i in kept), default=math.inf) >= max(
            cost[i] for i in shared - kept)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 10_000))
def test_env_condense_is_exact_at_the_merged_value(data, seed):
    forms = data.draw(forms_sharing_symbols())
    budget = data.draw(st.integers(0, 4))
    alloc = NoiseAllocator(1000)
    out = env_condense(forms, budget, alloc)
    merged = {}  # fresh symbol -> (its coefficient, the ones it replaced)
    for k, f in forms.items():
        for s in set(out[k].dev) - set(f.dev):
            assert s not in merged  # read by one form alone
            merged[s] = (out[k].dev[s], {i: c for i, c in f.dev.items()
                                         if i not in out[k].dev})
    # at one valuation of the original symbols, every reduced form takes
    # its original value with each merged symbol at sum(c_j eps_j)/C
    readers = readers_of(forms)
    rng = random.Random(seed)
    for _ in range(20):
        v = rand_valuation(rng, readers)
        joint = dict(v)
        for s, (c, replaced) in merged.items():
            joint[s] = sum(cj * v[j] for j, cj in replaced.items()) / c
            assert abs(joint[s]) <= 1.0
        for k, f in forms.items():
            pos = rng.uniform(-1, 1)
            assert math.isclose(af.sample(out[k], joint, pos),
                                af.sample(f, v, pos),
                                rel_tol=1e-12, abs_tol=1e-12)
    if budget < 3:
        return
    # the forms share at most 3 symbols, so only private ones merged, and
    # that loses nothing: an evaluation over the reduced set is as wide
    roots = data.draw(sum_product_sin_dags(list(forms)))
    got = ex.eval_affine_many(roots, out, alloc)
    ref = ex.eval_affine_many(roots, forms, NoiseAllocator(1000))
    for r, r_ref in zip(got, ref):
        b, b_ref = af.to_interval(r), af.to_interval(r_ref)
        tol = 1e-12 * b_ref.mag + 1e-300  # subnormal rounding terms
        assert abs(b.lo - b_ref.lo) <= tol and abs(b.hi - b_ref.hi) <= tol


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300).filter(lambda c: abs(c) >= 1e-300),
                min_size=2, max_size=40))
@example([1.0] + [2.0 ** -53] * 40)  # every float addition rounds down
@example([1.7e-300, 5e-300, -3e-299, 1.1e-300])
def test_env_condense_bound_covers_the_exact_sum(coefs):
    form = AffineForm(0.0, dict(enumerate(coefs)))
    out = env_condense({"x": form}, 0, NoiseAllocator(100))
    [(s, c)] = out["x"].dev.items()
    assert s == 100
    assert Fraction(c) >= sum(Fraction(abs(v)) for v in coefs)


def exact_at(x, val, slack_pos=0):
    """x's value in exact rationals at a noise valuation and a position of
    its slack."""
    return (Fraction(x.center) + Fraction(x.slack) * slack_pos
            + sum(Fraction(c) * val[i] for i, c in x.dev.items()))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_add_scaled_many_encloses_the_exact_combination(seed):
    # base + sum(s * x) as one lin call, base a unit term: each s at lo,
    # mid or hi of its interval, evaluated exactly at one valuation, lies
    # within the result's center plus its deviations at that valuation,
    # plus or minus its slack
    rng = random.Random(seed)

    def coef():
        return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-6, 2)

    def dev(ids):
        return {i: coef() for i in ids}

    shared = [i for i in range(4) if rng.random() < 0.7]  # read by several
    base = AffineForm(coef(), {**dev(shared), 9: 0.75},
                      rng.choice((0.0, abs(coef()))))
    terms = []
    for j in range(rng.randint(1, 4)):
        ids = [i for i in range(4) if rng.random() < 0.6]
        ids += [10 * (j + 1) + k for k in range(rng.randint(0, 3))]
        lo = coef()
        hi = lo + abs(coef()) * rng.choice((0.0, 1e-15, 1.0))
        x = AffineForm(coef(), dev(ids), rng.choice((0.0, abs(coef()))))
        terms.append((lo, hi, x))
    # a term that cancels base's coefficient on symbol 9 to exactly 0
    terms.append((-0.5, -0.5, AffineForm(coef(), {9: 1.5}, 0.0)))
    r = af.lin(0.0, ((1.0, 1.0, base), *terms))
    assert 9 not in r.dev

    # the same floats as scaling each term by its midpoint and adding it
    center, ref = base.center, dict(base.dev)
    for lo, hi, x in terms:
        m = 0.5 * (lo + hi)
        center += m * x.center
        for i, c in x.dev.items():
            ref[i] = ref.get(i, 0.0) + m * c
    assert r.center == center
    assert r.dev == {i: c for i, c in ref.items() if c != 0.0}

    ids = set(base.dev).union(*(x.dev for _, _, x in terms))
    for trial in range(12):
        if trial < 4:
            val = {i: Fraction(rng.choice((-1, 1))) for i in ids}
        else:
            val = {i: Fraction(rng.uniform(-1.0, 1.0)) for i in ids}

        def pos():
            return Fraction(rng.choice((-1.0, 1.0, rng.uniform(-1.0, 1.0))))

        exact = exact_at(base, val, pos())
        for lo, hi, x in terms:
            s = rng.choice((Fraction(lo), (Fraction(lo) + Fraction(hi)) / 2,
                            Fraction(hi)))
            exact += s * exact_at(x, val, pos())
        assert abs(exact - exact_at(r, val)) <= Fraction(r.slack)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000))
def test_lin_encloses_the_exact_combination(seed):
    # const + sum(s * x) over triples (lo, hi, x), each s at lo, mid or hi
    # of its interval, evaluated exactly at one valuation with each slack
    # at some position, lies within the result's center plus its
    # deviations there, plus or minus its slack; point, interval, unit and
    # zero scalars, repeated forms and exact cancellation included
    rng = random.Random(seed)

    def coef():
        return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-6, 2)

    def scalar():
        kind = rng.choice(("point", "interval", "unit", "zero"))
        if kind == "point":
            c = rng.choice((0.5, coef()))
            return c, c
        if kind == "unit":
            c = rng.choice((1.0, -1.0))
            return c, c
        if kind == "zero":  # the point 0, or an interval of midpoint 0
            c = rng.choice((0.0, abs(coef())))
            return -c, c
        lo = coef()
        return lo, lo + abs(coef()) * rng.choice((1e-15, 1.0))

    terms = []
    for j in range(rng.randint(1, 5)):
        ids = [i for i in range(4) if rng.random() < 0.6]
        ids += [10 * (j + 1) + k for k in range(rng.randint(0, 3))]
        x = AffineForm(coef(), {i: coef() for i in ids},
                       rng.choice((0.0, abs(coef()))))
        terms.append((*scalar(), x))
    if rng.random() < 0.5:
        terms.append((*scalar(), terms[0][2]))
    # a pair that cancels symbol 9 to exactly 0
    terms += [(1.0, 1.0, AffineForm(0.0, {9: 0.75})),
              (-0.5, -0.5, AffineForm(0.0, {9: 1.5}))]
    const = rng.choice((0.0, coef()))
    r = af.lin(const, terms)
    assert 9 not in r.dev
    ids = set().union(*(x.dev for _, _, x in terms))
    assert set(r.dev) <= ids  # no fresh symbol

    # the same floats as scaling each term by its midpoint and adding it
    center, dev = const, {}
    for lo, hi, x in terms:
        m = 0.5 * (lo + hi)
        center += m * x.center
        for i, c in x.dev.items():
            dev[i] = dev.get(i, 0.0) + m * c
    assert r.center == center
    assert r.dev == {i: c for i, c in dev.items() if c != 0.0}

    for trial in range(12):
        if trial < 4:
            val = {i: Fraction(rng.choice((-1, 1))) for i in ids}
        else:
            val = {i: Fraction(rng.uniform(-1.0, 1.0)) for i in ids}
        exact = Fraction(const)
        for lo, hi, x in terms:
            s = rng.choice((Fraction(lo), (Fraction(lo) + Fraction(hi)) / 2,
                            Fraction(hi)))
            pos = Fraction(rng.choice((-1.0, 1.0, rng.uniform(-1.0, 1.0))))
            exact += s * exact_at(x, val, pos)
        assert abs(exact - exact_at(r, val)) <= Fraction(r.slack)


def test_lin_of_no_terms_is_its_constant():
    r = af.lin(0.5, ())
    assert (r.center, r.dev, r.slack) == (0.5, {}, 0.0)
    # a term whose scalar is the point 0 is skipped, so a product by an
    # exact zero stays exactly 0
    x = AffineForm(3.0, {1: 0.25}, 1e-3)
    r = af.lin(0.5, ((0.0, 0.0, x),))
    assert (r.center, r.dev, r.slack) == (0.5, {}, 0.0)
    r = af.mul(x, af.ZERO, NoiseAllocator())
    assert (r.center, r.dev, r.slack) == (0.0, {}, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_scale_interval_encloses_every_scaling(seed):
    # s * x for every s in [lo, hi], as a lin call of one term
    rng = random.Random(seed)
    x = AffineForm(rng.uniform(-5, 5), {i: rng.uniform(-1, 1) for i in range(3)},
                   rng.choice((0.0, 1e-3)))
    lo = rng.uniform(-2, 2)
    hi = rng.choice((lo, lo + rng.uniform(0, 1)))
    r = af.lin(0.0, ((lo, hi, x),))
    assert set(r.dev) <= set(x.dev)  # no fresh symbol
    for _ in range(12):
        val = {i: Fraction(rng.uniform(-1.0, 1.0)) for i in x.dev}
        s = Fraction(rng.choice((lo, hi, rng.uniform(lo, hi))))
        exact = s * exact_at(x, val, Fraction(rng.uniform(-1.0, 1.0)))
        assert abs(exact - exact_at(r, val)) <= Fraction(r.slack)
    if lo == hi:  # a point scalar is a plain scaling
        assert r.slack == (x * lo).slack


def test_unit_terms_and_point_scalings_charge_no_rounding():
    # a product by +-1 and a sum onto an exact zero cannot round
    x = AffineForm(3.0, {1: 0.25, 2: -0.5}, 1e-3)
    for r in (x * 1.0, af.lin(0.0, ((1.0, 1.0, x),))):
        assert (r.center, r.dev, r.slack) == (x.center, x.dev, x.slack)
    r = -1.0 * x
    assert (r.center, r.dev, r.slack) == (-3.0, {1: -0.25, 2: 0.5}, 1e-3)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000))
def test_mul_encloses_the_exact_product(seed):
    # x * y evaluated exactly at one valuation, each slack at some position,
    # lies within the product's center plus its deviations there, plus or
    # minus its slack and its fresh symbol's coefficient; deviations and
    # slacks far below the centers' rounding leave that room to the
    # rounding charges
    rng = random.Random(seed)

    def coef():
        return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-3, 2)

    def form():
        ids = [i for i in range(6) if rng.random() < 0.6]
        tiny = 10.0 ** rng.choice((-20, -10, 0))
        return AffineForm(coef(), {i: coef() * tiny for i in ids},
                          rng.choice((0.0, 1e-30, abs(coef()) * tiny)))

    x, y = form(), form()
    alloc = NoiseAllocator(100)
    r = af.mul(x, y, alloc)
    fresh = [c for i, c in r.dev.items() if i >= 100]
    assert len(fresh) <= 1
    room = Fraction(r.slack) + sum(map(Fraction, fresh))
    ids = set(x.dev) | set(y.dev)
    for trial in range(12):
        val = {i: Fraction(rng.choice((-1.0, 1.0, rng.uniform(-1.0, 1.0))))
               for i in ids}

        def pos():
            return Fraction(rng.choice((-1.0, 1.0, rng.uniform(-1.0, 1.0))))

        exact = exact_at(x, val, pos()) * exact_at(y, val, pos())
        val.update((i, Fraction(0)) for i in r.dev if i >= 100)
        assert abs(exact - exact_at(r, val)) <= room


def test_mul_by_a_form_without_symbols_draws_none():
    # D_x * D_y is exactly 0 when one operand's deviation sum is empty, so
    # the product needs no fresh symbol for it, slack or not
    rng = random.Random(3)
    x = AffineForm(0.7, {0: 0.25, 1: -0.5}, 1e-9)
    for y in (AffineForm(-2.0, None, 1e-3), AffineForm(1.5, None, 0.0)):
        for a, b in ((x, y), (y, x)):
            alloc = NoiseAllocator(100)
            r = af.mul(a, b, alloc)
            assert alloc.fresh() == 100 and set(r.dev) <= {0, 1}
            for _ in range(50):
                val = {i: rng.uniform(-1, 1) for i in x.dev}
                value = (af.sample(x, val, rng.uniform(-1, 1))
                         * af.sample(y, val, rng.uniform(-1, 1)))
                check_contains(r, value, tol=0.0)


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

