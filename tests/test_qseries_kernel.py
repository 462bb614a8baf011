"""Property tests of the q-series kernel.

``QSeries`` stores R[q]/(q^(D+1)) in the class format of ``ring`` and
multiplies by the class product with span D + 1.  Equal values are equal and
hash equal, and the errors are those of the dict-of-scalars series it
replaced.  Its operations were first compared with that series, whose name
the tests keep; they now hold random exact values to the reference model
(``against_model``), with the inputs that pinned its rules as examples.  In
those, a term at lam^-3 lies below the floor of 2: the engine's copy drops
it and flags its degree.  A product must not depend on the order of its
factors, in sums of several pairs as alone.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qlefschetz import DescriptorMismatchError, LambdaScalar, QSeries, RingDescriptor, UnitError

import model
from against_model import RATIONALS, inputs, linear_sound, product_flags, q_series, qseries, read
from against_model import scalar, scalars, sound, tails
from test_class_kernel import DESC, FLAGS, TERMS, assert_canonical, lam
from test_scalar_kernel import both_ways, products

DEGREES = st.integers(0, 4)
COEFFS = st.one_of(st.just({}), TERMS, TERMS)


@st.composite
def series(draw, D, low=0):
    """Coefficients at degrees low .. D + 1; the one past D is dropped."""
    degrees = draw(st.sets(st.integers(low, D + 1), max_size=D + 2))
    return QSeries(DESC, D, {d: LambdaScalar(DESC, draw(COEFFS), draw(FLAGS)) for d in degrees})


def family(*lows):
    """Series over one common D, one per entry of lows (their lowest degree)."""
    return DEGREES.flatmap(lambda D: st.tuples(*(series(D, low) for low in lows)))


D = 3
# Flagged degrees: terms below the floor and past the log cap.
F = {(0, -2, 0): 1, (0, 1, 1): Fraction(1, 2), (1, 0, 0): 3, (2, -3, 0): 1, (3, -1, 2): 1}
G = {(0, -1, 0): 1, (1, -3, 0): 2, (1, 1, 0): Fraction(-2, 3), (3, 0, 1): 1}
TAIL = {(1, -1, 0): 1, (1, -3, 0): 1, (2, 0, 1): Fraction(1, 3), (3, -2, 0): 2}
CLEAN_TAIL = {(1, -1, 0): 2, (2, 0, 0): Fraction(1, 3), (3, 1, 1): 1}


@given(inputs(q_series, q_series), st.one_of(st.integers(-5, 5), RATIONALS))
@example((DESC, D, [F, G]), Fraction(-2, 5))
def test_linear_operations_match_the_dict_series(case, value):
    desc, D, (f, g) = case
    a, b = qseries(desc, D, f), qseries(desc, D, g)
    linear_sound(a + b, lambda m, x, y: model.plus(x, y), f, g, desc=desc)
    linear_sound(a - b, lambda m, x, y: model.plus(x, model.scaled(y, -1)), f, g, desc=desc)
    linear_sound(-a, lambda m, x: model.scaled(x, -1), f, desc=desc)
    for got in (a.scale(value), a * value, value * a):
        linear_sound(got, lambda m, x: model.scaled(x, value), f, desc=desc)
    # The readers: valuation on the stored terms, and no flag outside 0 .. D.
    low = model.Model(desc.lambda_floor, desc.log_cap)
    kept = low.cut(f)
    assert a.max_degree == D
    assert [a.valuation_at_least(v) for v in range(D + 2)] == [
        all(key[0] >= v for key in kept) for v in range(D + 2)]
    for d in (-1, D + 1):
        assert a.coefficient(d).is_zero() and not a.coefficient(d).truncated
    assert a.is_zero() == (not kept)


@given(inputs(q_series, q_series, scalars))
@example((DESC, D, [F, G, {(-1, 0): 1}]))
# Degree 0 collects lam^-2 * lam^-1, which drops below the floor: a flagged zero.
@example((DESC, D, [{(0, -2, 0): 1, (1, 0, 0): 1}, {(0, -1, 0): 1}, {(-3, 0): 1}]))
@example((RingDescriptor(3, 2, 1), 2, [{(0, -2, 0): 1, (1, 0, 0): 1}, {(0, -1, 0): 1}, {(-1, 0): 1}]))
def test_products_match_the_dict_series(case):
    desc, D, (f, g, s) = case
    a = qseries(desc, D, f)
    got = a * qseries(desc, D, g)
    sound(got, lambda m, x, y: m.times(x, y, (D + 1,)), f, g, desc=desc)
    flagged = {d for d in range(D + 1) if got.coefficient(d).truncated}
    assert flagged == product_flags(f, g, desc, D + 1)
    for got in (a * scalar(desc, s), scalar(desc, s) * a):
        sound(got, lambda m, x, y: m.times(x, model.at(y, 0), (D + 1,)), f, s, desc=desc)


@given(inputs(q_series, q_series, q_series, q_series, scalars, scalars))
@example((DESC, D, [F, G, TAIL, CLEAN_TAIL, {(-3, 0): 1}, {(0, 0): Fraction(1, 3)}]))
def test_products_do_not_depend_on_the_order_of_their_factors(case):
    desc, D, values = case
    x, y, u, v = (qseries(desc, D, t) for t in values[:4])
    s, t = (scalar(desc, t) for t in values[4:])
    sound(both_ways([(x, y), (u, v)]), products((D + 1,)), *values[:4], desc=desc)
    # A q-series times a scalar: the series comes first in a sum, on either side in a product.
    sound(both_ways([(x, s), (u, t)], swap=False),
          lambda m, a, b, c, d: products((D + 1,))(m, a, model.at(b, 0), c, model.at(d, 0)),
          values[0], values[4], values[2], values[5], desc=desc)


@given(inputs(tails), st.fractions(-3, 3, max_denominator=4).filter(bool))
@example((DESC, D, [TAIL]), Fraction(-3, 2))
@example((DESC, D, [CLEAN_TAIL]), Fraction(-3, 2))
def test_exp_and_invert_match_the_dict_series(case, lead):
    desc, D, (tail,) = case
    sound(qseries(desc, D, tail).exp(), lambda m, x: m.q_exp(x, D), tail, desc=desc)
    unit = {**tail, (0, 0, 0): lead}
    sound(qseries(desc, D, unit).invert(), lambda m, x: m.q_invert(x, D), unit, desc=desc)


@given(inputs(q_series, tails))
@example((DESC, D, [F, TAIL]))
@example((DESC, D, [G, CLEAN_TAIL]))
@example((DESC, D, [F, {(1, -2, 0): 1}]))
def test_compose_matches_the_dict_series(case):
    desc, D, (f, inner) = case
    sound(qseries(desc, D, f).compose(qseries(desc, D, inner)),
          lambda m, x, y: m.q_compose(x, y, D), f, inner, desc=desc)


def test_compose_flags_a_coefficient_the_dict_series_reports_exact():
    # inner^2 = lam^-4 q^2 + ...: its q^2 term drops below the floor, so the
    # q^2 coefficient of f(inner) is not exact.
    f = QSeries(DESC, 3, {1: lam(0), 2: lam(0)})
    inner = QSeries(DESC, 3, {1: lam(-2), 2: lam(0)})
    got = f.compose(inner).coefficient(2)
    assert got == LambdaScalar.one(DESC) and got.truncated


@given(family(0, 0, 0))
def test_equal_values_are_equal_and_hash_equal(x):
    a, b, c = x
    D = a.max_degree
    built = a * b + c
    routes = [
        c + b * a,
        (built - a) + a,
        built.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
        QSeries(DESC, D, built.coeffs),
    ]
    for other in routes:
        assert_canonical(other)
        assert other == built
        assert hash(other) == hash(built)
    assert (a == b) == (read(a)[0] == read(b)[0])
    assert (a - a).is_zero() and a - a == QSeries.zero(DESC, D)
    # The same stored terms in a ring truncated one degree higher.
    longer = QSeries(DESC, D + 1, built.coeffs)
    assert longer != built and not longer == built
    assert longer.to_json_dict() == built.to_json_dict()


def test_errors_match_the_dict_series():
    other = RingDescriptor(n=3, lambda_floor=1, log_cap=1)
    for kind in (QSeries,):
        f = kind(DESC, 2, {0: lam(1), 1: lam(0)})
        with pytest.raises(ValueError):
            kind(DESC, 2, {-1: lam(0)})
        with pytest.raises(ValueError):
            kind(DESC, -1)
        with pytest.raises(ValueError):
            f + kind(DESC, 3)
        with pytest.raises(DescriptorMismatchError):
            f * kind(other, 2)
        with pytest.raises(DescriptorMismatchError):
            f * LambdaScalar.one(other)
        with pytest.raises(ValueError):
            f.exp()
        with pytest.raises(UnitError):
            f.invert()
        with pytest.raises(ValueError):
            f.compose(f)
