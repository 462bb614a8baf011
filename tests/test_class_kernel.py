"""Property tests of the flat class kernel against slot-by-slot scalar arithmetic.

``CohElement`` keeps one map {(p, lam_exp, log_exp): numerator} over one
denominator and one bitmask of truncated P-slots.  Its linear operations and
scalings are compared with the component-wise ``LambdaScalar`` arithmetic.
Keys are drawn on both sides of the Laurent floor and of the log cap, and
components may arrive truncated, zero or not, so every route through the
truncation rules is compared: values and per-slot ``truncated`` flags must
agree exactly.  The products of a class and a scalar, first compared with
the slot-by-slot products this kernel replaced, whose name the test keeps,
hold random exact values to the reference model (``against_model``); the
class product is held to it in ``test_scalar_kernel.py``, and
``compose_novikov`` in ``test_fused_products.py``, with the input that once
pinned it to a per-degree sum kept here.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, strategies as st

from qlefschetz import CohElement, LambdaScalar, RingDescriptor

import model
from against_model import classes as exact_classes, cls, inputs, qseries, scalar, sound, zseries
from against_model import scalars as exact_scalars

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)

KEYS = st.tuples(st.integers(-4, 3), st.integers(0, 2))
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
RATIONALS = st.one_of(st.integers(-5, 5), VALUES)
TERMS = st.dictionaries(KEYS, VALUES, max_size=3)
# Flags are rarer than not, so a flag that one rule should set is not always
# hidden by another (a truncated component flags each product slot it reaches).
FLAGS = st.integers(0, 3).map(lambda k: k == 0)


@st.composite
def scalars(draw):
    return LambdaScalar(DESC, draw(TERMS), draw(FLAGS))


def pair(*comps):
    """A class and the component list it was built from."""
    return CohElement(DESC, comps), list(comps)


@st.composite
def classes(draw):
    """A class and its components; a component is zero about one time in four."""
    comps = []
    for _ in range(DESC.n):
        terms = draw(st.one_of(st.just({}), TERMS, TERMS, TERMS))
        comps.append(LambdaScalar(DESC, terms, draw(FLAGS)))
    return pair(*comps)


def lam(a, c=1, truncated=False):
    return LambdaScalar(DESC, {(a, 0): c}, truncated)



def agree(got: CohElement, want) -> None:
    """Same value and the same truncated flag in every slot."""
    assert_canonical(got)
    comps = got.components
    assert comps == tuple(want)
    assert [c.truncated for c in comps] == [c.truncated for c in want]
    assert got.truncated == any(c.truncated for c in want)


def assert_canonical(el) -> None:
    """A class or q-series in lowest terms, its keys and flags inside its slots and range."""
    nums, den, desc, span = el._nums, el._den, el.desc, el._span()
    assert den > 0
    assert all(nums.values())
    assert gcd(den, *nums.values()) == 1
    for p, a, b in nums:
        assert 0 <= p < span and a >= -desc.lambda_floor and 0 <= b <= desc.log_cap
    assert 0 <= el._trunc < 1 << span


@given(classes(), classes())
def test_linear_operations_match_the_scalar_kernel(x, y):
    (a, ca), (b, cb) = x, y
    agree(a + b, [s + t for s, t in zip(ca, cb)])
    agree(a - b, [s - t for s, t in zip(ca, cb)])
    agree(-a, [-s for s in ca])
    zero_parts = [LambdaScalar(DESC, {(0, 0): s.lambda_zero_part()}) for s in ca]
    agree(a.lambda_zero_part(), zero_parts)


@given(inputs(exact_classes, exact_scalars))
# lam^-1 P times lam^-1 drops lam^-2 P below a floor of 1; a flagged scalar flags the slots with terms.
@example((RingDescriptor(3, 1, 1), 0, [{(1, -1, 0): 1, (0, 0, 1): 2}, {(-1, 0): 1, (-3, 0): 1}]))
def test_product_matches_the_scalar_kernel(case):
    desc, _, (x, s) = case
    for got in (cls(desc, x) * scalar(desc, s), scalar(desc, s) * cls(desc, x)):
        sound(got, lambda m, a, b: m.times(a, model.at(b, 0), (desc.n,)), x, s, desc=desc)
        # A product with an exact zero (no term, no flag) is an unflagged zero.
        assert not got.truncated or (s and x)


@given(classes(), RATIONALS, scalars())
def test_scalings_match_the_scalar_kernel(x, value, s):
    a, ca = x
    agree(a.scale(value), [c.scale(value) for c in ca])
    agree(a * value, [c.scale(value) for c in ca])
    agree(value * a, [c.scale(value) for c in ca])
    # A truncated scalar marks the slots of a class that hold a term or a flag,
    # as it marks each such scalar; a slot that is an exact zero stays exact.
    agree(a.scale_scalar(s), [c * s for c in ca])
    agree(a * s, [c * s for c in ca])


@given(classes(), classes(), classes())
def test_equal_values_are_equal_and_hash_equal(x, y, w):
    (a, _), (b, _), (c, _) = x, y, w
    built = a * b + c
    slot_by_slot = [
        sum((a.component(i) * b.component(k - i) for i in range(k + 1)), c.component(k))
        for k in range(DESC.n)
    ]
    routes = [
        c + b * a,
        CohElement(DESC, slot_by_slot),
        (built - a) + a,
        built.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
    ]
    for other in routes:
        assert other == built
        assert hash(other) == hash(built)
    assert (a - a).is_zero() and a - a == CohElement.zero(DESC)


@given(classes())
def test_components_round_trip(x):
    a, ca = x
    back = CohElement(DESC, a.components)
    assert back == a and back._trunc == a._trunc
    assert a.components == tuple(ca)
    assert a.to_json_dict() == {str(p): c.to_json_dict() for p, c in enumerate(ca) if c._nums}
    for p, c in enumerate(ca):
        got = a.component(p)
        assert got == c and got.truncated == c.truncated


def test_constants_keep_the_validating_rules():
    floor = -DESC.lambda_floor
    no_log = RingDescriptor(n=3, log_cap=0)
    for made, checked in [
        (LambdaScalar.one(DESC), LambdaScalar(DESC, {(0, 0): 1})),
        (LambdaScalar.from_rational(DESC, Fraction(-4, 6)),
         LambdaScalar(DESC, {(0, 0): Fraction(-2, 3)})),
        (LambdaScalar.from_rational(DESC, 0), LambdaScalar(DESC, {(0, 0): 0})),
        (LambdaScalar.lam_power(DESC, floor - 1), LambdaScalar(DESC, {(floor - 1, 0): 1})),
        (LambdaScalar.lam_power(DESC, floor - 1, 0), LambdaScalar(DESC, {(floor - 1, 0): 0})),
        (LambdaScalar.lam_power(DESC, floor, Fraction(3, 9)),
         LambdaScalar(DESC, {(floor, 0): Fraction(1, 3)})),
        (LambdaScalar.log_lambda(DESC, 2), LambdaScalar(DESC, {(0, 1): 2})),
        (LambdaScalar.log_lambda(no_log), LambdaScalar(no_log, {(0, 1): 1})),
    ]:
        assert made == checked and made.truncated == checked.truncated
        assert made._nums == checked._nums and made._den == checked._den
    assert LambdaScalar.lam_power(DESC, floor - 1).truncated
    assert LambdaScalar.log_lambda(no_log).truncated
    one = CohElement.one(DESC)
    assert one.components == (LambdaScalar.one(DESC),) + (LambdaScalar.zero(DESC),) * (DESC.n - 1)
    half = LambdaScalar.from_rational(DESC, Fraction(1, 2))
    assert CohElement.p_power(DESC, 2, Fraction(1, 2)).component(2) == half
    assert CohElement.p_power(DESC, DESC.n).is_zero() and CohElement.p_power(DESC, 1, 0).is_zero()
    lost = LambdaScalar.lam_power(DESC, floor - 1)
    assert [c.truncated for c in CohElement.from_scalar(lost).components] == [True, False, False]


def test_compose_novikov_matches_the_per_degree_sum():
    # Row 2 of the result collects slice_1 * [q^2]inner and slice_2 * [q^2]inner^2.
    f, inner = {(1, 0, 0, 0, 0): 1, (2, 0, 1, 0, 0): 1}, {(1, 0, 0): 1, (2, 1, 0): 1}
    sound(zseries(DESC, 3, f).compose_novikov(qseries(DESC, 3, inner)),
          lambda m, a, b: m.compose_novikov(a, b, 3, DESC.n), f, inner, desc=DESC)
