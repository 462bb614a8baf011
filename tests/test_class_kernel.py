"""Property tests of the flat class kernel against slot-by-slot scalar arithmetic.

``CohElement`` keeps one map {(p, lam_exp, log_exp): numerator} over one
denominator and one bitmask of truncated P-slots.  The oracle is the
component-wise ``LambdaScalar`` arithmetic it replaced (``scalar_coh_mul``
for products) and, for values, the Fraction-dict kernel of
``series_oracles``.  Keys are drawn on both sides of the Laurent floor and of
the log cap, and components may arrive truncated, zero or not, so every
route through the truncation rules is compared: values and per-slot
``truncated`` flags must agree exactly.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, strategies as st

from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor, ZSeries

from series_oracles import (
    FractionScalar,
    compose_novikov_per_degree,
    fraction_coh_mul,
    scalar_coh_mul,
)

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)

KEYS = st.tuples(st.integers(-4, 3), st.integers(0, 2))
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
RATIONALS = st.one_of(st.integers(-5, 5), VALUES)
TERMS = st.dictionaries(KEYS, VALUES, max_size=3)
# Flags are rarer than not, so a flag that one rule should set is not always
# hidden by another (a zero but truncated component taints a whole product).
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


ZERO = LambdaScalar.zero(DESC)


def agree(got: CohElement, want) -> None:
    """Same value and the same truncated flag in every slot."""
    assert_canonical(got)
    comps = got.components
    assert comps == tuple(want)
    assert [c.truncated for c in comps] == [c.truncated for c in want]
    assert got.truncated == any(c.truncated for c in want)


def assert_canonical(el: CohElement) -> None:
    nums, den = el._nums, el._den
    assert den > 0
    assert all(nums.values())
    assert gcd(den, *nums.values()) == 1
    for p, a, b in nums:
        assert 0 <= p < DESC.n and a >= -DESC.lambda_floor and 0 <= b <= DESC.log_cap
    assert 0 <= el._trunc < 1 << DESC.n


@given(classes(), classes())
def test_linear_operations_match_the_scalar_kernel(x, y):
    (a, ca), (b, cb) = x, y
    agree(a + b, [s + t for s, t in zip(ca, cb)])
    agree(a - b, [s - t for s, t in zip(ca, cb)])
    agree(-a, [-s for s in ca])
    zero_parts = [LambdaScalar(DESC, {(0, 0): s.lambda_zero_part()}) for s in ca]
    agree(a.lambda_zero_part(), zero_parts)


@given(classes(), classes())
# Slot 1 gets -lam^-3 + lam^-3: each pair drops a term below the floor, so
# the slot is truncated although the sum of the dropped terms cancels.
@example(pair(lam(-2), lam(-2), ZERO), pair(lam(-1), lam(-1, -1), ZERO))
# A truncated nonzero component flags the slots of its products.
@example(pair(lam(0, 1, True), ZERO, ZERO), pair(lam(0), ZERO, ZERO))
def test_product_matches_the_scalar_kernel(x, y):
    (a, ca), (b, cb) = x, y
    agree(a * b, scalar_coh_mul(DESC, ca, cb))
    values = fraction_coh_mul(
        DESC, [FractionScalar(DESC, dict(s._terms())) for s in ca],
        [FractionScalar(DESC, dict(s._terms())) for s in cb],
    )
    assert [c.to_json_dict() for c in (a * b).components] == [v.to_json_dict() for v in values]


@given(classes(), RATIONALS, scalars())
def test_scalings_match_the_scalar_kernel(x, value, s):
    a, ca = x
    agree(a.scale(value), [c.scale(value) for c in ca])
    agree(a * value, [c.scale(value) for c in ca])
    agree(value * a, [c.scale(value) for c in ca])
    agree(a.scale_scalar(s), [c * s for c in ca])
    agree(a * s, [c * s for c in ca])


@given(classes(), classes(), classes())
def test_equal_values_are_equal_and_hash_equal(x, y, w):
    (a, ca), (b, cb), (c, cc) = x, y, w
    built = a * b + c
    routes = [
        c + b * a,
        CohElement(DESC, [s + t for s, t in zip(scalar_coh_mul(DESC, ca, cb), cc)]),
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


@st.composite
def substitutions(draw):
    """A reduced series and an inner q-series of valuation >= 1, both over DESC, D = 3."""
    D = 3
    slices = {
        d: {ze: draw(classes())[0] for ze in draw(st.sets(st.integers(-2, 0), max_size=2))}
        for d in draw(st.sets(st.integers(0, D), max_size=3))
    }
    inner = {d: draw(scalars()) for d in draw(st.sets(st.integers(1, D), min_size=1, max_size=2))}
    return ZSeries(DESC, D, slices), QSeries(DESC, D, inner)


@given(substitutions())
# Row 2 of the result collects slice_1 * [q^2]inner and slice_2 * [q^2]inner^2.
@example((
    ZSeries(DESC, 3, {1: {0: CohElement.one(DESC)}, 2: {0: CohElement.p_power(DESC, 1)}}),
    QSeries(DESC, 3, {1: LambdaScalar.one(DESC), 2: lam(1)}),
))
def test_compose_novikov_matches_the_per_degree_sum(x):
    f, inner = x
    got = f.compose_novikov(inner)
    want = compose_novikov_per_degree(f, inner)
    assert got == want
    # The per-degree sum drops zero but truncated intermediate classes with
    # their flags, so a flag may only be gained.
    for d, row in want.slices.items():
        for ze, el in row.items():
            for new, old in zip(got.slices[d][ze].components, el.components):
                assert new.truncated or not old.truncated
