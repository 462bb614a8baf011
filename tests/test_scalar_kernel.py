"""Property tests of the fraction-free scalar kernel against the Fraction-dict one.

``LambdaScalar`` keeps integer numerators over one common denominator;
``FractionScalar`` in ``series_oracles`` keeps one ``Fraction`` per term.
Keys are drawn on both sides of the Laurent floor and of the log cap, and
inputs may arrive already truncated, so every route through the truncation
rules is compared: the two kernels must agree on every coefficient and on
every ``truncated`` flag.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from qlefschetz import CohElement, LambdaScalar, RingDescriptor

from series_oracles import FractionScalar, fraction_coh_mul

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)

KEYS = st.tuples(st.integers(-4, 3), st.integers(0, 2))
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
RATIONALS = st.one_of(st.integers(-5, 5), VALUES)


@st.composite
def pairs(draw):
    """The same scalar in both kernels, built from one drawn term map."""
    terms = draw(st.dictionaries(KEYS, VALUES, max_size=4))
    truncated = draw(st.booleans())
    return LambdaScalar(DESC, terms, truncated), FractionScalar(DESC, terms, truncated)


def agree(new, old):
    assert new.to_json_dict() == old.to_json_dict()
    assert new.truncated == old.truncated


def assert_canonical(s):
    nums, den = s._nums, s._den
    assert den > 0
    assert all(nums.values())
    assert gcd(den, *nums.values()) == 1
    assert all(a >= -DESC.lambda_floor and 0 <= b <= DESC.log_cap for a, b in nums)


@given(pairs(), pairs())
def test_arithmetic_matches_the_fraction_kernel(x, y):
    (a, fa), (b, fb) = x, y
    agree(a + b, fa + fb)
    agree(a - b, fa - fb)
    agree(-a, -fa)
    agree(a * b, fa * fb)


@given(pairs(), RATIONALS)
def test_scale_matches_the_fraction_kernel(x, value):
    a, fa = x
    agree(a.scale(value), fa.scale(value))
    agree(a * value, fa.scale(value))


@given(pairs(), pairs(), RATIONALS)
def test_results_are_in_canonical_form(x, y, value):
    (a, _), (b, _) = x, y
    for s in (a, b, a + b, a - b, -a, a * b, a.scale(value)):
        assert_canonical(s)


@given(pairs(), pairs(), pairs())
def test_equal_values_are_equal_and_hash_equal(x, y, w):
    (a, fa), (b, fb), (c, fc) = x, y, w
    built = a * b + c
    oracle = fa * fb + fc
    routes = [
        built,
        c + b * a,
        LambdaScalar(DESC, oracle.coeffs),
        LambdaScalar.from_json_dict(DESC, built.to_json_dict()),
    ]
    for other in routes:
        assert other == built
        assert hash(other) == hash(built)
    assert (a - a).is_zero() and a - a == LambdaScalar.zero(DESC)
    assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == a


@given(pairs(), pairs())
def test_json_round_trip_is_bit_exact(x, y):
    (a, _), (b, _) = x, y
    s = a * b - a
    data = s.to_json_dict()
    back = LambdaScalar.from_json_dict(DESC, data)
    assert back == s
    assert back.to_json_dict() == data
    for key, value in data.items():
        lam, _, log = key.partition("|")
        assert s.coefficient(int(lam), int(log or 0)) == Fraction(value)


@given(st.lists(pairs(), min_size=3, max_size=3), st.lists(pairs(), min_size=3, max_size=3))
def test_coh_product_matches_the_fraction_kernel(xs, ys):
    a = CohElement(DESC, [s for s, _ in xs])
    b = CohElement(DESC, [s for s, _ in ys])
    want = fraction_coh_mul(DESC, [f for _, f in xs], [f for _, f in ys])
    # The old product skipped zero components, so the flag of a zero but
    # truncated factor was lost; now it reaches every slot at or above its own.
    lost = [k for k, c in enumerate(a.components + b.components) if c.is_zero() and c.truncated]
    tainted = min(k % DESC.n for k in lost) if lost else DESC.n
    for slot, (got, old) in enumerate(zip((a * b).components, want)):
        assert got.to_json_dict() == old.to_json_dict()
        assert got.truncated == (old.truncated or slot >= tainted)
