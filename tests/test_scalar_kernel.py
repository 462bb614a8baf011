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

import pytest
from hypothesis import example, given, strategies as st

from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor

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


def both(terms, truncated=False):
    return LambdaScalar(DESC, terms, truncated), FractionScalar(DESC, terms, truncated)


def agree(new, old):
    assert new.to_json_dict() == old.to_json_dict()
    assert new.truncated == old.truncated


def assert_canonical(s):
    nums, den = s._nums, s._den
    assert den > 0
    assert all(nums.values())
    assert gcd(den, *nums.values()) == 1
    # A scalar is stored as the P^0 slot of a class.
    assert all(p == 0 for p, _, _ in nums)
    assert all(a >= -DESC.lambda_floor and 0 <= b <= DESC.log_cap for _, a, b in nums)


@given(pairs(), pairs())
# Unflagged factors whose product drops a term below the floor or past the
# log cap: through the monomial path, and through the general product.
@example(both({(-1, 0): 1}), both({(-2, 0): 2}))
@example(both({(-1, 0): 1, (0, 0): 1}), both({(-2, 0): 1}))
@example(both({(0, 1): 1, (1, 0): 1}), both({(0, 1): 3}))
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
    # truncated factor was lost; now it reaches every slot at or above its own,
    # unless the other factor is an exact zero (no term, no flag).
    lost = [k for k, c in enumerate(a.components + b.components) if c.is_zero() and c.truncated]
    exact = any(el.is_zero() and not el.truncated for el in (a, b))
    tainted = min(k % DESC.n for k in lost) if lost and not exact else DESC.n
    for slot, (got, old) in enumerate(zip((a * b).components, want)):
        assert got.to_json_dict() == old.to_json_dict()
        assert got.truncated == (old.truncated or slot >= tainted)


@given(pairs())
def test_a_scalar_is_the_p0_slot_of_a_class(x):
    s, _ = x
    c = CohElement.from_scalar(s)
    assert c.component(0) == s and c.component(0).truncated == s.truncated
    assert c.truncated == s.truncated
    assert all(c.component(p).is_zero() for p in range(1, DESC.n))


@given(pairs(), pairs(), pairs())
def test_a_scalar_on_the_left_of_a_class_or_a_q_series(x, y, w):
    (s, _), (t, _), (u, _) = x, y, w
    c = CohElement(DESC, [t, u, s])
    assert s * c == c * s
    assert [p.truncated for p in (s * c).components] == [p.truncated for p in (c * s).components]
    q = QSeries(DESC, 2, {0: t, 2: u})
    assert s * q == q * s
    assert (s * q).truncated == (q * s).truncated
    with pytest.raises(TypeError):
        s * 1.5


def test_scalars_and_classes_do_not_mix():
    s, c = LambdaScalar.one(DESC), CohElement.one(DESC)
    # The same stored terms, but a scalar is not a class.
    assert s._nums == c._nums
    assert not s == c and not c == s
    assert s != c and c != s
    with pytest.raises(TypeError):
        s + c
    with pytest.raises(TypeError):
        c + s
    with pytest.raises(TypeError):
        c - s
    with pytest.raises(TypeError):
        s - c
