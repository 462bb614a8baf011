"""Property tests of the q-series kernel against the dict-of-scalars ``DictQSeries``.

``QSeries`` stores R[q]/(q^(D+1)) in the class format of ``ring`` and
multiplies by the class product with span D + 1.  The oracle is the
coefficient-by-coefficient ``LambdaScalar`` arithmetic it replaced.  Keys are
drawn on both sides of the Laurent floor and of the log cap, and coefficients
may arrive truncated, zero or not.  Values must agree exactly.  The oracle
drops a zero but truncated coefficient together with its flag, so flags on
nonzero coefficients must agree exactly when no input holds such a
coefficient, and otherwise the kernel may only gain flags.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qlefschetz import DescriptorMismatchError, LambdaScalar, QSeries, RingDescriptor, UnitError

from series_oracles import DictQSeries
from test_class_kernel import DESC, FLAGS, RATIONALS, TERMS, assert_canonical, lam, scalars

DEGREES = st.integers(0, 4)
COEFFS = st.one_of(st.just({}), TERMS, TERMS)


def both(D, coeffs):
    """The kernel series, the oracle series, and whether no coefficient is a flagged zero."""
    clean = not any(c.is_zero() and c.truncated for d, c in coeffs.items() if d <= D)
    return QSeries(DESC, D, coeffs), DictQSeries(DESC, D, coeffs), clean


@st.composite
def series(draw, D, low=0):
    """Coefficients at degrees low .. D + 1; the one past D is dropped on both sides."""
    degrees = draw(st.sets(st.integers(low, D + 1), max_size=D + 2))
    return both(D, {d: LambdaScalar(DESC, draw(COEFFS), draw(FLAGS)) for d in degrees})


def family(*lows):
    """Series over one common D, one per entry of lows (their lowest degree)."""
    return DEGREES.flatmap(lambda D: st.tuples(*(series(D, low) for low in lows)))


def agree(new: QSeries, old: DictQSeries, exact: bool) -> None:
    """Same value in every reader; flags on nonzero coefficients equal, or a superset."""
    assert_canonical(new)
    D = old.max_degree
    assert new.max_degree == D
    assert new.to_json_dict() == old.to_json_dict()
    assert new.coeffs == old.coeffs
    assert new.is_zero() == old.is_zero()
    assert [new.valuation_at_least(v) for v in range(D + 2)] == [
        old.valuation_at_least(v) for v in range(D + 2)
    ]
    assert [new.coefficient(d) for d in range(-1, D + 2)] == [
        old.coefficient(d) for d in range(-1, D + 2)
    ]
    flags = {d for d in range(D + 1) if new.coefficient(d).truncated}
    assert {d for d, c in new.coeffs.items() if c.truncated} == flags & set(old.coeffs)
    assert new.truncated == bool(flags)
    old_flags = {d for d, c in old.coeffs.items() if c.truncated}
    if exact:
        assert flags & set(old.coeffs) == old_flags
    else:
        assert flags >= old_flags


@given(family(0, 0), RATIONALS)
def test_linear_operations_match_the_dict_series(x, value):
    (a, oa, ca), (b, ob, cb) = x
    agree(a, oa, ca)
    agree(a + b, oa + ob, ca and cb)
    agree(a - b, oa - ob, ca and cb)
    agree(-a, -oa, ca)
    agree(a.scale(value), oa.scale(value), ca)
    agree(a * value, oa * value, ca)
    agree(value * a, value * oa, ca)


@given(family(0, 0), scalars())
# Degree 0 collects lam^-2 * lam^-1, which drops below the floor: a flagged zero.
@example(
    (both(2, {0: lam(-2), 1: lam(0)}), both(2, {0: lam(-1)})),
    LambdaScalar.lam_power(DESC, -1),
)
def test_products_match_the_dict_series(x, s):
    (a, oa, ca), (b, ob, cb) = x
    agree(a * b, oa * ob, ca and cb)
    clean = ca and not (s.is_zero() and s.truncated)
    agree(a * s, oa * s, clean)
    agree(s * a, s * oa, clean)


@given(family(1))
def test_exp_and_invert_match_the_dict_series(x):
    ((a, oa, ca),) = x
    agree(a.exp(), oa.exp(), ca)
    lead = {0: LambdaScalar.from_rational(DESC, Fraction(-3, 2))}
    b = a + QSeries(DESC, a.max_degree, lead)
    ob = oa + DictQSeries(DESC, a.max_degree, lead)
    agree(b.invert(), ob.invert(), ca)


@given(family(0, 1))
def test_compose_matches_the_dict_series(x):
    (f, of, _), (inner, oinner, _) = x
    # Intermediate powers of inner may hold flagged zeros the oracle drops.
    agree(f.compose(inner), of.compose(oinner), False)


def test_compose_flags_a_coefficient_the_dict_series_reports_exact():
    # inner^2 = lam^-4 q^2 + ...: its q^2 term drops below the floor, so the
    # q^2 coefficient of f(inner) is not exact although the oracle reports it so.
    f, of, _ = both(3, {1: lam(0), 2: lam(0)})
    inner, oinner, _ = both(3, {1: lam(-2), 2: lam(0)})
    assert not of.compose(oinner).coefficient(2).truncated
    got = f.compose(inner).coefficient(2)
    assert got == LambdaScalar.one(DESC) and got.truncated


@given(family(0, 0, 0))
def test_equal_values_are_equal_and_hash_equal(x):
    (a, oa, _), (b, ob, _), (c, _, _) = x
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
    assert (a == b) == (oa == ob)
    assert (a - a).is_zero() and a - a == QSeries.zero(DESC, D)
    # The same stored terms in a ring truncated one degree higher.
    longer = QSeries(DESC, D + 1, built.coeffs)
    assert longer != built and not longer == built
    assert longer.to_json_dict() == built.to_json_dict()


def test_errors_match_the_dict_series():
    other = RingDescriptor(n=3, lambda_floor=1, log_cap=1)
    for kind in (QSeries, DictQSeries):
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
