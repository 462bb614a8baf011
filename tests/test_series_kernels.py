"""Property tests of the one-pass series kernels against their defining laws.

Coefficients are drawn both as plain rationals and as lam-Laurent scalars.
The Laurent floor is set far below anything the drawn series can reach, so
the arithmetic is exact and every law must hold to the last coefficient;
each test also asserts that nothing was truncated.  exp is also compared
with the power sum of the reference model, and the twists with their
products rebuilt from scratch for every degree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qlefschetz import (
    BundleSpec,
    LambdaScalar,
    QSeries,
    REDUCED,
    RingDescriptor,
    ZSeries,
    i_function,
    j_reduced,
    serre_dual_i,
)
from qlefschetz.mirror import _inverse_novikov_map

from against_model import read
from model import Model
from series_oracles import i_function_from_scratch, serre_dual_i_from_scratch

RATIONAL = RingDescriptor(n=2)
LAURENT = RingDescriptor(n=2, lambda_floor=60)

FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)

KERNELS = settings(max_examples=60)


def scalars(desc):
    if desc is RATIONAL:
        return FRACTIONS.map(lambda c: LambdaScalar.from_rational(desc, c))
    return st.dictionaries(st.integers(-1, 2), FRACTIONS, max_size=3).map(
        lambda terms: LambdaScalar(desc, {(a, 0): c for a, c in terms.items()})
    )


@st.composite
def series(draw, valuation=1, desc=None, D=None):
    desc = desc or draw(st.sampled_from([RATIONAL, LAURENT]))
    D = draw(st.integers(1, 6)) if D is None else D
    coeffs = draw(
        st.dictionaries(st.integers(valuation, D), scalars(desc), max_size=D + 1)
    )
    return QSeries(desc, D, coeffs)


@st.composite
def series_pairs(draw):
    a = draw(series())
    return a, draw(series(desc=a.desc, D=a.max_degree))


def q_prime(desc, D):
    return QSeries(desc, D, {1: LambdaScalar.one(desc)})


@KERNELS
@given(series())
def test_exp_matches_power_sum(f):
    g = f.exp()
    assert read(g)[0] == Model().q_exp(read(f)[0], f.max_degree)
    assert not g.truncated


@KERNELS
@given(series_pairs())
def test_exp_turns_sums_into_products(pair):
    a, b = pair
    lhs = (a + b).exp()
    assert lhs == a.exp() * b.exp()
    assert not lhs.truncated


@KERNELS
@given(series(), st.fractions(min_value=-3, max_value=3).filter(bool))
def test_invert_is_the_multiplicative_inverse(tail, lead):
    f = tail + QSeries.from_rationals(tail.desc, tail.max_degree, {0: lead})
    g = f.invert()
    assert f * g == QSeries.one(f.desc, f.max_degree)
    assert not g.truncated


@KERNELS
@given(series(desc=LAURENT), st.integers(-2, 2))
def test_lagrange_inverse_solves_the_fixed_point_equation(tail, k):
    desc, D = tail.desc, tail.max_degree
    log_term = LambdaScalar.log_lambda(desc, k)
    tau = tail + QSeries(desc, D, {0: log_term})
    u = _inverse_novikov_map(tau)
    assert not u.truncated
    # u * exp(tau(u)) = q', with exp(k log lam) = lam^k
    check = u * tail.compose(u).exp() * LambdaScalar.lam_power(desc, k)
    assert check == q_prime(desc, D)
    assert not check.truncated


@KERNELS
@given(series(desc=RATIONAL))
def test_lagrange_inverse_rational(tail):
    u = _inverse_novikov_map(tail)
    assert u * tail.compose(u).exp() == q_prime(tail.desc, tail.max_degree)


def test_inverse_map_at_degree_zero_is_zero():
    desc = RingDescriptor(n=2, lambda_floor=2)
    tau = QSeries(desc, 0, {0: LambdaScalar.log_lambda(desc, 3)})
    assert _inverse_novikov_map(tau).is_zero()


# -- carried twist products ---------------------------------------------------------


@pytest.mark.parametrize("equivariant", [False, True])
@pytest.mark.parametrize(
    "n,degrees", [(5, (5,)), (5, (3, 2)), (4, (2, 1)), (6, (2, 2, 2))]
)
def test_i_function_matches_from_scratch_product(n, degrees, equivariant):
    desc = RingDescriptor(n=n, lambda_floor=2)
    full = j_reduced(n, 7, desc=desc)
    if not equivariant:
        full = full.lambda_zero_part()
    bundle = BundleSpec(degrees, equivariant=equivariant)
    for kept in (range(8), (0, 3, 7), (2, 5)):
        J = ZSeries(desc, 7, {d: full.slice(d) for d in kept}, REDUCED)
        got = i_function(J, bundle)
        assert sorted(got.slices) == sorted(kept)
        assert got.to_json_dict() == i_function_from_scratch(J, bundle).to_json_dict()
        series, ok, failure = serre_dual_i(J, bundle)
        want, want_ok, want_failure = serre_dual_i_from_scratch(J, bundle)
        assert series.to_json_dict() == want.to_json_dict()
        assert (ok, failure) == (want_ok, want_failure) == (True, None)
