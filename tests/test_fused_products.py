"""Sums of products reduced once, and the z-series operations built on them.

``_Terms._dot`` sums the products x*y of a list of pairs in one numerator map
over one denominator and builds the result once.  It is compared with the
fold x0*y0 + x1*y1 + ..., one product and one sum per pair.  Denominators
differ from pair to pair, keys fall on both sides of the Laurent floor and
the log cap, and factors arrive truncated, zero or not, so the per-pair
scaling and both flag rules are compared: numerators, denominator and flag
mask must agree exactly.  The ``ZSeries`` products and ``compose_novikov``,
built on ``_dot``, and ``scale_qseries`` and ``scale_scalar``, built on the
column kernel ``series._scaled``, were first compared with the per-product rows
they replaced, whose names the tests keep; they now hold random exact values
to the reference model (``against_model``): rows of several weights, and
multipliers whose coefficients mix lam exponents, with the inputs that pinned
their flag rules as examples.  In those, a term at lam^-3 lies below the
floor of 2: the engine's copy drops it and flags its slot.  The direct
(z, p) slot read is compared with the z-view of ``_by_z``, and the row
reader ``ZSeries.z_row`` with the slot read.
"""

from hypothesis import example, given, settings, strategies as st

from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor, ZSeries
from qlefschetz.series import REDUCED, _by_z

import model
from against_model import inputs, qseries, scalar, scalars as exact_scalars, sound, tails
from against_model import terms, z_series, zseries

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)
D = 3
N = DESC.n

KEYS = st.tuples(st.integers(-4, 3), st.integers(0, 2))
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
TERMS = st.dictionaries(KEYS, VALUES, max_size=3)
FLAGS = st.integers(0, 3).map(lambda k: k == 0)


def scalars():
    """Scalars; empty about one time in four, so zero but flagged factors occur."""
    return st.builds(LambdaScalar, st.just(DESC), st.one_of(st.just({}), TERMS, TERMS, TERMS), FLAGS)


def classes():
    return st.lists(scalars(), min_size=DESC.n, max_size=DESC.n).map(lambda c: CohElement(DESC, c))


def qseries_values():
    return st.dictionaries(st.integers(0, D), scalars(), max_size=3).map(lambda c: QSeries(DESC, D, c))


def lam(a, c=1, truncated=False):
    return LambdaScalar(DESC, {(a, 0): c}, truncated)


def fold(pairs):
    """x0*y0 + x1*y1 + ...: one product and one sum per pair."""
    acc = None
    for x, y in pairs:
        prod = x * y
        acc = prod if acc is None else acc + prod
    return acc


def same(got, want) -> None:
    assert type(got) is type(want)
    assert (got._nums, got._den, got._trunc) == (want._nums, want._den, want._trunc)


ZERO_FLAGGED = LambdaScalar(DESC, {}, True)
HALF = LambdaScalar(DESC, {(0, 0): 1, (-1, 1): 1}, False)


@settings(max_examples=150)
@given(st.lists(st.tuples(classes(), st.one_of(classes(), scalars())), min_size=1, max_size=4))
@example([  # keys below the floor and past the log cap, a flagged zero scalar, three denominators
    (CohElement(DESC, [lam(-2, 1, False), lam(1, 3), lam(0)]), lam(-1, 2)),
    (CohElement(DESC, [HALF.scale(5), lam(0), lam(-1)]), HALF.scale(7)),
    (CohElement.p_power(DESC, 1, 1), ZERO_FLAGGED),
])
@example([  # a zero but flagged slot reaches every slot above it
    (CohElement(DESC, [lam(0), ZERO_FLAGGED, lam(0)]), CohElement.p_power(DESC, 0, 2)),
    (CohElement.p_power(DESC, 0, 3), CohElement.p_power(DESC, 0, 5)),
])
def test_a_sum_of_class_products_equals_the_fold(pairs):
    same(pairs[0][0]._dot(pairs), fold(pairs))


@settings(max_examples=100)
@given(st.lists(st.tuples(qseries_values(), st.one_of(qseries_values(), scalars())), min_size=1, max_size=4))
def test_a_sum_of_q_series_products_equals_the_fold(pairs):
    same(pairs[0][0]._dot(pairs), fold(pairs))


@settings(max_examples=150)
@given(st.lists(st.tuples(scalars(), scalars()), min_size=1, max_size=5))
@example([(lam(-1, 1, True), LambdaScalar.zero(DESC)), (lam(-2), lam(-1))])
def test_a_sum_of_scalar_products_equals_the_fold(pairs):
    # The flag of a scalar is bit 0 only, whatever the ring's n.
    got = pairs[0][0]._dot(pairs)
    same(got, fold(pairs))
    assert got._trunc in (0, 1)


@settings(max_examples=100)
@given(st.one_of(classes(), qseries_values(), scalars()))
@example(CohElement(DESC, [LambdaScalar.one(DESC), ZERO_FLAGGED, LambdaScalar.zero(DESC)]))
@example(ZERO_FLAGGED)
def test_an_exact_zero_factor_gives_an_exact_zero(y):
    # A factor with no term and no flag is exactly zero, so the product is
    # too, whatever the flags of the other factor.
    zeros = {LambdaScalar: LambdaScalar.zero(DESC), CohElement: CohElement.zero(DESC),
             QSeries: QSeries.zero(DESC, D)}
    zero = zeros[type(y)]
    products = [zero * y, y * zero, y * zeros[LambdaScalar], zero._dot([(zero, y), (zero, y)])]
    if type(y) is LambdaScalar:
        products += [zeros[CohElement] * y, zeros[QSeries].scale_scalar(y)]
    for got in products:
        assert got.is_zero() and not got.truncated


def test_a_truncated_scalar_leaves_the_exact_zero_slots_of_a_class_exact():
    one, zero = LambdaScalar.one(DESC), LambdaScalar.zero(DESC)
    got = CohElement(DESC, [one, zero, zero]).scale_scalar(lam(0, 1, True))
    assert got._trunc == 0b1
    flagged = CohElement(DESC, [zero, ZERO_FLAGGED, lam(1)]).scale_scalar(lam(0, 1, True))
    assert flagged._trunc == 0b110


# -- the z-series operations ------------------------------------------------------------


# Two weights at q^0, a flagged zero slot at z^-1.
TWO_WEIGHTS = {
    (0, 0, 0, -2, 0): 1, (0, 0, 1, 0, 0): 1, (0, 0, 1, -1, 1): 1, (0, 0, 2, 1, 0): 1,
    (0, -1, 0, -1, 0): 3, (0, -1, 1, -3, 0): 1, (0, -1, 2, 0, 0): 1,
}
# Rows of one and two weights at q^0 .. q^2, flagged zero and flagged slots among them.
THREE_SLICES = {
    (0, 0, 0, -2, 0): 1, (0, 0, 1, 0, 0): 1, (0, 0, 1, -1, 1): 1, (0, 0, 2, 1, 0): 1,
    (1, 0, 0, -1, 0): 3, (1, 0, 1, -3, 0): 1, (1, 0, 2, 0, 0): 1,
    (1, -2, 0, 0, 0): 1, (1, -2, 0, -1, 1): 1, (1, -2, 1, 2, 0): 1, (1, -2, 2, -3, 0): 1,
    (2, -1, 0, 0, 0): 1, (2, -1, 1, -2, 0): 1, (2, -1, 1, -3, 0): 1,
    (2, -1, 2, 0, 0): 1, (2, -1, 2, -1, 1): 1,
}
# Mixed lam exponents at q^0 and q^2, a flagged zero at q^1, a flagged q^2.
MULTIPLIER = {(0, 0, 0): 1, (0, -1, 1): 1, (0, -2, 0): 2, (1, -3, 0): 1,
              (2, -1, 0): 1, (2, -3, 0): 1, (2, 2, 0): 1}
# lam^-2 q squares to lam^-4 q^2, below the floor: the square is a flagged zero.
SQUARE_FLAGGED = {(1, -2, 0): 1, (3, -1, 0): 1, (3, 1, 0): 2}
# A flagged scalar with two lam exponents.
SCALAR = {(-1, 0): 1, (-3, 0): 1, (2, 0): 1}


def rows(desc, D, dirty):
    """z-series of up to ten terms, so most slices hold several weights."""
    return terms(desc, dirty, st.integers(0, D), st.integers(-3, 2), st.integers(0, desc.n - 1),
                 max_size=10)


def multipliers(desc, D, dirty):
    """q-series of up to eight terms, so coefficients mix lam exponents."""
    return terms(desc, dirty, st.integers(0, D), max_size=8)


@settings(max_examples=80)
@given(inputs(z_series, z_series))
@example((DESC, D, [THREE_SLICES, TWO_WEIGHTS]))
@example((DESC, D, [TWO_WEIGHTS, THREE_SLICES]))
def test_z_series_products_match_the_per_product_rows(case):
    desc, D, (f, g) = case
    sound(zseries(desc, D, f) * zseries(desc, D, g),
          lambda m, a, b: m.z_times(a, b, D, desc.n), f, g, desc=desc)


@settings(max_examples=150)
@given(inputs(rows, multipliers))
@example((DESC, D, [TWO_WEIGHTS, MULTIPLIER]))
@example((DESC, D, [THREE_SLICES, MULTIPLIER]))
@example((DESC, D, [TWO_WEIGHTS, SQUARE_FLAGGED]))
# A flagged zero at q^1 and mixed lam exponents at q^0 and q^2.
@example((RingDescriptor(3, 2, 1), 3, [
    {(0, 0, 0, -2, 0): 1, (0, -1, 1, -1, 1): 3, (1, 0, 2, 0, 0): 1},
    {(0, 0, 0): 1, (0, -1, 1): 1, (0, -4, 0): 2, (1, -3, 0): 1, (2, -4, 0): 1, (2, 2, 0): 1},
]))
def test_a_q_series_scales_column_by_column_as_class_by_class(case):
    desc, D, (f, h) = case
    sound(zseries(desc, D, f).scale_qseries(qseries(desc, D, h)),
          lambda m, a, b: m.scale_qseries(a, b, D, desc.n), f, h, desc=desc)


@settings(max_examples=150)
@given(inputs(rows, tails, exact_scalars))
@example((DESC, D, [THREE_SLICES, SQUARE_FLAGGED, SCALAR]))
@example((DESC, D, [TWO_WEIGHTS, {(1, 0, 1): 1, (2, -1, 0): 1}, {(0, 1): 2}]))
# The inner lam^-1 q squares to a flagged zero below a floor of 1.
@example((RingDescriptor(2, 1, 0), 3, [{(d, 0, 1, 0, 0): 1 for d in range(4)}, {(1, -1, 0): 1}, {}]))
def test_a_substitution_and_a_scalar_scale_column_by_column_as_class_by_class(case):
    desc, D, (f, u, c) = case
    F = zseries(desc, D, f)
    sound(F.compose_novikov(qseries(desc, D, u)),
          lambda m, a, b: m.compose_novikov(a, b, D, desc.n), f, u, desc=desc)
    sound(F.scale_scalar(scalar(desc, c)),
          lambda m, a, b: m.scale_qseries(a, model.at(b, 0), D, desc.n), f, c, desc=desc)


def test_the_example_inner_squares_to_a_flagged_zero():
    inner = qseries(DESC, D, SQUARE_FLAGGED)
    square = inner * inner
    assert square.is_zero() and square.truncated


def zseries_values():
    """A series from random z-keyed rows: several weights per slice, flagged and zero classes."""
    rows = st.dictionaries(st.integers(-3, 2), classes(), max_size=3)
    return st.dictionaries(st.integers(0, D), rows, max_size=3).map(lambda s: ZSeries(DESC, D, s, REDUCED))


FLAGGED_ZERO_SLICE = ZSeries(DESC, D, {1: {0: CohElement(DESC, [ZERO_FLAGGED] * DESC.n)}})
TWO_FLAGGED_WEIGHTS = ZSeries(DESC, D, {2: {-1: CohElement(DESC, [lam(1), ZERO_FLAGGED, lam(0)]),
                                            1: CohElement(DESC, [lam(-1), lam(0), lam(2)])}})


@settings(max_examples=80)
@given(zseries_values())
@example(FLAGGED_ZERO_SLICE)
@example(TWO_FLAGGED_WEIGHTS)
def test_a_z_row_reads_what_the_scalar_split_read(f):
    # The row reader splits each slice once; each of its coefficients is the one-slot read.
    for z in range(-6, 6):
        row = f.z_row(z)
        assert len(row) == DESC.n
        for p, got in enumerate(row):
            for d in range(D + 1):
                same(got.coefficient(d), f.scalar_slot(d, z, p))


@settings(max_examples=80)
@given(zseries_values())
@example(FLAGGED_ZERO_SLICE)
@example(TWO_FLAGGED_WEIGHTS)
def test_a_slot_read_matches_the_z_view(f):
    for d in range(D + 1):
        row = f.slices.get(d, {})
        view = _by_z(row)
        # Where no term lands, a read of a flagged row is a zero with the row's flags.
        mask = 0
        for el in row.values():
            mask |= el._trunc
        for z in range(-6, 6):
            want = view.get(z, CohElement._make(DESC, {}, 1, mask))
            same(f.coefficient(d, z), want)
            for p in range(DESC.n):
                same(f.scalar_slot(d, z, p), want.component(p))
