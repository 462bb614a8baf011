"""Sums of products reduced once, against the per-product path they replaced.

``_Terms._dot`` sums the products x*y of a list of pairs in one numerator map
over one denominator and builds the result once.  The oracle is the fold
x0*y0 + x1*y1 + ..., one product and one sum per pair.  Denominators differ
from pair to pair, keys fall on both sides of the Laurent floor and the log
cap, and factors arrive truncated, zero or not, so the per-pair scaling and
both flag rules are compared: numerators, denominator and flag mask must
agree exactly.  The ``ZSeries`` operations built on the queued sums are
compared row by row with the per-product row kernels of ``series_oracles``,
and the direct (z, p) slot read with the z-view of ``_by_z``.  The column
product of ``ZSeries.scale_qseries`` is compared with the queued class-by-scalar
sums it replaced (``series_oracles.scale_qseries_queued``) on rows of several
weights and multipliers whose coefficients mix lam exponents, flagged zeros
among them; so are the other operations of that kernel (``series._scaled``),
``compose_novikov`` and ``scale_scalar``, against their per-product rows.
``ZSeries.z_row``, which reads its classes through ``series._columns``, is
compared with ``series_oracles.z_row_by_split``, the scalar split it replaced.
"""

from hypothesis import example, given, settings, strategies as st

from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor, ZSeries
from qlefschetz.series import RAW, REDUCED, _by_z

from series_oracles import (
    compose_novikov_per_product,
    mul_per_product,
    scale_qseries_per_product,
    scale_qseries_queued,
    scale_scalar_per_product,
    z_row_by_split,
)

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)
D = 3

KEYS = st.tuples(st.integers(-4, 3), st.integers(0, 2))
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
TERMS = st.dictionaries(KEYS, VALUES, max_size=3)
FLAGS = st.integers(0, 3).map(lambda k: k == 0)


def scalars():
    """Scalars; empty about one time in four, so zero but flagged factors occur."""
    return st.builds(LambdaScalar, st.just(DESC), st.one_of(st.just({}), TERMS, TERMS, TERMS), FLAGS)


def classes():
    return st.lists(scalars(), min_size=DESC.n, max_size=DESC.n).map(lambda c: CohElement(DESC, c))


def qseries():
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
@given(st.lists(st.tuples(qseries(), st.one_of(qseries(), scalars())), min_size=1, max_size=4))
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
@given(st.one_of(classes(), qseries(), scalars()))
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


# -- the z-series operations, row by row ----------------------------------------------


@st.composite
def zseries(draw, convention):
    """A series from random z-keyed rows: several weights per slice, flagged and zero classes."""
    rows = st.dictionaries(st.integers(-3, 2), classes(), max_size=3)
    slices = draw(st.dictionaries(st.integers(0, D), rows, max_size=3))
    return ZSeries(DESC, D, slices, convention)


def rows_agree(got: ZSeries, want: ZSeries) -> None:
    assert set(got.slices) == set(want.slices)
    for d, row in want.slices.items():
        assert set(got.slices[d]) == set(row)
        for w, el in row.items():
            same(got.slices[d][w], el)


@settings(max_examples=80)
@given(st.data())
def test_z_series_products_match_the_per_product_rows(data):
    convention = data.draw(st.sampled_from([RAW, REDUCED]))
    f, g = data.draw(zseries(convention)), data.draw(zseries(convention))
    rows_agree(f * g, mul_per_product(f, g))
    c = data.draw(scalars())
    rows_agree(f.scale_scalar(c), scale_scalar_per_product(f, c))
    h = data.draw(qseries())
    rows_agree(f.scale_qseries(h), scale_qseries_per_product(f, h))
    inner = QSeries(DESC, D, data.draw(st.dictionaries(st.integers(1, D), scalars(), max_size=3)))
    rows_agree(f.compose_novikov(inner), compose_novikov_per_product(f, inner))


def mixed_scalars():
    """Scalars with two or more lam exponents, flagged one time in four."""
    terms = st.dictionaries(KEYS, VALUES, min_size=2, max_size=4).filter(
        lambda t: len({a for a, _ in t}) > 1
    )
    return st.builds(LambdaScalar, st.just(DESC), terms, FLAGS)


def multipliers():
    """q-series whose coefficients mix several lam exponents, with flagged zeros among them."""
    coeffs = st.one_of(mixed_scalars(), mixed_scalars(), scalars(), st.just(ZERO_FLAGGED))
    return st.dictionaries(st.integers(0, D), coeffs, min_size=1, max_size=D + 1).map(
        lambda c: QSeries(DESC, D, c)
    )


@st.composite
def several_weights(draw):
    """A reduced series with rows of two or three z-exponents, so most rows hold several weights."""
    rows = st.dictionaries(st.integers(-3, 2), classes(), min_size=2, max_size=3)
    return ZSeries(DESC, D, draw(st.dictionaries(st.integers(0, D), rows, min_size=1, max_size=3)))


@settings(max_examples=150)
@given(several_weights(), multipliers())
@example(  # keys below the floor and past the log cap at two weights, a flagged zero at q^1
    ZSeries(DESC, D, {0: {0: CohElement(DESC, [lam(-2), HALF, lam(1)]),
                          -1: CohElement(DESC, [lam(-1, 3), ZERO_FLAGGED, lam(0)])}}),
    QSeries(DESC, D, {0: HALF + lam(-2, 2), 1: ZERO_FLAGGED, 2: lam(-1, 1, True) + lam(2)}),
)
def test_a_q_series_scales_column_by_column_as_class_by_class(f, h):
    want = scale_qseries_queued(f, h)
    rows_agree(f.scale_qseries(h), want)
    rows_agree(want, scale_qseries_per_product(f, h))


def coefficients():
    return st.one_of(mixed_scalars(), mixed_scalars(), scalars(), st.just(ZERO_FLAGGED))


def inners():
    """q-series of valuation >= 1 whose coefficients mix lam exponents, flagged zeros among them."""
    terms = st.dictionaries(st.integers(1, D), coefficients(), min_size=1, max_size=D)
    return terms.map(lambda c: QSeries(DESC, D, c))


# lam^-2 q squares to lam^-4 q^2, below the floor: the square is a flagged zero.
SQUARE_FLAGGED = QSeries(DESC, D, {1: lam(-2), 3: lam(-1) + lam(1, 2)})


@settings(max_examples=150)
@given(several_weights(), inners(), coefficients())
@example(
    ZSeries(DESC, D, {0: {0: CohElement(DESC, [lam(-2), HALF, lam(1)])},
                      1: {0: CohElement(DESC, [lam(-1, 3), ZERO_FLAGGED, lam(0)]),
                          -2: CohElement(DESC, [HALF, lam(2), ZERO_FLAGGED])},
                      2: {-1: CohElement(DESC, [lam(0), lam(-2, 1, True), HALF])}}),
    SQUARE_FLAGGED,
    lam(-1, 1, True) + lam(2),
)
def test_a_substitution_and_a_scalar_scale_column_by_column_as_class_by_class(f, inner, c):
    rows_agree(f.compose_novikov(inner), compose_novikov_per_product(f, inner))
    rows_agree(f.scale_scalar(c), scale_scalar_per_product(f, c))


def test_the_example_inner_squares_to_a_flagged_zero():
    square = SQUARE_FLAGGED * SQUARE_FLAGGED
    assert square.is_zero() and square.truncated


@settings(max_examples=80)
@given(st.one_of(zseries(REDUCED), several_weights()))
@example(ZSeries(DESC, D, {1: {0: CohElement(DESC, [ZERO_FLAGGED] * DESC.n)}}))
@example(ZSeries(DESC, D, {2: {-1: CohElement(DESC, [lam(1), ZERO_FLAGGED, lam(0)]),
                               1: CohElement(DESC, [lam(-1), lam(0), lam(2)])}}))
def test_a_z_row_reads_what_the_scalar_split_read(f):
    for z in range(-6, 6):
        for got, want in zip(f.z_row(z), z_row_by_split(f, z), strict=True):
            same(got, want)


@settings(max_examples=80)
@given(zseries(REDUCED))
@example(ZSeries(DESC, D, {1: {0: CohElement(DESC, [ZERO_FLAGGED] * DESC.n)}}))
@example(ZSeries(DESC, D, {2: {-1: CohElement(DESC, [lam(1), ZERO_FLAGGED, lam(0)]),
                               1: CohElement(DESC, [lam(-1), lam(0), lam(2)])}}))
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
