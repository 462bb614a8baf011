"""The one z-reader, against the readers it replaced.

``series._regroup`` is the one rule between weight and z.  ``ZSeries.z_row``
reads the n slot q-series of one z-exponent, slice by slice, and
``coefficient``/``scalar_slot`` read one (degree, z) class through it.  Each
is compared, values and flags, with the direct reads of ``series_oracles``
(``at_z`` and ``slot_series``) on rows with several weights, flagged classes,
flagged zeros and empty slices.  The S-matrix cell view and the -z reading of
a cell, which go through the same rule with weight n, are compared with the
cell readers the engine kept in ``gw`` before.
"""

from hypothesis import example, given, settings, strategies as st

from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor, SMatrix, ZSeries
from qlefschetz.series import _at_minus_z

from series_oracles import (
    cell_at_minus_z,
    cell_z_view,
    coefficient_at_z,
    scalar_slot_at_z,
    slot_series,
)

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)
D = 3

TERMS = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(0, 1)),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    max_size=3,
)


def scalars():
    """Scalars; empty about one time in four and flagged one time in four."""
    flags = st.integers(0, 3).map(lambda k: k == 0)
    return st.builds(LambdaScalar, st.just(DESC), st.one_of(st.just({}), TERMS, TERMS, TERMS), flags)


def classes():
    return st.lists(scalars(), min_size=DESC.n, max_size=DESC.n).map(lambda c: CohElement(DESC, c))


def zseries():
    """Series from z-keyed rows: several weights per slice, flagged and zero classes."""
    rows = st.dictionaries(st.integers(-3, 2), classes(), max_size=3)
    return st.dictionaries(st.integers(0, D), rows, max_size=4).map(lambda s: ZSeries(DESC, D, s))


def same(got, want) -> None:
    assert type(got) is type(want)
    assert (got._nums, got._den, got._trunc) == (want._nums, want._den, want._trunc)


FLAGGED_ZERO = LambdaScalar(DESC, {}, True)
LAM = LambdaScalar.lam_power(DESC, 1)


@settings(max_examples=120)
@given(zseries())
@example(ZSeries(DESC, D, {1: {0: CohElement(DESC, [FLAGGED_ZERO] * DESC.n)}}))
@example(ZSeries(DESC, D, {0: {0: CohElement.one(DESC)},
                           2: {-1: CohElement(DESC, [LAM, FLAGGED_ZERO, LambdaScalar.one(DESC)]),
                               1: CohElement(DESC, [LAM.scale(3), LambdaScalar.one(DESC), LAM])}}))
def test_the_row_reader_matches_the_per_slot_reads(f):
    for z in range(-6, 5):
        row = f.z_row(z)
        assert len(row) == DESC.n
        for p, got in enumerate(row):
            same(got, slot_series(f, z, p))
        for d in range(D + 1):
            same(f.coefficient(d, z), coefficient_at_z(f, d, z))
            for p in range(DESC.n):
                same(f.scalar_slot(d, z, p), scalar_slot_at_z(f, d, z, p))


def qseries():
    return st.dictionaries(st.integers(0, D), scalars(), max_size=3).map(lambda c: QSeries(DESC, D, c))


@settings(max_examples=120)
@given(st.dictionaries(st.integers(-2, 2), qseries(), max_size=3), st.integers(-4, 4))
@example({0: QSeries(DESC, D, {1: FLAGGED_ZERO})}, 0)
def test_the_cell_readers_match_the_ones_the_s_matrix_kept(cell, shift):
    S = SMatrix(DESC, D, [[cell]])
    got, want = S._z_view(cell, shift), cell_z_view(cell, shift, DESC.n)
    assert set(got) == set(want)
    for ze, s in want.items():
        same(got[ze], s)
    for k, s in cell.items():
        same(_at_minus_z(s, shift + k, DESC.n), cell_at_minus_z(s, shift + k))
