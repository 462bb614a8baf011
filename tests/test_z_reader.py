"""The one z-reader, against the readers it replaced.

``series._regroup`` is the one rule between weight and z.  ``ZSeries.z_row``
reads the n slot q-series of one z-exponent, slice by slice, and
``coefficient``/``scalar_slot`` read one (degree, z) class through it.  Each
is compared with the direct reads of ``series_oracles`` (``at_z`` and
``slot_series``) on rows with several weights, flagged classes, flagged zeros
and empty slices: values as they are, flags by the one-key rule (a read of a
flagged row carries the row's flags at every z), which the cone transform's
reads are checked against at a raised floor and log cap.  The S-matrix cell view and the -z reading of
a cell, which go through the same rule with weight n, are compared with the
cell readers the engine kept in ``gw`` before.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from qlefschetz import (
    BundleSpec,
    CohElement,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    SMatrix,
    ZSeries,
    cone_transform,
    j_reduced,
)
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
    # The values are the direct reads'; a one-key read carries its row's flags
    # also where no term lands, and the row reader keeps such flagged zeros.
    for z in range(-6, 5):
        row = f.z_row(z)
        assert len(row) == DESC.n
        for p, got in enumerate(row):
            assert got == slot_series(f, z, p)
            kept = {d: flagged(scalar_slot_at_z(f, d, z, p), row_mask(f, d) >> p & 1) for d in f.slices}
            same(got, QSeries(DESC, D, {d: c for d, c in kept.items() if c._nums or c._trunc}))
        for d in range(D + 1):
            same(f.coefficient(d, z), flagged(coefficient_at_z(f, d, z), row_mask(f, d)))
            for p in range(DESC.n):
                same(f.scalar_slot(d, z, p), flagged(scalar_slot_at_z(f, d, z, p), row_mask(f, d) >> p & 1))


def row_mask(f, d):
    """The union of the flags of slice d."""
    mask = 0
    for el in f.slices.get(d, {}).values():
        mask |= el._trunc
    return mask


def flagged(value, mask):
    return value._like(value._nums, value._den, mask)


def test_a_one_key_read_of_a_flagged_row_carries_the_flag():
    # Every class of f is flagged, and the slot holds no term at floor 1; at
    # floor 4 it is 1/288 lam^-2, so the read at floor 1 must not be exact.
    f = cone_transform(j_reduced(2, 1, desc=RingDescriptor(2, 1, 2)), BundleSpec((1,)))
    assert f.truncated
    read = f.scalar_slot(0, 2, 0)
    assert read.is_zero() and read.truncated
    g = cone_transform(j_reduced(2, 1, desc=RingDescriptor(2, 4, 2)), BundleSpec((1,)))
    assert g.scalar_slot(0, 2, 0)._terms() == [((-2, 0), Fraction(1, 288))]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.sampled_from([(1,), (2,), (1, 2)]),
    st.integers(1, 2),
    st.integers(1, 4),
    st.sampled_from([2, 4]),
)
def test_an_unflagged_read_of_the_cone_transform_is_exact(n, degrees, D, floor, cap):
    # Raising the floor and the cap keeps every term a lower one kept, so an
    # unflagged read must not change.
    def transform(extra):
        desc = RingDescriptor(n, floor + extra, cap + extra)
        return cone_transform(j_reduced(n, D, desc=desc), BundleSpec(degrees))

    low, high = transform(0), transform(3)
    for d in range(D + 1):
        for z in range(-9, 6):
            for p in range(n):
                read = low.scalar_slot(d, z, p)
                if not read.truncated:
                    assert read._terms() == high.scalar_slot(d, z, p)._terms(), (d, z, p)


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
