"""The one z-reader at named inputs, and the soundness of its reads.

``series._regroup`` is the one rule between weight and z.  ``ZSeries.z_row``
reads the n slot q-series of one z-exponent, slice by slice, and
``coefficient``/``scalar_slot`` read one (degree, z) class through it.  They
were first compared with the direct reads they replaced, whose name the test
keeps; they now hold random exact values to the reference model
(``against_model``), with rows of several weights, flagged classes, flagged
zeros and empty slices as examples.  Their flags are compared exactly with
the one-slot reads in ``test_fused_products.py``.  The cone transform's reads
are checked against a raised floor and log cap.  The S-matrix cell view and
the -z reading of a cell, which go through the same rule with weight n, are
compared with the textbook re-keying of the cell's terms.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from qlefschetz import BundleSpec, RingDescriptor, SMatrix, cone_transform, j_reduced
from qlefschetz.series import _at_minus_z

import model
from model import Model
from against_model import inputs, q_series, qseries, read, sound, z_series, zseries

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)
D = 3
N = DESC.n
# Slice 1 is flagged without terms; slice 2 holds two weights and a flagged zero slot.
FLAGGED_SLICE = {(1, 0, p, -3, 0): 1 for p in range(N)}
TWO_WEIGHTS = {(0, 0, 0, 0, 0): 1, (2, -1, 0, 1, 0): 1, (2, -1, 1, -3, 0): 1, (2, -1, 2, 0, 0): 1,
               (2, 1, 0, 1, 0): 3, (2, 1, 1, 0, 0): 1, (2, 1, 2, 1, 0): 1}


@settings(max_examples=120)
@given(inputs(z_series))
@example((DESC, D, [FLAGGED_SLICE]))
@example((DESC, D, [TWO_WEIGHTS]))
@example((DESC, D, [{**FLAGGED_SLICE, **TWO_WEIGHTS}]))
# Slice 1 holds only a term below the floor: a flagged slice without terms.
@example((RingDescriptor(2, 1, 1), 2, [{(0, 0, 0, 0, 0): 1, (1, -1, 1, -3, 0): 1}]))
def test_the_row_reader_matches_the_per_slot_reads(case):
    desc, D, (f,) = case
    series, n = zseries(desc, D, f), desc.n
    for z in range(-4, 3):
        row = series.z_row(z)
        assert len(row) == n
        for p, got in enumerate(row):
            sound(got, lambda m, x: model.z_row(x, z, n)[p], f, desc=desc)
        for d in range(D + 1):
            sound(series.coefficient(d, z), lambda m, x: model.coefficient(x, d, z), f, desc=desc)
            for p in range(n):
                sound(series.scalar_slot(d, z, p), lambda m, x: model.scalar_slot(x, d, z, p), f,
                      desc=desc)
    low = Model(desc.lambda_floor, desc.log_cap)
    empty = {key[0] for key in f} - {key[0] for key in low.cut(f)}
    for d in empty:
        # A flagged slice without terms reads as a flagged zero at z^0.
        (z, el), = series.slice(d).items()
        assert z == 0 and el.is_zero() and el.truncated
    for d, _, p in low.lost:
        # The row reader keeps that flagged zero in each slot that lost a term.
        assert d not in empty or series.z_row(0)[p].coefficient(d).truncated


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


@settings(max_examples=120)
@given(st.dictionaries(st.integers(-2, 2), q_series(DESC, D, True), max_size=3), st.integers(-4, 4))
# A flagged zero at q^1.
@example({0: {(1, -3, 0): 1}}, 0)
@example({0: {(1, -3, 0): 1, (0, 1, 0): 2}, 1: {(0, 0, 0): 1, (2, -1, 1): 3}, -2: {(1, 1, 0): -1}}, 3)
def test_the_cell_readers_match_the_ones_the_s_matrix_kept(cell, shift):
    # q^d lam^l at offset k of a cell sits at z = shift + k - n d - l; -z flips the odd ones.
    low = Model(DESC.lambda_floor, DESC.log_cap)
    series = {k: qseries(DESC, D, v) for k, v in cell.items()}
    mask = 0
    for s in series.values():
        mask |= s._trunc
    want: dict = {}
    for k, v in cell.items():
        for (d, a, b), c in low.cut(v).items():
            want.setdefault(shift + k - N * d - a, {})[(d, a, b)] = c
    view = SMatrix(DESC, D, [[series]])._z_view(series, shift)
    assert {ze: read(s)[0] for ze, s in view.items()} == want
    assert all(s._trunc == mask for s in view.values())
    for k, s in series.items():
        flips = {(d, a, b): -c if (shift + k - N * d - a) % 2 else c
                 for (d, a, b), c in low.cut(cell[k]).items()}
        minus = _at_minus_z(s, shift + k, N)
        assert read(minus)[0] == flips and minus._trunc == s._trunc
