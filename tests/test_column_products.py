"""Scalar q-series scale z-series class by class, and the chart factors are lifted from their powers.

Three replacements:

- ``ZSeries.scale_qseries`` sums each output class once (``series.summed``)
  over its own pairs, a class times a class of the lifted q-series
  (``series.lifted``), where a column kernel once multiplied each (weight,
  P-slot) column.  Here the sums of products are counted on the quintic at
  D = 30.
- ``mirror._prefactor`` builds exp(-tau P/z) or exp(-tau0/z) alone from
  its q-series powers.  Each factor is held to the exponential of the
  reference model (``against_model.sound``) on a seeded grid of exact tails
  whose terms reach below the floor and past the log cap, and must cost no
  product beyond its powers.
- ``gw.SMatrix._block`` reads only the z^0 series of each cell.  It must
  read what ``entry`` read, flagged zeros as unflagged zeros included.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from qlefschetz import (
    BundleSpec,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    frame_series,
    i_function,
    j_reduced,
)
from qlefschetz import gw, mirror, ring

from against_model import qseries, sound
from test_s_matrix_cells import inputs
from test_s_matrix_half import bumped, one_over_z


# -- the prefactor against the model's exponential -----------------------------------


def grid_scalar(rng, desc):
    """Exact scalar terms with lam and log(lam) exponents on both sides of the range.

    About one time in twelve the scalar is a single term below the floor, a
    flagged zero in the engine's copy.
    """
    floor = desc.lambda_floor
    if rng.random() < 0.08:
        return {(-floor - 1, 0): Fraction(rng.randint(1, 5))}
    return {
        (rng.randint(-floor - 1, 2), rng.randint(0, 2)):
        Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 6))
        for _ in range(rng.randint(1, 3))
    }


def grid_tail(rng, desc, D):
    """An exact q-series without constant term; one time in four its terms start above
    D/2, so its square is an exact zero."""
    low = D // 2 + 1 if rng.random() < 0.25 else 1
    return {(d, a, b): c for d in range(low, D + 1) if rng.random() < 0.6
            for (a, b), c in grid_scalar(rng, desc).items()}


def prefactor_grid():
    """(desc, D, tau0, tau) for n 2-4, floors 0-3, D 0-4, log caps 0-2; tau has a k log(lam)
    constant at times."""
    rng = random.Random(2024)
    for n in (2, 3, 4):
        for floor in range(4):
            for D in range(5):
                for _ in range(4):
                    desc = RingDescriptor(n=n, lambda_floor=floor, log_cap=rng.randint(0, 2))
                    tau = grid_tail(rng, desc, D)
                    if rng.random() < 0.3:
                        tau[(0, 0, 1)] = Fraction(rng.choice([-2, -1, 1, 2]))
                    yield desc, D, grid_tail(rng, desc, D), tau


def exact_zero(x) -> bool:
    return x.is_zero() and not x.truncated


def test_the_stacked_prefactor_equals_the_queued_products():
    kinds, squares = set(), set()
    for desc, D, tau0, tau in prefactor_grid():
        for x, step, count in ((tau0, 0, D + 1), (tau, 1, desc.n)):
            for exact in (x, {}):
                got = mirror._prefactor(qseries(desc, D, exact), step, count)
                # exp(-x P^step / z): -x placed at z^-1 P^step, exponentiated by the model
                sound(got, lambda m, v: m.z_exp(
                    {(d, -1, step, a, b): -c for (d, a, b), c in v.items()}, D, desc.n),
                    exact, desc=desc)
                kinds.add((step, exact_zero(qseries(desc, D, exact)), got.truncated))
        square = qseries(desc, D, tau0) * qseries(desc, D, tau0)
        squares.add((square.is_zero(), square.truncated))
    # Each factor gives flagged and unflagged results, the unit for an exact
    # zero, and the squares of tau0 are nonzero, exact zeros and flagged zeros.
    both = (False, True)
    assert kinds == {(s, z, t) for s in (0, 1) for z in both for t in both if not (z and t)}
    assert {(False, False), (True, False), (True, True)} <= squares


# -- the work each replacement does -------------------------------------------------


def quintic(D):
    desc = RingDescriptor(n=5)
    I = i_function(j_reduced(5, D, desc=desc), BundleSpec((5,), equivariant=False))
    return I, I.z_row(0)[0].invert()


def test_scaling_by_a_q_series_makes_one_sum_of_products_per_output_class(monkeypatch):
    I, f = quintic(30)
    calls = []
    dot = ring._Terms._dot
    monkeypatch.setattr(ring._Terms, "_dot", lambda s, pairs: calls.append(1) or dot(s, pairs))
    J1 = I.scale_qseries(f)
    monkeypatch.undo()
    classes = [(d, w) for d, row in J1.slices.items() for w in row]
    # Every class of the quintic's I sits at weight 0, so each slice 0 .. 30 is one class.
    assert len(calls) == len(classes) == 31


def test_a_factor_alone_makes_no_product_beyond_its_powers(monkeypatch):
    I, f = quintic(30)
    tau = I.scale_qseries(f).z_row(-1)[1]
    D, tau0 = tau.max_degree, tau.scale(Fraction(1, 3))
    # exp(-tau P/z) multiplies out tau^2 .. tau^(n-1), exp(-tau0/z) tau0^2 .. tau0^D;
    # the first power is the series itself.
    for args, powers in (((tau, 1, tau.desc.n), tau.desc.n - 2), ((tau0, 0, 1 + D), D - 1)):
        products = []
        dot = ring._Terms._dot
        monkeypatch.setattr(
            ring._Terms, "_dot", lambda s, pairs: products.append(pairs) or dot(s, pairs)
        )
        mirror._prefactor(*args)
        monkeypatch.undo()
        # Only the powers, each one q-series product: no class meets a scalar.
        assert len(products) == powers
        assert all(type(x) is QSeries and type(y) is QSeries for p in products for x, y in p)


# -- the z^0 block of an S-matrix ---------------------------------------------------


def entry_block(S):
    """The q^0 z^0 scalar of every cell, read through ``entry`` as before."""
    zero, span = QSeries.zero(S.desc, S.max_degree), range(S.size)
    return [[S.entry(b, a).get(0, zero).coefficient(0) for a in span] for b in span]


def same_block(S) -> None:
    got, want = S._block(), entry_block(S)
    assert [[(c._nums, c._den, c._trunc) for c in row] for row in got] == [
        [(c._nums, c._den, c._trunc) for c in row] for row in want
    ]


@settings(max_examples=60)
@given(inputs())
def test_the_block_reads_what_the_entries_read(x):
    J, n, D = x
    same_block(gw._matrix_from_frame(frame_series(J.truncate_novikov(D), n)))


@pytest.mark.parametrize("n", range(2, 6))
def test_the_block_reads_what_the_entries_read_on_bumped_and_flagged_cells(n):
    flagged = 0
    for D in range(3):
        for floor in range(3):
            desc = RingDescriptor(n=n, lambda_floor=floor)
            J = j_reduced(n, D, desc=desc)
            for K in (J, J * one_over_z(desc, D), J * one_over_z(desc, D, 1, -2)):
                same_block(gw._matrix_from_frame(frame_series(K, n)))
            for b in range(n):
                for a in range(n):
                    for d in range(D + 1):
                        for e in (-3, -1, 0):
                            # lam^-3 is below every floor here: a flagged zero
                            bump = QSeries(desc, D, {d: LambdaScalar.lam_power(desc, e, 2)})
                            S = bumped(n, D, b, a, bump)
                            same_block(S)
                            cells = (c for row in S.cells for c in row)
                            flagged += any(s.truncated for c in cells for s in c.values())
    assert flagged
