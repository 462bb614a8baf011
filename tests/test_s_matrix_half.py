"""The S-matrix check builds half its residual and reads the QDE guard off its own frame.

``gw._unitarity`` builds the residual entries with a <= b only: entry (b, a)
is entry (a, b) read at -z, so it is nonzero, or flagged, exactly when entry
(a, b) is.  ``gw_oracles.full_unitarity`` builds all n x n entries, and the
two must give the same (ok, first_failure, truncated) on unitary and
non-unitary inputs, on a corrupted cell on either side of the diagonal and on
a flagged cell.  ``gw.s_matrix`` takes the guard of ``qde_verify`` from one
more z*D_P of the last frame element, so it makes n derivatives of J, and a
``compute`` job that asks for ``qde_check`` and ``s_matrix`` builds that
frame and guard once for both tasks.
"""

import re

import pytest

from qlefschetz import (
    CohElement,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    ZSeries,
    frame_series,
    j_reduced,
    qde_verify,
    s_matrix,
)
from qlefschetz import cli, gw
from qlefschetz.series import directional_derivative

from gw_oracles import full_unitarity


def one_over_z(desc: RingDescriptor, D: int, c=1, e=0) -> ZSeries:
    """1 + c lam^e / z; lam^e below the floor is a flagged zero."""
    bump = CohElement.from_scalar(LambdaScalar.lam_power(desc, e, c))
    return ZSeries(desc, D, {0: {0: CohElement.one(desc), -1: bump}})


@pytest.mark.parametrize("n", range(2, 7))
def test_half_the_residual_reads_as_the_whole(n):
    outcomes = set()
    for D in range(6):
        for floor in range(3):
            desc = RingDescriptor(n=n, lambda_floor=floor)
            J = j_reduced(n, D, desc=desc)
            # J is unitary; J(1 + 1/z) is not; J(1 + lam^-2/z) is not, and its
            # residual lies below the floors 0 and 1, where it reads as flagged.
            for K in (J, J * one_over_z(desc, D), J * one_over_z(desc, D, 1, -2)):
                S, ok, failure = s_matrix(K, n, D)
                assert (ok, failure, S.truncated) == full_unitarity(S)
                outcomes.add((ok, S.truncated))
    assert outcomes == {(True, False), (False, False), (True, True)}


def bumped(n: int, D: int, b: int, a: int, bump: QSeries) -> gw.SMatrix:
    """The S-matrix of the J-function of P^(n-1) with bump added to cell (b, a) at offset 0."""
    S = gw._matrix_from_frame(frame_series(j_reduced(n, D, desc=bump.desc), n))
    cell = S.cells[b][a]
    cell[0] = cell[0] + bump if 0 in cell else bump
    return S


@pytest.mark.parametrize("n", (2, 3, 4))
def test_a_corrupted_cell_on_either_side_of_the_diagonal(n):
    D, sides = 2, set()
    desc = RingDescriptor(n=n, lambda_floor=3)
    for b in range(n):
        for a in range(n):
            for d in range(D + 1):
                for e in (-1, 0, 1):
                    bump = QSeries(desc, D, {d: LambdaScalar.lam_power(desc, e, 2)})
                    S = bumped(n, D, b, a, bump)
                    got = gw._unitarity(S)
                    assert got == full_unitarity(S)
                    if not got[0]:
                        sides.add((b > a) - (b < a))
    assert sides == {-1, 0, 1}


@pytest.mark.parametrize("b, a", [(2, 0), (0, 2), (1, 1), (3, 1), (1, 3)])
def test_a_flagged_cell_flags_both_routes(b, a):
    n, D = 4, 2
    desc = RingDescriptor(n=n, lambda_floor=1)
    for d in range(D + 1):
        lost = QSeries(desc, D, {d: LambdaScalar.lam_power(desc, -3)})  # a flagged zero
        S = bumped(n, D, b, a, lost)
        got = gw._unitarity(S)
        assert got == full_unitarity(S)
        assert got[2]


def test_the_residual_makes_half_the_products_and_the_frame_n_derivatives(monkeypatch):
    cases = [(n, D, j_reduced(n, D)) for n, D in ((2, 3), (5, 2), (7, 1))]
    counts = {}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(gw, "directional_derivative", counted("derivative", gw.directional_derivative))
    monkeypatch.setattr(gw, "queue_row_product", counted("product", gw.queue_row_product))
    for n, D, J in cases:
        counts.clear()
        assert s_matrix(J, n, D)[1]
        assert counts == {"derivative": n, "product": n * n * (n + 1) // 2}


def test_the_guard_reads_the_whole_series_above_max_degree():
    # A q^3 term J cannot have breaks the QDE at degree 3 only; the S-matrix
    # is asked for through degree 1, and the guard still sees degree 3.
    n, D = 3, 3
    desc = RingDescriptor(n=n)
    J = j_reduced(n, D, desc=desc) + ZSeries(desc, D, {3: {-2: CohElement.one(desc)}})
    holds, slot = qde_verify(J, n)
    assert not holds and slot[0] == 3
    with pytest.raises(ValueError, match=re.escape(f"equation at {slot}")):
        s_matrix(J, n, 1)
    assert qde_verify(J.truncate_novikov(1), n) == (True, None)


@pytest.mark.parametrize("n, D", [(2, 3), (5, 2), (7, 1)])
def test_a_compute_job_builds_one_frame_for_both_tasks(monkeypatch, n, D):
    calls = []

    def counted(f):
        calls.append(f)
        return directional_derivative(f)

    monkeypatch.setattr(gw, "directional_derivative", counted)
    config = cli.load_config({
        "ambient_dim": n, "degrees": [1], "max_degree": D, "lambda_floor": 2,
        "mode": "equivariant", "tasks": ["s_matrix", "qde_check"],
    })
    results = cli.run_compute(config)["results"]
    assert results["qde_check"]["holds"] and results["s_matrix"]["unitary"]
    assert len(calls) == n
