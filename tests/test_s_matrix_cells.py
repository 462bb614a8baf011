"""The S-matrix stored by weight offset against the z-keyed cells it replaced.

``gw.SMatrix`` keeps each cell as one q-series per weight offset and sums
the unitarity residual one q-series product per pair of offsets.  The oracle
in ``gw_oracles`` keeps each cell as a map z_exp -> QSeries and sums the
residual one product of two z-power pieces at a time.  The inputs are the
J-function, J * (1 + c lam^e / z), which carries lam and has a second offset
unless e = 1, and J + J/z; the last two are not unitary, so the residual and
its first failure are compared where they are nonzero too.  The cells that
``gw._matrix_from_frame`` reads through ``ring._transposed`` are compared,
numerators, denominator and flags, with ``gw_oracles.cells_by_components``,
which split every class into its components.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qlefschetz import (
    BundleSpec,
    CohElement,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    TransversalityError,
    ZSeries,
    frame_series,
    i_function,
    j_reduced,
    s_matrix,
)
from qlefschetz import cli, gw
from qlefschetz.cli import load_config, run_compute

from gw_oracles import (
    cells_by_components,
    zkeyed_matrix_from_frame,
    zkeyed_q_zero_z_zero,
    zkeyed_to_json_dict,
    zkeyed_unitarity,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def times_one_plus(J: ZSeries, c, e: int) -> ZSeries:
    """J * (1 + c lam^e / z); lam^e below the floor is a flagged zero."""
    desc = J.desc
    bump = CohElement.from_scalar(LambdaScalar.lam_power(desc, e, c))
    return J * ZSeries(desc, J.max_degree, {0: {0: CohElement.one(desc), -1: bump}})


@st.composite
def inputs(draw):
    n, D = draw(st.integers(2, 5)), draw(st.integers(0, 4))
    desc = RingDescriptor(n=n, lambda_floor=draw(st.integers(0, 3)))
    J = j_reduced(n, D, desc=desc)
    kind = draw(st.sampled_from(["J", "lam", "J + J/z"]))
    if kind == "lam":
        J = times_one_plus(J, draw(VALUES), draw(st.integers(-3, 2)))
    elif kind == "J + J/z":
        J = J + J * ZSeries(desc, D, {0: {-1: CohElement.one(desc)}})
    return J, n, draw(st.integers(0, D))


@settings(max_examples=80)
@given(inputs())
def test_s_matrix_matches_the_z_keyed_oracle(x):
    J, n, D = x
    S, ok, failure = s_matrix(J, n, D)
    entries = zkeyed_matrix_from_frame(frame_series(J.truncate_novikov(D), n))
    assert S.to_json_dict() == zkeyed_to_json_dict(entries, D)
    assert S.q_zero_z_zero() == zkeyed_q_zero_z_zero(entries)
    assert (ok, failure) == zkeyed_unitarity(entries, J.desc, D)


def cells_agree(frame) -> None:
    """The cells of the frame hold the oracle's offsets, numerators, denominators and flags."""
    got, want = gw._matrix_from_frame(frame).cells, cells_by_components(frame)
    assert [[set(cell) for cell in row] for row in got] == [[set(cell) for cell in row] for row in want]
    for got_row, want_row in zip(got, want):
        for mine, cell in zip(got_row, want_row):
            for k, s in cell.items():
                assert (mine[k]._nums, mine[k]._den, mine[k]._trunc) == (s._nums, s._den, s._trunc)


@settings(max_examples=60)
@given(inputs())
def test_the_cells_read_what_the_components_read(x):
    J, n, _ = x
    cells_agree(frame_series(J, n))


def test_the_cells_read_what_the_components_read_on_flagged_and_twisted_frames():
    flagged = 0
    for n in range(2, 6):
        for D in range(4):
            for floor in range(3):
                desc = RingDescriptor(n=n, lambda_floor=floor)
                J = j_reduced(n, D, desc=desc)
                # lam^-2 and lam^-3 fall below these floors: flagged zeros at z^-1
                for K in (J, times_one_plus(J, 2, -2), times_one_plus(J, 1, -3)):
                    frame = frame_series(K, n)
                    cells_agree(frame)
                    flagged += any(el.truncated for T in frame for row in T.slices.values()
                                   for el in row.values())
    # Twisted frames hold several weight offsets, lam and log(lam) terms.
    for n, degrees, floor in ((4, (3, 2), 1), (5, (5,), 2), (3, (1,), 0)):
        I = i_function(j_reduced(n, 2, desc=RingDescriptor(n=n, lambda_floor=floor)),
                       BundleSpec(degrees))
        cells_agree(frame_series(I, n))
    assert flagged


@settings(max_examples=80)
@given(st.data())
def test_a_perturbed_cell_fails_where_the_oracle_does(data):
    n, D = data.draw(st.integers(2, 5)), data.draw(st.integers(0, 3))
    desc = RingDescriptor(n=n, lambda_floor=3)
    frame = frame_series(j_reduced(n, D, desc=desc), n)
    S, entries = gw._matrix_from_frame(frame), zkeyed_matrix_from_frame(frame)
    b, a = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    d, e = data.draw(st.integers(0, D)), data.draw(st.integers(-1, 1))
    bump = QSeries(desc, D, {d: LambdaScalar.lam_power(desc, e, data.draw(VALUES))})
    # q^d lam^e at offset 0 of cell (b, a) sits at z^(a - b - n*d - e).
    for cell, key in ((S.cells[b][a], 0), (entries[b][a], a - b - n * d - e)):
        cell[key] = cell[key] + bump if key in cell else bump
    ok, failure, truncated = gw._unitarity(S)
    assert (ok, failure) == zkeyed_unitarity(entries, desc, D)
    assert not truncated
    if a + b != n - 1:
        # Entry (a, n-1-b) picks up bump(-z) times the unit at q^0 z^0 of
        # cell (n-1-b, n-1-b), and nothing else at that q-degree cancels it.
        assert not ok


def test_a_residual_that_vanishes_only_below_the_floor_is_flagged():
    # J * (1 + lam^-1/z) is not unitary: the residual is -lam^-2 z^-2, which
    # lies below a floor of 1.
    for floor, want in ((1, (True, None, True)), (3, (False, (0, 4, -2, 0), False))):
        desc = RingDescriptor(n=5, lambda_floor=floor)
        K = times_one_plus(j_reduced(5, 2, desc=desc), 1, -1)
        S, ok, failure = s_matrix(K, 5, 2)
        assert (ok, failure, S.truncated) == want


def test_the_cli_reports_the_s_matrix_flag(monkeypatch):
    config = load_config({"ambient_dim": 5, "degrees": [1], "max_degree": 2,
                          "lambda_floor": 1, "tasks": ["s_matrix"]})
    assert run_compute(config)["truncation_flags"] == {"s_matrix": False}
    monkeypatch.setattr(
        cli, "j_reduced", lambda n, D, desc: times_one_plus(j_reduced(n, D, desc=desc), 1, -1)
    )
    out = run_compute(config)
    assert out["results"]["s_matrix"]["unitary"] is True
    assert out["truncation_flags"] == {"s_matrix": True}


def test_every_cell_of_a_j_function_frame_has_offset_zero():
    for n, D in ((2, 5), (5, 4), (7, 3)):
        S, ok, _ = s_matrix(j_reduced(n, D), n, D)
        assert ok and not S.truncated
        assert {k for row in S.cells for cell in row for k in cell} == {0}
        assert S.q_zero_z_zero() == [[Fraction(int(a == b)) for a in range(n)] for b in range(n)]


S_MATRIX_CONFIGS = sorted(
    p.name
    for p in CONFIGS.glob("*.json")
    if "s_matrix" in json.loads(p.read_text(encoding="utf-8"))["tasks"]
)


def test_some_config_runs_the_s_matrix():
    assert S_MATRIX_CONFIGS


@pytest.mark.parametrize("name", S_MATRIX_CONFIGS)
def test_every_s_matrix_config_builds_cells_at_offset_zero(name, monkeypatch):
    built = []
    build = gw._matrix_from_frame
    monkeypatch.setattr(gw, "_matrix_from_frame", lambda frame: built.append(build(frame)) or built[-1])
    run_compute(load_config(json.loads((CONFIGS / name).read_text(encoding="utf-8"))))
    assert built
    assert {k for S in built for row in S.cells for cell in row for k in cell} == {0}


def test_a_flagged_zero_component_flags_the_s_matrix():
    desc = RingDescriptor(n=2, lambda_floor=1)
    lost = LambdaScalar.lam_power(desc, -2)  # below the floor: a zero flagged as truncated
    frame = [
        ZSeries(desc, 0, {0: {0: CohElement(desc, [LambdaScalar.one(desc), lost])}}),
        ZSeries(desc, 0, {0: {0: CohElement.p_power(desc, 1)}}),
    ]
    S = gw._matrix_from_frame(frame)
    assert S.cells[1][0][0].is_zero()
    assert gw._unitarity(S) == (True, None, True)


def test_a_lam_term_in_the_identity_block_is_a_transversality_error():
    # J * (1 + lam) passes the differential-equation gate, but its q^0 z^0
    # block is (1 + lam) on the diagonal: not the identity, and not rational.
    desc = RingDescriptor(n=3, lambda_floor=2)
    one_plus_lam = LambdaScalar(desc, {(0, 0): 1, (1, 0): 1})
    bump = CohElement(desc, [one_plus_lam, LambdaScalar.zero(desc), LambdaScalar.zero(desc)])
    J = j_reduced(3, 2, desc=desc) * ZSeries(desc, 2, {0: {0: bump}})
    with pytest.raises(TransversalityError):
        s_matrix(J, 3, 2)
