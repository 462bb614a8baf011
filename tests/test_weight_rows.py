"""Rows keyed by weight against the z-keyed rows they replaced.

``ZSeries`` keys row d by the weight w = z + p + lam_exp, so a homogeneous
slice is one class.  The oracle is ``series_oracles.ZKeyedSeries``, which keys
each row by z-exponent.  Both are built from the same random z-keyed rows,
inhomogeneous and with keys on both sides of the Laurent floor and the log
cap.  Every operation must give the same values read back by z-exponent.
When no input class holds a zero but truncated slot, every flag of the oracle
must be set on the new side too: the flags of one weight class are shared by
all the z-entries it holds, so the new side may flag more.  A zero but
flagged slot of a z-entry taints every product slot at or above its own,
while in the weight class that holds the entry the same slot may be nonzero,
and then its flag only reaches the slots a product can reach, so such inputs
are compared on values alone.  The last tests pin that every series the
pipeline builds is homogeneous: one weight class per slice.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor, ZSeries
from qlefschetz.cli import load_config, run_compute
from qlefschetz.gw import j_reduced
from qlefschetz.mirror import birkhoff, extract_instantons, small_mirror
from qlefschetz.ring import BundleSpec
from qlefschetz.series import RAW, REDUCED, directional_derivative, project, symplectic_form
from qlefschetz.twist import i_function

from series_oracles import (
    ZKeyedSeries,
    zkeyed_directional_derivative,
    zkeyed_project,
    zkeyed_symplectic_form,
)

DESC = RingDescriptor(n=3, lambda_floor=1, log_cap=1)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TERMS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=3,
)
FLAGS = st.integers(0, 4).map(lambda k: k == 0)


def scalars():
    return st.builds(lambda terms, flag: LambdaScalar(DESC, terms, flag), TERMS, FLAGS)


def classes(clean):
    """Classes; with clean, a zero slot is never flagged, so the flags are compared."""
    def build(comps):
        if clean:
            comps = [LambdaScalar.zero(DESC) if c.is_zero() else c for c in comps]
        return CohElement(DESC, comps)

    return st.lists(scalars(), min_size=DESC.n, max_size=DESC.n).map(build)


@st.composite
def pairs(draw, convention=None, count=1):
    """(D, [(new, oracle)]): series built from the same z-keyed rows both ways."""
    D = draw(st.integers(0, 3))
    if convention is None:
        convention = draw(st.sampled_from([RAW, REDUCED]))
    rows = st.dictionaries(st.integers(-3, 2), classes(draw(st.booleans())), max_size=3)
    out = []
    for _ in range(count):
        slices = draw(st.dictionaries(st.integers(0, D), rows, max_size=3))
        out.append((ZSeries(DESC, D, slices, convention), ZKeyedSeries(DESC, D, slices, convention)))
    return D, out


@st.composite
def qseries(draw, D, low=0):
    coeffs = draw(st.dictionaries(st.integers(low, D), scalars(), max_size=3)) if low <= D else {}
    return QSeries(DESC, D, coeffs)


def holds_lost_slots(*inputs: ZKeyedSeries) -> bool:
    """Whether some input class has a zero but truncated slot."""
    return any(
        c.is_zero() and c.truncated
        for s in inputs
        for row in s.slices.values()
        for el in row.values()
        for c in el.components
    )


def agree(new: ZSeries, old: ZKeyedSeries, *inputs: ZKeyedSeries) -> None:
    """Equal values by z-exponent; without lost input slots, every oracle flag is set on the new side."""
    flags = not holds_lost_slots(*inputs)
    for d in set(new.slices) | set(old.slices):
        got = {ze: el for ze, el in new.slice(d).items() if not el.is_zero()}
        want = old.slices.get(d, {})
        assert got == want
        for ze, el in want.items():
            for new_c, old_c in zip(got[ze].components, el.components):
                assert new_c.truncated or not old_c.truncated or not flags
    assert new.is_zero() == (not old.slices)
    assert new.truncated or not old.truncated or not flags


def agree_q(new: QSeries, old: QSeries, *inputs: ZKeyedSeries) -> None:
    assert new == old
    if not holds_lost_slots(*inputs):
        for d in range(new.max_degree + 1):
            assert new.coefficient(d).truncated or not old.coefficient(d).truncated


@settings(max_examples=60)
@given(pairs(count=2))
def test_sum_and_product_match_the_z_keyed_rows(x):
    D, [(f, F), (g, G)] = x
    agree(f, F, F)
    agree(f + g, F + G, F, G)
    agree(f * g, F * G, F, G)


@settings(max_examples=60)
@given(pairs(REDUCED))
def test_directional_derivative_matches_the_z_keyed_rows(x):
    _, [(f, F)] = x
    agree(directional_derivative(f), zkeyed_directional_derivative(F), F)


@settings(max_examples=60)
@given(st.data())
def test_novikov_substitution_and_scaling_match_the_z_keyed_rows(data):
    D, [(f, F)] = data.draw(pairs(REDUCED))
    inner = data.draw(qseries(D, low=1))
    factor = data.draw(qseries(D))
    agree(f.compose_novikov(inner), F.compose_novikov(inner), F)
    agree(f.scale_qseries(factor), F.scale_qseries(factor), F)


@settings(max_examples=60)
@given(pairs(RAW, count=2))
def test_projection_and_symplectic_form_match_the_z_keyed_rows(x):
    _, [(f, F), (g, G)] = x
    for half in ("plus", "minus"):
        agree(project(f, half), zkeyed_project(F, half), F)
    agree_q(symplectic_form(f, g), zkeyed_symplectic_form(F, G), F, G)


@settings(max_examples=60)
@given(pairs())
def test_json_matches_the_z_keyed_rows_and_round_trips(x):
    _, [(f, F)] = x
    got, want = f.to_json_dict(), F.to_json_dict()
    assert got["truncated"] or not want["truncated"]
    assert {**got, "truncated": None} == {**want, "truncated": None}
    back = ZSeries.from_json_dict(json.loads(json.dumps(got)))
    assert back == f
    assert back.to_json_dict() == got


def test_a_zero_but_truncated_class_keeps_its_flag():
    desc = RingDescriptor(n=2, lambda_floor=2)
    zero = LambdaScalar.zero(desc)
    lost = CohElement(desc, [LambdaScalar.lam_power(desc, -3), zero])
    p = lost * CohElement(desc, [LambdaScalar.lam_power(desc, 2), zero])
    assert p.is_zero() and p.truncated
    f = ZSeries(desc, 1, {0: {0: p}})
    assert f.truncated and f.is_zero()
    assert f == ZSeries.zero(desc, 1)
    # exp stops on values: the flagged zero argument gives 1, flagged.
    e = f.exp()
    assert e == ZSeries.unit(desc, 1) and e.truncated


def test_a_flagged_slice_without_terms_has_no_z_exponent():
    desc = RingDescriptor(n=2, lambda_floor=2)
    zero = LambdaScalar.zero(desc)
    lost = CohElement(desc, [LambdaScalar.lam_power(desc, -3), zero])
    p = lost * CohElement(desc, [LambdaScalar.lam_power(desc, 2), zero])
    one = CohElement.one(desc)
    f = ZSeries(desc, 1, {0: {0: one}, 1: {0: p}})
    assert f.truncated and f.z_exponents(1) == []
    # A Fano twist (sum of degrees 1 < n = 2) bounds slice 1 by z^-1; the
    # flagged zero slice holds no term, so it does not break the bound.
    I = i_function(f, BundleSpec((1,), equivariant=False))
    assert I.truncated and I.z_exponents(1) == []
    raw = ZSeries(desc, 1, {0: {0: one}, 1: {0: p}}, RAW)
    for half in ("plus", "minus"):
        assert project(raw, half).truncated


def test_novikov_shift_refuses_negative_degrees():
    f = ZSeries.unit(DESC, 2)
    assert f.novikov_shift(1).novikov_shift(-1) == f
    with pytest.raises(ValueError, match="negative Novikov degree"):
        f.novikov_shift(-1)


def test_a_row_regroups_by_weight_and_reads_back_by_z():
    desc = RingDescriptor(n=2, lambda_floor=1)
    # z^0 (1 + lam^-1 P) and z^-1 lam: weights 0 and 0, 0 -- one class.
    lam = LambdaScalar.lam_power(desc, 1)
    inv = LambdaScalar.lam_power(desc, -1)
    rows = {
        0: CohElement(desc, [LambdaScalar.one(desc), inv]),
        -1: CohElement(desc, [lam, LambdaScalar.zero(desc)]),
        2: CohElement.p_power(desc, 1, Fraction(1, 2)),
    }
    f = ZSeries(desc, 0, {0: rows})
    assert sorted(f.slices[0]) == [0, 3]
    assert f.slice(0) == rows
    assert f.z_exponents(0) == [-1, 0, 2]
    assert f.scalar_slot(0, 0, 1) == inv
    assert f.coefficient(0, 1).is_zero()


# -- homogeneity guard --------------------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Every ZSeries built while the test runs."""
    seen = []
    fill = ZSeries._fill

    def record(self, *args):
        fill(self, *args)
        seen.append(self)

    monkeypatch.setattr(ZSeries, "_fill", record)
    return seen


def assert_one_class_per_slice(seen) -> None:
    assert seen
    wide = [(s, d, sorted(row)) for s in seen for d, row in s.slices.items() if len(row) != 1]
    assert wide == []


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_every_config_builds_homogeneous_series(name, built):
    run_compute(load_config(json.loads((CONFIGS / name).read_text(encoding="utf-8"))))
    assert_one_class_per_slice(built)


def test_the_benchmark_chains_build_homogeneous_series(built):
    # The two factorization chains of the benchmark, at its smoke sizes.
    quintic = BundleSpec((5,), equivariant=False)
    M = small_mirror(i_function(j_reduced(5, 6), quintic), bundle=quintic)
    assert extract_instantons(M, 5)[0] == 2875
    desc = RingDescriptor(n=5, lambda_floor=2)
    eq = BundleSpec((5,), equivariant=True)
    assert not birkhoff(i_function(j_reduced(5, 3, desc=desc), eq), bundle=eq).J_out.truncated
    assert_one_class_per_slice(built)
