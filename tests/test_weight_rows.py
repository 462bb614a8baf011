"""Rows keyed by weight, and the operations on them, at named inputs.

``ZSeries`` keys row d by the weight w = z + p + lam_exp, so a homogeneous
slice is one class.  Its operations were first compared with the z-keyed
rows they replaced, whose name the tests keep; they now hold random exact
values, inhomogeneous and with keys on both sides of the Laurent floor and
the log cap, to the reference model (``against_model``), in both
conventions, with the named inputs below as examples.  The projection and
the symplectic form are also compared on values with the model at the
engine's floor.  The last tests pin that every series the pipeline builds
is homogeneous: one weight class per slice.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from qlefschetz import CohElement, LambdaScalar, RingDescriptor, ZSeries
from qlefschetz.cli import load_config, run_compute
from qlefschetz.gw import j_reduced
from qlefschetz.mirror import birkhoff, extract_instantons, small_mirror
from qlefschetz.ring import BundleSpec
from qlefschetz.series import RAW, REDUCED, directional_derivative, project, symplectic_form
from qlefschetz.twist import i_function

import model
from model import Model
from against_model import RATIONALS, inputs, linear_sound, qseries, read, sound, z_series, zseries

DESC = RingDescriptor(n=3, lambda_floor=1, log_cap=1)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

D = 2
# Several weights per slice; lam^-2 lies below the floor of 1 and log(lam)^2 past the cap.
F = {(0, 0, 0, 0, 0): 1, (0, -1, 1, -1, 0): 2, (0, 1, 2, 1, 1): 1, (1, -2, 0, -2, 0): 1,
     (1, 0, 1, 0, 0): Fraction(1, 2), (2, -1, 0, 1, 0): 3, (2, -1, 2, 0, 2): 1}
G = {(0, 0, 0, 0, 0): 1, (1, -1, 0, 0, 0): -1, (1, 0, 2, -1, 1): 1, (1, 0, 0, -1, 0): 1,
     (2, 1, 1, 0, 0): 2}
INNER = {(1, 0, 0): 1, (2, -1, 0): 1, (2, -2, 0): 1}
FACTOR = {(0, 0, 0): 2, (1, 1, 1): 1, (2, -2, 0): 1}


CONVENTIONS = st.sampled_from([RAW, REDUCED])


@given(inputs(z_series, z_series), RATIONALS, CONVENTIONS)
@example((DESC, D, [F, G]), Fraction(-2, 3), REDUCED)
@example((DESC, D, [G, F]), 0, RAW)
def test_sum_and_product_match_the_z_keyed_rows(case, value, convention):
    # The products are held to the model in test_fused_products.py.
    desc, D, (f, g) = case
    a, b = zseries(desc, D, f, convention), zseries(desc, D, g, convention)
    linear_sound(a + b, lambda m, x, y: model.plus(x, y), f, g, desc=desc)
    linear_sound(a - b, lambda m, x, y: model.plus(x, model.scaled(y, -1)), f, g, desc=desc)
    linear_sound(-a, lambda m, x: model.scaled(x, -1), f, desc=desc)
    linear_sound(a.scale(value), lambda m, x: model.scaled(x, value), f, desc=desc)


@given(inputs(z_series))
@example((DESC, D, [F]))
@example((DESC, D, [G]))
def test_directional_derivative_matches_the_z_keyed_rows(case):
    desc, D, (f,) = case
    sound(directional_derivative(zseries(desc, D, f)),
          lambda m, x: model.directional_derivative(x, desc.n), f, desc=desc)


def test_novikov_substitution_and_scaling_match_the_z_keyed_rows():
    # Several weights per slice, on a floor of 1; the random search is in test_fused_products.py.
    for f in (F, G):
        a = zseries(DESC, D, f)
        sound(a.compose_novikov(qseries(DESC, D, INNER)),
              lambda m, x, u: m.compose_novikov(x, u, D, DESC.n), f, INNER, desc=DESC)
        sound(a.scale_qseries(qseries(DESC, D, FACTOR)),
              lambda m, x, h: m.scale_qseries(x, h, D, DESC.n), f, FACTOR, desc=DESC)


@given(inputs(z_series, z_series))
@example((DESC, D, [F, G]))
def test_projection_and_symplectic_form_match_the_z_keyed_rows(case):
    desc, D, (f, g) = case
    low = Model(desc.lambda_floor, desc.log_cap)
    a, b = zseries(desc, D, f, RAW), zseries(desc, D, g, RAW)
    for half in ("plus", "minus"):
        got = project(a, half)
        assert read(got)[0] == model.project(low.cut(f), half)
        # a flagged class keeps its flag in the half that splits it
        sound(got, lambda m, x: model.project(x, half), f, desc=desc)
    form = symplectic_form(a, b)
    assert read(form)[0] == low.symplectic_form(low.cut(f), low.cut(g), D, desc.n)
    # a flagged class flags every coefficient it reaches, whatever z its lost term had
    sound(form, lambda m, x, y: m.symplectic_form(x, y, D, desc.n), f, g, desc=desc)


@given(inputs(z_series), CONVENTIONS)
@example((DESC, D, [F]), REDUCED)
@example((DESC, D, [G]), RAW)
def test_json_matches_the_z_keyed_rows_and_round_trips(case, convention):
    desc, D, (f,) = case
    low = Model(desc.lambda_floor, desc.log_cap)
    a = zseries(desc, D, f, convention)
    got = a.to_json_dict()
    assert read(a)[0] == low.cut(f)
    assert got["truncated"] == bool(low.lost)
    assert (got["convention"], got["max_degree"]) == (convention, D)
    back = ZSeries.from_json_dict(json.loads(json.dumps(got)))
    assert back == a and back.truncated == a.truncated
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
