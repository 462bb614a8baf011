import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qlefschetz import (
    BundleSpec,
    CohElement,
    ExtractionError,
    LambdaScalar,
    QSeries,
    REDUCED,
    RingDescriptor,
    UnitError,
    ZSeries,
    birkhoff,
    extract_instantons,
    frame_series,
    i_function,
    invert_series,
    j_reduced,
    small_mirror,
    tangency_solve,
)

from qlefschetz.mirror import calabi_yau_degree
from schubert import lines_on_complete_intersection, lines_on_quintic

QUINTIC = BundleSpec((5,), equivariant=False)


def quintic_mirror(D):
    J = j_reduced(5, D)
    I = i_function(J, QUINTIC)
    return small_mirror(I, bundle=QUINTIC)


# -- identity regimes -----------------------------------------------------------


@pytest.mark.parametrize("n,l", [(5, 1), (5, 2), (5, 3), (6, 4)])
def test_low_degree_is_identity(n, l):
    J = j_reduced(n, 5)
    E = BundleSpec((l,), equivariant=False)
    I = i_function(J, E)
    M = birkhoff(I, bundle=E)
    assert M.corrections_vanish()
    assert M.J_out == I
    assert M.tau_of_q.is_zero()
    assert M.tau0_of_q.is_zero()
    assert M.F == QSeries.one(I.desc, 5)


@pytest.mark.parametrize("n,l", [(4, 3), (5, 4)])
def test_critical_degree_string_shift(n, l):
    J = j_reduced(n, 5)
    E = BundleSpec((l,), equivariant=False)
    I = i_function(J, E)
    M = birkhoff(I, bundle=E)
    fact = 1
    for i in range(2, l + 1):
        fact *= i
    assert M.corrections_vanish()
    assert M.tau_of_q.is_zero()
    assert M.tau0_of_q.coefficient(1).as_rational() == fact
    for d in range(2, 6):
        assert M.tau0_of_q.coefficient(d).is_zero()
    # the string shift re-expands the slices: J_out differs from I at d >= 2
    assert M.J_out != I
    assert M.J_out.slice(0) == I.slice(0)


# -- quintic --------------------------------------------------------------------


def test_quintic_map_coefficients():
    M = quintic_mirror(3)
    assert M.F.coefficient(0).as_rational() == 1
    assert M.F.coefficient(1).as_rational() == 120
    assert M.tau_of_q.coefficient(0).is_zero()
    assert M.tau_of_q.coefficient(1).as_rational() == 770
    assert M.small_projection


def test_quintic_two_paths_agree():
    J = j_reduced(5, 3)
    I = i_function(J, QUINTIC)
    Mb = birkhoff(I, bundle=QUINTIC)
    Ms = small_mirror(I, bundle=QUINTIC)
    assert Mb.J_out == Ms.J_out
    assert Mb.tau_of_q == Ms.tau_of_q
    assert Mb.tau0_of_q == Ms.tau0_of_q


def test_critical_degree_two_paths_agree():
    J = j_reduced(5, 4)
    E = BundleSpec((4,), equivariant=False)
    I = i_function(J, E)
    Mb = birkhoff(I, bundle=E)
    Ms = small_mirror(I, bundle=E)
    assert Mb.J_out == Ms.J_out
    assert Mb.tau0_of_q == Ms.tau0_of_q


def test_quintic_mirror_map_roundtrip():
    M = quintic_mirror(5)
    u = M.q_of_tau
    # u(q') exp(tau(u(q'))) == q' through q^5
    check = u * M.tau_of_q.compose(u).exp()
    assert check == QSeries.from_rationals(M.desc, 5, {1: F(1)})


def test_instantons_match_oracle_and_classical_values():
    M = quintic_mirror(5)
    counts = extract_instantons(M, 5)
    assert counts[0] == lines_on_quintic() == 2875
    assert counts == [2875, 609250, 317206375, 242467530000, 229305888887625]


def test_instantons_require_quintic_configuration():
    J = j_reduced(5, 2)
    E = BundleSpec((4,), equivariant=False)
    M = birkhoff(i_function(J, E), bundle=E)
    with pytest.raises(ExtractionError):
        extract_instantons(M, 2)
    M2 = quintic_mirror(2)
    with pytest.raises(ExtractionError):
        extract_instantons(M2, 3)  # beyond the truncation


# Libgober-Teitelbaum, arXiv:alg-geom/9301001
CALABI_YAU_COUNTS = [
    (6, (3, 3), [1053, 52812, 6424326]),
    (6, (2, 4), [1280, 92288, 15655168]),
    (7, (2, 2, 3), [720, 22428, 1611504]),
    (8, (2, 2, 2, 2), [512, 9728, 416256]),
]


@pytest.mark.parametrize("n,degrees,counts", CALABI_YAU_COUNTS)
def test_complete_intersection_instantons(n, degrees, counts):
    E = BundleSpec(degrees, equivariant=False)
    M = small_mirror(i_function(j_reduced(n, 3), E), bundle=E)
    extracted = extract_instantons(M, 3)
    assert extracted[0] == lines_on_complete_intersection(n, degrees)
    assert extracted == counts


@pytest.mark.parametrize(
    "bundle",
    [
        BundleSpec((6,), equivariant=False),
        BundleSpec((3,), equivariant=False),
        BundleSpec((2, 3), equivariant=False),  # sum l_i = n, but a surface
        BundleSpec((5,), equivariant=True),
    ],
    ids=["6-on-P4", "3-on-P4", "2-3-on-P4", "equivariant-quintic"],
)
def test_instantons_refuse_non_calabi_yau_bundles(bundle):
    assert calabi_yau_degree(5, bundle) is None
    J = j_reduced(5, 2, desc=RingDescriptor(n=5, lambda_floor=2))
    base = J if bundle.equivariant else J.lambda_zero_part()
    M = birkhoff(i_function(base, bundle), bundle=bundle)
    with pytest.raises(ExtractionError):
        extract_instantons(M, 2)


def test_extraction_detects_corrupted_series():
    M = quintic_mirror(2)
    desc = M.desc
    bad = M.J_out + ZSeries(
        desc, 2, {1: {-2: CohElement.p_power(desc, 2, F(1, 7))}}, REDUCED,
    )
    from dataclasses import replace

    with pytest.raises(ExtractionError):
        extract_instantons(replace(M, J_out=bad), 2)


# -- equivariant route ------------------------------------------------------------


def test_equivariant_limit_matches_nonequivariant():
    desc = RingDescriptor(n=5, lambda_floor=2)
    J = j_reduced(5, 3, desc=desc)
    Eeq = BundleSpec((5,), equivariant=True)
    Meq = birkhoff(i_function(J, Eeq), bundle=Eeq)
    Mnon = small_mirror(
        i_function(J.lambda_zero_part(), QUINTIC), bundle=QUINTIC
    )
    assert Meq.J_out.lambda_zero_part() == Mnon.J_out
    for d in range(4):
        assert (
            Meq.tau_of_q.coefficient(d).lambda_zero_part()
            == Mnon.tau_of_q.coefficient(d).lambda_zero_part()
        )
    # the equivariant string shift starts at 274 lam q
    assert Meq.tau0_of_q.coefficient(1).coefficient(1) == 274


def test_degree_above_dimension_rejected_nonequivariantly():
    J = j_reduced(5, 2)
    E = BundleSpec((6,), equivariant=False)
    I = i_function(J, E)
    with pytest.raises(UnitError):
        small_mirror(I, bundle=E)


def test_degree_above_dimension_runs_equivariantly():
    desc = RingDescriptor(n=5, lambda_floor=2)
    J = j_reduced(5, 2, desc=desc)
    E = BundleSpec((6,), equivariant=True)
    I = i_function(J, E)
    M = birkhoff(I, bundle=E)
    # positive z-powers force genuine frame corrections
    assert not M.corrections_vanish()
    # eliminated output is clean: no non-negative z-powers at positive degree
    for d in range(1, 3):
        assert all(ze < 0 for ze in M.normalized.z_exponents(d))


def test_back_substitution_reproduces_normalized_series():
    desc = RingDescriptor(n=5, lambda_floor=2)
    J = j_reduced(5, 2, desc=desc)
    for E in (BundleSpec((6,), equivariant=True), BundleSpec((5,), equivariant=True)):
        I = i_function(J, E)
        M = birkhoff(I, bundle=E)
        frame = frame_series(I, 5)
        recomposed = I
        for a, cell in enumerate(M.c_coeffs):
            for ze, qs in cell.items():
                shifted = ZSeries(
                    I.desc,
                    I.max_degree,
                    {
                        d: {z + ze: el for z, el in frame[a].slice(d).items()}
                        for d in frame[a].slices
                    },
                    REDUCED,
                )
                recomposed = recomposed + shifted.scale_qseries(qs)
        assert recomposed == M.normalized


# -- series inversion ---------------------------------------------------------------


def test_invert_series_identity():
    desc = RingDescriptor(n=2)
    h = QSeries.zero(desc, 4)
    u = invert_series(h)
    assert u == QSeries.from_rationals(desc, 4, {1: F(1)})


def test_invert_series_linear_exponent():
    desc = RingDescriptor(n=2)
    c = F(3)
    h = QSeries(desc, 3, {1: LambdaScalar.from_rational(desc, c)})
    u = invert_series(h)
    assert u.coefficient(1).as_rational() == 1
    assert u.coefficient(2).as_rational() == -c
    assert u.coefficient(3).as_rational() == 3 * c * c / 2
    # back-substitution
    assert u * h.compose(u).exp() == QSeries.from_rationals(desc, 3, {1: F(1)})


def test_invert_series_requires_zero_constant():
    desc = RingDescriptor(n=2)
    h = QSeries.from_rationals(desc, 3, {0: F(1)})
    with pytest.raises(ValueError):
        invert_series(h)


def test_degree_zero_truncation_passes_through():
    J = j_reduced(5, 0)
    I = i_function(J, QUINTIC)
    for M in (small_mirror(I, bundle=QUINTIC), birkhoff(I, bundle=QUINTIC)):
        assert M.J_out == I
        assert M.F.coefficient(0).as_rational() == 1
        assert M.tau_of_q.is_zero()


def test_birkhoff_rejects_bad_leading_slice():
    desc = RingDescriptor(n=3)
    f = ZSeries(desc, 2, {0: {0: CohElement.p_power(desc, 1)}})
    with pytest.raises(ValueError):
        birkhoff(f)


# -- paths the configs do not reach ---------------------------------------------------


def test_small_mirror_refuses_z0_content_above_p0():
    desc = RingDescriptor(n=3)
    I = ZSeries(desc, 2, {0: {0: CohElement.one(desc)}, 1: {0: CohElement.p_power(desc, 1)}})
    with pytest.raises(UnitError, match=r"z\^0 slot"):
        small_mirror(I)


def test_small_mirror_refuses_a_projection_outside_the_small_parameter_space():
    # F = 1 and the z^(-1) slots at P^0 and P^1 vanish; only P^2/z is left.
    desc = RingDescriptor(n=3)
    I = ZSeries(desc, 2, {0: {0: CohElement.one(desc)}, 1: {-1: CohElement.p_power(desc, 2)}})
    with pytest.raises(UnitError, match="small parameter space"):
        small_mirror(I)


@settings(max_examples=60)
@given(st.integers(2, 5), st.data())
def test_each_frame_lead_is_the_lead_of_the_series(n, data):
    # At degree 0, z D_P multiplies by P, so the z^0 q^0 P^p scalar of frame
    # element p is the z^0 q^0 P^0 scalar of the series.
    desc = RingDescriptor(n, lambda_floor=2, log_cap=1)
    terms = st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(0, 1)),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        max_size=3,
    )
    scalars = st.builds(LambdaScalar, st.just(desc), terms, st.booleans())
    classes = st.lists(scalars, min_size=n, max_size=n).map(lambda c: CohElement(desc, c))
    rows = st.dictionaries(st.integers(-3, 3), classes, max_size=3)
    f = ZSeries(desc, 2, data.draw(st.dictionaries(st.integers(0, 2), rows, max_size=3)))
    frame = frame_series(f, n)
    for p in range(n):
        assert frame[p].scalar_slot(0, 0, p) == f.scalar_slot(0, 0, 0)


def test_tangency_solve_normalizes_a_lambda_lead():
    # The lead 1 + 3/lam is eliminated at degree 0 itself: the corrections at
    # z^0 q^0 are -3/lam, then +9/lam^2, and lam^-3 falls below the floor.
    desc = RingDescriptor(n=3, lambda_floor=2)
    J = j_reduced(3, 3, desc=desc)
    lead = CohElement.from_scalar(LambdaScalar(desc, {(0, 0): 1, (-1, 0): 3}))
    M = tangency_solve(J * ZSeries(desc, 3, {0: {0: lead}}))
    assert M.J_out == J and M.small_projection
    assert M.c_coeffs[0][0].coefficient(0) == LambdaScalar(desc, {(-1, 0): -3, (-2, 0): 9})
    digest = hashlib.sha256(json.dumps(M.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "bd5612b4bf4d80266e81f1650f8a124276a825d1d4b77cc319335fce8f9223d8"
