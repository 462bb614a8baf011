from fractions import Fraction as F

import pytest

from qlefschetz import (
    CohElement,
    ZSeries,
    frame_series,
    j_reduced,
    qde_verify,
    s_matrix,
)


def test_j_reduced_degree_zero_slice():
    for n in (2, 3, 5):
        J = j_reduced(n, 2)
        assert J.coefficient(0, 0) == CohElement.one(J.desc)
        assert J.slice(0) == {0: CohElement.one(J.desc)}


def test_j_reduced_n2_first_slice():
    J = j_reduced(2, 1)
    desc = J.desc
    assert J.slice(1) == {
        -2: CohElement.one(desc),
        -3: CohElement.p_power(desc, 1, -2),
    }


def test_j_reduced_n5_leading_term():
    J = j_reduced(5, 1)
    assert max(J.z_exponents(1)) == -5
    assert J.coefficient(1, -5) == CohElement.one(J.desc)
    # binomial expansion of (P + z)^(-5): next coefficient is -5 P
    assert J.coefficient(1, -6) == CohElement.p_power(J.desc, 1, -5)


def test_j_reduced_z_exponent_window():
    for n in (2, 4, 6):
        J = j_reduced(n, 4)
        for d in range(1, 5):
            exps = J.z_exponents(d)
            assert max(exps) == -n * d
            assert min(exps) >= -n * d - (n - 1)


@pytest.mark.parametrize("n,D", [(2, 3), (5, 6), (3, 5)])
def test_qde_examples(n, D):
    J = j_reduced(n, D)
    ok, slot = qde_verify(J, n)
    assert ok and slot is None


def test_qde_trivial_truncation():
    J = j_reduced(4, 0)
    ok, _ = qde_verify(J, 4)
    assert ok


def test_qde_detects_corruption():
    J = j_reduced(3, 2)
    bad = J + ZSeries(J.desc, 2, {1: {0: CohElement.one(J.desc)}})
    ok, slot = qde_verify(bad, 3)
    assert not ok
    assert slot is not None


def test_frame_starts_with_j():
    J = j_reduced(4, 4)
    frame = frame_series(J, 4)
    assert frame[0] == J
    assert len(frame) == 4


def test_frame_q0_is_monomial_filtration():
    J = j_reduced(5, 3)
    frame = frame_series(J, 5)
    for a, T in enumerate(frame):
        assert T.slice(0) == {0: CohElement.p_power(J.desc, a)}


def test_s_matrix_identity_block():
    J = j_reduced(3, 2)
    S, ok, _ = s_matrix(J, 3, 2)
    block = S.q_zero_z_zero()
    assert block == [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert ok


def test_s_matrix_corrections_in_negative_powers():
    J = j_reduced(3, 3)
    S, ok, _ = s_matrix(J, 3, 3)
    assert ok
    for b in range(3):
        for a in range(3):
            for ze, qs in S.entry(b, a).items():
                if ze >= 0:
                    # non-negative z-powers only at q^0 where the matrix is 1
                    for d, c in qs.coeffs.items():
                        assert d == 0 and ze == 0 and a == b


def test_s_matrix_unitarity_small_by_hand():
    # n=2, D=1: frame is (1 + q z^-2 - 2 q P z^-3, P + q z^-1 - q P z^-2)
    J = j_reduced(2, 1)
    S, ok, failure = s_matrix(J, 2, 1)
    assert ok, failure


@pytest.mark.parametrize("n,D", [(2, 5), (3, 4), (4, 4), (5, 3)])
def test_s_matrix_unitarity(n, D):
    J = j_reduced(n, D)
    S, ok, failure = s_matrix(J, n, D)
    assert ok, failure


def test_s_matrix_json_shape():
    J = j_reduced(2, 1)
    S, _, _ = s_matrix(J, 2, 1)
    data = S.to_json_dict()
    assert data["size"] == 2
    assert data["entries"][0][0]["0"]["0"] == {"0": "1"}


def test_s_matrix_refuses_a_negative_degree_in_its_own_check():
    J = j_reduced(3, 2)
    for D in (-1, 3):
        with pytest.raises(ValueError, match="does not match the requested parameters"):
            s_matrix(J, 3, D)
