import hashlib
import json
from fractions import Fraction as F

import pytest

from qlefschetz import (
    BundleSpec,
    CohElement,
    InsufficientFloorError,
    LambdaScalar,
    RingDescriptor,
    ZSeries,
    b_series,
    bernoulli,
    cone_transform,
    i_function,
    j_reduced,
    serre_dual_i,
    stirling_check,
    tangency_solve,
    todd_series,
)
from qlefschetz.errors import EngineError
from qlefschetz.series import _by_z
from qlefschetz.twist import stirling_oracle


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)
    assert bernoulli(12) == F(-691, 2730)
    for k in (3, 5, 7, 9, 11):
        assert bernoulli(k) == 0


def test_todd_series():
    coeffs = todd_series(4)
    assert coeffs[0] == 1
    assert coeffs[1] == F(-1, 2)
    assert coeffs[2] == F(1, 12)
    assert coeffs[3] == 0
    assert coeffs[4] == F(-1, 720)


def test_b_series_positive_slots():
    desc = RingDescriptor(n=5, lambda_floor=6)
    slots = _by_z({0: b_series(BundleSpec((5,)), desc, z_cap=3)})
    z1 = slots[1]
    # coefficient of z^1 is (1/12) (lam + 5P)^(-1); top Laurent term 1/12 lam^(-1)
    assert z1.component(0).coefficient(-1) == F(1, 12)
    assert z1.component(1).coefficient(-2) == F(-5, 12)
    z3 = slots[3]
    assert z3.component(0).coefficient(-3) == F(-1, 360)


def test_b_series_string_constant_removed():
    desc = RingDescriptor(n=4, lambda_floor=4)
    one_over_z = _by_z({0: b_series(BundleSpec((2,)), desc, z_cap=1)})[-1]
    # the 1/z slot has no scalar (P^0) component: the constant was dropped
    assert one_over_z.component(0).is_zero()
    # P^1 slot carries the formal log(lam)
    assert one_over_z.component(1) == LambdaScalar.log_lambda(desc, 2)
    # P^2 slot: 2^2/(1*2) / lam = 2/lam
    assert one_over_z.component(2) == LambdaScalar.lam_power(desc, -1, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_b_series_slots_are_the_closed_forms(n, l):
    # With the floor n + 8 no term of the slots (m <= 4) falls below it.
    desc = RingDescriptor(n=n, lambda_floor=n + 8)
    slots = _by_z({0: b_series(BundleSpec((l,)), desc, z_cap=7)})
    one, rho = CohElement.one(desc), CohElement.p_power(desc, 1, l)
    lam = CohElement.from_scalar(LambdaScalar.lam_power(desc, 1))
    inv_lam = CohElement.from_scalar(LambdaScalar.lam_power(desc, -1))
    results = []
    # z^0 slot: (1/2) log(1 + l P / lam), a nilpotent class
    twice = slots[0].scale(2)
    power, exp_twice = one, one
    for k in range(1, n):
        power = (power * twice).scale(F(1, k))
        exp_twice = exp_twice + power
    results.append(exp_twice)
    assert exp_twice == one + rho * inv_lam
    # 1/z slot: (lam + l P) log(lam + l P) - l P - lam log(lam), with log(lam + l P)
    # = log(lam) + 2 * (z^0 slot)
    log_part = rho.scale_scalar(LambdaScalar.log_lambda(desc))
    rest = slots[-1] - log_part
    results.append(rest)
    assert rest == (lam + rho) * twice - rho
    # z^(2m-1) slot: B_2m / (2m (2m-1)) (lam + l P)^(1-2m)
    assert sorted(ze for ze in slots if ze > 0) == [1, 3, 5, 7]
    root_power = one
    for m in range(1, 5):
        root_power = root_power * (lam + rho)
        product = slots[2 * m - 1] * root_power
        root_power = root_power * (lam + rho)
        results.append(product)
        assert product == one.scale(bernoulli(2 * m) / (2 * m * (2 * m - 1)))
    assert not any(el.truncated for el in results)


def test_b_series_floor_guard():
    desc = RingDescriptor(n=3, lambda_floor=0)
    with pytest.raises(InsufficientFloorError):
        b_series(BundleSpec((1,)), desc, z_cap=1)


def test_b_series_requires_equivariant():
    with pytest.raises(EngineError):
        b_series(BundleSpec((1,), equivariant=False), RingDescriptor(n=3, lambda_floor=2), 1)


def test_b_series_flags_a_z_slot_wholly_below_the_floor():
    # The z^5 slot, lam^-5/1260 - lam^-6 P/252, lies wholly below the floor 4:
    # each dropped term flags its P-slot.
    exponent = b_series(BundleSpec((1,)), RingDescriptor(n=2, lambda_floor=4), 5)
    assert exponent.component(0).truncated and exponent.component(1).truncated
    assert sorted(_by_z({0: exponent})) == [-1, 0, 1, 3]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("degrees", [(1,), (4,), (1, 3), (2, 2), (1, 2, 4), (3, 3, 3)])
def test_b_series_is_additive_over_the_roots(n, degrees):
    # The exponent reads E through ch(E), so it is the sum of its roots' exponents.
    desc = RingDescriptor(n=n, lambda_floor=n + 8)
    total = b_series(BundleSpec(degrees), desc, z_cap=7)
    parts = [b_series(BundleSpec((l,)), desc, z_cap=7) for l in degrees]
    assert total == sum(parts[1:], parts[0])
    assert not total.truncated


def test_stirling_oracle_values():
    assert stirling_oracle(3) == [F(1, 12), F(-1, 360), F(1, 1260)]


@pytest.mark.parametrize("cap", [1, 3, 5, 7, 9, 11])
def test_stirling_check(cap):
    ok, failing = stirling_check(cap)
    assert ok and failing is None


def test_i_function_quintic_slice_one():
    J = j_reduced(5, 1)
    E = BundleSpec((5,), equivariant=False)
    I = i_function(J, E)
    desc = I.desc
    assert I.slice(0) == {0: CohElement.one(desc)}
    assert I.scalar_slot(1, 0, 0).as_rational() == 120
    assert I.scalar_slot(1, -1, 1).as_rational() == 770


def test_i_function_factor_is_explicit_product():
    # slice 1 of the twist equals slice 1 of J times prod_{k=1}^{5} (5P + kz)
    J = j_reduced(5, 1)
    E = BundleSpec((5,), equivariant=False)
    I = i_function(J, E)
    desc = I.desc
    factor = ZSeries.unit(desc, 1)
    for k in range(1, 6):
        linear = ZSeries(
            desc, 1,
            {0: {0: CohElement.p_power(desc, 1, 5), 1: CohElement.p_power(desc, 0, k)}},
        )
        factor = factor * linear
    expected = {}
    for ze, el in J.slice(1).items():
        for ze2, el2 in factor.slice(0).items():
            key = ze + ze2
            expected[key] = expected.get(key, CohElement.zero(desc)) + el * el2
    assert {ze: el for ze, el in expected.items() if not el.is_zero()} == I.slice(1)


def test_i_function_equivariant_lambda_zero_limit():
    desc = RingDescriptor(n=4, lambda_floor=2)
    J = j_reduced(4, 3, desc=desc)
    Ieq = i_function(J, BundleSpec((2, 2), equivariant=True))
    Inon = i_function(J.lambda_zero_part(), BundleSpec((2, 2), equivariant=False))
    assert Ieq.lambda_zero_part() == Inon


@pytest.mark.parametrize("l,d", [(5, 1), (1, 1), (2, 2)])
def test_serre_product_identity_examples(l, d):
    J = j_reduced(5, d, lambda_floor=1)
    _, ok, failure = serre_dual_i(J, BundleSpec((l,)))
    assert ok, failure


def test_serre_identity_is_checked_on_the_carried_product(monkeypatch):
    # Drop the factor k = 3 from the carried integer products.  Only the right
    # side prod_{k=0}^{l d - 1} (root + k z) is carried that way, and only it
    # contains k = 3; for the bundle (2, 1) the factor first enters root 0 at
    # degree 2 and root 1 only at degree 4.
    from qlefschetz import twist

    carry = twist._extend_product

    def drop_k3(coeffs, ks, cap):
        return carry(coeffs, [k for k in ks if k != 3], cap)

    monkeypatch.setattr(twist, "_extend_product", drop_k3)
    J = j_reduced(4, 3, lambda_floor=1)
    _, ok, failure = serre_dual_i(J, BundleSpec((2, 1)))
    assert not ok
    assert failure == (0, 2)


def test_serre_novikov_sign():
    # for odd l*d the slice flips sign relative to the unsigned product
    J = j_reduced(3, 1, lambda_floor=1)
    E = BundleSpec((1,))
    Istar, ok, _ = serre_dual_i(J, E)
    assert ok
    desc = J.desc
    root = CohElement.p_power(desc, 1) + CohElement.from_scalar(
        LambdaScalar.lam_power(desc, 1)
    )
    # slice 1 = -(lam + P) * J_1  (single k=0 factor, sign (-1)^1)
    expected = {}
    for ze, el in J.slice(1).items():
        prod = el * root
        if not prod.is_zero():
            expected[ze] = -prod
    assert expected == Istar.slice(1)


def _apply_factor(h, scale, k, equivariant):
    # (lam +) scale * zD_P + k z acting slice-wise: (scale (P + d z) + k z (+ lam))
    desc = h.desc
    out = {}
    p_cls = CohElement.p_power(desc, 1, scale)
    if equivariant:
        p_cls = p_cls + CohElement.from_scalar(LambdaScalar.lam_power(desc, 1))
    for d in h.slices:
        tgt = out.setdefault(d, {})
        for ze, el in h.slice(d).items():
            pe = el * p_cls
            if not pe.is_zero():
                tgt[ze] = tgt.get(ze, CohElement.zero(desc)) + pe
            ce = el.scale(scale * d + k)
            if not ce.is_zero():
                tgt[ze + 1] = tgt.get(ze + 1, CohElement.zero(desc)) + ce
    return ZSeries(desc, h.max_degree, out, h.convention)


@pytest.mark.parametrize(
    "n,degrees,equivariant",
    [
        (5, (5,), False),
        (5, (5,), True),
        (6, (3, 3), False),
        (4, (2,), False),
        (4, (2, 3), True),
        (5, (6,), True),
    ],
)
def test_hypergeometric_differential_equation(n, degrees, equivariant):
    # the twisted series satisfies
    #   (zD_P)^n I = q * prod_i prod_{k=1}^{l_i} ((lam +) l_i zD_P + k z) I,
    # inherited from (zD_P)^n J = q J through the product structure of the
    # slice multipliers
    from qlefschetz import directional_derivative

    desc = RingDescriptor(n=n, lambda_floor=2)
    J = j_reduced(n, 4, desc=desc)
    base = J if equivariant else J.lambda_zero_part()
    I = i_function(base, BundleSpec(degrees, equivariant=equivariant))
    lhs = I
    for _ in range(n):
        lhs = directional_derivative(lhs)
    rhs = I
    for l in degrees:
        for k in range(1, l + 1):
            rhs = _apply_factor(rhs, l, k, equivariant)
    residual = lhs - rhs.novikov_shift(1)
    assert residual.first_nonzero_slot() is None


def test_cone_transform_empty_is_identity():
    J = j_reduced(3, 2, lambda_floor=3)
    assert cone_transform(J, BundleSpec(())) == J


def test_cone_transform_requires_equivariant():
    J = j_reduced(3, 1, lambda_floor=2)
    with pytest.raises(EngineError):
        cone_transform(J, BundleSpec((2,), equivariant=False))


# sha256 of the canonical JSON of the transform and its inverse, each with its
# flagged (d, z, p) slots, as computed before the exponent was one class.
CONE_TRANSFORM_SHA256 = {
    (3, (1, 2), 2, 4): "83c79f398868e4ffb82066539ea00d7bb94d79d4d1b9cd3fcadad37c2a25221a",
    (2, (1,), 2, 8): "9c7628d842e48d9e28eba8f18cd6885c95b84ac2e1ec0ec9d22bd2a12573e2a6",
}


@pytest.mark.parametrize("case", sorted(CONE_TRANSFORM_SHA256))
def test_cone_transform_output_bytes_are_pinned(case):
    n, degrees, D, floor = case
    J, E = j_reduced(n, D, desc=RingDescriptor(n, floor)), BundleSpec(degrees)
    out = []
    for g in (cone_transform(J, E), cone_transform(J, E, invert=True)):
        flagged = sorted(
            (d, ze, p)
            for d in g.slices
            for ze, el in g.slice(d).items()
            for p in range(n)
            if el.component(p).truncated
        )
        out.append([g.to_json_dict(), flagged])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == CONE_TRANSFORM_SHA256[case]


def test_cone_transform_tangency_consistency_n2():
    # end-to-end: twist the J-series, multiply by the transform, and recover
    # the untwisted J exactly through the factorization machinery
    D = 2
    desc = RingDescriptor(n=2, lambda_floor=8, log_cap=10)
    J = j_reduced(2, D, desc=desc)
    E = BundleSpec((1,))
    f = cone_transform(i_function(J, E), E)
    M = tangency_solve(f, bundle=E)
    assert M.small_projection
    assert M.J_out == J
    # the Novikov variables of the two theories differ by the exact monomial lam
    assert M.tau_of_q.coefficient(0) == LambdaScalar.log_lambda(desc)


def test_cone_transform_tangency_classical_limit_quintic():
    # at Novikov degree 0 the transform acts like the classical parameter
    # shift, so full removal of the z^(-1) slots restores the identity slice;
    # beyond degree 0 the projection leaves the small parameter space and the
    # factored output is reported through tau_higher instead.
    desc = RingDescriptor(n=5, lambda_floor=2, log_cap=8)
    J = j_reduced(5, 1, desc=desc)
    E = BundleSpec((5,))
    f = cone_transform(i_function(J, E), E)
    M = tangency_solve(f, bundle=E)
    assert not M.small_projection
    assert sorted(M.tau_higher) == [2, 3]
    # classical (q^0) component of the higher shift: 25/(2 lam) P^2
    assert M.tau_higher[2].coefficient(0).coefficient(-1) == F(25, 2)
