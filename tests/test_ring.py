import random
from fractions import Fraction as F

import pytest

from qlefschetz import (
    BundleSpec,
    CohElement,
    DescriptorMismatchError,
    InsufficientFloorError,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    ZSeries,
    euler_expansion_check,
    gram_matrix,
    integrate,
    poincare_pairing,
    twisted_pairing,
)
from qlefschetz.verify import ring_suite


def scalar(desc, value):
    return LambdaScalar.from_rational(desc, F(value))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RingDescriptor(n=1)
    with pytest.raises(ValueError):
        RingDescriptor(n=3, lambda_floor=-1)


def test_coh_mul_nilpotency():
    desc = RingDescriptor(n=5)
    assert (CohElement.p_power(desc, 2) * CohElement.p_power(desc, 3)).is_zero()
    assert CohElement.p_power(desc, 1) * CohElement.p_power(desc, 1) == \
        CohElement.p_power(desc, 2)


def test_coh_mul_mixed_scalar():
    desc = RingDescriptor(n=5, lambda_floor=1)
    lam_plus_5p = CohElement.from_scalar(LambdaScalar.lam_power(desc, 1)) + \
        CohElement.p_power(desc, 1, 5)
    out = lam_plus_5p * CohElement.p_power(desc, 3)
    assert out.component(3) == LambdaScalar.lam_power(desc, 1)
    assert out.component(4) == scalar(desc, 5)
    assert out.component(2).is_zero()


def test_zero_but_truncated_factor_taints_the_product():
    desc = RingDescriptor(n=2, lambda_floor=2)
    lost = LambdaScalar.lam_power(desc, -3)  # below the floor: stored as 0, truncated
    zero = LambdaScalar.zero(desc)
    a = CohElement(desc, [lost, zero])
    b = CohElement(desc, [LambdaScalar.lam_power(desc, 2), zero])
    # The true product is lam^-1 in slot 0, itself below the floor; slot 1
    # is exact, since slot 1 of each factor is an exact zero.
    for prod in (a * b, b * a):
        assert prod.is_zero()
        assert prod.truncated
        assert prod.component(0).truncated and not prod.component(1).truncated
    prod = b * CohElement(desc, [zero, lost])
    assert not prod.component(0).truncated
    assert prod.component(1).truncated


def test_a_flagged_zero_slot_reaches_only_the_slots_the_other_factor_holds():
    # x = lam^-3 q + q^2 at floor 1: q^1 is a flagged zero.  Its slot 1 reaches
    # 1 + j only for the slots j of the other factor that hold a term or a flag.
    desc = RingDescriptor(n=2, lambda_floor=1)
    x = QSeries(desc, 3, {1: LambdaScalar.lam_power(desc, -3), 2: LambdaScalar.one(desc)})
    assert x._trunc == 0b0010
    assert (QSeries.one(desc, 3) * x)._trunc == 0b0010
    assert (x * x)._trunc == 0b1100


def test_integrate():
    desc = RingDescriptor(n=5, lambda_floor=1)
    assert integrate(CohElement.p_power(desc, 4)).as_rational() == 1
    assert integrate(CohElement.p_power(desc, 2)).is_zero()
    el = CohElement.p_power(desc, 4).scale_scalar(LambdaScalar.lam_power(desc, 1)) + \
        CohElement.p_power(desc, 2, 3)
    assert integrate(el) == LambdaScalar.lam_power(desc, 1)


def test_descriptor_mismatch():
    a = CohElement.one(RingDescriptor(n=3))
    b = CohElement.one(RingDescriptor(n=4))
    with pytest.raises(DescriptorMismatchError):
        a * b


# lam^-3 lies inside the floor of A but below that of B, so a value of B
# built from it unchecked would store it unflagged, or lose it to a flag.
A, B = RingDescriptor(3, 4), RingDescriptor(3, 1)


@pytest.mark.parametrize("build", [
    lambda lost: CohElement(B, [lost, LambdaScalar.zero(B), LambdaScalar.zero(B)]),
    lambda lost: QSeries(B, 2, {0: lost}),
    lambda lost: ZSeries.unit(B, 2).scale_scalar(lost),
], ids=["class", "q_series", "scale_scalar"])
def test_a_value_built_from_another_descriptors_scalar_raises(build):
    with pytest.raises(DescriptorMismatchError):
        build(LambdaScalar.lam_power(A, -3))
    # An equal descriptor that is another object is the same ring.
    same = LambdaScalar.lam_power(RingDescriptor(3, 1), 1)
    assert build(same) == build(LambdaScalar.lam_power(B, 1))


def test_twisted_pairing_quintic():
    desc = RingDescriptor(n=5, lambda_floor=1)
    E = BundleSpec((5,))
    one = CohElement.one(desc)
    p = CohElement.p_power(desc, 1)
    p3 = CohElement.p_power(desc, 3)
    p2 = CohElement.p_power(desc, 2)
    assert twisted_pairing(one, p3, E).as_rational() == 5
    assert twisted_pairing(p, p3, E) == LambdaScalar.lam_power(desc, 1)
    assert twisted_pairing(one, p2, E).is_zero()


def test_twisted_pairing_symmetric_and_poincare_limit():
    desc = RingDescriptor(n=4, lambda_floor=2)
    rng = random.Random(1)
    E = BundleSpec((2, 3))
    for _ in range(10):
        a = CohElement(desc, [scalar(desc, rng.randint(-3, 3)) for _ in range(4)])
        b = CohElement(desc, [scalar(desc, rng.randint(-3, 3)) for _ in range(4)])
        assert twisted_pairing(a, b, E) == twisted_pairing(b, a, E)
        assert twisted_pairing(a, b, BundleSpec(())) == poincare_pairing(a, b)


def test_gram_matrix_band_structure():
    desc = RingDescriptor(n=5, lambda_floor=2)
    gm = gram_matrix(desc, BundleSpec((2, 3)))
    n, r = 5, 2
    for a in range(n):
        for b in range(n):
            if a + b > n - 1:
                assert gm[a][b].is_zero()
            elif a + b == n - 1:
                assert gm[a][b].coefficient(r) == 1


@pytest.mark.parametrize(
    "n,degrees",
    [(2, (1,)), (5, (5,)), (5, (2, 3)), (8, (1, 4, 6)), (6, (6, 6, 6, 6))],
)
def test_euler_expansion(n, degrees):
    desc = RingDescriptor(n=n, lambda_floor=n)
    ok, residual = euler_expansion_check(desc, BundleSpec(degrees))
    assert ok
    assert residual.is_zero()
    assert not residual.truncated


def test_euler_expansion_floor_guard():
    desc = RingDescriptor(n=5, lambda_floor=3)
    with pytest.raises(InsufficientFloorError):
        euler_expansion_check(desc, BundleSpec((5,)))


def test_bundle_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec((0,))
    assert BundleSpec(()).rank == 0


def test_ring_axioms_random():
    desc = RingDescriptor(n=4, lambda_floor=4)
    rng = random.Random(17)

    def rand_el():
        comps = []
        for _ in range(4):
            coeffs = {
                (rng.randint(-1, 1), 0): F(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, 2))
            }
            comps.append(LambdaScalar(desc, coeffs))
        return CohElement(desc, comps)

    for _ in range(40):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_truncation_is_flagged():
    desc = RingDescriptor(n=3, lambda_floor=1)
    deep = LambdaScalar.lam_power(desc, -1)
    prod = deep * deep
    assert prod.is_zero()
    assert prod.truncated
    clean = LambdaScalar.lam_power(desc, 1) * LambdaScalar.lam_power(desc, -1)
    assert not clean.truncated


def test_log_lambda_cap():
    desc = RingDescriptor(n=3, log_cap=2)
    log = LambdaScalar.log_lambda(desc)
    cube = log * log * log
    assert cube.is_zero()
    assert cube.truncated


def test_rank_zero_bundle_has_zero_chern_character_and_expands():
    desc = RingDescriptor(n=3, lambda_floor=3)
    empty = BundleSpec(())
    assert empty.chern_character(desc, 0).is_zero()
    for k in range(1, 5):
        assert empty.chern_character(desc, k).is_zero()
    ok, residual = euler_expansion_check(desc, empty)
    assert ok
    assert residual.is_zero() and not residual.truncated


def test_chern_character_reads_the_power_sums():
    desc = RingDescriptor(n=4)
    bundle = BundleSpec((1, 2, 3))
    assert bundle.chern_character(desc, 0) == CohElement.p_power(desc, 0, 3)
    assert bundle.chern_character(desc, 2) == CohElement.p_power(desc, 2, F(14, 2))
    assert bundle.chern_character(desc, 3) == CohElement.p_power(desc, 3, F(36, 6))
    assert bundle.chern_character(desc, 4).is_zero()


def grid_check():
    (check,) = [c for c in ring_suite() if c.name == "ring.euler_expansion_grid"]
    return check


def test_the_grid_catches_a_wrong_chern_character(monkeypatch):
    right = BundleSpec.chern_character

    def wrong(self, desc, k):
        ch = right(self, desc, k)
        return ch.scale(2) if k == 1 else ch

    monkeypatch.setattr(BundleSpec, "chern_character", wrong)
    ok, residual = euler_expansion_check(RingDescriptor(n=3, lambda_floor=3), BundleSpec((2,)))
    assert not ok
    assert not residual.is_zero()
    check = grid_check()
    assert not check.passed and check.detail.startswith("n=")


def test_the_grid_catches_a_wrong_euler_class(monkeypatch):
    right = BundleSpec.euler_class

    def wrong(self, desc):
        return right(self, desc) + CohElement.p_power(desc, desc.n - 1)

    monkeypatch.setattr(BundleSpec, "euler_class", wrong)
    ok, residual = euler_expansion_check(RingDescriptor(n=3, lambda_floor=3), BundleSpec((2,)))
    assert not ok
    assert residual.is_zero() and not residual.truncated  # only the cross-check fails
    check = grid_check()
    assert not check.passed and check.detail.startswith("n=")


def test_euler_expansion_without_room_for_log_is_truncated():
    desc = RingDescriptor(n=4, lambda_floor=4, log_cap=0)
    ok, residual = euler_expansion_check(desc, BundleSpec((1, 3)))
    assert not ok
    assert residual.truncated
