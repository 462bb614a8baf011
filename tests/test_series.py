import json
import random
from fractions import Fraction as F

import pytest

from qlefschetz import (
    BundleSpec,
    CohElement,
    ConventionError,
    LambdaScalar,
    QSeries,
    RAW,
    REDUCED,
    RingDescriptor,
    ZSeries,
    directional_derivative,
    i_function,
    j_reduced,
    project,
    symplectic_form,
)


@pytest.fixture
def desc():
    return RingDescriptor(n=2, lambda_floor=2)


def const_series(desc, el, D=2, convention=RAW, z_exp=0):
    return ZSeries(desc, D, {0: {z_exp: el}}, convention)


def test_series_mul_unit(desc):
    g = ZSeries(
        desc, 2,
        {0: {0: CohElement.one(desc)}, 1: {-2: CohElement.p_power(desc, 1, 3)}},
    )
    one = ZSeries.unit(desc, 2)
    assert one * g == g


def test_series_mul_truncation(desc):
    q_unit = ZSeries(desc, 1, {1: {0: CohElement.one(desc)}})
    prod = q_unit * q_unit
    assert prod.is_zero()


def test_series_mul_expansion(desc):
    p = CohElement.p_power(desc, 1)
    f = ZSeries.unit(desc, 2) + ZSeries(desc, 2, {1: {1: p}})
    g = ZSeries.unit(desc, 2) + ZSeries(desc, 2, {1: {1: -p}})
    prod = f * g
    assert prod.coefficient(0, 0) == CohElement.one(desc)
    assert prod.slice(1) == {}
    assert prod.coefficient(2, 2) == CohElement.p_power(desc, 1) * CohElement.p_power(desc, 1, -1)
    # P^2 = 0 for n = 2, so the degree-2 slice vanishes here
    assert prod.slice(2) == {}


def test_series_mul_degree_two_slice():
    desc = RingDescriptor(n=3)
    p = CohElement.p_power(desc, 1)
    f = ZSeries.unit(desc, 2) + ZSeries(desc, 2, {1: {1: p}})
    g = ZSeries.unit(desc, 2) + ZSeries(desc, 2, {1: {1: -p}})
    prod = f * g
    assert prod.coefficient(2, 2) == CohElement.p_power(desc, 2, -1)


def test_convention_mismatch(desc):
    f = ZSeries.unit(desc, 1, REDUCED)
    g = ZSeries.unit(desc, 1, RAW)
    with pytest.raises(ConventionError):
        f * g


def test_symplectic_residue_examples(desc):
    u = CohElement.p_power(desc, 1)
    v = CohElement.one(desc)
    f = const_series(desc, u)
    g = const_series(desc, v, z_exp=-1)
    val = symplectic_form(f, g)
    assert val.coefficient(0).as_rational() == 1  # (P, 1) = 1 for n = 2

    f = const_series(desc, u, z_exp=1)
    g = const_series(desc, v, z_exp=-2)
    val = symplectic_form(f, g)
    assert val.coefficient(0).as_rational() == -1

    f = const_series(desc, u)
    g = const_series(desc, v)
    assert symplectic_form(f, g).is_zero()


def test_symplectic_requires_raw(desc):
    f = ZSeries.unit(desc, 1, REDUCED)
    with pytest.raises(ConventionError):
        symplectic_form(f, f)


def test_project_examples(desc):
    el = CohElement.one(desc)
    f = ZSeries(desc, 1, {0: {2: el, -1: el}}, RAW)
    assert project(f, "plus").z_exponents(0) == [2]
    assert project(f, "minus").z_exponents(0) == [-1]
    g = ZSeries(desc, 1, {0: {0: CohElement.p_power(desc, 1)}}, RAW)
    assert project(g, "plus") == g
    assert project(f, "plus") + project(f, "minus") == f


def test_directional_derivative_examples(desc):
    one = ZSeries.unit(desc, 1)
    d1 = directional_derivative(one)
    assert d1.coefficient(0, 0) == CohElement.p_power(desc, 1)

    slice1 = {
        -2: CohElement.one(desc),
        -3: CohElement.p_power(desc, 1, -2),
    }
    f = ZSeries(desc, 1, {0: {0: CohElement.one(desc)}, 1: slice1})
    once = directional_derivative(f)
    assert once.coefficient(1, -1) == CohElement.one(desc)
    assert once.coefficient(1, -2) == CohElement.p_power(desc, 1, -1)
    twice = directional_derivative(once)
    assert twice.coefficient(1, 0) == CohElement.one(desc)
    assert twice.slice(1) == {0: CohElement.one(desc)}


def test_directional_derivative_requires_reduced(desc):
    f = ZSeries.unit(desc, 1, RAW)
    with pytest.raises(ConventionError):
        directional_derivative(f)


def test_degenerate_truncation_order():
    desc = RingDescriptor(n=3)
    f = ZSeries.unit(desc, 0)
    assert f * f == f


def test_a_higher_truncation_order_returns_the_series_unchanged():
    # 1 + q is known only mod q^4: raising the order would mark the unknown
    # q^4 and q^5 coefficients of its inverse as exact.
    desc = RingDescriptor(n=2)
    f = QSeries.from_rationals(desc, 3, {0: 1, 1: 1})
    for m in (3, 5):
        assert f.truncate(m) is f
    inv = f.truncate(5).invert()
    assert inv.max_degree == 3 and not inv.truncated
    assert inv == QSeries.from_rationals(desc, 3, {0: 1, 1: -1, 2: 1, 3: -1})
    assert f.truncate(1) == QSeries.from_rationals(desc, 1, {0: 1, 1: 1})
    J = ZSeries.unit(desc, 2)
    assert J.truncate_novikov(4) is J


def test_a_negative_truncation_order_is_refused():
    J = ZSeries.unit(RingDescriptor(n=2), 2)
    with pytest.raises(ValueError, match="max_degree must be >= 0"):
        J.truncate_novikov(-1)


def _random_raw(desc, rng, D=2):
    slices = {}
    for d in range(D + 1):
        row = {}
        for ze in range(-3, 3):
            if rng.random() < 0.4:
                comps = [
                    LambdaScalar(desc, {(rng.randint(-1, 1), 0): F(rng.randint(-3, 3))})
                    for _ in range(desc.n)
                ]
                row[ze] = CohElement(desc, comps)
        if row:
            slices[d] = row
    return ZSeries(desc, D, slices, RAW)


def test_omega_lagrangian_halves():
    desc = RingDescriptor(n=3, lambda_floor=4)
    rng = random.Random(23)
    for _ in range(25):
        f, g = _random_raw(desc, rng), _random_raw(desc, rng)
        assert (symplectic_form(f, g) + symplectic_form(g, f)).is_zero()
        fp, fm = project(f, "plus"), project(f, "minus")
        gp, gm = project(g, "plus"), project(g, "minus")
        assert symplectic_form(fp, gp).is_zero()
        assert symplectic_form(fm, gm).is_zero()
        assert fp + fm == f
        assert project(fp, "plus") == fp


def test_z_multiplication_infinitesimally_symplectic():
    desc = RingDescriptor(n=3, lambda_floor=4)
    rng = random.Random(29)

    def times_z(f):
        return ZSeries(
            desc, f.max_degree,
            {d: {ze + 1: el for ze, el in f.slice(d).items()} for d in f.slices},
            RAW,
        )

    for _ in range(20):
        f, g = _random_raw(desc, rng), _random_raw(desc, rng)
        assert (symplectic_form(times_z(f), g) + symplectic_form(f, times_z(g))).is_zero()


def test_mul_associative_commutative():
    desc = RingDescriptor(n=3, lambda_floor=6)
    rng = random.Random(31)
    for _ in range(10):
        f, g, h = (_random_raw(desc, rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_json_round_trip():
    J = j_reduced(4, 3, lambda_floor=2)
    I = i_function(J, BundleSpec((2, 2)))
    blob = json.dumps(I.to_json_dict(), sort_keys=True)
    back = ZSeries.from_json_dict(json.loads(blob))
    assert back == I
    assert json.dumps(back.to_json_dict(), sort_keys=True) == blob


def test_a_truncated_series_reads_back_truncated():
    desc = RingDescriptor(n=2, lambda_floor=2)
    lost = CohElement(desc, [LambdaScalar.lam_power(desc, -3), LambdaScalar.zero(desc)])
    kept = lost + CohElement.one(desc)
    for f in (ZSeries(desc, 1, {0: {0: kept}}), ZSeries(desc, 1, {1: {-1: lost}})):
        assert f.truncated
        data = json.loads(json.dumps(f.to_json_dict()))
        back = ZSeries.from_json_dict(data)
        assert back == f and back.truncated
        assert back.to_json_dict() == data
        clean = ZSeries.from_json_dict({**data, "truncated": False})
        assert clean == f and not clean.truncated


def test_qseries_basic_algebra():
    desc = RingDescriptor(n=2)
    f = QSeries.from_rationals(desc, 4, {0: F(1), 1: F(3)})
    inv = f.invert()
    assert (f * inv) == QSeries.one(desc, 4)
    h = QSeries.from_rationals(desc, 4, {1: F(2)})
    assert h.exp().coefficient(2).as_rational() == 2
    assert h.compose(h).coefficient(1).as_rational() == 4


def test_qseries_keeps_the_flag_of_a_zero_coefficient(desc):
    lost = LambdaScalar.lam_power(desc, -3)
    f = QSeries(desc, 1, {0: lost})
    assert f.truncated and f.is_zero()
    # (lam^-2 + q) * lam^-1: the true q^0 term lam^-3 lies below the floor.
    g = QSeries(desc, 2, {0: LambdaScalar.lam_power(desc, -2), 1: LambdaScalar.one(desc)})
    inv_lam = LambdaScalar.lam_power(desc, -1)
    for prod in (g * inv_lam, inv_lam * g, g * QSeries(desc, 2, {0: inv_lam})):
        assert prod.truncated
        head, linear = prod.coefficient(0), prod.coefficient(1)
        assert head.is_zero() and head.truncated
        assert linear == inv_lam and not linear.truncated


def test_a_substitution_past_a_flagged_zero_power_keeps_its_slices():
    # f = sum_d (lam q / z)^d under q = q'/lam: every slice reads (q'/z)^d exactly,
    # but at floor 1 the power (q'/lam)^2 is a flagged zero, not an end of the sum.
    def composed(floor):
        desc = RingDescriptor(n=2, lambda_floor=floor)
        lam = lambda k: CohElement.from_scalar(LambdaScalar.lam_power(desc, k))
        f = ZSeries(desc, 3, {d: {-d: lam(d)} for d in range(4)})
        return f.compose_novikov(QSeries(desc, 3, {1: LambdaScalar.lam_power(desc, -1)}))

    exact = composed(6)
    assert not exact.truncated
    assert {d: exact.slice(d) for d in range(4)} == {
        d: {-d: CohElement.one(exact.desc)} for d in range(4)
    }
    lossy = composed(1)
    assert lossy.truncated
    assert lossy.slice(1) == {-1: CohElement.one(lossy.desc)}
    for d in (2, 3):
        assert lossy.slice(d) and all(el.truncated for el in lossy.slice(d).values())
