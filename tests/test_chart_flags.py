"""Flag soundness of the two closed-form chart pieces, and of the chart read-off.

An unflagged read must be exact: it must equal the same read at a floor
three steps lower and a log cap three steps higher.  The inputs are
lam-Laurent tails whose terms reach below the floor, with a k log(lam)
constant, so the truncation is exercised; on exact inputs the closed forms
must also agree with the plain exponential they replaced.  The prefactor
exp(-(tau0 + tau P)/z) is read as the chart builds it, the product of
``mirror._prefactor``'s two factors.  The kernels under
them are held to the same rule: ``QSeries.exp``, ``invert`` and ``compose``,
and ``ZSeries.exp``, whose sum goes on through a term that is a flagged zero.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qlefschetz import (
    BundleSpec,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    cone_transform,
    i_function,
    j_reduced,
    tangency_solve,
)
from qlefschetz.mirror import _inverse_novikov_map, _prefactor

from series_oracles import prefactor_exp

RAISE = 3
TERMS = st.dictionaries(
    st.tuples(st.integers(-5, 2), st.integers(0, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    max_size=3,
)


@st.composite
def inputs(draw):
    """(n, D, floor, cap, k, tau0 terms, tau terms) for a tail pair at two precisions."""
    n, D = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    floor, cap = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    tau0 = draw(st.dictionaries(st.integers(1, D), TERMS, max_size=D))
    tau = draw(st.dictionaries(st.integers(1, D), TERMS, max_size=D))
    return n, D, floor, cap, draw(st.integers(-2, 2)), tau0, tau


def build(desc, D, k, terms):
    coeffs = {d: LambdaScalar(desc, t) for d, t in terms.items()}
    if k:
        coeffs[0] = LambdaScalar.log_lambda(desc, k)
    return QSeries(desc, D, coeffs)


def both(case):
    """The pair (tau0, tau) at the drawn precision and at the raised one."""
    n, D, floor, cap, k, tau0, tau = case
    low = RingDescriptor(n=n, lambda_floor=floor, log_cap=cap)
    high = RingDescriptor(n=n, lambda_floor=floor + RAISE, log_cap=cap + RAISE)
    return [(build(desc, D, 0, tau0), build(desc, D, k, tau)) for desc in (low, high)]


def changed_unflagged(low, high) -> list:
    """The reads [(key, low, high)] unflagged in low whose values differ from high."""
    return [
        (key, a, high[key])
        for key, a in low.items()
        if not a.truncated and a.to_json_dict() != high[key].to_json_dict()
    ]


def q_reads(f: QSeries) -> dict:
    return {d: f.coefficient(d) for d in range(f.max_degree + 1)}


def prefactor(tau0: QSeries, tau: QSeries):
    """exp(-(tau0 + tau P)/z) as the chart builds it: exp(-tau0/z) times exp(-tau P/z)."""
    return _prefactor(tau0, 0, tau0.max_degree + 1) * _prefactor(tau, 1, tau.desc.n)


def z_reads(f, other) -> dict:
    """Every (d, z, p) slot of f, over the z-exponents where f or other holds a class."""
    return {
        (d, ze, p): f.scalar_slot(d, ze, p)
        for d in range(f.max_degree + 1)
        for ze in set(f.slice(d)) | set(other.slice(d))
        for p in range(f.desc.n)
    }


@settings(max_examples=80)
@given(inputs())
def test_unflagged_inverse_map_coefficients_are_exact(case):
    (_, low), (_, high) = both(case)
    assert changed_unflagged(q_reads(_inverse_novikov_map(low)), q_reads(_inverse_novikov_map(high))) == []


@settings(max_examples=80)
@given(inputs())
def test_unflagged_prefactor_slots_are_exact(case):
    low, high = (prefactor(*pair) for pair in both(case))
    assert changed_unflagged(z_reads(low, high), z_reads(high, low)) == []


@settings(max_examples=80)
@given(inputs())
def test_unflagged_q_series_kernel_coefficients_are_exact(case):
    def kernels(tau0, tau):
        one = QSeries.one(tau0.desc, tau0.max_degree)
        return tau0.exp(), (one + tau0).invert(), tau.compose(tau0)

    for low, high in zip(*(kernels(*pair) for pair in both(case))):
        assert changed_unflagged(q_reads(low), q_reads(high)) == []


@settings(max_examples=80)
@given(inputs())
def test_unflagged_exponential_slots_are_exact(case):
    low, high = (prefactor_exp(*pair) for pair in both(case))
    assert changed_unflagged(z_reads(low, high), z_reads(high, low)) == []


def test_a_flagged_zero_coefficient_flags_the_q_series_kernels():
    d = RingDescriptor(2, 1)
    one, lost = LambdaScalar.one(d), LambdaScalar(d, {(-3, 0): 1})
    q = QSeries(d, 3, {1: one})
    assert lost.is_zero() and lost.truncated
    assert QSeries(d, 3, {0: one, 1: lost}).invert()._trunc == 0b1110
    assert QSeries(d, 3, {1: lost}).exp()._trunc == 0b1110
    assert QSeries(d, 3, {1: lost}).compose(q)._trunc == 0b0010
    # A flagged zero power of the inner series does not end the composition,
    # though q^3 stays exact: the outer series has no q^3 term to meet the
    # flagged cube; and a flagged zero constant flags every coefficient of
    # exp and 1/f.
    assert QSeries(d, 3, {1: one, 2: one}).compose(QSeries(d, 3, {1: lost}))._trunc == 0b0110
    assert QSeries(d, 3, {0: lost, 1: one}).exp()._trunc == 0b1111
    assert QSeries(d, 3, {0: one + lost, 2: one}).invert()._trunc == 0b0101


def test_the_exponential_goes_on_through_a_flagged_zero_term():
    # exp(-tau0/z), tau0 = lam^-1 q: the slot (q^3, z^-3, P^0) is -lam^-3/6,
    # below a floor of 0, where it reads as a flagged zero.
    reads = []
    for floor in (0, 4):
        desc = RingDescriptor(2, floor, 0)
        tau0 = QSeries(desc, 3, {1: LambdaScalar.lam_power(desc, -1)})
        reads.append(prefactor_exp(tau0, QSeries.zero(desc, 3)).scalar_slot(3, -3, 0))
    assert reads[0].is_zero() and reads[0].truncated
    assert reads[1] == LambdaScalar.lam_power(reads[1].desc, -3, Fraction(-1, 6))
    assert not reads[1].truncated


@settings(max_examples=60)
@given(inputs())
def test_prefactor_equals_the_exponential_of_its_argument(case):
    # Floor and cap far out of reach: the arithmetic is exact.
    n, D, _, _, k, tau0, tau = case
    desc = RingDescriptor(n=n, lambda_floor=60, log_cap=20)
    pair = (build(desc, D, 0, tau0), build(desc, D, k, tau))
    got = prefactor(*pair)
    assert got == prefactor_exp(*pair)
    assert not got.truncated


def tangency(n, l, D, floor, log_cap):
    desc = RingDescriptor(n=n, lambda_floor=floor, log_cap=log_cap)
    bundle = BundleSpec((l,))
    return tangency_solve(cone_transform(i_function(j_reduced(n, D, desc=desc), bundle), bundle), bundle)


def test_unflagged_tangency_reads_are_exact_on_a_grid():
    # J_out read at every (d, z, p) slot where either precision holds a class,
    # and every coefficient of q_of_tau and tau_of_q.
    reads = flagged = 0
    changed = []
    for n in (2, 3):
        for l in (1, 2):
            for D in (1, 2, 3):
                for floor in (2, 3, 4, 5):
                    low = tangency(n, l, D, floor, 8)
                    high = tangency(n, l, D, floor + RAISE, 8 + RAISE)
                    pairs = [
                        (z_reads(low.J_out, high.J_out), z_reads(high.J_out, low.J_out)),
                        (q_reads(low.q_of_tau), q_reads(high.q_of_tau)),
                        (q_reads(low.tau_of_q), q_reads(high.tau_of_q)),
                    ]
                    for a, b in pairs:
                        reads += len(a)
                        flagged += sum(v.truncated for v in a.values())
                        changed += [(n, l, D, floor, *item) for item in changed_unflagged(a, b)]
    assert changed == []
    assert (reads, flagged) == (1647, 1599)
