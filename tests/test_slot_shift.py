"""z*D_P as a slot shift: ``_Graded._times_t_plus`` against the general product.

``series.directional_derivative`` multiplies the class at each weight of
slice d by P + d through ``_times_t_plus(d)``, a shift of the slots plus d
times the class.  It must equal the class product ``el * (P + d)``, and for
q-series ``qs * (q + d)``, in value and in the flag mask ``_trunc``: on
flagged slots, flagged zero slots, exact zeros, terms in the top slot and
d = 0.  The compute-job side of the change is in ``test_s_matrix_half.py``.
"""

from hypothesis import given, settings, strategies as st

from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor, ZSeries, j_reduced
from qlefschetz.series import directional_derivative

KEYS = st.tuples(st.integers(-5, 2), st.integers(0, 3))
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
# A slot is an exact zero, a flagged zero or holds terms; flags are the rarer case.
SLOTS = st.tuples(
    st.one_of(st.just({}), st.dictionaries(KEYS, VALUES, min_size=1, max_size=3)),
    st.integers(0, 3).map(lambda k: k == 0),
)


@st.composite
def values(draw):
    """(value, t + d) for a class or a q-series over a drawn descriptor, d in -2..4."""
    desc = RingDescriptor(draw(st.integers(2, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    d = draw(st.integers(-2, 4))
    if draw(st.booleans()):
        span = desc.n
        comps = [LambdaScalar(desc, *draw(SLOTS)) for _ in range(span)]
        step = CohElement.p_power(desc, 1) + CohElement.p_power(desc, 0, d)
        return CohElement(desc, comps), step, d
    D = draw(st.integers(0, 4))
    coeffs = {k: LambdaScalar(desc, *draw(SLOTS)) for k in range(D + 1)}
    step = QSeries(desc, D, {1: LambdaScalar.one(desc), 0: LambdaScalar.from_rational(desc, d)})
    return QSeries(desc, D, coeffs), step, d


def agree(el, step, d):
    got, want = el._times_t_plus(d), el * step
    assert type(got) is type(want)
    assert got == want
    assert got._trunc == want._trunc
    return got


@settings(max_examples=400)
@given(values())
def test_the_slot_shift_is_the_product_with_t_plus_d(case):
    agree(*case)


def test_the_named_cases():
    desc = RingDescriptor(4, 1, 1)
    n = desc.n
    lost = LambdaScalar(desc, {(-3, 0): 1})  # below the floor: a flagged zero
    flagged = LambdaScalar(desc, {(0, 0): 2, (-1, 0): 3}, truncated=True)
    plain = LambdaScalar(desc, {(1, 1): 5, (0, 0): -1})
    zero = LambdaScalar.zero(desc)
    cases = {
        "flagged slot": [flagged, plain, zero, zero],
        "flagged zero slot": [plain, zero, lost, plain],
        "exact zero": [zero] * n,
        "flagged zero class": [lost] + [zero] * (n - 1),
        "top slot": [zero, zero, zero, plain],
        "flagged top slot": [zero, zero, zero, flagged],
        "cancelling": [plain, plain.scale(2), zero, zero],
    }
    for name, comps in cases.items():
        el = CohElement(desc, comps)
        for d in (0, 1, 2, -2):
            step = CohElement.p_power(desc, 1) + CohElement.p_power(desc, 0, d)
            got = agree(el, step, d)
            if name == "exact zero":
                assert got.is_zero() and not got.truncated
            if "top slot" in name and d == 0:
                assert got.is_zero() and not got.truncated  # P^n = 0


def flagged_rows(series):
    return {d: {w: (el, el._trunc) for w, el in row.items()} for d, row in series.slices.items()}


def test_the_frame_is_unchanged():
    # z*D_P through the slot shift against the class product it replaced, slice by slice,
    # on J with a flagged zero class at degree 1.
    for n, D, floor in ((3, 4, 0), (5, 3, 2)):
        desc = RingDescriptor(n, floor)
        lost = CohElement(desc, [LambdaScalar(desc, {(-4, 0): 1})] * n)
        f = j_reduced(n, D, desc=desc) + ZSeries(desc, D, {1: {0: lost}})
        p = CohElement.p_power(desc, 1)
        for _ in range(n):
            want = f._like({
                d: {w + 1: el * (p + CohElement.p_power(desc, 0, d)) for w, el in row.items()}
                for d, row in f.slices.items()
            })
            f = directional_derivative(f)
            assert flagged_rows(f) == flagged_rows(want)
