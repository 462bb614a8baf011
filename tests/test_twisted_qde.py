"""Both twists against the twisted quantum differential equation of ``twist_oracles``."""

import pytest
from hypothesis import given, settings, strategies as st

from qlefschetz import BundleSpec, RingDescriptor, ZSeries, i_function, j_reduced, serre_dual_i
from qlefschetz.series import REDUCED
from qlefschetz.twist import _twisted_slices

from twist_oracles import twisted_qde_check

CASES = [
    (5, (5,), False, 8),
    (5, (5,), True, 5),
    (5, (3,), True, 5),
    (6, (2, 3), False, 6),
    (5, (7,), True, 4),
    (4, (2, 2), True, 4),
    (3, (3,), False, 7),
    (3, (3,), True, 5),
]


def twists(n, degrees, equivariant, D):
    J = j_reduced(n, D, desc=RingDescriptor(n=n, lambda_floor=3))
    bundle = BundleSpec(degrees, equivariant=equivariant)
    series, ok, failure = serre_dual_i(J, bundle)
    assert ok, failure
    return bundle, i_function(J, bundle), series


@pytest.mark.parametrize("n,degrees,equivariant,D", CASES)
def test_both_twists_solve_the_twisted_qde(n, degrees, equivariant, D):
    bundle, I, dual = twists(n, degrees, equivariant, D)
    # None of these inputs is truncated, so no residual class is flagged.
    assert twisted_qde_check(I, bundle) == (None, 0)
    assert twisted_qde_check(dual, bundle, dual=True) == (None, 0)


@pytest.mark.parametrize("start", [0, 2])
@pytest.mark.parametrize("equivariant", [False, True])
def test_a_shifted_factor_range_fails_at_degree_one(start, equivariant):
    # The hypergeometric twist runs k = 1 .. l d; a range that starts one
    # step early or late breaks the equation at the first Novikov degree.
    J = j_reduced(5, 3, desc=RingDescriptor(n=5, lambda_floor=3))
    bundle = BundleSpec((5,), equivariant=equivariant)
    rows = {d: twisted for d, twisted, _ in _twisted_slices(J, bundle, start)}
    shifted = ZSeries._of(J.desc, J.max_degree, rows, REDUCED)
    assert twisted_qde_check(shifted, bundle) == (1, 0)
    assert twisted_qde_check(i_function(J, bundle), bundle) == (None, 0)


@settings(max_examples=25)
@given(
    st.integers(2, 5),
    st.lists(st.integers(1, 3), max_size=2),
    st.booleans(),
    st.integers(1, 3),
)
def test_the_twisted_qde_holds_for_any_bundle(n, degrees, equivariant, D):
    bundle, I, dual = twists(n, tuple(degrees), equivariant, D)
    assert twisted_qde_check(I, bundle)[0] is None
    assert twisted_qde_check(dual, bundle, dual=True)[0] is None
