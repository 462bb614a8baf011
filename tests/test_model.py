"""The operations that have no kernel test file of their own, against the reference model.

Each test draws exact values and holds the engine's result to ROADMAP aim
3's rule (``against_model.sound``).  The products, the linear operations,
the q-series kernels, ``scale_qseries``, ``scale_scalar``,
``compose_novikov``, z·D_P and the z-reader are held to the model in their
kernel's file; here are the inverse Novikov map, ``ZSeries.exp``, the
regression cases of a flagged-zero power, of a scalar over another ring
descriptor, of a projection that splits a flagged class, of a symplectic
form whose flagged partner sits at another z and of an exponential whose
flagged zero class sits at a nonzero weight.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qlefschetz import (
    CohElement,
    DescriptorMismatchError,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    invert_series,
)
from qlefschetz.mirror import _inverse_novikov_map
from qlefschetz.series import RAW, project, symplectic_form

import model
from against_model import VALUES, inputs, qseries, sound, tails, zseries

EXAMPLES = settings(max_examples=50)


# The inner series lam^-1 q squares to lam^-2 q^2, below a floor of 1: a flagged
# zero power, which must not end a composition (compose_novikov once stopped there).
FLAGGED_POWER = (RingDescriptor(2, 1, 0), 3, [{(1, -1, 0): 1}])


@given(inputs(tails))
@example(FLAGGED_POWER)
def test_a_flagged_zero_power_does_not_end_a_composition(case):
    desc, D, (inner,) = case
    f = {(d, 0, 0): Fraction(1) for d in range(D + 1)}
    sound(qseries(desc, D, f).compose(qseries(desc, D, inner)),
          lambda m, a, b: m.q_compose(a, b, D), f, inner, desc=desc)
    rows = {(d, -d, 0, 0, 0): Fraction(1) for d in range(D + 1)}
    sound(zseries(desc, D, rows).compose_novikov(qseries(desc, D, inner)),
          lambda m, a, b: m.compose_novikov(a, b, D, desc.n), rows, inner, desc=desc)


@EXAMPLES
@given(inputs(tails), st.integers(-2, 2))
# q' = q exp(q - 2 lam^-1 q^2): u = q' - q'^2 + ..., through the lam shift of k = 1.
@example((RingDescriptor(2, 1, 1), 3, [{(1, 0, 0): 1, (2, -1, 0): -2}]), 1)
def test_inverse_novikov_map(case, k):
    desc, D, (h,) = case
    k *= desc.log_cap > 0  # k log(lam) needs a log cap of 1
    tau = qseries(desc, D, h) + QSeries(desc, D, {0: LambdaScalar.log_lambda(desc, k)})
    sound(_inverse_novikov_map(tau), lambda m, a: m.inverse_map(a, D, k), h, desc=desc)
    sound(invert_series(qseries(desc, D, h)), lambda m, a: m.inverse_map(a, D), h, desc=desc)


def exponents(desc, D, dirty):
    """z-series whose terms have d >= 1 or p >= 1, which makes exp a finite sum.

    The z-exponent is drawn freely, so the terms of one series sit at
    several weights z + p + a, as in
    ``test_z_series_exp_of_a_flagged_nilpotent_of_two_weights``; the cone
    transform's exponent has weight 0.
    """
    keys = st.tuples(st.integers(0, D), st.integers(-3, 3), st.integers(0, desc.n - 1),
                     st.integers(-desc.lambda_floor - 2 * dirty, 2), st.integers(0, desc.log_cap + dirty))
    return st.dictionaries(keys.filter(lambda k: k[0] or k[2]), VALUES, max_size=6)


@EXAMPLES
@given(inputs(exponents))
def test_z_series_exp(case):
    desc, D, (f,) = case
    sound(zseries(desc, D, f).exp(), lambda m, a: m.z_exp(a, D, desc.n), f, desc=desc)


def test_z_series_exp_of_a_flagged_nilpotent_of_two_weights():
    # P log(lam) + P^2 at n = 3, log cap 0: the log term is lost, so P^1 is a flagged zero.
    desc = RingDescriptor(3, 1, 0)
    f = {(0, 0, 1, 0, 1): 1, (0, 0, 2, 0, 0): 1}
    sound(zseries(desc, 0, f).exp(), lambda m, a: m.z_exp(a, 0, desc.n), f, desc=desc)


def test_a_scalar_over_another_descriptor_is_refused():
    desc, other = RingDescriptor(3, 2, 1), RingDescriptor(3, 1, 1)
    # lam^-2 is in range over other but below desc's floor: it must not be stored unflagged.
    s = LambdaScalar(other, {(-2, 0): 1})
    with pytest.raises(DescriptorMismatchError):
        QSeries(desc, 2, {1: s})
    with pytest.raises(DescriptorMismatchError):
        CohElement(desc, [s, LambdaScalar.zero(desc), LambdaScalar.zero(desc)])


NO_LOG = RingDescriptor(2, 1, 0)


def test_project_keeps_the_flag_of_a_class_it_splits():
    # 1 + log(lam) z^-1 at log cap 0: the log term is lost, and the weight-0
    # class that holds 1 carries the flag; the minus half must be a flagged zero.
    f = {(0, 0, 0, 0, 0): 1, (0, -1, 0, 0, 1): 1}
    sound(project(zseries(NO_LOG, 0, f, RAW), "minus"), lambda m, a: model.project(a, "minus"), f,
          desc=NO_LOG)


def test_symplectic_form_keeps_the_flag_of_a_lost_partner():
    # f = 1 and g = log(lam) P z^-1 at log cap 0: the pairing is log(lam), lost, so it is flagged.
    f, g = {(0, 0, 0, 0, 0): 1}, {(0, -1, 1, 0, 1): 1}
    sound(symplectic_form(zseries(NO_LOG, 0, f, RAW), zseries(NO_LOG, 0, g, RAW)),
          lambda m, a, b: m.symplectic_form(a, b, 0, NO_LOG.n), f, g, desc=NO_LOG)
