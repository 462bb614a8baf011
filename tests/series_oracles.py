"""Slow, direct definitions of the series kernels, kept as test oracles.

Each function computes the same quantity as an engine kernel by the plain
definition that the kernel replaces: power sums for exp and 1/f, the
fixed-point iteration u = q' * lam^(-k) * exp(-tail(u)) for the inverse
Novikov map, and a from-scratch product of all linear factors for every slice
of the hypergeometric modification.
"""

from fractions import Fraction
from math import factorial

from qlefschetz import CohElement, QSeries, ZSeries
from qlefschetz.series import REDUCED, exp_constant_scalar
from qlefschetz.twist import _linear_factor_product, _root_class


def exp_power_sum(f: QSeries) -> QSeries:
    """exp(f) = sum_j f^j / j! for f with zero constant term."""
    out = QSeries.one(f.desc, f.max_degree)
    term = QSeries.one(f.desc, f.max_degree)
    for j in range(1, f.max_degree + 1):
        term = term * f
        out = out + term.scale(Fraction(1, factorial(j)))
    return out


def invert_geometric(f: QSeries) -> QSeries:
    """1/f = (1/f_0) sum_j (1 - f/f_0)^j for f with nonzero rational f_0."""
    lead = f.coefficient(0).as_rational()
    neg_tail = QSeries.one(f.desc, f.max_degree) - f.scale(Fraction(1, lead))
    out = QSeries.one(f.desc, f.max_degree)
    term = QSeries.one(f.desc, f.max_degree)
    for _ in range(f.max_degree):
        term = term * neg_tail
        out = out + term
    return out.scale(Fraction(1, lead))


def inverse_map_fixed_point(tau: QSeries) -> QSeries:
    """Inverse of q' = q exp(tau(q)) by D + 1 rounds of u = q' lam^(-k) exp(-tail(u))."""
    desc, D = tau.desc, tau.max_degree
    const = tau.coefficient(0)
    tail = tau - QSeries(desc, D, {0: const})
    shift = QSeries(desc, D, {1: exp_constant_scalar(-const)})
    u = shift
    for _ in range(D + 1):
        u = shift * exp_power_sum(-tail.compose(u))
    return u


def i_function_from_scratch(J: ZSeries, bundle) -> ZSeries:
    """Slice d times prod_i prod_{k=1}^{l_i d} (lam + l_i P + k z), rebuilt for every d."""
    desc = J.desc
    out = {}
    for d, row in J.slices.items():
        factors = [
            (_root_class(desc, l, bundle.equivariant), Fraction(k))
            for l in bundle.degrees
            for k in range(1, l * d + 1)
        ]
        multiplier = _linear_factor_product(desc, factors)
        tgt = {}
        for z1, el in row.items():
            for z2, mel in multiplier.items():
                tgt[z1 + z2] = tgt.get(z1 + z2, CohElement.zero(desc)) + el * mel
        out[d] = tgt
    return ZSeries(desc, J.max_degree, out, REDUCED)
