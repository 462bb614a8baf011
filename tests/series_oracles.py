"""Direct definitions kept as test oracles: independent routes to the engine's results.

``i_function_from_scratch`` and ``serre_dual_i_from_scratch`` rebuild the
product of all linear factors of every slice of the hypergeometric
modification and of the Serre-dual twist for every degree, and expand both
sides of the twist's finite product identity for every root and degree,
where the engine carries each root's product from degree to degree.
``prefactor_exp`` is the chart prefactor exp(-(tau0 + tau P)/z) as the
exponential of its argument, where the engine stacks it from the powers of
its q-series.  The kernels themselves are checked against the reference
model of ``model.py``.
"""

from __future__ import annotations

from fractions import Fraction

from qlefschetz import CohElement, LambdaScalar, QSeries, ZSeries
from qlefschetz.series import REDUCED


def prefactor_exp(tau0: QSeries, tau: QSeries) -> ZSeries:
    """exp(-(tau0 + tau P)/z) as ``ZSeries.exp`` of its argument, one z-row per term."""
    desc, D = tau.desc, tau.max_degree
    argument = ZSeries.zero(desc, D)
    for j, h in enumerate((tau0, tau)):
        term = ZSeries(desc, D, {0: {-1: CohElement.p_power(desc, j, -1)}}, REDUCED)
        argument = argument + term.scale_qseries(h)
    return argument.exp()


def _root(desc, l, equivariant):
    """The Chern root lam + l P, or l P without the circle action."""
    root = CohElement.p_power(desc, 1, l)
    if equivariant:
        root = root + CohElement.from_scalar(LambdaScalar.lam_power(desc, 1))
    return root


def _factor_product(desc, factors):
    """prod (a + c z) over factors [(a, c)], as a map z-exponent -> CohElement."""
    poly = {0: CohElement.one(desc)}
    for a, c in factors:
        out = {}
        for ze, el in poly.items():
            out[ze] = out.get(ze, CohElement.zero(desc)) + el * a
            out[ze + 1] = out.get(ze + 1, CohElement.zero(desc)) + el.scale(c)
        poly = {ze: el for ze, el in out.items() if not el.is_zero()}
    return poly


def _row_times(desc, row, multiplier, sign=1):
    tgt = {}
    for z1, el in row.items():
        for z2, mel in multiplier.items():
            prod = (el * mel).scale(sign)
            tgt[z1 + z2] = tgt.get(z1 + z2, CohElement.zero(desc)) + prod
    return tgt


def i_function_from_scratch(J: ZSeries, bundle) -> ZSeries:
    """Slice d times prod_i prod_{k=1}^{l_i d} (lam + l_i P + k z), rebuilt for every d."""
    desc = J.desc
    out = {}
    for d in J.slices:
        factors = [
            (_root(desc, l, bundle.equivariant), Fraction(k))
            for l in bundle.degrees
            for k in range(1, l * d + 1)
        ]
        out[d] = _row_times(desc, J.slice(d), _factor_product(desc, factors))
    return ZSeries(desc, J.max_degree, out, REDUCED)


def serre_dual_i_from_scratch(J: ZSeries, bundle):
    """Slice d times (-1)^(sum_i l_i d) prod_i prod_{k=0}^{l_i d - 1} (lam + l_i P + k z).

    Every product, and both sides of the identity
    prod_{k=1-l d}^{0} (-root + k z) = (-1)^(l d) prod_{k=0}^{l d - 1} (root + k z),
    is rebuilt for every degree.  Returns (series, ok, first_failure).
    """
    desc = J.desc
    first_failure = None
    out = {}
    for d in sorted(J.slices):
        factors = []
        sign = 1
        for i, l in enumerate(bundle.degrees):
            root = _root(desc, l, bundle.equivariant)
            count = l * d
            sign *= (-1) ** count
            factors.extend((root, Fraction(k)) for k in range(0, count))
            lhs = _factor_product(desc, [(-root, Fraction(k)) for k in range(1 - count, 1)])
            rhs = _factor_product(desc, [(root, Fraction(k)) for k in range(0, count)])
            for ze in set(lhs) | set(rhs):
                diff = lhs.get(ze, CohElement.zero(desc)) - rhs.get(
                    ze, CohElement.zero(desc)
                ).scale((-1) ** count)
                if not diff.is_zero() and first_failure is None:
                    first_failure = (i, d)
        out[d] = _row_times(desc, J.slice(d), _factor_product(desc, factors), sign)
    return ZSeries(desc, J.max_degree, out, REDUCED), first_failure is None, first_failure
