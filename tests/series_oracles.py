"""Slow, direct definitions of the series kernels, kept as test oracles.

Each function computes the same quantity as an engine kernel by the plain
definition that the kernel replaces: power sums for exp and 1/f, the
fixed-point iteration u = q' * lam^(-k) * exp(-tail(u)) for the inverse
Novikov map, and a from-scratch product of all linear factors for every slice
of the hypergeometric modification and of the Serre-dual twist, whose finite
product identity is expanded on both sides for every root and degree.  The
scalar kernel is checked against ``FractionScalar`` and ``fraction_coh_mul``,
the Fraction-dict arithmetic that the fraction-free ``LambdaScalar`` replaced.
"""

from fractions import Fraction
from math import factorial

from qlefschetz import CohElement, LambdaScalar, QSeries, ZSeries
from qlefschetz.series import REDUCED, exp_constant_scalar


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
    for d, row in J.slices.items():
        factors = [
            (_root(desc, l, bundle.equivariant), Fraction(k))
            for l in bundle.degrees
            for k in range(1, l * d + 1)
        ]
        out[d] = _row_times(desc, row, _factor_product(desc, factors))
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
        out[d] = _row_times(desc, J.slices[d], _factor_product(desc, factors), sign)
    return ZSeries(desc, J.max_degree, out, REDUCED), first_failure is None, first_failure


class FractionScalar:
    """A lam-Laurent scalar as a dict {(lam_exp, log_exp): Fraction}, one Fraction per term.

    Terms below the floor or past the log cap are dropped after each result is
    summed, and the drop of a nonzero term sets the sticky ``truncated`` flag.
    """

    def __init__(self, desc, coeffs=None, truncated=False):
        self.desc = desc
        clean = {}
        dropped = False
        for (a, b), c in (coeffs or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if a < -desc.lambda_floor or b > desc.log_cap:
                dropped = True
                continue
            clean[(a, b)] = c
        self.coeffs = clean
        self.truncated = truncated or dropped

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return FractionScalar(self.desc, out, self.truncated or other.truncated)

    def __neg__(self):
        return FractionScalar(
            self.desc, {k: -c for k, c in self.coeffs.items()}, self.truncated
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return FractionScalar(self.desc, out, self.truncated or other.truncated)

    def scale(self, value):
        return FractionScalar(
            self.desc, {k: c * value for k, c in self.coeffs.items()}, self.truncated
        )

    def to_json_dict(self):
        return {
            (str(a) if b == 0 else f"{a}|{b}"): str(c)
            for (a, b), c in sorted(self.coeffs.items())
        }


def fraction_coh_mul(desc, a, b):
    """Product in Q[P]/(P^n) of component lists of FractionScalar.

    A zero component is skipped even when it is truncated, so its flag does
    not reach the product.
    """
    n = desc.n
    out = [FractionScalar(desc) for _ in range(n)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j in range(n - i):
            if not b[j].is_zero():
                out[i + j] = out[i + j] + x * b[j]
    return out
