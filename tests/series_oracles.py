"""Slow, direct definitions of the series kernels, kept as test oracles.

Each function computes the same quantity as an engine kernel by the plain
definition that the kernel replaces: power sums for exp and 1/f, the
fixed-point iteration u = q' * lam^(-k) * exp(-tail(u)) for the inverse
Novikov map, the exponential of the whole argument for the chart prefactor
exp(-(tau0 + tau P)/z), and a from-scratch product of all linear factors for
every slice of the hypergeometric modification and of the Serre-dual twist,
whose finite product identity is expanded on both sides for every root and
degree.  The
scalar kernel is checked against ``FractionScalar`` and ``fraction_coh_mul``,
the Fraction-dict arithmetic that the fraction-free ``LambdaScalar`` replaced,
and the flat class kernel against ``scalar_coh_mul``, the slot-by-slot
``LambdaScalar`` product it replaced.  ``compose_novikov_per_degree`` is the
substitution q = inner(q') built from one series per degree.  ``DictQSeries``
is the dict-of-scalars q-series that ``QSeries``, now a value in the shared
class format, replaced, and ``ZKeyedSeries`` with the ``zkeyed_*`` functions
is the z-series whose rows were keyed by z-exponent, one class per entry,
before ``ZSeries`` keyed them by weight.  ``add_row_product`` and
``add_scaled_row`` are the per-product row kernels that the queued sums of
products (``series.queue_row_product``, ``queue_scaled_row`` and ``summed``)
replaced: each product is built as its own value and added into the target
at once.  The ``*_per_product`` functions are the ``ZSeries`` operations
written on them, and ``scale_qseries_queued`` is the queued row-by-scalar
``ZSeries.scale_qseries`` that the column product replaced.  ``at_z`` is
the direct (z, p) read of a weight-keyed slice and ``slot_series`` the
per-(degree, slot) q-series reader built on it, which ``ZSeries.z_row``
replaced, and ``z_row_by_split`` is ``z_row`` as it was before it read its
classes through ``series._columns``: each slice's class at z^z_exp is split
into scalars and the scalars stacked again.  ``cell_z_view`` and
``cell_at_minus_z`` are the
S-matrix cell readers that ``gw`` kept before the weight-z rule moved into
``series._regroup``.  ``slice_to_json_dict`` is ``ZSeries.to_json_dict`` as
it was before it rendered each term from the weight rows: it builds and
reduces one class per z-exponent with ``slice(d)`` and renders each class.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Mapping

from qlefschetz import (
    CohElement,
    DescriptorMismatchError,
    LambdaScalar,
    QSeries,
    RingDescriptor,
    UnitError,
    ZSeries,
)
from qlefschetz.ring import poincare_pairing
from qlefschetz.series import REDUCED, log_lambda_multiple, queue_scaled_row, summed


def slice_to_json_dict(f: ZSeries) -> dict:
    """The JSON of f, one class per z-exponent built by ``slice(d)`` and rendered."""
    slices: dict[str, dict] = {}
    for d in f.slices:
        row: dict[str, dict] = {}
        for ze, el in f.slice(d).items():
            pmap = el.to_json_dict()
            if pmap:
                row[str(ze)] = pmap
        if row:
            slices[str(d)] = row
    ring = {"n": f.desc.n, "lambda_floor": f.desc.lambda_floor, "log_cap": f.desc.log_cap}
    return {
        "convention": f.convention,
        "max_degree": f.max_degree,
        "ring": ring,
        "slices": slices,
        "truncated": f.truncated,
    }


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
    shift = QSeries(desc, D, {1: LambdaScalar.lam_power(desc, -log_lambda_multiple(const))})
    u = shift
    for _ in range(D + 1):
        u = shift * exp_power_sum(-tail.compose(u))
    return u


def prefactor_exp(tau0: QSeries, tau: QSeries) -> ZSeries:
    """exp(-(tau0 + tau P)/z) as ``ZSeries.exp`` of its argument, one z-row per term."""
    desc, D = tau.desc, tau.max_degree
    argument = ZSeries.zero(desc, D)
    for j, h in enumerate((tau0, tau)):
        term = ZSeries(desc, D, {0: {-1: CohElement.p_power(desc, j, -1)}}, REDUCED)
        argument = argument + term.scale_qseries(h)
    return argument.exp()


def compose_novikov_per_degree(f: ZSeries, inner: QSeries) -> ZSeries:
    """Substitute q = inner(q'): slice_d times inner^d as one series per degree, summed."""
    desc, D = f.desc, f.max_degree
    out = ZSeries(desc, D, {0: f.slice(0)}, f.convention)
    power = QSeries.one(desc, D)
    for d in range(1, D + 1):
        power = power * inner
        if power.is_zero() and not power.truncated:
            break
        if d in f.slices:
            piece = ZSeries(desc, D, {0: f.slice(d)}, f.convention)
            out = out + piece.scale_qseries(power)
    return out


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


class FractionScalar:
    """A lam-Laurent scalar as a dict {(lam_exp, log_exp): Fraction}, one Fraction per term.

    Terms below the floor or past the log cap are dropped after each result is
    summed, and the drop of a nonzero term sets the sticky ``truncated`` flag.
    A product with an exact zero (no term, no flag) is an exact zero.
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

    def is_exact_zero(self):
        return not self.coeffs and not self.truncated

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
        exact = self.is_exact_zero() or other.is_exact_zero()
        return FractionScalar(self.desc, out, not exact and (self.truncated or other.truncated))

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


def scalar_coh_mul(desc, a, b):
    """Product in Q[P]/(P^n) of component lists of LambdaScalar, slot by slot.

    One scalar product per pair of nonzero components, summed per slot.  A
    zero but truncated component of either factor marks every slot at or
    above its own degree in P, unless the other factor is an exact zero (no
    term, no flag): then the product is an exact zero.
    """
    n = desc.n
    lost = [k for comps in (a, b) for k, c in enumerate(comps) if c.is_zero() and c.truncated]
    exact = any(all(c.is_zero() and not c.truncated for c in comps) for comps in (a, b))
    tainted = n if exact else min(lost, default=n)
    out = [LambdaScalar.zero(desc) for _ in range(n)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j in range(n - i):
            if not b[j].is_zero():
                out[i + j] = out[i + j] + x * b[j]
    flag = LambdaScalar(desc, truncated=True)
    return [s + flag if k >= tainted else s for k, s in enumerate(out)]


class DictQSeries:
    """A scalar Novikov series as a dict {d: LambdaScalar} of its nonzero coefficients.

    Every operation works coefficient by coefficient with scalar arithmetic,
    and the constructor drops zero coefficients together with their
    ``truncated`` flags.
    """

    __slots__ = ("desc", "max_degree", "coeffs")

    def __init__(
        self,
        desc: RingDescriptor,
        max_degree: int,
        coeffs: Mapping[int, LambdaScalar] | None = None,
    ) -> None:
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.desc = desc
        self.max_degree = max_degree
        clean: dict[int, LambdaScalar] = {}
        if coeffs:
            for d, c in coeffs.items():
                if d < 0:
                    raise ValueError("negative Novikov degree")
                if d <= max_degree and not c.is_zero():
                    clean[d] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, desc: RingDescriptor, max_degree: int) -> "DictQSeries":
        return cls(desc, max_degree)

    @classmethod
    def one(cls, desc: RingDescriptor, max_degree: int) -> "DictQSeries":
        return cls(desc, max_degree, {0: LambdaScalar.one(desc)})

    @classmethod
    def from_rationals(
        cls, desc: RingDescriptor, max_degree: int, values: Mapping[int, Fraction]
    ) -> "DictQSeries":
        return cls(
            desc,
            max_degree,
            {d: LambdaScalar.from_rational(desc, v) for d, v in values.items()},
        )

    def coefficient(self, d: int) -> LambdaScalar:
        return self.coeffs.get(d, LambdaScalar.zero(self.desc))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def truncated(self) -> bool:
        return any(c.truncated for c in self.coeffs.values())

    def _check(self, other: "DictQSeries") -> None:
        if self.desc != other.desc:
            raise DescriptorMismatchError("q-series over different descriptors")
        if self.max_degree != other.max_degree:
            raise ValueError("q-series truncated at different degrees")

    def __add__(self, other: "DictQSeries") -> "DictQSeries":
        self._check(other)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            old = out.get(d)
            out[d] = c if old is None else old + c
        return DictQSeries(self.desc, self.max_degree, out)

    def __sub__(self, other: "DictQSeries") -> "DictQSeries":
        return self + (-other)

    def __neg__(self) -> "DictQSeries":
        return DictQSeries(
            self.desc, self.max_degree, {d: -c for d, c in self.coeffs.items()}
        )

    def __mul__(self, other) -> "DictQSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, LambdaScalar):
            return DictQSeries(
                self.desc,
                self.max_degree,
                {d: c * other for d, c in self.coeffs.items()},
            )
        self._check(other)
        out: dict[int, LambdaScalar] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                if d > self.max_degree:
                    continue
                prod = c1 * c2
                old = out.get(d)
                out[d] = prod if old is None else old + prod
        return DictQSeries(self.desc, self.max_degree, out)

    __rmul__ = __mul__

    def scale(self, value) -> "DictQSeries":
        return DictQSeries(
            self.desc, self.max_degree, {d: c.scale(value) for d, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DictQSeries):
            return NotImplemented
        return (
            self.desc == other.desc
            and self.max_degree == other.max_degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.desc, self.max_degree, tuple(sorted(self.coeffs.items()))))

    def valuation_at_least(self, v: int) -> bool:
        return all(d >= v for d in self.coeffs)

    def invert(self) -> "DictQSeries":
        """Inverse of a series whose constant term is a nonzero rational.

        With g = 1/f, comparing q^n coefficients of f*g = 1 gives the recurrence
        g_n = -(1/f_0) sum_{k=1}^{n} f_k g_(n-k), one pass over the degrees.
        """
        c0 = self.coefficient(0)
        if not c0.is_rational() or c0.as_rational() == 0:
            raise UnitError("q-series constant term is not a nonzero rational")
        neg_inv_lead = Fraction(-1, c0.as_rational())
        tail = {k: c for k, c in self.coeffs.items() if k}
        first = LambdaScalar.from_rational(self.desc, -neg_inv_lead)
        return self._recurrence(first, tail, lambda n: neg_inv_lead)

    def exp(self) -> "DictQSeries":
        """Exponential of a series with zero constant term.

        g = exp(f) solves q*g' = (q*f')*g, so n*g_n = sum_{k=1}^{n} k f_k g_(n-k)
        with g_0 = 1: each coefficient costs one pass over f.
        """
        if not self.valuation_at_least(1):
            raise ValueError("exp requires q-valuation >= 1")
        weighted = {k: c.scale(k) for k, c in self.coeffs.items()}
        one = LambdaScalar.one(self.desc)
        return self._recurrence(one, weighted, lambda n: Fraction(1, n))

    def _recurrence(self, first, weights, factor) -> "DictQSeries":
        """The series g_0 = first, g_n = factor(n) * sum_{k=1}^{n} weights_k g_(n-k)."""
        terms = sorted(weights.items())
        g = [first]
        for n in range(1, self.max_degree + 1):
            acc = LambdaScalar.zero(self.desc)
            for k, w in terms:
                if k > n:
                    break
                acc = acc + w * g[n - k]
            g.append(acc.scale(factor(n)))
        return DictQSeries(self.desc, self.max_degree, dict(enumerate(g)))

    def compose(self, inner: "DictQSeries") -> "DictQSeries":
        """Substitute q = inner(q'), where inner has valuation >= 1."""
        self._check(inner)
        if not inner.valuation_at_least(1):
            raise ValueError("composition requires inner valuation >= 1")
        out = DictQSeries(self.desc, self.max_degree, {0: self.coefficient(0)})
        power = DictQSeries.one(self.desc, self.max_degree)
        for d in range(1, self.max_degree + 1):
            power = power * inner
            if power.is_zero():
                break
            c = self.coefficient(d)
            if not c.is_zero():
                out = out + power * c
        return out

    def to_json_dict(self) -> dict[str, dict[str, str]]:
        return {str(d): c.to_json_dict() for d, c in sorted(self.coeffs.items())}

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*q^{d}" for d, c in sorted(self.coeffs.items()))


class ZKeyedSeries:
    """A z-series whose row d maps each z-exponent to a class.

    The constructor drops zero classes together with their ``truncated``
    flags, and each row product adds one class product per pair of entries,
    skipping the products that vanish.
    """

    __slots__ = ("desc", "max_degree", "convention", "slices")

    def __init__(self, desc, max_degree, slices=None, convention=REDUCED):
        self.desc = desc
        self.max_degree = max_degree
        self.convention = convention
        self.slices = {}
        for d, zpoly in (slices or {}).items():
            row = {ze: el for ze, el in zpoly.items() if not el.is_zero()}
            if d <= max_degree and row:
                self.slices[d] = row

    @property
    def truncated(self) -> bool:
        return any(el.truncated for row in self.slices.values() for el in row.values())

    def _like(self, slices) -> "ZKeyedSeries":
        return ZKeyedSeries(self.desc, self.max_degree, slices, self.convention)

    def __add__(self, other: "ZKeyedSeries") -> "ZKeyedSeries":
        out = {d: dict(row) for d, row in self.slices.items()}
        for d, row in other.slices.items():
            tgt = out.setdefault(d, {})
            for ze, el in row.items():
                old = tgt.get(ze)
                tgt[ze] = el if old is None else old + el
        return self._like(out)

    def __mul__(self, other: "ZKeyedSeries") -> "ZKeyedSeries":
        out = {}
        for d1, row1 in self.slices.items():
            for d2, row2 in other.slices.items():
                if d1 + d2 <= self.max_degree:
                    tgt = out.setdefault(d1 + d2, {})
                    for z1, e1 in row1.items():
                        for z2, e2 in row2.items():
                            prod = e1 * e2
                            if not prod.is_zero():
                                old = tgt.get(z1 + z2)
                                tgt[z1 + z2] = prod if old is None else old + prod
        return self._like(out)

    def _add_scaled(self, out, d, row, c) -> None:
        tgt = out.setdefault(d, {})
        for ze, el in row.items():
            prod = el.scale_scalar(c)
            old = tgt.get(ze)
            tgt[ze] = prod if old is None else old + prod

    def scale_qseries(self, f: QSeries) -> "ZKeyedSeries":
        out = {}
        for d1, row in self.slices.items():
            for d2, c in f.coeffs.items():
                if d1 + d2 <= self.max_degree:
                    self._add_scaled(out, d1 + d2, row, c)
        return self._like(out)

    def compose_novikov(self, inner: QSeries) -> "ZKeyedSeries":
        out = {0: dict(self.slices.get(0, {}))}
        power = QSeries.one(self.desc, self.max_degree)
        for d in range(1, self.max_degree + 1):
            power = power * inner
            if power.is_zero() and not power.truncated:
                break
            if d in self.slices:
                for m, c in power.coeffs.items():
                    self._add_scaled(out, m, self.slices[d], c)
        return self._like(out)

    def to_json_dict(self) -> dict:
        slices = {}
        for d in sorted(self.slices):
            row = {}
            for ze in sorted(self.slices[d]):
                pmap = self.slices[d][ze].to_json_dict()
                if pmap:
                    row[str(ze)] = pmap
            if row:
                slices[str(d)] = row
        return {
            "convention": self.convention,
            "max_degree": self.max_degree,
            "ring": {
                "n": self.desc.n,
                "lambda_floor": self.desc.lambda_floor,
                "log_cap": self.desc.log_cap,
            },
            "slices": slices,
            "truncated": self.truncated,
        }


def zkeyed_directional_derivative(f: ZKeyedSeries) -> ZKeyedSeries:
    """z D_P entry by entry: P * el stays at z^ze and d * el moves to z^(ze+1)."""
    p_class = CohElement.p_power(f.desc, 1)
    out = {}
    for d, row in f.slices.items():
        tgt = out.setdefault(d, {})
        for ze, el in row.items():
            for key, part in ((ze, el * p_class), (ze + 1, el.scale(d))):
                if not part.is_zero():
                    old = tgt.get(key)
                    tgt[key] = part if old is None else old + part
    return f._like(out)


def zkeyed_project(f: ZKeyedSeries, half: str) -> ZKeyedSeries:
    keep = (lambda ze: ze >= 0) if half == "plus" else (lambda ze: ze < 0)
    return f._like(
        {d: {ze: el for ze, el in row.items() if keep(ze)} for d, row in f.slices.items()}
    )


def zkeyed_symplectic_form(f: ZKeyedSeries, g: ZKeyedSeries) -> QSeries:
    """The z^(-1) coefficient of the Poincare-paired product f(-z) g(z), entry by entry."""
    out = {}
    for d1, row1 in f.slices.items():
        for d2, row2 in g.slices.items():
            if d1 + d2 > f.max_degree:
                continue
            for z1, e1 in row1.items():
                e2 = row2.get(-1 - z1)
                if e2 is not None:
                    term = poincare_pairing(e1, e2).scale(-1 if z1 % 2 else 1)
                    old = out.get(d1 + d2)
                    out[d1 + d2] = term if old is None else old + term
    return QSeries(f.desc, f.max_degree, out)


# -- the per-product row kernels --------------------------------------------------


def add_row_product(tgt, a, b) -> None:
    """tgt += a*b for rows of classes (or q-series) keyed by weight, z-exponent or offset: keys add.

    Products that vanish (by P^n = 0) are skipped unless flagged; sums that
    cancel stay in tgt.
    """
    for z1, e1 in a.items():
        for z2, e2 in b.items():
            prod = e1 * e2
            if prod.is_zero() and not prod.truncated:
                continue
            ze = z1 + z2
            old = tgt.get(ze)
            tgt[ze] = prod if old is None else old + prod


def add_scaled_row(tgt, row, c: LambdaScalar, shift: int = 0) -> None:
    """tgt += c * z^shift * row for rows keyed by weight.

    The lam^a part of c moves a class a + shift weights up, so a scalar whose
    terms have several lam exponents lands at several weights.
    """
    parts: dict[int, dict] = {}
    for key, num in c._nums.items():
        parts.setdefault(key[1], {})[key] = num
    for a, nums in parts.items() or [(0, {})]:
        part = c if len(parts) <= 1 else LambdaScalar._make(c.desc, nums, c._den, c._trunc)
        for w, el in row.items():
            prod = el.scale_scalar(part)
            key = w + a + shift
            old = tgt.get(key)
            tgt[key] = prod if old is None else old + prod


def mul_per_product(f: ZSeries, g: ZSeries) -> ZSeries:
    """The graded Cauchy product f*g, one class product per pair of weight classes."""
    out = {}
    for d1, row1 in f.slices.items():
        for d2, row2 in g.slices.items():
            if d1 + d2 <= f.max_degree:
                add_row_product(out.setdefault(d1 + d2, {}), row1, row2)
    return f._like(out)


def scale_scalar_per_product(f: ZSeries, c: LambdaScalar) -> ZSeries:
    out = {}
    for d, row in f.slices.items():
        add_scaled_row(out.setdefault(d, {}), row, c)
    return f._like(out)


def scale_qseries_per_product(f: ZSeries, h: QSeries) -> ZSeries:
    out = {}
    for d1, row in f.slices.items():
        for d2 in range(f.max_degree - d1 + 1):
            c = h.coefficient(d2)
            if not c.is_zero() or c.truncated:
                add_scaled_row(out.setdefault(d1 + d2, {}), row, c)
    return f._like(out)


def scale_qseries_queued(f: ZSeries, h: QSeries) -> ZSeries:
    """f * h as ``ZSeries.scale_qseries`` built it before it worked on columns.

    Every class of f is queued against every coefficient of h, so each class of
    the result is one sum of class-by-scalar products.
    """
    coeffs = h._split()
    out = {}
    for d1, row in f.slices.items():
        for d2, c in coeffs.items():
            if d1 + d2 <= f.max_degree:
                queue_scaled_row(out.setdefault(d1 + d2, {}), row, c)
    return f._like({d: summed(row) for d, row in out.items()})


def compose_novikov_per_product(f: ZSeries, inner: QSeries) -> ZSeries:
    """q = inner(q'): slice 0 copied, then slice_d * [q'^m] inner^d added into row m."""
    out = {0: dict(f.slices.get(0, {}))}
    power = QSeries.one(f.desc, f.max_degree)
    for d in range(1, f.max_degree + 1):
        power = power * inner
        if power.is_zero() and not power.truncated:
            break
        if d in f.slices:
            for m in range(f.max_degree + 1):
                c = power.coefficient(m)
                if not c.is_zero() or c.truncated:
                    add_scaled_row(out.setdefault(m, {}), f.slices[d], c)
    return f._like(out)


# -- the z-readers that series._regroup replaced ------------------------------------


def at_z(f: ZSeries, d: int, z_exp: int) -> tuple[dict, int, int]:
    """The terms of slice d at z^z_exp, read straight from the weight classes.

    Returns their numerators over the lcm of the row's denominators and the
    flag mask: the union of the row's flags when a term sits at z^z_exp, or
    when the row holds no term and z_exp = 0; no flag otherwise.
    """
    row = f.slices.get(d, {})
    den = lcm(*(el._den for el in row.values()))
    nums, mask, held = {}, 0, False
    for w, el in row.items():
        mask |= el._trunc
        held = held or bool(el._nums)
        k = den // el._den
        for key, c in el._nums.items():
            if key[0] + key[1] == w - z_exp:
                nums[key] = c * k
    return nums, den, mask if nums or (z_exp == 0 and not held) else 0


def coefficient_at_z(f: ZSeries, d: int, z_exp: int) -> CohElement:
    return CohElement._make(f.desc, *at_z(f, d, z_exp))


def scalar_slot_at_z(f: ZSeries, d: int, z_exp: int, p_exp: int) -> LambdaScalar:
    nums, den, mask = at_z(f, d, z_exp)
    nums = {(0, a, b): c for (p, a, b), c in nums.items() if p == p_exp}
    return LambdaScalar._make(f.desc, nums, den, mask >> p_exp & 1)


def slot_series(f: ZSeries, z_exp: int, p_exp: int) -> QSeries:
    """sum_d [z^z_exp P^p_exp] slice_d q^d, one slot read per degree; zero slots dropped."""
    coeffs = {}
    for d in f.slices:
        c = scalar_slot_at_z(f, d, z_exp, p_exp)
        if not c.is_zero():
            coeffs[d] = c
    return QSeries(f.desc, f.max_degree, coeffs)


def z_row_by_split(f: ZSeries, z_exp: int) -> list[QSeries]:
    """The n q-series sum_d [z^z_exp P^p] slice_d q^d, p < n, in one pass over the slices.

    Slice d is read once, as ``coefficient(d, z_exp)``: the q^d term of
    series p is ``scalar_slot(d, z_exp, p)``, kept with its flag, also
    when it is a flagged zero.
    """
    coeffs: list[dict[int, LambdaScalar]] = [{} for _ in range(f.desc.n)]
    for d in f.slices:
        for p, c in f.coefficient(d, z_exp)._split().items():
            coeffs[p][d] = c
    return [QSeries(f.desc, f.max_degree, slot) for slot in coeffs]


def cell_z_view(series: Mapping[int, QSeries], shift: int, n: int) -> dict[int, QSeries]:
    """S-matrix series by offset k, re-keyed by z_exp = shift + k - n*d - l; pieces keep all flags."""
    mask, den = 0, lcm(*(s._den for s in series.values()))
    parts: dict[int, dict] = {}
    proto = None
    for k, s in series.items():
        proto = s
        mask |= s._trunc
        f = den // s._den
        for key, c in s._nums.items():
            parts.setdefault(shift + k - n * key[0] - key[1], {})[key] = c * f
    return {ze: proto._like(nums, den, mask) for ze, nums in parts.items()}


def cell_at_minus_z(s: QSeries, shift: int) -> QSeries:
    """Cell (b, a) at offset k at -z (shift = a - b + k): odd z-exponents shift - n*d - l flip."""
    n = s.desc.n
    nums = {key: -c if (shift - n * key[0] - key[1]) % 2 else c for key, c in s._nums.items()}
    return s._like(nums, s._den, s._trunc)
