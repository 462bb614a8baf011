"""Novikov-graded, cohomology-valued Laurent series in z.

A ZSeries is a finite collection of slices, one per curve degree d up to a
truncation order D; each slice is a finite Laurent polynomial in z with
coefficients in Q[P]/(P^n).  J-functions and their hypergeometric twists are
stored in the ``reduced`` convention: the prefactor z*exp((t0+Pt)/z) is never
expanded and q = Q*exp(t) absorbs the divisor direction, so the degree-0
slice of such a series is the identity class.

Scalar-valued q-series (mirror maps, the series F and G, symplectic pairings
of loop vectors) are handled by the companion QSeries type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .errors import ConventionError, DescriptorMismatchError, EngineError, UnitError
from .ring import CohElement, LambdaScalar, RingDescriptor, poincare_pairing

REDUCED = "reduced"
RAW = "raw"


class QSeries:
    """A scalar Novikov series: finitely many q-coefficients in the Laurent ring."""

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
    def zero(cls, desc: RingDescriptor, max_degree: int) -> "QSeries":
        return cls(desc, max_degree)

    @classmethod
    def one(cls, desc: RingDescriptor, max_degree: int) -> "QSeries":
        return cls(desc, max_degree, {0: LambdaScalar.one(desc)})

    @classmethod
    def from_rationals(
        cls, desc: RingDescriptor, max_degree: int, values: Mapping[int, Fraction]
    ) -> "QSeries":
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

    def _check(self, other: "QSeries") -> None:
        if self.desc != other.desc:
            raise DescriptorMismatchError("q-series over different descriptors")
        if self.max_degree != other.max_degree:
            raise ValueError("q-series truncated at different degrees")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, LambdaScalar.zero(self.desc)) + c
        return QSeries(self.desc, self.max_degree, out)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries(
            self.desc, self.max_degree, {d: -c for d, c in self.coeffs.items()}
        )

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, LambdaScalar):
            return QSeries(
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
                out[d] = out.get(d, LambdaScalar.zero(self.desc)) + prod
        return QSeries(self.desc, self.max_degree, out)

    __rmul__ = __mul__

    def scale(self, value) -> "QSeries":
        return QSeries(
            self.desc, self.max_degree, {d: c.scale(value) for d, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
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

    def invert(self) -> "QSeries":
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

    def exp(self) -> "QSeries":
        """Exponential of a series with zero constant term.

        g = exp(f) solves q*g' = (q*f')*g, so n*g_n = sum_{k=1}^{n} k f_k g_(n-k)
        with g_0 = 1: each coefficient costs one pass over f.
        """
        if not self.valuation_at_least(1):
            raise ValueError("exp requires q-valuation >= 1")
        weighted = {k: c.scale(k) for k, c in self.coeffs.items()}
        one = LambdaScalar.one(self.desc)
        return self._recurrence(one, weighted, lambda n: Fraction(1, n))

    def _recurrence(self, first, weights, factor) -> "QSeries":
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
        return QSeries(self.desc, self.max_degree, dict(enumerate(g)))

    def compose(self, inner: "QSeries") -> "QSeries":
        """Substitute q = inner(q'), where inner has valuation >= 1."""
        self._check(inner)
        if not inner.valuation_at_least(1):
            raise ValueError("composition requires inner valuation >= 1")
        out = QSeries(self.desc, self.max_degree, {0: self.coefficient(0)})
        power = QSeries.one(self.desc, self.max_degree)
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


def exp_constant_scalar(c: LambdaScalar) -> LambdaScalar:
    """Exponential of a q-independent scalar of the special form k*log(lam).

    This is the only constant exponent the engine ever needs: it arises as the
    degree-0 value of equivariant mirror maps, where exp(k*log(lam)) is the
    exact monomial lam^k.  Anything else would force an infinite series and is
    rejected.
    """
    desc = c.desc
    if c.is_zero():
        return LambdaScalar.one(desc)
    log_coeff = c.coefficient(0, 1)
    if not (c - LambdaScalar.log_lambda(desc, log_coeff)).is_zero():
        raise EngineError(
            "constant exponent is not a multiple of log(lam); cannot exponentiate exactly"
        )
    if log_coeff.denominator != 1:
        raise EngineError("log(lam) multiple in constant exponent is not an integer")
    return LambdaScalar.lam_power(desc, int(log_coeff))


class ZSeries:
    """Novikov-graded Laurent series in z with CohElement coefficients."""

    __slots__ = ("desc", "max_degree", "convention", "slices")

    def __init__(
        self,
        desc: RingDescriptor,
        max_degree: int,
        slices: Mapping[int, Mapping[int, CohElement]] | None = None,
        convention: str = REDUCED,
    ) -> None:
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if convention not in (REDUCED, RAW):
            raise ValueError(f"unknown convention {convention!r}")
        self.desc = desc
        self.max_degree = max_degree
        self.convention = convention
        clean: dict[int, dict[int, CohElement]] = {}
        if slices:
            for d, zpoly in slices.items():
                if d < 0:
                    raise ValueError("negative Novikov degree")
                if d > max_degree:
                    continue
                row = {ze: el for ze, el in zpoly.items() if not el.is_zero()}
                if row:
                    clean[d] = row
        self.slices = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def unit(cls, desc: RingDescriptor, max_degree: int, convention: str = REDUCED) -> "ZSeries":
        return cls(desc, max_degree, {0: {0: CohElement.one(desc)}}, convention)

    @classmethod
    def zero(cls, desc: RingDescriptor, max_degree: int, convention: str = REDUCED) -> "ZSeries":
        return cls(desc, max_degree, None, convention)

    # -- inspection -------------------------------------------------------------

    def slice(self, d: int) -> dict[int, CohElement]:
        return dict(self.slices.get(d, {}))

    def coefficient(self, d: int, z_exp: int) -> CohElement:
        row = self.slices.get(d)
        if row is None:
            return CohElement.zero(self.desc)
        return row.get(z_exp, CohElement.zero(self.desc))

    def scalar_slot(self, d: int, z_exp: int, p_exp: int) -> LambdaScalar:
        return self.coefficient(d, z_exp).component(p_exp)

    def is_zero(self) -> bool:
        return not self.slices

    @property
    def truncated(self) -> bool:
        return any(
            el.truncated for row in self.slices.values() for el in row.values()
        )

    def z_exponents(self, d: int) -> list[int]:
        return sorted(self.slices.get(d, {}))

    def first_nonzero_slot(self):
        """Smallest (d, z_exp, P_exp) with a nonzero scalar, or None."""
        for d in sorted(self.slices):
            for ze in sorted(self.slices[d]):
                for p, c in enumerate(self.slices[d][ze].components):
                    if not c.is_zero():
                        return (d, ze, p)
        return None

    def _check(self, other: "ZSeries") -> None:
        if self.desc != other.desc:
            raise DescriptorMismatchError("series over different ring descriptors")
        if self.max_degree != other.max_degree:
            raise ValueError("series truncated at different Novikov degrees")
        if self.convention != other.convention:
            raise ConventionError(
                f"cannot combine {self.convention} series with {other.convention} series"
            )

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        out: dict[int, dict[int, CohElement]] = {
            d: dict(row) for d, row in self.slices.items()
        }
        for d, row in other.slices.items():
            tgt = out.setdefault(d, {})
            for ze, el in row.items():
                tgt[ze] = tgt.get(ze, CohElement.zero(self.desc)) + el
        return ZSeries(self.desc, self.max_degree, out, self.convention)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

    def __neg__(self) -> "ZSeries":
        return self.map_coefficients(lambda el: -el)

    def map_coefficients(self, fn: Callable[[CohElement], CohElement]) -> "ZSeries":
        out = {
            d: {ze: fn(el) for ze, el in row.items()}
            for d, row in self.slices.items()
        }
        return ZSeries(self.desc, self.max_degree, out, self.convention)

    def scale(self, value) -> "ZSeries":
        return self.map_coefficients(lambda el: el.scale(value))

    def scale_scalar(self, scalar: LambdaScalar) -> "ZSeries":
        return self.map_coefficients(lambda el: el.scale_scalar(scalar))

    def scale_qseries(self, f: QSeries) -> "ZSeries":
        """Multiply by a scalar q-series."""
        if self.desc != f.desc or self.max_degree != f.max_degree:
            raise DescriptorMismatchError("q-series does not match the z-series")
        out: dict[int, dict[int, CohElement]] = {}
        for d1, row in self.slices.items():
            for d2, c in f.coeffs.items():
                d = d1 + d2
                if d > self.max_degree:
                    continue
                tgt = out.setdefault(d, {})
                for ze, el in row.items():
                    tgt[ze] = tgt.get(ze, CohElement.zero(self.desc)) + el.scale_scalar(c)
        return ZSeries(self.desc, self.max_degree, out, self.convention)

    def novikov_shift(self, k: int = 1) -> "ZSeries":
        """Multiply by q^k: slide every slice up by k, dropping past the truncation."""
        out = {
            d + k: dict(row)
            for d, row in self.slices.items()
            if d + k <= self.max_degree
        }
        return ZSeries(self.desc, self.max_degree, out, self.convention)

    def truncate_novikov(self, max_degree: int) -> "ZSeries":
        """Forget all slices above a lower truncation order."""
        if max_degree >= self.max_degree:
            return self
        out = {d: dict(row) for d, row in self.slices.items() if d <= max_degree}
        return ZSeries(self.desc, max_degree, out, self.convention)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        """Graded Cauchy product, truncated at the common Novikov order."""
        self._check(other)
        out: dict[int, dict[int, CohElement]] = {}
        for d1, row1 in self.slices.items():
            for d2, row2 in other.slices.items():
                d = d1 + d2
                if d > self.max_degree:
                    continue
                add_row_product(out.setdefault(d, {}), row1, row2)
        return ZSeries(self.desc, self.max_degree, out, self.convention)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return (
            self.desc == other.desc
            and self.max_degree == other.max_degree
            and self.convention == other.convention
            and self._normalized() == other._normalized()
        )

    def _normalized(self):
        return {
            d: {ze: el for ze, el in row.items()}
            for d, row in self.slices.items()
        }

    def __hash__(self):
        raise TypeError("ZSeries is not hashable")

    def lambda_zero_part(self) -> "ZSeries":
        return self.map_coefficients(lambda el: el.lambda_zero_part())

    def exp(self) -> "ZSeries":
        """Exponential of a series argument that is nilpotent-plus-small.

        Termination relies on the grading of the allowed arguments: every
        monomial either carries a positive power of P (nilpotent), a negative
        power of lam (killed by the floor), a positive power of log(lam)
        (killed by the cap), or positive Novikov degree (killed by the
        truncation).  The hard iteration bound guards against misuse.
        """
        bound = (
            (self.max_degree + 1)
            * (self.desc.n + self.desc.lambda_floor + self.desc.log_cap + 2)
            + 4
        )
        out = ZSeries.unit(self.desc, self.max_degree, self.convention)
        term = ZSeries.unit(self.desc, self.max_degree, self.convention)
        for j in range(1, bound + 1):
            term = term * self
            term = term.scale(Fraction(1, j))
            if term.is_zero():
                return out
            out = out + term
        raise EngineError("exponential did not terminate; argument is not small")

    def compose_novikov(self, inner: QSeries) -> "ZSeries":
        """Substitute q = inner(q') and re-expand; inner must have valuation >= 1.

        Each slice_d * [q'^m] inner^d is added straight into row m of the result.
        """
        if self.desc != inner.desc or self.max_degree != inner.max_degree:
            raise DescriptorMismatchError("substitution series does not match")
        if not inner.valuation_at_least(1):
            raise ValueError("substitution requires valuation >= 1")
        out = {0: self.slice(0)}
        power = QSeries.one(self.desc, self.max_degree)
        for d in range(1, self.max_degree + 1):
            power = power * inner
            if power.is_zero():
                break
            row = self.slices.get(d)
            if row is None:
                continue
            for m, c in power.coeffs.items():
                tgt = out.setdefault(m, {})
                for ze, el in row.items():
                    delta = el.scale_scalar(c)
                    old = tgt.get(ze)
                    tgt[ze] = delta if old is None else old + delta
        return ZSeries(self.desc, self.max_degree, out, self.convention)

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        slices: dict[str, dict] = {}
        for d in sorted(self.slices):
            row: dict[str, dict] = {}
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "ZSeries":
        ring = data["ring"]
        desc = RingDescriptor(
            n=int(ring["n"]),
            lambda_floor=int(ring["lambda_floor"]),
            log_cap=int(ring["log_cap"]),
        )
        slices: dict[int, dict[int, CohElement]] = {}
        for d_str, row in data["slices"].items():
            out_row: dict[int, CohElement] = {}
            for ze_str, pmap in row.items():
                comps = [LambdaScalar.zero(desc) for _ in range(desc.n)]
                for p_str, lam_map in pmap.items():
                    comps[int(p_str)] = LambdaScalar.from_json_dict(desc, lam_map)
                out_row[int(ze_str)] = CohElement(desc, comps)
            slices[int(d_str)] = out_row
        return cls(desc, int(data["max_degree"]), slices, data["convention"])

    def __repr__(self) -> str:
        return (
            f"ZSeries({self.convention}, D={self.max_degree}, "
            f"degrees={sorted(self.slices)})"
        )


# -- module operations ------------------------------------------------------------


def add_row_product(
    tgt: dict[int, CohElement],
    a: Mapping[int, CohElement],
    b: Mapping[int, CohElement],
) -> None:
    """tgt += a*b for z-Laurent rows, each a map from z-exponent to CohElement.

    Products that vanish (by P^n = 0) are skipped; sums that cancel stay in tgt.
    """
    for z1, e1 in a.items():
        for z2, e2 in b.items():
            prod = e1 * e2
            if prod.is_zero():
                continue
            ze = z1 + z2
            old = tgt.get(ze)
            tgt[ze] = prod if old is None else old + prod


def symplectic_form(f: ZSeries, g: ZSeries) -> QSeries:
    """Residue pairing: the z^(-1) coefficient of the Poincare-paired product f(-z)g(z).

    Both arguments must be raw loop-space vectors.
    """
    if f.convention != RAW or g.convention != RAW:
        raise ConventionError("symplectic form is defined on raw series")
    f._check(g)
    desc = f.desc
    out: dict[int, LambdaScalar] = {}
    for d1, row1 in f.slices.items():
        for d2, row2 in g.slices.items():
            d = d1 + d2
            if d > f.max_degree:
                continue
            acc = out.get(d, LambdaScalar.zero(desc))
            for z1, e1 in row1.items():
                z2 = -1 - z1
                e2 = row2.get(z2)
                if e2 is None:
                    continue
                sign = -1 if z1 % 2 else 1
                acc = acc + poincare_pairing(e1, e2).scale(sign)
            if acc.is_zero():
                out.pop(d, None)
            else:
                out[d] = acc
    return QSeries(desc, f.max_degree, out)


def project(f: ZSeries, half: str) -> ZSeries:
    """Polarization projector: 'plus' keeps z-exponents >= 0, 'minus' the rest."""
    if f.convention != RAW:
        raise ConventionError("projection is defined on raw series")
    if half not in ("plus", "minus"):
        raise ValueError("half must be 'plus' or 'minus'")
    keep = (lambda ze: ze >= 0) if half == "plus" else (lambda ze: ze < 0)
    out = {
        d: {ze: el for ze, el in row.items() if keep(ze)}
        for d, row in f.slices.items()
    }
    return ZSeries(f.desc, f.max_degree, out, RAW)


def directional_derivative(f: ZSeries) -> ZSeries:
    """The operator z*D_P on a reduced series: slice_d goes to (P + d z) * slice_d."""
    if f.convention != REDUCED:
        raise ConventionError("z*D_P acts on reduced series")
    desc = f.desc
    p_class = CohElement.p_power(desc, 1)
    out: dict[int, dict[int, CohElement]] = {}
    for d, row in f.slices.items():
        tgt: dict[int, CohElement] = {}
        for ze, el in row.items():
            p_el = el * p_class
            if not p_el.is_zero():
                tgt[ze] = tgt.get(ze, CohElement.zero(desc)) + p_el
            if d:
                z_el = el.scale(d)
                tgt[ze + 1] = tgt.get(ze + 1, CohElement.zero(desc)) + z_el
        out[d] = tgt
    return ZSeries(desc, f.max_degree, out, REDUCED)
