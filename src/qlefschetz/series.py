"""Novikov-graded, cohomology-valued Laurent series in z.

A ZSeries is a finite collection of slices, one per curve degree d up to a
truncation order D; each slice is a finite Laurent polynomial in z with
coefficients in Q[P]/(P^n).  J-functions and their hypergeometric twists are
stored in the ``reduced`` convention: the prefactor z*exp((t0+Pt)/z) is never
expanded and q = Q*exp(t) absorbs the divisor direction, so the degree-0
slice of such a series is the identity class.

With z, P and lam of degree 1 every series the pipeline builds is homogeneous,
so a slice is stored as classes keyed by weight w = z + p + lam_exp: one class
per slice, and a product of two slices is one class product.

Scalar-valued q-series (mirror maps, the series F and G, symplectic pairings
of loop vectors) are handled by the companion QSeries type, an element of
R[q]/(q^(D+1)) stored and multiplied like a class in R[P]/(P^n).  Where the
two meet there is one transposition each way: ``ring._transposed`` turns
classes keyed by degree into one QSeries per P-slot, and ``lifted`` turns
q-series and scalars into weight-keyed rows of classes, the one place where
the lam exponents of a coefficient become weights.  A product of a z-series by a
q-series is then the z-series product on rows: each class of the result is
one sum of products (``queue_row_product``, ``summed``) over its own pairs,
so each goes over its own denominator and its flags follow the one rule of
``ring._Terms._spread``.  It serves ``ZSeries.scale_qseries``, the
substitution q = u(q') (``ZSeries.compose_novikov``, against the lifted
powers of u) and the elimination of ``mirror``.  ``QSeries.powers`` is the
one loop over the powers of a q-series, and the chart factors are lifted
from their powers without a product.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Mapping

from .errors import ConventionError, DescriptorMismatchError, EngineError, UnitError
from .ring import CohElement, LambdaScalar, RingDescriptor, _Graded, _render_slots
from .ring import _transposed, poincare_pairing

REDUCED = "reduced"
RAW = "raw"


class QSeries(_Graded):
    """A scalar Novikov series, an element of R[q]/(q^(D+1)) over the Laurent ring R.

    Stored in the ``_Terms`` format of ``ring`` with the Novikov degree in the
    slot: integer numerators keyed by (d, lam_exponent, log_exponent) over one
    common denominator, D = ``max_degree``.  Bit d of ``_trunc`` flags the q^d
    coefficient, also when that coefficient is zero, and the product is the
    class product of ``_Graded`` with span D + 1 where a class has n.
    """

    __slots__ = ("max_degree",)

    def __init__(
        self,
        desc: RingDescriptor,
        max_degree: int,
        coeffs: Mapping[int, LambdaScalar] | None = None,
    ) -> None:
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        slots = {}
        for d, c in (coeffs or {}).items():
            if d < 0:
                raise ValueError("negative Novikov degree")
            if d <= max_degree:
                slots[d] = c
        self.desc, self.max_degree, self._order = desc, max_degree, None
        out = _transposed(slots, self).get(0)
        self._nums, self._den, self._trunc = (out._nums, out._den, out._trunc) if out else ({}, 1, 0)

    def _like(self, nums: dict, den: int, trunc: int) -> "QSeries":
        out = self._make(self.desc, nums, den, trunc)
        out.max_degree = self.max_degree
        return out

    def _span(self) -> int:
        return self.max_degree + 1

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
        """The q^d coefficient with its flag; zero past the truncation."""
        zero = LambdaScalar.zero(self.desc)
        return _transposed({0: self}, zero).get(d, zero)

    @property
    def coeffs(self) -> dict[int, LambdaScalar]:
        """The nonzero coefficients by Novikov degree, transposed into scalars in one pass."""
        parts = _transposed({0: self}, LambdaScalar.zero(self.desc))
        return {d: c for d, c in parts.items() if not c.is_zero()}

    def _check(self, other: "QSeries") -> None:
        if self.desc != other.desc:
            raise DescriptorMismatchError("q-series over different descriptors")
        if self.max_degree != other.max_degree:
            raise ValueError("q-series truncated at different degrees")

    # perfbench traces q-series products through this class's own ``__mul__`` entry.
    __mul__ = __rmul__ = _Graded.__mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.max_degree == other.max_degree and super().__eq__(other)

    def __hash__(self):
        return hash((super().__hash__(), self.max_degree))

    def truncate(self, max_degree: int) -> "QSeries":
        """The series modulo q^(max_degree + 1), with the flags of the kept coefficients.

        A series is known only modulo q^(self.max_degree + 1), so a higher order
        returns it unchanged, as ``ZSeries.truncate_novikov`` does.
        """
        if max_degree >= self.max_degree:
            return self
        nums = {key: c for key, c in self._nums.items() if key[0] <= max_degree}
        out = QSeries(self.desc, max_degree)
        return out._like(nums, self._den, self._trunc & ((1 << max_degree + 1) - 1))

    def valuation_at_least(self, v: int) -> bool:
        return all(key[0] >= v for key in self._nums)

    def invert(self) -> "QSeries":
        """Inverse of a series whose constant term is a nonzero rational.

        With g = 1/f, comparing q^n coefficients of f*g = 1 gives the recurrence
        g_n = -(1/f_0) sum_{k=1}^{n} f_k g_(n-k), one pass over the degrees.
        The coefficients are read with their flags, flagged zeros included.
        """
        zero = LambdaScalar.zero(self.desc)
        coeffs = _transposed({0: self}, zero)
        c0 = coeffs.get(0, zero)
        if not c0.is_rational() or c0.as_rational() == 0:
            raise UnitError("q-series constant term is not a nonzero rational")
        neg_inv_lead = Fraction(-1, c0.as_rational())
        tail = {k: c for k, c in coeffs.items() if k}
        first = LambdaScalar(self.desc, {(0, 0): -neg_inv_lead}, c0.truncated)
        return self._recurrence(first, tail, lambda n: neg_inv_lead)

    def exp(self) -> "QSeries":
        """Exponential of a series with zero constant term.

        g = exp(f) solves q*g' = (q*f')*g, so n*g_n = sum_{k=1}^{n} k f_k g_(n-k)
        with g_0 = 1, flagged when f_0 is a flagged zero: each coefficient
        costs one pass over f, read with its flags.
        """
        if not self.valuation_at_least(1):
            raise ValueError("exp requires q-valuation >= 1")
        parts = _transposed({0: self}, LambdaScalar.zero(self.desc))
        weighted = {k: c.scale(k) for k, c in parts.items() if k}
        one = LambdaScalar(self.desc, {(0, 0): 1}, self._trunc & 1)
        return self._recurrence(one, weighted, lambda n: Fraction(1, n))

    def _recurrence(self, first, weights, factor) -> "QSeries":
        """The series g_0 = first, g_n = factor(n) * sum_{k=1}^{n} weights_k g_(n-k)."""
        terms = sorted(weights.items())
        g = [first]
        for n in range(1, self.max_degree + 1):
            pairs = [(w, g[n - k]) for k, w in terms if k <= n]
            acc = first._dot(pairs) if pairs else LambdaScalar.zero(self.desc)
            g.append(acc.scale(factor(n)))
        return QSeries(self.desc, self.max_degree, dict(enumerate(g)))

    def compose(self, inner: "QSeries") -> "QSeries":
        """Substitute q = inner(q'), where inner has valuation >= 1.

        One sum of products of the powers of inner (``powers``) by the
        coefficients; flagged coefficients, zeros included, keep their flags.
        """
        self._check(inner)
        if not inner.valuation_at_least(1):
            raise ValueError("composition requires inner valuation >= 1")
        coeffs = _transposed({0: self}, LambdaScalar.zero(self.desc))
        pairs = [(x, coeffs[d]) for d, x in enumerate(inner.powers(self.max_degree + 1))
                 if d in coeffs]
        return self._dot(pairs) if pairs else QSeries.zero(self.desc, self.max_degree)

    def powers(self, count: int) -> list["QSeries"]:
        """[1, self, self^2, ...], count of them, up to the first exact zero (no term, no flag).

        A flagged zero power stands for terms below the floor, whose products
        still reach higher degrees, so only an exact zero ends the family.
        """
        out = [QSeries.one(self.desc, self.max_degree)]
        while len(out) < count:
            power = out[-1] * self if len(out) > 1 else self
            if power.is_zero() and not power.truncated:
                break
            out.append(power)
        return out

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*q^{d}" for d, c in sorted(self.coeffs.items()))


def log_lambda_multiple(c: LambdaScalar) -> int:
    """The integer k of a q-independent scalar of the special form k*log(lam).

    This is the only constant exponent the engine ever needs: it arises as the
    degree-0 value of equivariant mirror maps, where exp(k*log(lam)) is the
    exact monomial lam^k.  Anything else would force an infinite series and is
    rejected.
    """
    log_coeff = c.coefficient(0, 1)
    if c != LambdaScalar.log_lambda(c.desc, log_coeff):
        raise EngineError(
            "constant exponent is not a multiple of log(lam); cannot exponentiate exactly"
        )
    if log_coeff.denominator != 1:
        raise EngineError("log(lam) multiple in constant exponent is not an integer")
    return int(log_coeff)


def lagrange_sum(T: QSeries, lam_step: int, max_degree: int) -> QSeries:
    """The series u with [q^m] u = (1/m) [q^(m-1)] phi^m, phi = lam^lam_step exp(T).

    T has valuation >= 1 and is truncated below max_degree, so its powers T,
    T^2, ..., T^(max_degree - 1) (``QSeries.powers``) are all that reach u.
    Expanding phi^m = lam^(lam_step m) sum_j m^j T^j / j!, the
    j = 0 term gives lam^lam_step at q^1, and the q^i term of T^j / j!
    reaches q^(i+1) with the factor (i+1)^(j-1) / j!, an integer over j! since
    j >= 1: one pass over the numerators of the powers, over one common
    denominator.  The flag of slot i of a power flags slot i + 1, and a term
    that the lam shift moves below the floor is dropped with a flag.  A flag
    at q^0 of T means the constant of the exponent, and with it the lam shift,
    was truncated: it flags every slot past q^0.
    """
    desc, powers = T.desc, T.powers(max_degree)[1:]
    den = lcm(*(power._den * factorial(j) for j, power in enumerate(powers, 1)))
    out = {(1, lam_step, 0): den}
    trunc = (1 << max_degree + 1) - 2 if T._trunc & 1 else 0
    for j, power in enumerate(powers, 1):
        f = den // (power._den * factorial(j))
        trunc |= power._trunc << 1
        for (i, a, b), c in power._nums.items():
            key = (i + 1, a + lam_step * (i + 1), b)
            out[key] = out.get(key, 0) + c * f * (i + 1) ** (j - 1)
    nums = {}
    for key, c in out.items():
        if key[1] < -desc.lambda_floor:
            trunc |= 1 << key[0]
        elif c:
            nums[key] = c
    return QSeries(desc, max_degree)._like(nums, den, trunc)


class ZSeries:
    """Novikov-graded Laurent series in z with CohElement coefficients.

    Give z, P and lam degree 1.  Row d of ``slices`` is keyed by weight: the
    class at weight w holds the terms P^p lam^a log(lam)^b whose z-exponent is
    w - p - a.  The map from (z-exponent, term) to (weight, term) is a
    bijection, so any series can be stored this way, and every series the
    pipeline builds is homogeneous, one class per slice.  The constructor,
    ``slice(d)``, ``coefficient``, ``scalar_slot`` and ``z_row`` speak
    z-exponents; they convert through ``_by_weight`` and ``_by_z``, that is
    through ``_regroup``.  A zero class is kept only when it is flagged.
    """

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
        rows: dict[int, dict[int, CohElement]] = {}
        for d, zpoly in (slices or {}).items():
            if d < 0:
                raise ValueError("negative Novikov degree")
            rows[d] = _by_weight(zpoly)
        self._fill(desc, max_degree, rows, convention)

    @classmethod
    def _of(cls, desc, max_degree, rows, convention) -> "ZSeries":
        """Trusted constructor from rows already keyed by weight."""
        out = object.__new__(cls)
        out._fill(desc, max_degree, rows, convention)
        return out

    def _fill(self, desc, max_degree, rows, convention) -> None:
        self.desc = desc
        self.max_degree = max_degree
        self.convention = convention
        slices: dict[int, dict[int, CohElement]] = {}
        for d, row in rows.items():
            if d <= max_degree:
                kept = {w: el for w, el in row.items() if not el.is_zero() or el.truncated}
                if kept:
                    slices[d] = kept
        self.slices = slices

    # -- constructors ----------------------------------------------------------

    @classmethod
    def unit(cls, desc: RingDescriptor, max_degree: int, convention: str = REDUCED) -> "ZSeries":
        return cls._of(desc, max_degree, {0: {0: CohElement.one(desc)}}, convention)

    @classmethod
    def zero(cls, desc: RingDescriptor, max_degree: int, convention: str = REDUCED) -> "ZSeries":
        return cls._of(desc, max_degree, {}, convention)

    # -- inspection -------------------------------------------------------------

    def slice(self, d: int) -> dict[int, CohElement]:
        """Slice d keyed by z-exponent."""
        return _by_z(self.slices.get(d, {}))

    def coefficient(self, d: int, z_exp: int) -> CohElement:
        return _by_z(self.slices.get(d, {}), at=z_exp).get(z_exp, CohElement.zero(self.desc))

    def scalar_slot(self, d: int, z_exp: int, p_exp: int) -> LambdaScalar:
        return self.coefficient(d, z_exp).component(p_exp)

    def z_row(self, z_exp: int) -> list[QSeries]:
        """The n q-series sum_d [z^z_exp P^p] slice_d q^d, p < n, flags and flagged zeros kept.

        Slice d is read once, as one class (``_by_z(..., at=z_exp)``); ``_transposed`` splits them.
        """
        zero = QSeries.zero(self.desc, self.max_degree)
        at = {d: el for d, row in self.slices.items() for el in _by_z(row, at=z_exp).values()}
        columns = _transposed(at, zero)
        return [columns.get(p, zero) for p in range(self.desc.n)]

    def is_zero(self) -> bool:
        """True when every value is zero; flags are not looked at."""
        return all(el.is_zero() for row in self.slices.values() for el in row.values())

    @property
    def truncated(self) -> bool:
        return any(
            el.truncated for row in self.slices.values() for el in row.values()
        )

    def z_exponents(self, d: int) -> list[int]:
        """The z-exponents of slice d that hold terms, read off the weight row.

        By the rule of ``_regroup`` the term (p, a, b) of the class at weight w
        sits at z^(w - p - a); no class is built, and flagged zeros hold no term.
        """
        row = self.slices.get(d, {})
        return sorted({w - key[0] - key[1] for w, el in row.items() for key in el._nums})

    def first_nonzero_slot(self):
        """Smallest (d, z_exp, P_exp) with a nonzero scalar, or None."""
        for d in sorted(self.slices):
            row = self.slice(d)
            for ze in sorted(row):
                for p, c in enumerate(row[ze].components):
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

    def _like(self, rows) -> "ZSeries":
        return ZSeries._of(self.desc, self.max_degree, rows, self.convention)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        out: dict[int, dict[int, CohElement]] = {
            d: dict(row) for d, row in self.slices.items()
        }
        for d, row in other.slices.items():
            tgt = out.setdefault(d, {})
            for w, el in row.items():
                old = tgt.get(w)
                tgt[w] = el if old is None else old + el
        return self._like(out)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

    def __neg__(self) -> "ZSeries":
        return self._map(lambda el: -el)

    def _map(self, fn: Callable[[CohElement], CohElement]) -> "ZSeries":
        """fn applied to every class; fn must keep each term's weight (scale, negate, drop)."""
        return self._like(
            {d: {w: fn(el) for w, el in row.items()} for d, row in self.slices.items()}
        )

    def scale(self, value) -> "ZSeries":
        return self._map(lambda el: el.scale(value))

    def scale_scalar(self, scalar: LambdaScalar) -> "ZSeries":
        return self.scale_qseries(QSeries(self.desc, self.max_degree, {0: scalar}))

    def scale_qseries(self, f: QSeries) -> "ZSeries":
        """Multiply by a scalar q-series: the z-series product with f lifted to rows
        (``lifted``), flagged zero coefficients included."""
        if self.desc != f.desc or self.max_degree != f.max_degree:
            raise DescriptorMismatchError("q-series does not match the z-series")
        return self * self._like(lifted([(f, 0, 0)]))

    def novikov_shift(self, k: int = 1) -> "ZSeries":
        """Multiply by q^k: slide every slice up by k, dropping past the truncation."""
        if any(d + k < 0 for d in self.slices):
            raise ValueError("negative Novikov degree")
        return self._like({d + k: dict(row) for d, row in self.slices.items()})

    def z_shift(self, k: int) -> "ZSeries":
        """Multiply by z^k: z has weight 1, so the class at weight w moves to w + k."""
        return self._like(
            {d: {w + k: el for w, el in row.items()} for d, row in self.slices.items()}
        )

    def truncate_novikov(self, max_degree: int) -> "ZSeries":
        """Forget all slices above a lower truncation order; a higher order returns self."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if max_degree >= self.max_degree:
            return self
        return ZSeries._of(self.desc, max_degree, self.slices, self.convention)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        """Graded Cauchy product, truncated at the common Novikov order."""
        self._check(other)
        out: dict[int, dict[int, list]] = {}
        for d1, row1 in self.slices.items():
            for d2, row2 in other.slices.items():
                d = d1 + d2
                if d > self.max_degree:
                    continue
                queue_row_product(out.setdefault(d, {}), row1, row2)
        return self._like({d: summed(row) for d, row in out.items()})

    def _values(self) -> dict[int, dict[int, CohElement]]:
        """The rows without their flagged zeros."""
        out = {}
        for d, row in self.slices.items():
            kept = {w: el for w, el in row.items() if not el.is_zero()}
            if kept:
                out[d] = kept
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return (
            self.desc == other.desc
            and self.max_degree == other.max_degree
            and self.convention == other.convention
            and self._values() == other._values()
        )

    def __hash__(self):
        raise TypeError("ZSeries is not hashable")

    def lambda_zero_part(self) -> "ZSeries":
        return self._map(lambda el: el.lambda_zero_part())

    def exp(self) -> "ZSeries":
        """Exponential of a series argument that is nilpotent-plus-small.

        Termination relies on the grading of the allowed arguments: every
        monomial either carries a positive power of P (nilpotent), a negative
        power of lam (killed by the floor), a positive power of log(lam)
        (killed by the cap), or positive Novikov degree (killed by the
        truncation).  A flagged zero term stands for lost terms whose
        products still reach higher degrees, and its successor depends only
        on its flags: the sum stops at a zero term whose set of (degree,
        weight, flag mask) is empty or seen before.  The hard iteration bound
        guards against misuse.
        """
        bound = (
            (self.max_degree + 1)
            * (self.desc.n + self.desc.lambda_floor + self.desc.log_cap + 2)
            + 4
        )
        out = ZSeries.unit(self.desc, self.max_degree, self.convention)
        term = ZSeries.unit(self.desc, self.max_degree, self.convention)
        seen = set()
        for j in range(1, bound + 1):
            term = term * self
            term = term.scale(Fraction(1, j))
            out = out + term
            if term.is_zero():
                flags = frozenset(
                    (d, w, el._trunc) for d, row in term.slices.items() for w, el in row.items()
                )
                if not flags or flags in seen:
                    return out
                seen.add(flags)
        raise EngineError("exponential did not terminate; argument is not small")

    def compose_novikov(self, inner: QSeries) -> "ZSeries":
        """Substitute q = inner(q') and re-expand; inner must have valuation >= 1.

        The class of the result at degree m and weight w is one sum of products
        (``summed``), over the lcm of its own pairs: each class of slice d times
        each class of degree m of the lifted power inner^d (``lifted``,
        ``queue_row_product``), the flagged zero coefficients of the powers
        (``QSeries.powers``) included.
        """
        if self.desc != inner.desc or self.max_degree != inner.max_degree:
            raise DescriptorMismatchError("substitution series does not match")
        if not inner.valuation_at_least(1):
            raise ValueError("substitution requires valuation >= 1")
        queued: dict[int, dict[int, list]] = {}
        for d, power in enumerate(inner.powers(self.max_degree + 1)):
            for m, row in lifted([(power, 0, 0)]).items() if d in self.slices else ():
                queue_row_product(queued.setdefault(m, {}), self.slices[d], row)
        return self._like({m: summed(row) for m, row in queued.items()})

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        rows = ((str(d), z_json(row)) for d, row in self.slices.items())
        slices = {d: row for d, row in rows if row}
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
        # A flag does not say which term was lost: every class, and a zero at q^0 z^0, carries it.
        flag = LambdaScalar(desc, truncated=bool(data.get("truncated")))
        slices: dict[int, dict[int, CohElement]] = {0: {0: CohElement(desc, [flag] * desc.n)}}
        for d_str, row in data["slices"].items():
            out_row = slices.setdefault(int(d_str), {})
            for ze_str, pmap in row.items():
                comps = [flag] * desc.n
                for p_str, lam_map in pmap.items():
                    comps[int(p_str)] = LambdaScalar.from_json_dict(desc, lam_map) + flag
                out_row[int(ze_str)] = CohElement(desc, comps)
        return cls(desc, int(data["max_degree"]), slices, data["convention"])

    def __repr__(self) -> str:
        return (
            f"ZSeries({self.convention}, D={self.max_degree}, "
            f"degrees={sorted(self.slices)})"
        )


# -- module operations ------------------------------------------------------------


def _regroup(row: Mapping, sign: int, weight=1, shift=0, at=None, low=None, values=True):
    """Re-key a row: term (t, a, b) of the value at key k moves to k + shift + sign*(weight*t + a).

    This is the one rule between weight and z (t is the slot, a the lam
    exponent).  With weight 1 it re-keys a row of classes: sign +1 from
    z-exponent to weight, sign -1 back.  With weight n and sign -1 it reads
    the series of an S-matrix cell by z, since q has weight n.  No two terms
    meet, so values are unchanged; with ``at`` only the terms that land at key
    ``at`` move, so a one-key read builds one value, and with ``low`` only
    those that land at a key >= low.  A flag does not say which term was
    lost, so every value of the result carries the union of the row's flags.
    A flagged row without terms in range becomes a flagged zero at key 0 (at
    ``low``, when set), and with ``at`` a flagged row always holds a value at
    ``at``, a flagged zero when no term lands there: the lost term may sit at
    any key.  Without ``values`` no value is built: it returns the numerators
    per key over one denominator, and the flags are left out.
    """
    den = lcm(*(el._den for el in row.values()))
    parts: dict[int, dict] = {}
    mask = 0
    for k, el in row.items():
        mask |= el._trunc
        f = den // el._den
        for t, c in el._nums.items():
            key = k + shift + sign * (weight * t[0] + t[1])
            if (at is None or key == at) and (low is None or key >= low):
                parts.setdefault(key, {})[t] = c * f
    if not values:
        return parts, den
    if mask and (at is not None or not parts):
        parts.setdefault((low or 0) if at is None else at, {})
    return {key: el._like(nums, den, mask) for key, nums in parts.items()}


def _by_weight(row: Mapping[int, CohElement]) -> dict[int, CohElement]:
    """A row keyed by z-exponent, re-keyed by weight w = z + p + lam_exp."""
    return _regroup(row, 1)


def _by_z(row: Mapping, weight=1, shift=0, at=None, low=None) -> dict:
    """A weight-keyed row re-keyed by z = shift + w - weight*t - a (only z = at, or z >= low)."""
    return _regroup(row, -1, weight, shift, at, low)


def z_json(row: Mapping[int, _Graded], weight: int = 1, shift: int = 0) -> dict:
    """The JSON of a weight-keyed row read by z (as ``_by_z``), rendered without building a value.

    One ``_regroup`` pass gives the numerators per z-exponent over one
    denominator, and ``ring._render_slots`` renders each term from them.
    """
    parts, den = _regroup(row, -1, weight, shift, values=False)
    return {str(ze): _render_slots(nums, den) for ze, nums in parts.items()}


def _at_minus_z(value: _Graded, shift: int, weight: int) -> _Graded:
    """A value of a weight-keyed row read at -z; ``shift`` is its key plus the row's shift.

    By the rule of ``_regroup`` its term (t, lam_exp, log_exp) sits at
    z^(shift - weight*t - lam_exp), so the terms at odd z-exponents flip sign.
    """
    nums = {
        key: -c if (shift - weight * key[0] - key[1]) % 2 else c for key, c in value._nums.items()
    }
    return value._like(nums, value._den, value._trunc)


def queue_row_product(
    tgt: dict[int, list], a: Mapping[int, CohElement], b: Mapping[int, CohElement]
) -> None:
    """Queue the pairs of a*b into tgt for rows keyed by weight, z-exponent or offset.

    The rows hold classes or q-series and keys add; ``summed`` builds the values.
    """
    for z1, e1 in a.items():
        for z2, e2 in b.items():
            tgt.setdefault(z1 + z2, []).append((e1, e2))


def lifted(values) -> dict[int, dict[int, CohElement]]:
    """The weight-keyed rows of sum value * P^p * z^k over values [(value, p, k)], p < n.

    A value is a q-series, or a scalar read at q^0.  A transposition, no
    product: P^p z^k has weight p + k, so the term q^d lam^a log^b of a value
    is the term (p, a, b) of the class at degree d and weight p + k + a.  This
    is the one place where the lam exponents of a coefficient become weights.
    The pairs (p, k) are distinct, so no two terms meet; the classes go over
    the lcm of the values' denominators and are reduced one by one.  A flagged
    degree of a value flags slot p of the class at each weight its terms
    there reach, at weight p + k (lam^0) when it holds no term: the flags
    ``ring._Terms._spread`` gives the product of the value by P^p z^k.
    """
    desc, den = values[0][0].desc, lcm(*(value._den for value, _, _ in values))
    nums: dict[tuple[int, int], dict] = {}  # (degree, weight) -> numerators over den
    flags: dict[tuple[int, int], int] = {}  # (degree, weight) -> mask of slots
    for value, p, k in values:
        f, trunc = den // value._den, value._trunc
        for (d, a, b), c in value._nums.items():
            nums.setdefault((d, p + k + a), {})[p, a, b] = c * f
        for d in range(trunc.bit_length()):
            if trunc >> d & 1:
                for w in {p + k + a for e, a, _ in value._nums if e == d} or {p + k}:
                    nums.setdefault((d, w), {})
                    flags[d, w] = flags.get((d, w), 0) | 1 << p
    rows: dict[int, dict[int, CohElement]] = {}
    for (d, w), part in nums.items():
        rows.setdefault(d, {})[w] = CohElement._make(desc, part, den, flags.get((d, w), 0))
    return rows


def summed(queued: Mapping[int, list]) -> dict:
    """Each key's queued pairs [(x, y)] as one value, the sum of the x*y reduced once.

    A key whose products all vanish, none of them flagged, holds an unflagged
    zero, which the series constructors drop.
    """
    return {key: pairs[0][0]._dot(pairs) for key, pairs in queued.items()}


def symplectic_form(f: ZSeries, g: ZSeries) -> QSeries:
    """Residue pairing: the z^(-1) coefficient of the Poincare-paired product f(-z)g(z).

    Both arguments must be raw loop-space vectors.  A flag does not say at
    which z its term was lost, so a flagged class in slice d1 of f or slice d2
    of g flags the coefficient at q^(d1 + d2).
    """
    if f.convention != RAW or g.convention != RAW:
        raise ConventionError("symplectic form is defined on raw series")
    f._check(g)
    desc = f.desc
    out: dict[int, LambdaScalar] = {}
    lost = LambdaScalar(desc, truncated=True)
    g_rows = {d: (g.slice(d), any(el._trunc for el in row.values())) for d, row in g.slices.items()}
    for d1, row in f.slices.items():
        row1, flag1 = f.slice(d1), any(el._trunc for el in row.values())
        for d2, (row2, flag2) in g_rows.items():
            d = d1 + d2
            if d > f.max_degree:
                continue
            if flag1 or flag2:
                out[d] = out[d] + lost if d in out else lost
            for z1, e1 in row1.items():
                e2 = row2.get(-1 - z1)
                if e2 is None:
                    continue
                term = poincare_pairing(e1, e2).scale(-1 if z1 % 2 else 1)
                old = out.get(d)
                out[d] = term if old is None else old + term
    return QSeries(desc, f.max_degree, out)


def project(f: ZSeries, half: str) -> ZSeries:
    """Polarization projector: 'plus' keeps z-exponents >= 0, 'minus' the rest."""
    if f.convention != RAW:
        raise ConventionError("projection is defined on raw series")
    if half not in ("plus", "minus"):
        raise ValueError("half must be 'plus' or 'minus'")
    keep = (lambda ze: ze >= 0) if half == "plus" else (lambda ze: ze < 0)
    # The term (p, a, b) of the class at weight w sits at z^(w - p - a).  A flag
    # does not say which z-entry of its class was lost: both halves keep it,
    # as a flagged zero where no term of the class survives.
    return f._like({
        d: {w: el._like({key: c for key, c in el._nums.items() if keep(w - key[0] - key[1])},
                        el._den, el._trunc) for w, el in row.items()}
        for d, row in f.slices.items()
    })


def directional_derivative(f: ZSeries) -> ZSeries:
    """The operator z*D_P on a reduced series: slice_d goes to (P + d z) * slice_d.

    P and z both have weight 1, so the class at weight w goes to w + 1 as
    the class times P + d, a slot shift plus d times the class
    (``_Graded._times_t_plus``).
    """
    if f.convention != REDUCED:
        raise ConventionError("z*D_P acts on reduced series")
    return f._like(
        {d: {w + 1: el._times_t_plus(d) for w, el in row.items()} for d, row in f.slices.items()}
    )
