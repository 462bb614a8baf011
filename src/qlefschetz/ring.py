"""Exact arithmetic in the truncated cohomology algebra of projective space.

The ambient ring is H = Q[P]/(P^n) with scalar coefficients that are
truncated Laurent polynomials in an equivariant parameter lam, extended by
a formal commuting generator log(lam).  Laurent exponents below the
configured floor -L are dropped and the drop is recorded on the value, so
exact identities (zero residual, no truncation flag) are distinguishable
from identities that only hold modulo the floor.

Scalars, classes and q-series share one fraction-free storage format,
``_Terms``: one map of integer numerators keyed by (slot, lam_exp, log_exp)
over one common denominator.  A scalar is a value with only the P^0 slot.  A
class in R[P]/(P^n) and a q-series in R[q]/(q^(D+1)) (``series.QSeries``)
share one graded product, ``_Graded``.  The one term loop, ``_Terms._times``,
takes a list of pairs and accumulates the numerators of every product x*y in
one map over one common denominator, so a sum of products is reduced once,
with one gcd, and builds no scalar objects; a single product is the one-pair
case.  Each pair runs its factor with fewer terms outside and scans the other
in the slot order it keeps: a value never changes after its constructor, so
its sorted terms are computed once.  Every product of two values flags
by one rule, ``_Terms._spread``: slot i + j is flagged when slot i of one
factor and slot j of the other each hold a term or a flag and one of the two
is flagged, so an exact zero slot reaches nothing.  One transposition,
``_transposed``, stacks scalars into a class or a q-series, splits a value
into its slots as scalars, and turns classes keyed by degree into q-series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Mapping

from .errors import DescriptorMismatchError, InsufficientFloorError

_ZERO = Fraction(0)
_new = object.__new__


@dataclass(frozen=True)
class RingDescriptor:
    """Shape of the coefficient ring: Q[P]/(P^n) over truncated lam-Laurent scalars.

    n            -- ambient projective space is P^(n-1); relation P^n = 0.
    lambda_floor -- exponents of lam below -lambda_floor are truncated away.
    log_cap      -- maximal stored power of the formal generator log(lam).
    """

    n: int
    lambda_floor: int = 0
    log_cap: int = 8

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("ambient dimension parameter n must be >= 2")
        if self.lambda_floor < 0:
            raise ValueError("lambda_floor must be >= 0")
        if self.log_cap < 0:
            raise ValueError("log_cap must be >= 0")


def _ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator of an exact rational."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _fraction(num: int, den: int) -> Fraction:
    """num/den for a positive den as a Fraction, reduced by one gcd without validation."""
    g = gcd(num, den)
    out = _new(Fraction)
    out._numerator, out._denominator = num // g, den // g
    return out


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """nums/den in lowest terms: one gcd over the denominator and every numerator."""
    if den != 1:
        g = gcd(den, *nums.values())  # den itself when nums is empty
        if g != 1:
            return {k: c // g for k, c in nums.items()}, den // g
    return nums, den


def _add_nums(an: dict, ad: int, bn: dict, bd: int) -> tuple[dict, int]:
    """an/ad + bn/bd over the lcm of the denominators, dropping cancelled keys."""
    g = gcd(ad, bd)
    fa, fb = bd // g, ad // g  # lcm = ad * fa = bd * fb
    out = dict(an) if fa == 1 else {k: c * fa for k, c in an.items()}
    for key, c in bn.items():
        s = out.get(key, 0) + c * fb
        if s:
            out[key] = s
        else:
            del out[key]
    return out, ad * fa


def _render(terms, den: int) -> dict[str, str]:
    """One slot's ((p, a, b), numerator c) terms over den as JSON: 'a' or 'a|b' to c/den.

    Each value is str(Fraction(c, den)), formed from the integers with one gcd.
    """
    return {
        (str(a) if b == 0 else f"{a}|{b}"):
        str(c // g) if (g := gcd(c, den)) == den else f"{c // g}/{den // g}"
        for (_, a, b), c in terms
    }


def _render_slots(nums: dict, den: int) -> dict[str, dict[str, str]]:
    """Numerators keyed (slot, a, b) over den as JSON: each slot that holds a term, rendered."""
    slots: dict[int, list] = {}
    for key, c in nums.items():
        slots.setdefault(key[0], []).append((key, c))
    return {str(p): _render(terms, den) for p, terms in slots.items()}


def _transposed(values: Mapping[int, "_Terms"], like: "_Terms") -> dict:
    """Values keyed by k as one value per slot p that holds a term or a flag, shaped like ``like``.

    Term (p, a, b) of the value at key k becomes term (k, a, b) of the value at
    key p, and flag bit p of value k becomes bit k of value p.  Each result goes
    over the lcm of the values' denominators and is reduced once; every value
    must lie over the descriptor of ``like``.
    """
    desc = like.desc
    if any(v.desc is not desc and v.desc != desc for v in values.values()):
        raise DescriptorMismatchError("values over a different ring descriptor")
    den = lcm(*(v._den for v in values.values()))
    nums: dict[int, dict] = {}
    trunc: dict[int, int] = {}
    for k, v in values.items():
        f = den // v._den
        for (p, a, b), c in v._nums.items():
            nums.setdefault(p, {})[k, a, b] = c * f
        for p in range(v._trunc.bit_length()):
            if v._trunc >> p & 1:
                trunc[p] = trunc.get(p, 0) | 1 << k
    return {p: like._like(nums.get(p, {}), den, trunc.get(p, 0)) for p in sorted({*nums, *trunc})}


class _Terms:
    """The storage format shared by scalars, classes and q-series.

    A value is one map of integer numerators keyed by (slot, lam_exponent,
    log_exponent) over one positive common denominator, in lowest terms: no
    numerator is zero, every key lies inside the floor and the log cap, and
    the gcd of the denominator and all numerators is 1, so ``==`` and
    ``hash`` depend only on the value.  Slots run over 0 .. ``_span()`` - 1
    and ``_trunc`` is the mask of truncated slots.  Every arithmetic result
    and every constant is built by ``_make``, which reduces once per result;
    ``_like`` builds a result of the same shape as ``self``.  No value changes
    after its constructor, so ``_order`` keeps its terms sorted by slot once
    they are read (``_by_slot``).  A subclass adds its constructors, readers,
    product and truncation rule; values of two different subclasses neither
    add nor compare equal.
    """

    __slots__ = ("desc", "_nums", "_den", "_trunc", "_order")

    @classmethod
    def _make(cls, desc: RingDescriptor, nums: dict, den: int, trunc: int):
        """Trusted constructor: nonzero in-range numerators over den > 0, reduced here."""
        out = _new(cls)
        out.desc = desc
        out._nums, out._den = _lowest(nums, den)
        out._trunc, out._order = trunc, None
        return out

    def _like(self, nums: dict, den: int, trunc: int):
        return self._make(self.desc, nums, den, trunc)

    def _span(self) -> int:
        """Number of slots: values live in R[t]/(t^span)."""
        return self.desc.n

    @classmethod
    def zero(cls, desc: RingDescriptor):
        return cls._make(desc, {}, 1, 0)

    @classmethod
    def one(cls, desc: RingDescriptor):
        return cls._make(desc, {(0, 0, 0): 1}, 1, 0)

    def is_zero(self) -> bool:
        return not self._nums

    @property
    def truncated(self) -> bool:
        return bool(self._trunc)

    def _check(self, other) -> None:
        if self.desc is not other.desc and self.desc != other.desc:
            raise DescriptorMismatchError("values over different ring descriptors")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        trunc = self._trunc | other._trunc
        if not other._nums and trunc == self._trunc:
            return self
        if not self._nums and trunc == other._trunc:
            return other
        nums, den = _add_nums(self._nums, self._den, other._nums, other._den)
        return self._like(nums, den, trunc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self._nums.items()}, self._den, self._trunc)

    def scale(self, value):
        p, q = _ratio(value)
        if not p:
            return self._like({}, 1, self._trunc)
        return self._like({k: c * p for k, c in self._nums.items()}, self._den * q, self._trunc)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.desc == other.desc
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.desc, self._den, frozenset(self._nums.items())))

    def _times(self, pairs, den: int) -> tuple[dict, int]:
        """The products x*y over pairs [(x, y)], summed per key as numerators over den.

        den is a common multiple of the x._den * y._den.  Every product here
        commutes (scalars, classes, q-series), so each pair runs its factor with
        fewer terms in the outer loop, scaled there by den // (x._den * y._den),
        and scans the other factor by slot (``_by_slot``), so t^span = 0 ends
        each scan; a scalar has the one slot 0 and is read as stored.
        Returns the kept numerators and the mask of slots that had a key below
        the floor or past the log cap: some product of two components reaching
        such a slot dropped a nonzero term, since its lowest lam and highest
        log(lam) terms never cancel.
        """
        desc = self.desc
        n, floor, cap = self._span(), -desc.lambda_floor, desc.log_cap
        out: dict[tuple[int, int, int], int] = {}
        get = out.get
        for x, y in pairs:
            if len(x._nums) > len(y._nums):
                x, y = y, x
            f = den // (x._den * y._den)
            right = y._nums.items() if type(y) is LambdaScalar else y._by_slot()
            for (i, a1, b1), c1 in x._nums.items():
                c1 *= f
                room = n - i
                for (j, a2, b2), c2 in right:
                    if j >= room:
                        break
                    key = (i + j, a1 + a2, b1 + b2)
                    out[key] = get(key, 0) + c1 * c2
        nums = {}
        dropped = 0
        for key, c in out.items():
            if key[1] < floor or key[2] > cap:
                dropped |= 1 << key[0]
            elif c:
                nums[key] = c
        return nums, dropped

    def _by_slot(self) -> list:
        """The terms ((slot, lam_exp, log_exp), numerator) in key order, so by slot.

        Sorted on the first read and kept on the value, which never changes
        after its constructor.
        """
        order = self._order
        if order is None:
            order = self._order = sorted(self._nums.items())
        return order

    def _slots(self) -> int:
        """Mask of the nonzero slots."""
        return sum(1 << p for p in {key[0] for key in self._nums})

    def _spread(self, other) -> int:
        """The slots of self * other that inherit a flag, before the mask to the span.

        Slot i + j is flagged when slot i of self and slot j of other each hold
        a term or a flag and at least one of the two is flagged: a flagged slot
        stands for an unknown term below the floor, and an exact zero slot
        reaches nothing.  A scalar is the one slot 0.
        """
        mine, theirs = self._slots() | self._trunc, other._slots() | other._trunc
        out = 0
        for i in range(mine.bit_length()):
            if mine >> i & 1:
                out |= (theirs if self._trunc >> i & 1 else other._trunc) << i
        return out

    def _dot(self, pairs):
        """The sum of the products x*y over pairs [(x, y)], shaped like self, reduced once.

        The numerators go over the lcm of the x._den * y._den, and ``_times``
        picks the factor order of each product.  The flags are those
        ``_spread`` gives for each flagged pair, masked to self's span, and
        those of the slots where ``_times`` dropped a key.
        """
        den, trunc = lcm(*[x._den * y._den for x, y in pairs]), 0
        for x, y in pairs:
            if x._trunc or y._trunc:
                trunc |= x._spread(y)
        nums, dropped = self._times(pairs, den)
        return self._like(nums, den, (trunc & ((1 << self._span()) - 1)) | dropped)


class LambdaScalar(_Terms):
    """A truncated Laurent polynomial in lam with formal log(lam) powers.

    Stored in the ``_Terms`` format as a class with only the P^0 slot: its
    keys are (0, lam_exponent, log_exponent) and ``_trunc`` is 0 or 1.
    ``__init__`` validates rationals from outside; coefficients read back as
    ``Fraction``.

    The ``truncated`` flag is sticky: it propagates through arithmetic and
    records that some operation dropped a nonzero term below the floor (or
    above the log cap).  A product of two nonzero scalars drops a nonzero
    term exactly when one of its keys falls out of range, since its
    lowest-lam and highest-log terms never cancel.
    """

    __slots__ = ()

    def __init__(
        self,
        desc: RingDescriptor,
        coeffs: Mapping[tuple[int, int], Fraction] | None = None,
        truncated: bool = False,
    ) -> None:
        clean: dict[tuple[int, int, int], tuple[int, int]] = {}
        dropped = False
        if coeffs:
            for (a, b), c in coeffs.items():
                num, den = _ratio(c)
                if not num:
                    continue
                if b < 0:
                    raise ValueError("log(lam) exponents must be >= 0")
                if a < -desc.lambda_floor or b > desc.log_cap:
                    dropped = True
                    continue
                clean[(0, a, b)] = num, den
        # Over the lcm of lowest-terms denominators the numerators are coprime to it.
        den = lcm(*(d for _, d in clean.values()))
        self.desc = desc
        self._nums = {k: num * (den // d) for k, (num, d) in clean.items()}
        self._den = den
        self._trunc, self._order = 1 if truncated or dropped else 0, None

    def _span(self) -> int:
        return 1  # the P^0 slot

    # -- constructors -------------------------------------------------------

    @classmethod
    def _monomial(cls, desc: RingDescriptor, a: int, b: int, coeff) -> "LambdaScalar":
        """coeff * lam^a * log(lam)^b; a truncated zero when the key is out of range."""
        num, den = _ratio(coeff)
        if not num:
            return cls._make(desc, {}, 1, 0)
        if a < -desc.lambda_floor or b > desc.log_cap:
            return cls._make(desc, {}, 1, 1)
        return cls._make(desc, {(0, a, b): num}, den, 0)

    @classmethod
    def from_rational(cls, desc: RingDescriptor, value) -> "LambdaScalar":
        return cls._monomial(desc, 0, 0, value)

    @classmethod
    def lam_power(cls, desc: RingDescriptor, exponent: int, coeff=1) -> "LambdaScalar":
        return cls._monomial(desc, exponent, 0, coeff)

    @classmethod
    def log_lambda(cls, desc: RingDescriptor, coeff=1) -> "LambdaScalar":
        return cls._monomial(desc, 0, 1, coeff)

    # -- readers -------------------------------------------------------------

    def is_rational(self) -> bool:
        return all(key == (0, 0, 0) for key in self._nums)

    def as_rational(self) -> Fraction:
        if not self._nums:
            return _ZERO
        if not self.is_rational():
            raise ValueError(f"scalar is not a plain rational: {self}")
        return Fraction(self._nums[(0, 0, 0)], self._den)

    def coefficient(self, lam_exp: int, log_exp: int = 0) -> Fraction:
        num = self._nums.get((0, lam_exp, log_exp))
        return _ZERO if num is None else Fraction(num, self._den)

    def lambda_zero_part(self) -> Fraction:
        """Coefficient at lam^0 log^0: the non-equivariant limit of the scalar."""
        return self.coefficient(0, 0)

    def _terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        den = self._den
        return [((a, b), Fraction(c, den)) for (_, a, b), c in sorted(self._nums.items())]

    def to_json_dict(self) -> dict[str, str]:
        """Canonical rendering: keys 'a' (or 'a|b' with log powers) to rationals."""
        return _render(self._nums.items(), self._den)

    @classmethod
    def from_json_dict(cls, desc: RingDescriptor, data: Mapping[str, str]) -> "LambdaScalar":
        coeffs = {}
        for key, val in data.items():
            if "|" in key:
                a, b = key.split("|")
                coeffs[(int(a), int(b))] = Fraction(val)
            else:
                coeffs[(int(key), 0)] = Fraction(val)
        return cls(desc, coeffs)

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        bits = []
        for (a, b), c in self._terms():
            term = str(c)
            if a:
                term += f"*lam^{a}"
            if b:
                term += f"*loglam^{b}"
            bits.append(term)
        return " + ".join(bits)

    # -- product -------------------------------------------------------------

    def __mul__(self, other) -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            # Classes and q-series answer a scalar on the left through __rmul__.
            return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented
        self._check(other)
        return self._dot([(self, other)])

    __rmul__ = __mul__

    # perfbench traces scalar sums through this class's own ``__add__`` entry.
    __add__ = _Terms.__add__


class _Graded(_Terms):
    """The graded product shared by classes and q-series.

    A value is an element of R[t]/(t^span) over the scalar ring R, slot k
    holding the coefficient of t^k: t = P and span n for a ``CohElement``,
    t = q and span D + 1 for a ``QSeries``.  Bit k of ``_trunc`` flags slot k.

    Slot k of a product is truncated when a product of two slots with
    i + j = k drops a term below the floor or past the log cap, or when
    ``_Terms._spread`` flags it.  A product with an exact zero (no term, no
    flag) is an exact zero.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, LambdaScalar):
            return self.scale_scalar(other)
        if type(other) is not type(self):
            return self.scale(other)
        self._check(other)
        return self._dot([(self, other)])

    def _times_t_plus(self, d: int):
        """self * (t + d) for an integer d, as one numerator map over self's denominator.

        Slot i moves to i + 1 (t^span = 0 drops the top slot) and adds d times
        itself.  t + d has no lam or log(lam) term, so no key leaves the floor
        or the log cap; the flags are those ``_spread`` gives against t + d.
        """
        span, trunc = self._span(), 0
        nums = {(i + 1, a, b): c for (i, a, b), c in self._nums.items() if i + 1 < span}
        if d:
            get = nums.get
            for key, c in self._nums.items():
                nums[key] = get(key, 0) + c * d
        if self._trunc:
            # t + d as numerators; it is an exact zero at span 1 with d = 0
            step = {k: c for k, c in (((1, 0, 0), int(span > 1)), ((0, 0, 0), d)) if c}
            trunc = self._spread(self._like(step, 1, 0)) & ((1 << span) - 1)
        return self._like({k: c for k, c in nums.items() if c}, self._den, trunc)

    def scale_scalar(self, scalar: LambdaScalar):
        _Terms._check(self, scalar)
        return self._dot([(self, scalar)])

    def to_json_dict(self) -> dict[str, dict[str, str]]:
        """Canonical rendering: each nonzero slot's exponent to the rendering of its scalar."""
        return _render_slots(self._nums, self._den)


class CohElement(_Graded):
    """An element of Q[P]/(P^n), the sum over p < n of component(p) * P^p.

    Stored in the ``_Terms`` format: integer numerators keyed by
    (p, lam_exponent, log_exponent) over one common denominator.  Each
    P-slot has its own truncated flag, bit p of the mask ``_trunc``;
    ``component(p)`` returns the slot as a ``LambdaScalar``.  Products follow
    the truncation rule of ``_Graded``.
    """

    __slots__ = ()

    def __init__(self, desc: RingDescriptor, components: Iterable[LambdaScalar]) -> None:
        comps = tuple(components)
        if len(comps) != desc.n:
            raise ValueError(f"expected {desc.n} components, got {len(comps)}")
        self.desc, self._order = desc, None
        out = _transposed(dict(enumerate(comps)), self).get(0)
        self._nums, self._den, self._trunc = (out._nums, out._den, out._trunc) if out else ({}, 1, 0)

    # -- constructors --------------------------------------------------------

    @classmethod
    def p_power(cls, desc: RingDescriptor, k: int, coeff=1) -> "CohElement":
        """coeff * P^k, which is zero when k >= n."""
        num, den = _ratio(coeff)
        if not (num and 0 <= k < desc.n):
            return cls._make(desc, {}, 1, 0)
        return cls._make(desc, {(k, 0, 0): num}, den, 0)

    @classmethod
    def root_polynomial(
        cls, desc: RingDescriptor, l: int, coeffs: Iterable[int], equivariant: bool
    ) -> "CohElement":
        """sum_j coeffs[j] t^j at the Chern root t = lam + l P, or l P, as one class.

        (lam + l P)^j = sum_{p < n} C(j, p) l^p P^p lam^(j - p), so each (j, p)
        fills its own key (p, j - p, 0); without the circle action only p = j
        is left.  No lam exponent is negative, so nothing is truncated.
        """
        n = desc.n
        nums = {
            (p, j - p, 0): c * comb(j, p) * l**p
            for j, c in enumerate(coeffs)
            if c
            for p in range(min(j + 1, n))
            if equivariant or p == j
        }
        return cls._make(desc, nums, 1, 0)

    @classmethod
    def from_scalar(cls, scalar: LambdaScalar) -> "CohElement":
        # A scalar is already stored as the P^0 slot, flag in bit 0.
        return cls._make(scalar.desc, scalar._nums, scalar._den, scalar._trunc)

    # -- structure -----------------------------------------------------------

    def component(self, k: int) -> LambdaScalar:
        if not 0 <= k < self.desc.n:
            raise IndexError(f"no P^{k} slot in Q[P]/(P^{self.desc.n})")
        return self.components[k]

    @property
    def components(self) -> tuple[LambdaScalar, ...]:
        """All n components, the slots transposed into scalars in one pass."""
        zero = LambdaScalar.zero(self.desc)
        parts = _transposed({0: self}, zero)
        return tuple(parts.get(p, zero) for p in range(self.desc.n))

    # -- arithmetic ----------------------------------------------------------

    # perfbench traces class products through this class's own ``__mul__`` entry.
    __mul__ = __rmul__ = _Graded.__mul__

    def lambda_zero_part(self) -> "CohElement":
        """Keep only lam^0 log^0 coefficients (the non-equivariant limit), unflagged."""
        nums = {k: c for k, c in self._nums.items() if k[1] == 0 and k[2] == 0}
        return CohElement._make(self.desc, nums, self._den, 0)

    def __repr__(self) -> str:
        bits = []
        for k, c in enumerate(self.components):
            if c.is_zero():
                continue
            mono = "1" if k == 0 else ("P" if k == 1 else f"P^{k}")
            bits.append(f"({c})*{mono}")
        return " + ".join(bits) if bits else "0"


@dataclass(frozen=True)
class BundleSpec:
    """A split bundle, the direct sum of line bundles O(l_i) with all l_i >= 1.

    The empty tuple is the rank-zero bundle; its Euler class is 1, so twists
    by it degenerate to the untwisted theory.
    """

    degrees: tuple[int, ...]
    equivariant: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if any(l < 1 for l in self.degrees):
            raise ValueError("all line bundle degrees must be >= 1 (convexity)")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def chern_roots(self, desc: RingDescriptor) -> list[CohElement]:
        """The roots lam + l_i P, or l_i P in the non-equivariant case."""
        roots = [CohElement.p_power(desc, 1, l) for l in self.degrees]
        if self.equivariant:
            lam = CohElement.from_scalar(LambdaScalar.lam_power(desc, 1))
            roots = [lam + root for root in roots]
        return roots

    def euler_class(self, desc: RingDescriptor) -> CohElement:
        """Product of the Chern roots."""
        out = CohElement.one(desc)
        for root in self.chern_roots(desc):
            out = out * root
        return out

    def chern_character(self, desc: RingDescriptor, k: int) -> CohElement:
        """ch_k of the bundle: sum_i (l_i P)^k / k! (non-equivariant roots)."""
        return CohElement.p_power(desc, k, Fraction(sum(l**k for l in self.degrees), factorial(k)))


# -- module operations --------------------------------------------------------


def integrate(a: CohElement) -> LambdaScalar:
    """Evaluation against the fundamental class: the coefficient of P^(n-1)."""
    return a.component(a.desc.n - 1)


def twisted_pairing(a: CohElement, b: CohElement, bundle: BundleSpec) -> LambdaScalar:
    """Pairing deformed by the Euler class of the bundle: integral of e(E)*a*b."""
    a._check(b)
    return integrate(bundle.euler_class(a.desc) * a * b)


def poincare_pairing(a: CohElement, b: CohElement) -> LambdaScalar:
    return integrate(a * b)


def _laurent(desc: RingDescriptor, terms) -> CohElement:
    """(num/den) P^k lam^-k summed over terms (k, num, den), 0 < k < n, k <= floor: one class."""
    den = lcm(*(d for _, _, d in terms))
    return CohElement._make(desc, {(k, -k, 0): c * (den // d) for k, c, d in terms if c}, den, 0)


def euler_expansion_check(
    desc: RingDescriptor, bundle: BundleSpec
) -> tuple[bool, CohElement]:
    """Check the Chern-character expansion of the equivariant Euler class.

    Both sides of

        sum_i log(lam + l_i P)  =  ch_0 log(lam) + sum_{k>0} ch_k (-1)^(k-1) (k-1)! / lam^k

    are expanded as elements of the ring (log(lam) formal, 1/lam Laurent) and
    subtracted; with floor >= n the nilpotency of P makes the comparison exact.
    Returns (ok, residual).  A second exactness assertion compares the
    exponentiated forms lam^r * exp(nilpotent part) with the Euler class itself.
    """
    n = desc.n
    if not bundle.equivariant:
        raise ValueError("the expansion identity concerns the equivariant Euler class")
    if desc.lambda_floor < n:
        raise InsufficientFloorError(
            f"euler_expansion_check needs lambda_floor >= n = {n}, "
            f"got {desc.lambda_floor}"
        )

    # Left side, expanded: sum_i [log(lam) + sum_{k>=1} (-1)^(k-1) (l_i P)^k / (k lam^k)],
    # its Laurent part from the integer power sums p_k = sum_i l_i^k.
    log_one = CohElement.from_scalar(LambdaScalar.log_lambda(desc))
    nilpotent = _laurent(
        desc, [(k, (-1) ** (k - 1) * sum(l**k for l in bundle.degrees), k) for k in range(1, n)]
    )
    lhs = log_one.scale(bundle.rank) + nilpotent

    # Right side from the Chern character: ch_k (-1)^(k-1) (k-1)! / lam^k.
    rhs = bundle.chern_character(desc, 0).scale_scalar(LambdaScalar.log_lambda(desc))
    laurent = []
    for k in range(1, n):
        ch = bundle.chern_character(desc, k)
        s_k = (-1) ** (k - 1) * factorial(k - 1)
        laurent.append((k, s_k * ch._nums.get((k, 0, 0), 0), ch._den))
    rhs = rhs + _laurent(desc, laurent)

    residual = lhs - rhs

    # Exponentiated cross-check: lam^rank * exp(nilpotent part) == product form.
    exp_nil = CohElement.one(desc)
    power = CohElement.one(desc)
    for j in range(1, n):
        power = power * nilpotent
        exp_nil = exp_nil + power.scale(Fraction(1, factorial(j)))
    product_form = exp_nil.scale_scalar(LambdaScalar.lam_power(desc, bundle.rank))
    exp_ok = (product_form - bundle.euler_class(desc)).is_zero()

    ok = residual.is_zero() and exp_ok and not residual.truncated
    return ok, residual


def gram_matrix(desc: RingDescriptor, bundle: BundleSpec) -> list[list[LambdaScalar]]:
    """Gram matrix of the twisted pairing in the monomial basis {P^a}."""
    basis = [CohElement.p_power(desc, a) for a in range(desc.n)]
    return [[twisted_pairing(pa, pb, bundle) for pb in basis] for pa in basis]
