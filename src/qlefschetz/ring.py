"""Exact arithmetic in the truncated cohomology algebra of projective space.

The ambient ring is H = Q[P]/(P^n) with scalar coefficients that are
truncated Laurent polynomials in an equivariant parameter lam, extended by
a formal commuting generator log(lam).  Laurent exponents below the
configured floor -L are dropped and the drop is recorded on the value, so
exact identities (zero residual, no truncation flag) are distinguishable
from identities that only hold modulo the floor.

Values are fraction-free: a scalar is one map of integer numerators over one
common denominator, and so is a class, whose keys carry the power of P next
to the lam and log(lam) exponents.  Each arithmetic result is reduced once,
so the inner loops multiply and add plain ints and take one gcd per result
instead of one per term, and a class product builds no scalar objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
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
    """((lam_exp, log_exp), numerator) terms over den as JSON: 'a' or 'a|b' to rationals."""
    return {(str(a) if b == 0 else f"{a}|{b}"): str(Fraction(c, den)) for (a, b), c in terms}


class LambdaScalar:
    """A truncated Laurent polynomial in lam with formal log(lam) powers.

    The value is stored fraction-free: integer numerators keyed by
    (lam_exponent, log_exponent) over one positive common denominator, in
    lowest terms (the gcd of the denominator and all numerators is 1, and no
    numerator is zero), so equal values have equal representations.  Every
    arithmetic result and every constant is built by ``_make``, which reduces
    once per result; ``__init__`` validates rationals from outside.
    Coefficients read back as ``Fraction``.

    The ``truncated`` flag is sticky: it propagates through arithmetic and
    records that some operation dropped a nonzero term below the floor (or
    above the log cap).  A product's terms are summed per key before the
    floor is applied, so a below-floor key that cancels to zero drops nothing.
    """

    __slots__ = ("desc", "_nums", "_den", "truncated")

    def __init__(
        self,
        desc: RingDescriptor,
        coeffs: Mapping[tuple[int, int], Fraction] | None = None,
        truncated: bool = False,
    ) -> None:
        clean: dict[tuple[int, int], tuple[int, int]] = {}
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
                clean[(a, b)] = num, den
        # Over the lcm of lowest-terms denominators the numerators are coprime to it.
        den = lcm(*(d for _, d in clean.values()))
        self.desc = desc
        self._nums = {k: num * (den // d) for k, (num, d) in clean.items()}
        self._den = den
        self.truncated = truncated or dropped

    @classmethod
    def _make(
        cls, desc: RingDescriptor, nums: dict, den: int, truncated: bool
    ) -> "LambdaScalar":
        """Trusted constructor: nonzero in-range numerators over den > 0, reduced here."""
        out = _new(cls)
        out.desc = desc
        out._nums, out._den = _lowest(nums, den)
        out.truncated = truncated
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def _monomial(cls, desc: RingDescriptor, a: int, b: int, coeff) -> "LambdaScalar":
        """coeff * lam^a * log(lam)^b; a truncated zero when the key is out of range."""
        num, den = _ratio(coeff)
        if not num:
            return cls._make(desc, {}, 1, False)
        if a < -desc.lambda_floor or b > desc.log_cap:
            return cls._make(desc, {}, 1, True)
        return cls._make(desc, {(a, b): num}, den, False)

    @classmethod
    def zero(cls, desc: RingDescriptor) -> "LambdaScalar":
        return cls._make(desc, {}, 1, False)

    @classmethod
    def one(cls, desc: RingDescriptor) -> "LambdaScalar":
        return cls._make(desc, {(0, 0): 1}, 1, False)

    @classmethod
    def from_rational(cls, desc: RingDescriptor, value) -> "LambdaScalar":
        return cls._monomial(desc, 0, 0, value)

    @classmethod
    def lam_power(cls, desc: RingDescriptor, exponent: int, coeff=1) -> "LambdaScalar":
        return cls._monomial(desc, exponent, 0, coeff)

    @classmethod
    def log_lambda(cls, desc: RingDescriptor, coeff=1) -> "LambdaScalar":
        return cls._monomial(desc, 0, 1, coeff)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def is_rational(self) -> bool:
        return all(key == (0, 0) for key in self._nums)

    def as_rational(self) -> Fraction:
        if not self._nums:
            return _ZERO
        if not self.is_rational():
            raise ValueError(f"scalar is not a plain rational: {self}")
        return Fraction(self._nums[(0, 0)], self._den)

    def coefficient(self, lam_exp: int, log_exp: int = 0) -> Fraction:
        num = self._nums.get((lam_exp, log_exp))
        return _ZERO if num is None else Fraction(num, self._den)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LambdaScalar") -> None:
        if self.desc is not other.desc and self.desc != other.desc:
            raise DescriptorMismatchError("scalars over different ring descriptors")

    def __add__(self, other: "LambdaScalar") -> "LambdaScalar":
        self._check(other)
        truncated = self.truncated or other.truncated
        if not other._nums and self.truncated == truncated:
            return self
        if not self._nums and other.truncated == truncated:
            return other
        nums, den = _add_nums(self._nums, self._den, other._nums, other._den)
        return LambdaScalar._make(self.desc, nums, den, truncated)

    def __sub__(self, other: "LambdaScalar") -> "LambdaScalar":
        return self + (-other)

    def __neg__(self) -> "LambdaScalar":
        return LambdaScalar._make(
            self.desc, {k: -c for k, c in self._nums.items()}, self._den, self.truncated
        )

    def __mul__(self, other) -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            return self.scale(other)
        self._check(other)
        desc = self.desc
        truncated = self.truncated or other.truncated
        floor, cap = -desc.lambda_floor, desc.log_cap
        den = self._den * other._den
        sn, on = self._nums, other._nums
        if len(sn) == 1 == len(on):
            # Monomial times monomial, the common case: one nonzero term.
            ((a1, b1), c1), = sn.items()
            ((a2, b2), c2), = on.items()
            a, b = a1 + a2, b1 + b2
            if a < floor or b > cap:
                return LambdaScalar._make(desc, {}, 1, True)
            return LambdaScalar._make(desc, {(a, b): c1 * c2}, den, truncated)
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for (a1, b1), c1 in sn.items():
            for (a2, b2), c2 in on.items():
                key = (a1 + a2, b1 + b2)
                out[key] = get(key, 0) + c1 * c2
        nums = {}
        for key, c in out.items():
            if c:
                if key[0] < floor or key[1] > cap:
                    truncated = True
                else:
                    nums[key] = c
        return LambdaScalar._make(desc, nums, den, truncated)

    __rmul__ = __mul__

    def scale(self, value) -> "LambdaScalar":
        p, q = _ratio(value)
        if not p:
            return LambdaScalar._make(self.desc, {}, 1, self.truncated)
        return LambdaScalar._make(
            self.desc, {k: c * p for k, c in self._nums.items()}, self._den * q,
            self.truncated,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaScalar):
            return NotImplemented
        return (
            self.desc == other.desc
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.desc, self._den, tuple(sorted(self._nums.items()))))

    def lambda_zero_part(self) -> Fraction:
        """Coefficient at lam^0 log^0: the non-equivariant limit of the scalar."""
        return self.coefficient(0, 0)

    def _terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        den = self._den
        return [(key, Fraction(c, den)) for key, c in sorted(self._nums.items())]

    def to_json_dict(self) -> dict[str, str]:
        """Canonical rendering: keys 'a' (or 'a|b' with log powers) to rationals."""
        return _render(sorted(self._nums.items()), self._den)

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


class CohElement:
    """An element of Q[P]/(P^n), the sum over p < n of component(p) * P^p.

    The value is stored flat: one map of integer numerators keyed by
    (p, lam_exponent, log_exponent) over one positive common denominator, in
    lowest terms as for ``LambdaScalar``, so ``==`` and ``hash`` depend only
    on the value.  Each P-slot has its own truncated flag, bit p of the mask
    ``_trunc``; ``component(p)`` returns the slot as a ``LambdaScalar``.

    Slot k of a product is truncated when a product of two nonzero
    components with i + j = k drops a term below the floor or past the log
    cap, or has a truncated member, and also when a factor has a zero but
    truncated component at or below k: that zero stands for an unknown term
    below the floor.  A truncated scalar factor marks every slot.
    """

    __slots__ = ("desc", "_nums", "_den", "_trunc")

    def __init__(self, desc: RingDescriptor, components: Iterable[LambdaScalar]) -> None:
        comps = tuple(components)
        if len(comps) != desc.n:
            raise ValueError(f"expected {desc.n} components, got {len(comps)}")
        # Over the lcm of lowest-terms denominators the numerators are coprime to it.
        den = lcm(*(c._den for c in comps))
        self.desc = desc
        self._nums = {
            (p, a, b): num * (den // c._den)
            for p, c in enumerate(comps) for (a, b), num in c._nums.items()
        }
        self._den = den
        self._trunc = sum(1 << p for p, c in enumerate(comps) if c.truncated)

    @classmethod
    def _make(cls, desc: RingDescriptor, nums: dict, den: int, trunc: int) -> "CohElement":
        """Trusted constructor: nonzero in-range numerators over den > 0, reduced here."""
        out = _new(cls)
        out.desc = desc
        out._nums, out._den = _lowest(nums, den)
        out._trunc = trunc
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, desc: RingDescriptor) -> "CohElement":
        return cls._make(desc, {}, 1, 0)

    @classmethod
    def one(cls, desc: RingDescriptor) -> "CohElement":
        return cls._make(desc, {(0, 0, 0): 1}, 1, 0)

    @classmethod
    def p_power(cls, desc: RingDescriptor, k: int, coeff=1) -> "CohElement":
        """coeff * P^k, which is zero when k >= n."""
        num, den = _ratio(coeff)
        if not (num and 0 <= k < desc.n):
            return cls._make(desc, {}, 1, 0)
        return cls._make(desc, {(k, 0, 0): num}, den, 0)

    @classmethod
    def from_scalar(cls, scalar: LambdaScalar) -> "CohElement":
        nums = {(0, a, b): c for (a, b), c in scalar._nums.items()}
        return cls._make(scalar.desc, nums, scalar._den, int(scalar.truncated))

    # -- structure -----------------------------------------------------------

    def component(self, k: int) -> LambdaScalar:
        if not 0 <= k < self.desc.n:
            raise IndexError(f"no P^{k} slot in Q[P]/(P^{self.desc.n})")
        nums = {(a, b): c for (p, a, b), c in self._nums.items() if p == k}
        return LambdaScalar._make(self.desc, nums, self._den, bool(self._trunc >> k & 1))

    @property
    def components(self) -> tuple[LambdaScalar, ...]:
        """All n components, split off in one pass."""
        desc = self.desc
        parts: list[dict] = [{} for _ in range(desc.n)]
        for (p, a, b), c in self._nums.items():
            parts[p][(a, b)] = c
        return tuple(
            LambdaScalar._make(desc, part, self._den, bool(self._trunc >> p & 1))
            for p, part in enumerate(parts)
        )

    def is_zero(self) -> bool:
        return not self._nums

    @property
    def truncated(self) -> bool:
        return bool(self._trunc)

    def _check(self, other) -> None:
        if self.desc is not other.desc and self.desc != other.desc:
            raise DescriptorMismatchError("elements over different ring descriptors")

    def _slots(self) -> int:
        """Mask of the nonzero P-slots."""
        return sum(1 << p for p in {key[0] for key in self._nums})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CohElement") -> "CohElement":
        self._check(other)
        trunc = self._trunc | other._trunc
        if not other._nums and trunc == self._trunc:
            return self
        if not self._nums and trunc == other._trunc:
            return other
        nums, den = _add_nums(self._nums, self._den, other._nums, other._den)
        return CohElement._make(self.desc, nums, den, trunc)

    def __sub__(self, other: "CohElement") -> "CohElement":
        return self + (-other)

    def __neg__(self) -> "CohElement":
        return CohElement._make(
            self.desc, {k: -c for k, c in self._nums.items()}, self._den, self._trunc
        )

    def __mul__(self, other) -> "CohElement":
        if isinstance(other, LambdaScalar):
            return self.scale_scalar(other)
        if not isinstance(other, CohElement):
            return self.scale(other)
        self._check(other)
        nums, trunc = self._times(sorted(other._nums.items()))
        if self._trunc or other._trunc:
            trunc |= self._spread(other)
        return CohElement._make(self.desc, nums, self._den * other._den, trunc)

    __rmul__ = __mul__

    def _times(self, right: list) -> tuple[dict, int]:
        """Products of this class's terms with the terms ``right``, summed per key.

        ``right`` holds ((p, lam_exp, log_exp), numerator) pairs sorted by p,
        so P^n = 0 ends each scan.  Returns the kept numerators and the mask
        of slots that had a key below the floor or past the log cap: some
        product of two components reaching such a slot dropped a nonzero
        term, since its lowest lam and highest log(lam) terms never cancel.
        """
        desc = self.desc
        n, floor, cap = desc.n, -desc.lambda_floor, desc.log_cap
        out: dict[tuple[int, int, int], int] = {}
        get = out.get
        for (i, a1, b1), c1 in self._nums.items():
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

    def _spread(self, other: "CohElement") -> int:
        """Product slots that inherit a flag from the factors' truncated slots."""
        full = (1 << self.desc.n) - 1
        a_nz, b_nz = self._slots(), other._slots()
        out = 0
        for i in range(self.desc.n):
            if a_nz >> i & 1:
                out |= (b_nz if self._trunc >> i & 1 else b_nz & other._trunc) << i
        # A zero but truncated slot reaches every slot at or above its own.
        lost = (self._trunc & ~a_nz) | (other._trunc & ~b_nz)
        if lost:
            out |= -(lost & -lost)
        return out & full

    def scale(self, value) -> "CohElement":
        p, q = _ratio(value)
        if not p:
            return CohElement._make(self.desc, {}, 1, self._trunc)
        return CohElement._make(
            self.desc, {k: c * p for k, c in self._nums.items()}, self._den * q,
            self._trunc,
        )

    def scale_scalar(self, scalar: LambdaScalar) -> "CohElement":
        self._check(scalar)
        nums, trunc = self._times([((0, a, b), c) for (a, b), c in scalar._nums.items()])
        # A truncated scalar is an unknown term below the floor in every slot.
        trunc = (1 << self.desc.n) - 1 if scalar.truncated else trunc | self._trunc
        return CohElement._make(self.desc, nums, self._den * scalar._den, trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohElement):
            return NotImplemented
        return (
            self.desc == other.desc
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.desc, self._den, frozenset(self._nums.items())))

    def to_json_dict(self) -> dict[str, dict[str, str]]:
        """Canonical rendering: each nonzero P-exponent to the rendering of its slot."""
        slots: dict[int, list] = {}
        for (p, a, b), c in sorted(self._nums.items()):
            slots.setdefault(p, []).append(((a, b), c))
        return {str(p): _render(terms, self._den) for p, terms in slots.items()}

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

    def degree_pairing(self, d: int) -> list[int]:
        """The integers l_i * d: the bundle degrees evaluated on a curve class."""
        return [l * d for l in self.degrees]

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
        coeff = sum(Fraction(l) ** k for l in self.degrees) / factorial(k)
        if k == 0:
            return CohElement.p_power(desc, 0, Fraction(len(self.degrees)))
        return CohElement.p_power(desc, k, coeff)


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

    # Left side, expanded: sum_i [log(lam) + sum_{k>=1} (-1)^(k-1) (l_i P)^k / (k lam^k)].
    lhs = CohElement.zero(desc)
    log_one = CohElement.from_scalar(LambdaScalar.log_lambda(desc))
    for l in bundle.degrees:
        lhs = lhs + log_one
        for k in range(1, n):
            coeff = Fraction((-1) ** (k - 1), k)
            term = CohElement.p_power(desc, k, coeff * Fraction(l) ** k)
            lhs = lhs + term.scale_scalar(LambdaScalar.lam_power(desc, -k))

    # Right side from the Chern character.
    rhs = bundle.chern_character(desc, 0).scale_scalar(LambdaScalar.log_lambda(desc))
    for k in range(1, n):
        s_k = Fraction((-1) ** (k - 1) * factorial(k - 1))
        term = bundle.chern_character(desc, k).scale(s_k)
        rhs = rhs + term.scale_scalar(LambdaScalar.lam_power(desc, -k))

    residual = lhs - rhs

    # Exponentiated cross-check: lam^rank * exp(nilpotent part) == product form.
    nilpotent = lhs - log_one.scale(bundle.rank)
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
