"""Exact arithmetic in the truncated cohomology algebra of projective space.

The ambient ring is H = Q[P]/(P^n) with scalar coefficients that are
truncated Laurent polynomials in an equivariant parameter lam, extended by
a formal commuting generator log(lam).  Laurent exponents below the
configured floor -L are dropped and the drop is recorded on the value, so
exact identities (zero residual, no truncation flag) are distinguishable
from identities that only hold modulo the floor.

Scalars are fraction-free: integer numerators over one common denominator,
reduced once per arithmetic result, so the inner loops multiply and add
plain ints and take one gcd per result instead of one per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Mapping

from .errors import DescriptorMismatchError, InsufficientFloorError

_ZERO = Fraction(0)
_ONE = Fraction(1)
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class LambdaScalar:
    """A truncated Laurent polynomial in lam with formal log(lam) powers.

    The value is stored fraction-free: integer numerators keyed by
    (lam_exponent, log_exponent) over one positive common denominator, in
    lowest terms (the gcd of the denominator and all numerators is 1, and no
    numerator is zero), so equal values have equal representations.  Every
    arithmetic result is built by ``_make``, which reduces once per result;
    ``__init__`` validates rationals from outside.  Coefficients read back as
    ``Fraction``.

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
        clean: dict[tuple[int, int], Fraction] = {}
        dropped = False
        if coeffs:
            for (a, b), c in coeffs.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                if b < 0:
                    raise ValueError("log(lam) exponents must be >= 0")
                if a < -desc.lambda_floor or b > desc.log_cap:
                    dropped = True
                    continue
                clean[(a, b)] = c
        # Over the lcm of lowest-terms denominators the numerators are coprime to it.
        den = lcm(*(c.denominator for c in clean.values()))
        self.desc = desc
        self._nums = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den
        self.truncated = truncated or dropped

    @classmethod
    def _make(
        cls, desc: RingDescriptor, nums: dict, den: int, truncated: bool
    ) -> "LambdaScalar":
        """Trusted constructor: nonzero in-range numerators over den > 0, reduced here."""
        if den != 1:
            g = gcd(den, *nums.values())  # den itself when nums is empty
            if g != 1:
                den //= g
                nums = {k: c // g for k, c in nums.items()}
        out = _new(cls)
        out.desc = desc
        out._nums = nums
        out._den = den
        out.truncated = truncated
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, desc: RingDescriptor) -> "LambdaScalar":
        return cls._make(desc, {}, 1, False)

    @classmethod
    def one(cls, desc: RingDescriptor) -> "LambdaScalar":
        return cls(desc, {(0, 0): _ONE})

    @classmethod
    def from_rational(cls, desc: RingDescriptor, value) -> "LambdaScalar":
        return cls(desc, {(0, 0): _as_fraction(value)})

    @classmethod
    def lam_power(cls, desc: RingDescriptor, exponent: int, coeff=1) -> "LambdaScalar":
        return cls(desc, {(exponent, 0): _as_fraction(coeff)})

    @classmethod
    def log_lambda(cls, desc: RingDescriptor, coeff=1) -> "LambdaScalar":
        return cls(desc, {(0, 1): _as_fraction(coeff)})

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
        # Both sides over the lcm of the denominators: den = da * fa = db * fb.
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = dict(self._nums) if fa == 1 else {k: c * fa for k, c in self._nums.items()}
        for key, c in other._nums.items():
            s = out.get(key, 0) + c * fb
            if s:
                out[key] = s
            else:
                del out[key]
        den = da * fa
        return LambdaScalar._make(self.desc, out, den, truncated)

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
        if isinstance(value, int):
            p, q = value, 1
        else:
            value = _as_fraction(value)
            p, q = value.numerator, value.denominator
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
        out = {}
        for (a, b), c in self._terms():
            key = str(a) if b == 0 else f"{a}|{b}"
            out[key] = str(c)
        return out

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
    """An element of Q[P]/(P^n): n scalar coordinates in the basis 1, P, ..., P^(n-1).

    A product component is truncated when one of its scalar products or sums
    is, and also when a factor has a zero but truncated component at or below
    its degree in P: that zero stands for an unknown term below the floor.
    """

    __slots__ = ("desc", "components")

    def __init__(self, desc: RingDescriptor, components: Iterable[LambdaScalar]) -> None:
        comps = tuple(components)
        if len(comps) != desc.n:
            raise ValueError(f"expected {desc.n} components, got {len(comps)}")
        self.desc = desc
        self.components = comps

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, desc: RingDescriptor) -> "CohElement":
        z = LambdaScalar.zero(desc)
        return cls(desc, (z,) * desc.n)

    @classmethod
    def one(cls, desc: RingDescriptor) -> "CohElement":
        comps = [LambdaScalar.one(desc)] + [LambdaScalar.zero(desc)] * (desc.n - 1)
        return cls(desc, comps)

    @classmethod
    def p_power(cls, desc: RingDescriptor, k: int, coeff=1) -> "CohElement":
        """coeff * P^k, which is zero when k >= n."""
        comps = [LambdaScalar.zero(desc) for _ in range(desc.n)]
        if 0 <= k < desc.n:
            comps[k] = LambdaScalar.from_rational(desc, coeff)
        return cls(desc, comps)

    @classmethod
    def from_scalar(cls, scalar: LambdaScalar) -> "CohElement":
        desc = scalar.desc
        comps = [scalar] + [LambdaScalar.zero(desc)] * (desc.n - 1)
        return cls(desc, comps)

    # -- structure -----------------------------------------------------------

    def component(self, k: int) -> LambdaScalar:
        return self.components[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    @property
    def truncated(self) -> bool:
        return any(c.truncated for c in self.components)

    def _check(self, other: "CohElement") -> None:
        if self.desc is not other.desc and self.desc != other.desc:
            raise DescriptorMismatchError("elements over different ring descriptors")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CohElement") -> "CohElement":
        self._check(other)
        return CohElement(
            self.desc, (a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "CohElement") -> "CohElement":
        self._check(other)
        return CohElement(
            self.desc, (a - b for a, b in zip(self.components, other.components))
        )

    def __neg__(self) -> "CohElement":
        return CohElement(self.desc, (-a for a in self.components))

    def __mul__(self, other) -> "CohElement":
        if isinstance(other, LambdaScalar):
            return CohElement(self.desc, (c * other for c in self.components))
        if not isinstance(other, CohElement):
            return self.scale(other)
        self._check(other)
        desc = self.desc
        n = desc.n
        # A zero but truncated component stands for an unknown below-floor
        # term, so every slot it reaches, its own degree in P and above, is
        # truncated.  Other zero components are skipped.
        tainted = min(
            (k for comps in (self.components, other.components)
             for k, c in enumerate(comps) if c.truncated and not c._nums),
            default=n,
        )
        out: list[LambdaScalar | None] = [None] * n
        for i, a in enumerate(self.components):
            if not a._nums:
                continue
            for j in range(n - i):
                b = other.components[j]
                if not b._nums:
                    continue
                prod = a * b
                slot = out[i + j]
                out[i + j] = prod if slot is None else slot + prod
        for k in range(n):
            slot = out[k]
            if slot is None:
                out[k] = LambdaScalar._make(desc, {}, 1, k >= tainted)
            elif k >= tainted and not slot.truncated:
                out[k] = LambdaScalar._make(desc, slot._nums, slot._den, True)
        return CohElement(desc, out)

    __rmul__ = __mul__

    def scale(self, value) -> "CohElement":
        return CohElement(self.desc, (c.scale(value) for c in self.components))

    def scale_scalar(self, scalar: LambdaScalar) -> "CohElement":
        return CohElement(self.desc, (c * scalar for c in self.components))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohElement):
            return NotImplemented
        return self.desc == other.desc and self.components == other.components

    def __hash__(self):
        return hash((self.desc, self.components))

    def lambda_zero_part(self) -> "CohElement":
        """Keep only lam^0 log^0 coefficients (the non-equivariant limit)."""
        comps = []
        for c in self.components:
            comps.append(LambdaScalar(self.desc, {(0, 0): c.lambda_zero_part()}))
        return CohElement(self.desc, comps)

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
    return a.components[a.desc.n - 1]


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
