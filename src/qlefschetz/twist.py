"""Euler-class twists of the genus-0 theory.

This module houses everything attached to a split bundle E = O(l_1) + ... +
O(l_r): the Bernoulli/Todd coefficients, the Gamma-function asymptotic
exponent that transforms the untwisted cone into the twisted one, the
hypergeometric modification of the J-function, and the Serre-dual twist with
its finite product identity.  The two twists multiply slice d of J by the same
product prod_i prod_k (lam + l_i P + k z) over k = 1..l_i d and k = 0..l_i d - 1;
they share one generator that carries each root's product from degree to
degree as the integer coefficients of prod_k (t + k) in the root t, expanded
into one class by the binomial theorem, and the Serre identity checks the
carried product against a product of linear factors built class by class.

Conventions for the multiplier exponent of E.  Give z, P and lam weight 1;
the exponent of Theorem 1, sum_{m,l} B_{2m}/(2m)! ch_l(E) z^(2m-1), then has
weight 0 in every z-slot, so it is one class of weight 0 whose term
P^j lam^a log(lam)^b is the coefficient of z^(-j-a).  It reads E only through
ch(E), that is through the power sums p_j = sum_i l_i^j = j! ch_j(E) / P^j of
the roots rho_i = l_i P; for one root its slots are

    1/z slot:    rho*log(lam) + sum_{k>=1} (-1)^(k-1) rho^(k+1) / (k (k+1) lam^k)
    z^0 slot:    (1/2) log(1 + rho/lam) expanded in 1/lam
    z^(2m-1):    B_{2m} / (2m (2m-1)) * (lam + rho)^(1-2m)

and over E each rho^j becomes p_j P^j.  The 1/z slot is the antiderivative of
log(lam + x) with its x-independent part removed (the removed constant
generates the string flow, which fixes the cone).  The z^0 slot is the
lam^(1/2)-free remainder of the square-root normalization; carrying it keeps
the whole multiplier inside the Laurent ring while still mapping the
untwisted cone onto the twisted one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import EngineError, InsufficientFloorError
from .ring import BundleSpec, CohElement, LambdaScalar, RingDescriptor
from .series import REDUCED, ZSeries


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2 (generating function x/(e^x - 1))."""
    if k < 0:
        raise ValueError("Bernoulli numbers are indexed by k >= 0")
    if k == 0:
        return Fraction(1)
    if k > 1 and k % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / comb(k + 1, k)


def todd_series(order: int) -> list[Fraction]:
    """Coefficients of psi^r, r = 0..order, in the expansion of psi/(e^psi - 1)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [bernoulli(r) / factorial(r) for r in range(order + 1)]


def b_series(bundle: BundleSpec, desc: RingDescriptor, z_cap: int) -> CohElement:
    """Exponent of the cone-transform multiplier of the bundle, as one class of weight 0.

    Its term P^j lam^a log(lam)^b is the coefficient of z^(-j-a).  Slot P^j
    reads E through p_j = j! ch_j(E) / P^j: it holds the P^j terms of the 1/z
    and z^0 slots and, for every 2m-1 <= z_cap, the term
    B_{2m}/(2m (2m-1)) C(1-2m, j) p_j lam^(1-2m-j).  Each P-slot is built as
    one scalar, so a term below the floor or past the log cap flags its slot,
    also when a whole z-slot falls below the floor.
    """
    if not bundle.equivariant:
        raise EngineError("the cone transform requires the equivariant parameter")
    if z_cap < 1:
        raise ValueError("z_cap must be >= 1")
    if desc.lambda_floor < 1:
        raise InsufficientFloorError(
            "the multiplier exponent needs lambda_floor >= 1"
        )
    comps = []
    for j in range(desc.n):
        p = sum(l**j for l in bundle.degrees)
        # z^(2m-1), with C(1-2m, j) = (-1)^j C(2m-2+j, j)
        terms = {
            (1 - 2 * m - j, 0): bernoulli(2 * m) / (2 * m * (2 * m - 1))
            * (-1) ** j * comb(2 * m - 2 + j, j) * p
            for m in range(1, (z_cap + 1) // 2 + 1)
        }
        if j > 0:  # z^0
            terms[(-j, 0)] = Fraction((-1) ** (j - 1) * p, 2 * j)
        if j == 1:  # 1/z
            terms[(0, 1)] = p
        elif j > 1:
            terms[(1 - j, 0)] = Fraction((-1) ** j * p, (j - 1) * j)
        comps.append(LambdaScalar(desc, terms))
    return CohElement(desc, comps)


def stirling_oracle(m_max: int) -> list[Fraction]:
    """Coefficients c_m of x^(1-2m) in the log-Gamma asymptotic tail, m = 1..m_max.

    Derived from scratch out of the functional equation of log Gamma: the tail
    R(x) = log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2 satisfies

        R(x+1) - R(x) = 1 - (x + 1/2) log(1 + 1/x),

    and matching 1/x expansions determines the c_m triangularly.  The odd
    1/x-orders carry no unknown and must balance on their own; that they do is
    asserted here, making this an oracle independent of Bernoulli numbers.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    k_max = 2 * m_max + 1

    # RHS coefficients of u^k, u = 1/x.
    rhs = {}
    for k in range(1, k_max + 1):
        rhs[k] = Fraction((-1) ** (k + 1), k + 1) + Fraction((-1) ** k, 2 * k)

    # LHS: sum_m c_m [ (x+1)^(1-2m) - x^(1-2m) ] = sum_m c_m sum_{j>=1} C(1-2m, j) u^(j+2m-1).
    def binom_gen(e: int, j: int) -> Fraction:
        out = Fraction(1)
        for i in range(j):
            out *= Fraction(e - i, i + 1)
        return out

    coeffs: list[Fraction] = []
    for k in range(1, k_max + 1):
        acc = Fraction(0)
        for m in range(1, len(coeffs) + 1):
            j = k - (2 * m - 1)
            if j >= 1:
                acc += coeffs[m - 1] * binom_gen(1 - 2 * m, j)
        if k % 2 == 0:
            m_new = k // 2
            # the new unknown enters with j = 1: coefficient (1 - 2m)
            c = (rhs[k] - acc) / Fraction(1 - 2 * m_new)
            coeffs.append(c)
        else:
            if acc != rhs[k]:
                raise EngineError(
                    f"Stirling functional equation fails at 1/x order {k}"
                )
    return coeffs


def stirling_check(z_cap: int) -> tuple[bool, int | None]:
    """Compare the scalar multiplier coefficients with the log-Gamma oracle.

    The z^(2m-1) slot of the exponent, restricted to P = 0 and the top Laurent
    coefficient lam^(1-2m), must equal the oracle coefficient c_m for every
    2m-1 <= z_cap.  Returns (ok, failing_2m).
    """
    if z_cap < 1 or z_cap % 2 == 0:
        raise ValueError("z_cap must be odd and >= 1")
    m_max = (z_cap + 1) // 2
    oracle = stirling_oracle(m_max)
    desc = RingDescriptor(n=2, lambda_floor=2 * m_max + 2)
    scalar = b_series(BundleSpec((1,)), desc, z_cap).component(0)
    for m in range(1, m_max + 1):
        # only the z^(2m-1) slot has a P^0 lam^(1-2m) term
        if scalar.coefficient(1 - 2 * m) != oracle[m - 1]:
            return False, 2 * m
    return True, None


# -- hypergeometric modification ------------------------------------------------


def _linear_factor_product(poly: dict[int, CohElement], factors) -> dict[int, CohElement]:
    """poly * prod (a + k z) over factors [(a, k)], poly a row of classes keyed by weight.

    Each a is a Chern root, of weight 1 like z, so the class at weight w goes
    to w + 1 as the class product with a + k.
    """
    for a, k in factors:
        step = a + CohElement.p_power(a.desc, 0, k)
        out = {w + 1: el * step for w, el in poly.items()}
        poly = {w: el for w, el in out.items() if not el.is_zero() or el.truncated}
    return poly


def _extend_product(coeffs: list[int], ks, cap: int | None) -> list[int]:
    """coeffs * prod_{k in ks} (t + k), integer coefficients of t^j, kept below t^cap."""
    for k in ks:
        coeffs = [k * a + b for a, b in zip(coeffs + [0], [0] + coeffs)][:cap]
    return coeffs


def _twisted_slices(J: ZSeries, bundle: BundleSpec, start: int):
    """Yield (d, twisted slice, root products) for the slices of J in increasing degree.

    The product of the root t = lam + l P (l P without the circle action) at
    degree d is prod_{k=start}^{l d - 1 + start} (t + k z).  z and t have
    weight 1, so it is one class at weight l d: the polynomial prod (t + k) in
    t, expanded at the root.  Its integer coefficients are carried along the
    slices: passing from degree d0 to d multiplies in only the factors
    k = l d0 + start .. l d - 1 + start, degrees missing from J cost nothing
    extra, and without the circle action t^n = 0 keeps them below t^n.  The
    slice of J is multiplied by the product of the root products.
    """
    desc = J.desc
    cap = None if bundle.equivariant else desc.n
    carried = [[1] for _ in bundle.degrees]
    reached = 0
    for d in sorted(J.slices):
        carried = [
            _extend_product(coeffs, range(l * reached + start, l * d + start), cap)
            for l, coeffs in zip(bundle.degrees, carried)
        ]
        reached = d
        products = [
            CohElement.root_polynomial(desc, l, coeffs, bundle.equivariant)
            for l, coeffs in zip(bundle.degrees, carried)
        ]
        multiplier, *others = products or [CohElement.one(desc)]
        for root_product in others:
            multiplier = multiplier * root_product
        shift = sum(bundle.degrees) * d
        yield d, {w + shift: el * multiplier for w, el in J.slices[d].items()}, products


def i_function(J: ZSeries, bundle: BundleSpec) -> ZSeries:
    """Hypergeometric modification: slice d picks up prod_i prod_{k=1}^{l_i d} (lam + l_i P + k z)."""
    out = {d: twisted for d, twisted, _ in _twisted_slices(J, bundle, 1)}
    result = ZSeries._of(J.desc, J.max_degree, out, REDUCED)
    for d in result.slices:
        bound = (sum(bundle.degrees) - J.desc.n) * d
        if d > 0 and any(ze > bound for ze in result.z_exponents(d)):
            raise AssertionError(f"slice {d} exceeds derived z-bound {bound}")
    return result


def serre_dual_i(J: ZSeries, bundle: BundleSpec):
    """Twist by the dual bundle with the dual circle action.

    Slice d of the output is J_d * prod_i prod_{k=0}^{l_i d - 1} (lam + l_i P + k z)
    with the Novikov sign (-1)^(sum_i l_i d).  The finite product identity

        prod_{k=1-l_i d}^{0} (-lam - l_i P + k z) = (-1)^(l_i d) prod_{k=0}^{l_i d - 1} (lam + l_i P + k z)

    is checked for every root and degree of J: its right side is the root
    product that the twist carries as integer coefficients, its left side is
    carried alongside as class products, an independent construction.
    Returns (series, ok, first_failure), where first_failure is the first
    failing (root index, degree) in increasing degree, or None.
    """
    desc = J.desc
    roots = list(zip(bundle.degrees, bundle.chern_roots(desc)))
    lhs = [{0: CohElement.one(desc)} for _ in roots]
    first_failure = None
    reached = 0
    out: dict[int, dict[int, CohElement]] = {}
    for d, twisted, rhs in _twisted_slices(J, bundle, 0):
        for i, (l, root) in enumerate(roots):
            new = [(-root, Fraction(k)) for k in range(1 - l * d, 1 - l * reached)]
            lhs[i] = _linear_factor_product(lhs[i], new)
            if first_failure is None and lhs[i] != {l * d: rhs[i].scale((-1) ** (l * d))}:
                first_failure = (i, d)
        reached = d
        sign = (-1) ** (sum(bundle.degrees) * d)
        out[d] = {w: el.scale(sign) for w, el in twisted.items()}
    return ZSeries._of(desc, J.max_degree, out, REDUCED), first_failure is None, first_failure


# -- cone transformation -----------------------------------------------------------


def cone_transform(f: ZSeries, bundle: BundleSpec, invert: bool = False) -> ZSeries:
    """Multiply by exp of the bundle's multiplier exponent, ``b_series``.

    The exponent is one class of weight 0 read off ch(E); its positive
    z-powers stop at 2D + 1, beyond which no term can reach Novikov degrees
    <= D.  invert negates the exponent, so transforming and inverse-transforming
    is exactly the identity at any truncation.  The empty bundle gives the
    identity map.
    """
    if not bundle.degrees:
        return f
    exponent = b_series(bundle, f.desc, 2 * f.max_degree + 1)
    if invert:
        exponent = -exponent
    return f * ZSeries._of(f.desc, f.max_degree, {0: {0: exponent}}, f.convention).exp()
