"""The twisted quantum differential equation, an oracle for both twists.

The hypergeometric modification I of the J-function of P^(n-1) by a split
bundle O(l_1) + ... + O(l_r) satisfies

    (z D)^n I = q * prod_i prod_{k=1}^{l_i} (lam + l_i z D + k z) I,

where z D acts on slice d as P + d z and lam = 0 without the circle action.
The Serre-dual twist satisfies the same equation with the factors
-(lam + l_i z D + k z), k = 0 .. l_i - 1.  Both follow from (z D)^n J = q J
and the ratio of consecutive slice multipliers, so the check does not rebuild
the carried products of ``twist`` and catches a wrong factor range there.

It runs on the weight rows with class products only: z, P and lam have
weight 1, so z D on slice d moves the class at weight w to w + 1 as the class
product with P + d, and a factor acting on slice d - 1 moves it as the class
product with root + (l (d - 1) + k), root = lam + l P.
"""

from __future__ import annotations

from qlefschetz import BundleSpec, CohElement, LambdaScalar, ZSeries


def _step(row: dict[int, CohElement], factor: CohElement) -> dict[int, CohElement]:
    return {w + 1: el * factor for w, el in row.items()}


def twisted_qde_check(I: ZSeries, bundle: BundleSpec, dual: bool = False):
    """(first Novikov degree whose residual is nonzero, or None; flagged residual classes).

    A flagged residual class holds only an identity modulo the truncation;
    it is counted, and it fails the check only when its value is nonzero.
    """
    desc = I.desc
    P = CohElement.p_power(desc, 1)
    zero = CohElement.zero(desc)
    lam = zero
    if bundle.equivariant:
        lam = CohElement.from_scalar(LambdaScalar.lam_power(desc, 1))
    sign = -1 if dual else 1
    first, flagged = None, 0
    for d in range(I.max_degree + 1):
        lhs = I.slices.get(d, {})
        for _ in range(desc.n):
            lhs = _step(lhs, P + CohElement.p_power(desc, 0, d))
        rhs = I.slices.get(d - 1, {}) if d else {}
        for l in bundle.degrees:
            for k in range(l) if dual else range(1, l + 1):
                factor = lam + P.scale(l) + CohElement.p_power(desc, 0, l * (d - 1) + k)
                rhs = _step(rhs, factor.scale(sign))
        for w in set(lhs) | set(rhs):
            residual = lhs.get(w, zero) - rhs.get(w, zero)
            flagged += residual.truncated
            if first is None and not residual.is_zero():
                first = d
    return first, flagged
