"""Independent intersection-theory oracle for line counts on Calabi-Yau threefolds.

The number of lines on a generic complete intersection X of degrees
l_1, ..., l_r in P^(n-1) (r = n - 4, sum l_i = n) is the Euler number of
the bundle sum_i Sym^(l_i) of the dual tautological bundle on the
Grassmannian G(2, n).  With Chern roots x1, x2 of the dual tautological
bundle, that Euler class is

    prod_i prod_{k=0}^{l_i} (k x1 + (l_i - k) x2),

a symmetric polynomial of degree sum_i (l_i + 1) = 2(n - 2) = dim G(2, n),
and integration sends the Schur polynomial s_{(n-2,n-2)} = (x1 x2)^(n-2) to
1 and every other top-degree Schur polynomial to 0.  Multiplying by the
Vandermonde x1 - x2 turns Schur extraction into plain coefficient
extraction:

    s_{(a,b)} (x1 - x2) = x1^(a+1) x2^b - x1^b x2^(a+1),

so the integral is the coefficient of x1^(n-1) x2^(n-2) in the product above
times x1 - x2.  Everything here is plain integer polynomial arithmetic with
no shared code with the engine.
"""

from __future__ import annotations

Poly = dict[tuple[int, int], int]


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def lines_on_complete_intersection(n: int, degrees: tuple[int, ...]) -> int:
    """Lines on the complete intersection of the given degrees in P^(n-1)."""
    product: Poly = {(0, 0): 1}
    for l in degrees:
        for k in range(l + 1):
            product = _mul(product, {(1, 0): k, (0, 1): l - k})
    vandermonde: Poly = {(1, 0): 1, (0, 1): -1}
    integrand = _mul(product, vandermonde)
    return integrand.get((n - 1, n - 2), 0)


def lines_on_quintic() -> int:
    return lines_on_complete_intersection(5, (5,))
