"""A reference model of the engine's arithmetic, written from the textbook formulas.

It uses only the standard library and shares no code with ``qlefschetz``.  A
value is a dict from keys to nonzero ``Fraction``s.  The last two entries of a
key are the lam exponent and the log(lam) exponent; the entries before them
are the value's slots:

    scalar     (a, b)
    class      (p, a, b)          P^p with p < n
    q-series   (d, a, b)          q^d with d <= D
    z-series   (d, z, p, a, b)    q^d z^z P^p

A ``Model`` does the arithmetic.  ``Model()`` is exact: it has no floor and
no log cap.  ``Model(floor, cap)`` is the engine's precision: every term whose
lam exponent is below -floor or whose log exponent is above cap is dropped,
an input term by ``cut`` as well as a product of two terms, and its slots are
added to ``lost``, the set of keys that lost a term.  A product term past a
slot bound (P^n = 0, q^(D+1) = 0) is zero, not lost.  Nothing is ever
flagged: a term is kept or dropped, and ``lost`` says where one was dropped.

Each operation is the plain formula: products term by term; exp as the sum
of the powers over j!; 1/f as the geometric series; f(g) as the sum of the
f_d g^d; the inverse of q' = q exp(k log(lam) + h(q)) by Lagrange inversion;
the readers as filters of the keys; z D_P as the product with P + d z.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add


def plus(*values: dict) -> dict:
    """The sum of values of one kind, without zero terms."""
    out: dict = {}
    for value in values:
        for key, c in value.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def scaled(value: dict, c) -> dict:
    """c times value, for a rational c."""
    return {key: x * c for key, x in value.items()} if c else {}


def part(value: dict, slot: tuple) -> dict:
    """The terms at the slots that start with slot, keyed by the rest of their key."""
    n = len(slot)
    return {key[n:]: c for key, c in value.items() if key[:n] == slot}


def at(value: dict, *slot: int) -> dict:
    """value put at a slot: a scalar as the q^d term of a q-series, a class at (d, z), ..."""
    return {slot + key: c for key, c in value.items()}


def as_z_series(f: dict) -> dict:
    """A q-series as the z-series of its terms at z^0 P^0."""
    return {(d, 0, 0, a, b): c for (d, a, b), c in f.items()}


def unit(slots: int) -> dict:
    """1 as a value with that many slots."""
    return {(0,) * slots + (0, 0): Fraction(1)}


# -- the readers and z D_P: no product, so no floor ---------------------------------


def z_row(f: dict, z: int, n: int) -> list[dict]:
    """The n q-series sum_d [z^z P^p] f_d q^d, p < n."""
    return [{(d, a, b): c for (d, zz, pp, a, b), c in f.items() if (zz, pp) == (z, p)}
            for p in range(n)]


def coefficient(f: dict, d: int, z: int) -> dict:
    """The class at q^d z^z."""
    return part(f, (d, z))


def scalar_slot(f: dict, d: int, z: int, p: int) -> dict:
    """The scalar at q^d z^z P^p."""
    return part(f, (d, z, p))


def directional_derivative(f: dict, n: int) -> dict:
    """z D_P on a reduced series: slice d times P + d z."""
    times_p = {(d, z, p + 1, a, b): c for (d, z, p, a, b), c in f.items() if p + 1 < n}
    return plus(times_p, {(d, z + 1, p, a, b): d * c for (d, z, p, a, b), c in f.items()})


def project(f: dict, half: str) -> dict:
    """The terms with z >= 0 ('plus') or z < 0 ('minus')."""
    return {key: c for key, c in f.items() if (key[1] >= 0) == (half == "plus")}


class Model:
    """Arithmetic exact (no floor, no cap) or at the engine's floor and log cap."""

    def __init__(self, floor: int | None = None, cap: int | None = None) -> None:
        self.floor, self.cap = floor, cap
        self.lost: set[tuple] = set()

    def _kept(self, key: tuple) -> bool:
        """Whether the key is in range; when it is not, its slots lost a term."""
        if (self.floor is not None and key[-2] < -self.floor) or (
                self.cap is not None and key[-1] > self.cap):
            self.lost.add(key[:-2])
            return False
        return True

    def cut(self, value: dict) -> dict:
        """value with its out-of-range terms dropped: the engine's copy of an exact input."""
        return {key: c for key, c in value.items() if self._kept(key)}

    def times(self, x: dict, y: dict, bounds: tuple) -> dict:
        """x*y for values of one kind; slot i of a term must stay below bounds[i] (None: no bound)."""
        bounded = [(i, bound) for i, bound in enumerate(bounds) if bound is not None]
        out: dict = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                key = tuple(map(add, kx, ky))
                if any(key[i] >= bound for i, bound in bounded):
                    continue
                if self._kept(key):
                    out[key] = out.get(key, 0) + cx * cy
        return {key: c for key, c in out.items() if c}

    def powers(self, x: dict, bounds: tuple, count: int) -> list[dict]:
        """[1, x, x^2, ..., x^(count - 1)]."""
        out = [unit(len(bounds))]
        while len(out) < count:
            out.append(self.times(out[-1], x, bounds))
        return out

    def exp(self, x: dict, bounds: tuple, count: int) -> dict:
        """sum_{j < count} x^j / j!, for an x whose count-th power vanishes."""
        return plus(*(scaled(xj, Fraction(1, factorial(j)))
                      for j, xj in enumerate(self.powers(x, bounds, count))))

    # -- q-series: slots (d,), d <= D -------------------------------------------------

    def q_exp(self, f: dict, D: int) -> dict:
        """exp(f) for f without constant term."""
        return self.exp(f, (D + 1,), D + 1)

    def q_invert(self, f: dict, D: int) -> dict:
        """1/f = (1/f0) sum_j (1 - f/f0)^j for f whose constant term is a nonzero rational f0."""
        f0 = f[(0, 0, 0)]
        t = plus(unit(1), scaled(f, -1 / f0))
        return scaled(plus(*self.powers(t, (D + 1,), D + 1)), 1 / f0)

    def q_compose(self, f: dict, g: dict, D: int) -> dict:
        """f(g) = sum_d f_d g^d for g without constant term."""
        powers = self.powers(g, (D + 1,), D + 1)
        return plus(*(self.times(at(part(f, (d,)), 0), powers[d], (D + 1,)) for d in range(D + 1)))

    def inverse_map(self, h: dict, D: int, k: int = 0) -> dict:
        """u with q = u(q') for q' = q exp(k log(lam) + h(q)), h without constant term.

        Lagrange inversion: [q'^m] u = (1/m) [q^(m-1)] phi^m with
        phi = lam^(-k) exp(-h), and phi^m = lam^(-k m) sum_j (-m h)^j / j!.
        Degrees up to D - 1 of the powers of h are read.
        """
        powers = self.powers(h, (D,), D)
        out: dict = {}
        for m in range(1, D + 1):
            e = plus(*(scaled(hj, Fraction((-m) ** j, factorial(j))) for j, hj in enumerate(powers)))
            term = self.times(at(part(e, (m - 1,)), m), {(0, -k * m, 0): Fraction(1, m)}, (D + 1,))
            out = plus(out, term)
        return out

    # -- z-series: slots (d, z, p), d <= D and p < n ------------------------------------

    def z_times(self, f: dict, g: dict, D: int, n: int) -> dict:
        return self.times(f, g, (D + 1, None, n))

    def z_exp(self, f: dict, D: int, n: int) -> dict:
        """exp(f) for f whose terms all have d >= 1 or p >= 1, so f^(D + n) = 0."""
        return self.exp(f, (D + 1, None, n), D + n)

    def scale_qseries(self, f: dict, g: dict, D: int, n: int) -> dict:
        """f times the q-series g."""
        return self.z_times(f, as_z_series(g), D, n)

    def compose_novikov(self, f: dict, u: dict, D: int, n: int) -> dict:
        """f at q = u(q'): sum_d slice_d(f) u^d for u without constant term."""
        powers = self.powers(u, (D + 1,), D + 1)
        slices = (at(part(f, (d,)), 0) for d in range(D + 1))
        return plus(*(self.z_times(s, as_z_series(ud), D, n) for s, ud in zip(slices, powers)))

    def symplectic_form(self, f: dict, g: dict, D: int, n: int) -> dict:
        """The z^-1 coefficient of the Poincare pairing of f(-z) and g(z): its P^(n-1) slot."""
        minus = {key: -c if key[1] % 2 else c for key, c in f.items()}
        product = self.z_times(minus, g, D, n)
        return {(d, a, b): c for (d, z, p, a, b), c in product.items() if (z, p) == (-1, n - 1)}
