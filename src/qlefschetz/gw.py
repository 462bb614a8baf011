"""Closed-form genus-0 data of complex projective space.

The reduced J-function of P^(n-1) on the small parameter plane is

    J = sum_{d >= 0} q^d / prod_{k=1}^{d} (P + k z)^n,

with each factor (P + k z)^(-n) expanded binomially modulo P^n.  The single
quantum-cohomology relation behind it, (z D_P)^n J = q J, is certified by
qde_verify rather than hardcoded, and the fundamental solution frame
{(z D_P)^a J} assembles into an S-matrix whose unitarity is checked against
the Poincare Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import TransversalityError
from .ring import CohElement, RingDescriptor
from .series import QSeries, REDUCED, ZSeries, add_row_product, directional_derivative


def j_reduced(
    n: int,
    max_degree: int,
    lambda_floor: int = 0,
    log_cap: int = 8,
    desc: RingDescriptor | None = None,
) -> ZSeries:
    """Reduced J-function of P^(n-1) through Novikov degree max_degree."""
    if desc is None:
        desc = RingDescriptor(n=n, lambda_floor=lambda_floor, log_cap=log_cap)
    elif desc.n != n:
        raise ValueError("descriptor does not match the requested dimension")
    slices: dict[int, dict[int, CohElement]] = {0: {0: CohElement.one(desc)}}
    current: dict[int, CohElement] = {0: CohElement.one(desc)}
    for d in range(1, max_degree + 1):
        current = _multiply_inverse_factor(desc, current, d)
        slices[d] = dict(current)
        top = max(current)
        if top != -n * d:
            raise AssertionError(
                f"slice {d} has top z-exponent {top}, expected {-n * d}"
            )
    return ZSeries(desc, max_degree, slices, REDUCED)


def _multiply_inverse_factor(
    desc: RingDescriptor, poly: dict[int, CohElement], k: int
) -> dict[int, CohElement]:
    """Multiply a z-Laurent CohElement polynomial by (P + k z)^(-n), mod P^n.

    (P + k z)^(-n) = (k z)^(-n) * sum_{j < n} binom(-n, j) (P / (k z))^j.
    """
    n = desc.n
    factor = {
        -n - j: CohElement.p_power(
            desc, j, Fraction(comb(n + j - 1, j) * (-1) ** j, k ** (n + j))
        )
        for j in range(n)
    }
    out: dict[int, CohElement] = {}
    add_row_product(out, poly, factor)
    return {ze: el for ze, el in out.items() if not el.is_zero()}


def qde_verify(J: ZSeries, n: int):
    """Check the quantum differential equation (z D_P)^n J = q J.

    Returns (True, None) on success, otherwise (False, (d, z_exp, P_exp)) for
    the first slot of the residual that fails to vanish.
    """
    if J.desc.n != n:
        raise ValueError("series does not match the requested dimension")
    lhs = J
    for _ in range(n):
        lhs = directional_derivative(lhs)
    residual = lhs - J.novikov_shift(1)
    slot = residual.first_nonzero_slot()
    return (slot is None), slot


def frame_series(J: ZSeries, n: int) -> list[ZSeries]:
    """The fundamental solution frame [J, zD_P J, ..., (zD_P)^(n-1) J]."""
    out = [J]
    for _ in range(n - 1):
        out.append(directional_derivative(out[-1]))
    return out


@dataclass
class SMatrix:
    """Coordinates of the frame in the monomial basis.

    entries[b][a] is the scalar z-Laurent, Novikov-graded coefficient of P^b in
    the a-th frame element, stored as a map z_exp -> QSeries.  At q^0 and z^0
    the matrix is the identity; all corrections sit in strictly negative
    z-exponents.
    """

    desc: RingDescriptor
    max_degree: int
    entries: list[list[dict[int, QSeries]]]

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, b: int, a: int) -> dict[int, QSeries]:
        return self.entries[b][a]

    def q_zero_z_zero(self) -> list[list[Fraction]]:
        out = []
        for b in range(self.size):
            row = []
            for a in range(self.size):
                q0 = self.entries[b][a].get(0)
                row.append(q0.coefficient(0).as_rational() if q0 else Fraction(0))
            out.append(row)
        return out

    def to_json_dict(self) -> dict:
        data = []
        for b in range(self.size):
            row = []
            for a in range(self.size):
                cell = {
                    str(ze): self.entries[b][a][ze].to_json_dict()
                    for ze in sorted(self.entries[b][a])
                }
                row.append(cell)
            data.append(row)
        return {"size": self.size, "max_degree": self.max_degree, "entries": data}


def _matrix_from_frame(frame: list[ZSeries]) -> SMatrix:
    desc = frame[0].desc
    n = desc.n
    D = frame[0].max_degree
    entries: list[list[dict[int, QSeries]]] = [
        [dict() for _ in range(n)] for _ in range(n)
    ]
    for a, T in enumerate(frame):
        for d, row in T.slices.items():
            for ze, el in row.items():
                for b, c in enumerate(el.components):
                    if c.is_zero():
                        continue
                    cell = entries[b][a]
                    if ze not in cell:
                        cell[ze] = QSeries(desc, D, {d: c})
                    else:
                        cell[ze] = cell[ze] + QSeries(desc, D, {d: c})
    return SMatrix(desc, D, entries)


def _cell_mul(x: dict[int, QSeries], y: dict[int, QSeries], desc, D, negate_z_first):
    out: dict[int, QSeries] = {}
    for z1, q1 in x.items():
        factor = q1.scale(Fraction(-1) ** (z1 % 2)) if negate_z_first else q1
        for z2, q2 in y.items():
            ze = z1 + z2
            prod = factor * q2
            if prod.is_zero():
                continue
            out[ze] = out.get(ze, QSeries.zero(desc, D)) + prod
    return {ze: q for ze, q in out.items() if not q.is_zero()}


def s_matrix(J: ZSeries, n: int, max_degree: int):
    """Assemble the S-matrix from the frame and test its unitarity.

    The residual is T^t(-z) g^(-1) T(z) - g with g the Poincare Gram matrix;
    unitarity of the fundamental solution makes it vanish identically through
    the Novikov truncation.  Returns (SMatrix, residual_ok, first_failure).
    """
    if J.desc.n != n or J.max_degree < max_degree:
        raise ValueError("series does not match the requested parameters")
    holds, slot = qde_verify(J, n)
    if not holds:
        raise ValueError(f"input fails the quantum differential equation at {slot}")
    J = J.truncate_novikov(max_degree)
    frame = frame_series(J, n)
    S = _matrix_from_frame(frame)
    desc = J.desc
    D = J.max_degree

    identity_block = S.q_zero_z_zero()
    for b in range(n):
        for a in range(n):
            expected = Fraction(1) if a == b else Fraction(0)
            if identity_block[b][a] != expected:
                raise TransversalityError("frame z^0 q^0 block is not the identity")

    # g and g^(-1) coincide: the Gram matrix of the Poincare pairing in the
    # monomial basis is the anti-diagonal permutation, an involution.
    def g_apply(row_idx: int) -> int:
        return n - 1 - row_idx

    first_failure = None
    ok = True
    for a in range(n):
        for b in range(n):
            # residual entry (a, b): sum_i T_{ia}(-z) * T_{g(i), b}(z) - g_{ab}
            acc: dict[int, QSeries] = {}
            for i in range(n):
                cell = _cell_mul(
                    S.entries[i][a], S.entries[g_apply(i)][b], desc, D, True
                )
                for ze, q in cell.items():
                    acc[ze] = acc.get(ze, QSeries.zero(desc, D)) + q
            target = Fraction(1) if a + b == n - 1 else Fraction(0)
            if target:
                zero_cell = acc.get(0, QSeries.zero(desc, D))
                acc[0] = zero_cell - QSeries.from_rationals(desc, D, {0: target})
            for ze in sorted(acc):
                if not acc[ze].is_zero():
                    ok = False
                    if first_failure is None:
                        bad_d = min(d for d in acc[ze].coeffs)
                        first_failure = (a, b, ze, bad_d)
    return S, ok, first_failure
