"""Closed-form genus-0 data of complex projective space.

The reduced J-function of P^(n-1) on the small parameter plane is

    J = sum_{d >= 0} q^d / prod_{k=1}^{d} (P + k z)^n,

with each factor (P + k z)^(-n) expanded binomially modulo P^n.  The single
quantum-cohomology relation behind it, (z D_P)^n J = q J, is certified by
qde_verify rather than hardcoded, and the fundamental solution frame
{(z D_P)^a J} assembles into an S-matrix whose unitarity is checked against
the Poincare Gram matrix.  Its cells are the frame's classes at one weight
offset, one q-series per P-slot (``ring._transposed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import TransversalityError
from .ring import CohElement, LambdaScalar, RingDescriptor, _transposed
from .series import QSeries, REDUCED, ZSeries, _at_minus_z, _by_z
from .series import directional_derivative, queue_row_product, summed, z_json


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
    one = CohElement.one(desc)
    slices: dict[int, dict[int, CohElement]] = {0: {0: one}}
    current: dict[int, CohElement] = {0: one}
    for d in range(1, max_degree + 1):
        current = _multiply_inverse_factor(desc, current, d)
        slices[d] = current
    J = ZSeries._of(desc, max_degree, slices, REDUCED)
    for d in range(1, max_degree + 1):
        top = max(J.z_exponents(d))
        if top != -n * d:
            raise AssertionError(
                f"slice {d} has top z-exponent {top}, expected {-n * d}"
            )
    return J


def _multiply_inverse_factor(
    desc: RingDescriptor, poly: dict[int, CohElement], k: int
) -> dict[int, CohElement]:
    """Multiply a weight-keyed row of classes by (P + k z)^(-n), mod P^n.

    (P + k z)^(-n) = (k z)^(-n) * sum_{j < n} binom(-n, j) (P / (k z))^j, whose
    terms all have weight -n: one class at weight -n.
    """
    n = desc.n
    factor = CohElement(
        desc,
        [
            LambdaScalar.from_rational(desc, Fraction(comb(n + j - 1, j) * (-1) ** j, k ** (n + j)))
            for j in range(n)
        ],
    )
    out = {w - n: el * factor for w, el in poly.items()}
    return {w: el for w, el in out.items() if not el.is_zero()}


def qde_verify(J: ZSeries, n: int):
    """Check the quantum differential equation (z D_P)^n J = q J.

    The left side is one z*D_P of the last element of ``frame_series(J, n)``,
    the frame ``s_matrix`` builds and guards with the same ``_guarded_frame``.
    Returns (True, None) on success, otherwise (False, (d, z_exp, P_exp)) for
    the first slot of the residual that fails to vanish.
    """
    if J.desc.n != n:
        raise ValueError("series does not match the requested dimension")
    slot = _guarded_frame(J, n)[1]
    return (slot is None), slot


def _guarded_frame(J: ZSeries, n: int):
    """The frame of J and the first nonzero slot (d, z_exp, P_exp) of (z D_P)^n J - q J, or None."""
    frame = frame_series(J, n)
    residual = directional_derivative(frame[-1]) - frame[0].novikov_shift(1)
    return frame, residual.first_nonzero_slot()


def frame_series(J: ZSeries, n: int) -> list[ZSeries]:
    """The fundamental solution frame [J, zD_P J, ..., (zD_P)^(n-1) J]."""
    out = [J]
    for _ in range(n - 1):
        out.append(directional_derivative(out[-1]))
    return out


@dataclass
class SMatrix:
    """Coordinates of the frame in the monomial basis, one q-series per weight offset.

    cells[b][a] maps the offset k = w - a + n*d of each weight class of frame
    element a to the series of its P^b components, whose term q^d lam^l sits
    at z^(a - b - n*d + k - l); a frame of ``j_reduced`` has only offset 0.
    ``truncated`` is set when a cell or a unitarity residual entry is flagged.
    """

    desc: RingDescriptor
    max_degree: int
    cells: list[list[dict[int, QSeries]]]
    truncated: bool = False

    @property
    def size(self) -> int:
        return len(self.cells)

    def entry(self, b: int, a: int) -> dict[int, QSeries]:
        """The coefficient of P^b in frame element a, as z_exp -> QSeries."""
        return self._z_view(self.cells[b][a], a - b)

    def _z_view(self, series: dict[int, QSeries], shift: int) -> dict[int, QSeries]:
        """Series by offset k read by z (``series._by_z``, q of weight n); no termless piece."""
        return {ze: s for ze, s in _by_z(series, self.desc.n, shift).items() if not s.is_zero()}

    def _block(self) -> list[list[LambdaScalar]]:
        """The q^0 z^0 scalar of every cell, each read off the one series at z^0 of the cell."""
        zero, span = LambdaScalar.zero(self.desc), range(self.size)
        z0 = [[_by_z(self.cells[b][a], self.desc.n, a - b, at=0).get(0) for a in span] for b in span]
        return [[zero if s is None or s.is_zero() else s.coefficient(0) for s in row] for row in z0]

    def q_zero_z_zero(self) -> list[list[Fraction]]:
        return [[c.as_rational() for c in row] for row in self._block()]

    def to_json_dict(self) -> dict:
        """Each entry read by z and rendered from the numerators of its cell (``series.z_json``)."""
        n, span = self.desc.n, range(self.size)
        data = [[z_json(self.cells[b][a], n, a - b) for a in span] for b in span]
        return {"size": self.size, "max_degree": self.max_degree, "entries": data}


def _matrix_from_frame(frame: list[ZSeries]) -> SMatrix:
    desc, D = frame[0].desc, frame[0].max_degree
    n, like = desc.n, QSeries.zero(desc, D)
    cells: list[list[dict[int, QSeries]]] = [[{} for _ in range(n)] for _ in range(n)]
    for a, T in enumerate(frame):
        by_offset: dict[int, dict] = {}
        for d, row in T.slices.items():
            for w, el in row.items():
                by_offset.setdefault(w - a + n * d, {})[d] = el
        for k, values in by_offset.items():
            for b, series in _transposed(values, like).items():
                cells[b][a][k] = series
    return SMatrix(desc, D, cells)


def _unitarity(S: SMatrix):
    """The residual T^t(-z) g^(-1) T(z) - g of an S-matrix: (ok, first_failure, truncated).

    g = g^(-1) is the anti-diagonal Gram matrix of the Poincare pairing, so
    entry (a, b) is sum_i T_{i,a}(-z) T_{n-1-i,b}(z) - delta_{a+b,n-1}: one
    sum of q-series products per offset, with the delta as the product
    (-1)*1, read by z like a cell with a - b
    replaced by a + b - (n - 1).  Only the entries a <= b are built: the
    pairs of entry (b, a) are those of (a, b) with the factors swapped and
    read at -z, so (b, a) is nonzero, or flagged, exactly when (a, b) is,
    and (a, b) comes first in loop order.  first_failure is (a, b, z_exp, d)
    at the lowest z_exp, then lowest d, of the first nonzero entry; it and
    the flag are those of the full n x n residual.
    """
    n, one, first_failure = S.size, QSeries.one(S.desc, S.max_degree), None
    delta = (-one, one)
    truncated = any(s.truncated for row in S.cells for cell in row for s in cell.values())
    for a in range(n):
        minus = [
            {k: _at_minus_z(s, a - i + k, n) for k, s in S.cells[i][a].items()} for i in range(n)
        ]
        for b in range(a, n):
            queued: dict[int, list] = {0: [delta]} if a + b == n - 1 else {}
            for i in range(n):
                queue_row_product(queued, minus[i], S.cells[n - 1 - i][b])
            res = summed(queued)
            truncated |= any(s.truncated for s in res.values())
            view = S._z_view(res, a + b - n + 1)
            if view and first_failure is None:
                ze = min(view)
                first_failure = (a, b, ze, min(view[ze].coeffs))
    return first_failure is None, first_failure, truncated


def s_matrix(J: ZSeries, n: int, max_degree: int):
    """Assemble the S-matrix from the frame and test its unitarity.

    The frame is built once on the whole of J, and the guard of
    ``qde_verify`` reads it there; each element is then truncated at
    max_degree.  The residual is T^t(-z) g^(-1) T(z) - g with g the Poincare
    Gram matrix, built by ``_unitarity`` for the entries a <= b; unitarity of
    the fundamental solution makes it vanish identically through the Novikov
    truncation.  Returns (SMatrix, residual_ok, first_failure).
    """
    if J.desc.n != n or not 0 <= max_degree <= J.max_degree:
        raise ValueError("series does not match the requested parameters")
    return _s_matrix(*_guarded_frame(J, n), max_degree)


def _s_matrix(frame: list[ZSeries], slot, max_degree: int):
    """``s_matrix`` on a frame and its QDE failure slot from ``_guarded_frame``."""
    if slot is not None:
        raise ValueError(f"input fails the quantum differential equation at {slot}")
    S = _matrix_from_frame([T.truncate_novikov(max_degree) for T in frame])
    one, zero, span = LambdaScalar.one(S.desc), LambdaScalar.zero(S.desc), range(S.size)
    if S._block() != [[one if a == b else zero for a in span] for b in span]:
        raise TransversalityError("frame z^0 q^0 block is not the identity")
    ok, first_failure, S.truncated = _unitarity(S)
    return S, ok, first_failure
