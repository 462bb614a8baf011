"""Slow, direct definitions of the quantization calculus, kept as test oracles.

Each function computes the same quantity as a ``qlefschetz.fock`` function by
the plain definition that the one-pass code replaced: the symplectic tests
evaluate Omega against unit vectors over the whole window, the Poisson bracket
builds the gradients coordinate by coordinate with a rescan of every monomial,
the operator action enumerates every position of a differentiated variable,
the multiplication operator maps each end through its own z-exponent
converter, the random hamiltonian draws over a prebuilt monomial basis, and
the anomaly looks up the pairing table for every pp-monomial against every
qq-monomial.
"""

from fractions import Fraction

from qlefschetz.errors import EngineError
from qlefschetz.fock import (
    DarbouxSpace,
    FockOperator,
    Index,
    Monomial,
    Poly,
    PolyKey,
    QuadraticHamiltonian,
    Vector,
    omega,
)


def is_infinitesimal_symplectic_by_omega(space: DarbouxSpace, T: dict[Index, Vector]) -> bool:
    """Omega(T e_i, e_j) + Omega(e_i, T e_j) = 0 for every pair of window indices."""
    basis = space.indices()
    for i in basis:
        Ti = T.get(i, {})
        for j in basis:
            Tj = T.get(j, {})
            if omega(space, Ti, {j: Fraction(1)}) + omega(space, {i: Fraction(1)}, Tj):
                return False
    return True


def hamiltonian_of_by_omega(space: DarbouxSpace, T: dict[Index, Vector]) -> QuadraticHamiltonian:
    """Omega(T f, f)/2, its coefficients evaluated against unit vectors."""
    if not is_infinitesimal_symplectic_by_omega(space, T):
        raise EngineError("map is not infinitesimally symplectic on the window")
    basis = space.indices()

    def B(i: Index, j: Index) -> Fraction:
        return omega(space, T.get(i, {}), {j: Fraction(1)})

    coeffs: dict[Monomial, Fraction] = {}
    for ii, i in enumerate(basis):
        for j in basis[ii:]:
            h = B(i, i) / 2 if i == j else (B(i, j) + B(j, i)) / 2
            if h:
                coeffs[(i, j)] = h
    return QuadraticHamiltonian(space, coeffs)


def poisson_bracket_per_coordinate(
    F: QuadraticHamiltonian, G: QuadraticHamiltonian
) -> QuadraticHamiltonian:
    """sum_k [ dF/dq_k dG/dp_k - dF/dp_k dG/dq_k ], one gradient rescan per coordinate."""
    space = F.space

    def gradient(H: QuadraticHamiltonian, idx: Index) -> dict[Index, Fraction]:
        out: dict[Index, Fraction] = {}
        for (i, j), c in H.coeffs.items():
            if i == idx:
                out[j] = out.get(j, Fraction(0)) + c * (2 if i == j else 1)
            elif j == idx:
                out[i] = out.get(i, Fraction(0)) + c
        return out

    coeffs: dict[Monomial, Fraction] = {}

    def accumulate(lin1: dict[Index, Fraction], lin2: dict[Index, Fraction], sign: int):
        for i, c1 in lin1.items():
            for j, c2 in lin2.items():
                key = (i, j) if i <= j else (j, i)
                coeffs[key] = coeffs.get(key, Fraction(0)) + sign * c1 * c2

    for k in range(space.z_window):
        for a in range(space.h_dim):
            qk = ("q", k, a)
            pk = ("p", k, a)
            accumulate(gradient(F, qk), gradient(G, pk), 1)
            accumulate(gradient(F, pk), gradient(G, qk), -1)
    return QuadraticHamiltonian(space, coeffs)


def apply_by_positions(op: FockOperator, poly: Poly) -> Poly:
    """The operator on a polynomial, one added term per position of each derivative."""
    out: Poly = {}

    def add(key: PolyKey, c: Fraction) -> None:
        v = out.get(key, Fraction(0)) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    for hbar, kind, (i, j), coeff in op.terms:
        for (vars_, h0), c in poly.items():
            base = coeff * c
            if kind == "mult":
                add((tuple(sorted(vars_ + (i, j))), h0 + hbar), base)
            elif kind == "mixed":
                for pos, v in enumerate(vars_):
                    if v == j:
                        rest = vars_[:pos] + vars_[pos + 1 :]
                        add((tuple(sorted(rest + (i,))), h0 + hbar), base)
            elif kind == "diff2":
                for pos, v in enumerate(vars_):
                    if v == i:
                        rest = vars_[:pos] + vars_[pos + 1 :]
                        for pos2, w in enumerate(rest):
                            if w == j:
                                rest2 = rest[:pos2] + rest[pos2 + 1 :]
                                add((rest2, h0 + hbar), base)
            else:
                raise ValueError(f"unknown term kind {kind}")
    return out


def _z_coefficient_index(space: DarbouxSpace, e: int) -> tuple[Index, Fraction] | None:
    """Map a plain z-exponent to (coordinate, conversion factor), or None if outside."""
    if e >= 0:
        if e < space.z_window:
            return ("q", e, 0), Fraction(1)
        return None
    k = -1 - e
    if k < space.z_window:
        # coefficient of z^(-1-k) equals (-1)^(k+1) p_k
        return ("p", k, 0), Fraction((-1) ** (k + 1))
    return None


def multiplication_operator_by_exponents(
    space: DarbouxSpace, matrix: list[list[Fraction]], z_power: int
) -> dict[Index, Vector]:
    """f -> (A z^s) f on the window, each end converted through its plain z-exponent."""
    if len(matrix) != space.h_dim or any(len(r) != space.h_dim for r in matrix):
        raise ValueError("matrix shape does not match h_dim")
    columns: dict[Index, Vector] = {}
    for kind, k, a in space.indices():
        if kind == "q":
            e_src, conv_src = k, Fraction(1)
        else:
            e_src, conv_src = -1 - k, Fraction((-1) ** (k + 1))
        col: Vector = {}
        target = _z_coefficient_index(space, e_src + z_power)
        if target is not None:
            (dst_kind, dst_k, _), conv_dst = target
            for b in range(space.h_dim):
                c = matrix[b][a]
                if c:
                    col[(dst_kind, dst_k, b)] = c * conv_src / conv_dst
        columns[(kind, k, a)] = col
    return columns


def random_hamiltonian_over_basis(space: DarbouxSpace, rng) -> QuadraticHamiltonian:
    """Each monomial of the sorted-pair basis drawn with probability 0.4."""
    idx = space.indices()
    basis = [(i, j) for pos, i in enumerate(idx) for j in idx[pos:]]
    coeffs: dict[Monomial, Fraction] = {}
    for key in basis:
        if rng.random() < 0.4:
            coeffs[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return QuadraticHamiltonian(space, coeffs)


def _monomials_of_kind(H: QuadraticHamiltonian, kinds: tuple[str, str]):
    for (i, j), c in H.coeffs.items():
        if (i[0], j[0]) == kinds:
            yield (i, j), c


def _table_value(p_mono: Monomial, q_mono: Monomial) -> Fraction:
    """Anomaly table on a pp-monomial against a qq-monomial."""
    p_idx = sorted(((k, a) for (_, k, a) in p_mono))
    q_idx = sorted(((k, a) for (_, k, a) in q_mono))
    if p_idx != q_idx:
        return Fraction(0)
    if p_idx[0] == p_idx[1]:
        return Fraction(2)
    return Fraction(1)


def cocycle_eval_by_table(F: QuadraticHamiltonian, G: QuadraticHamiltonian) -> Fraction:
    """C(F, G) as the table value of every pp-monomial against every qq-monomial."""
    acc = Fraction(0)
    for m_f, c_f in _monomials_of_kind(F, ("p", "p")):
        for m_g, c_g in _monomials_of_kind(G, ("q", "q")):
            acc += c_f * c_g * _table_value(m_f, m_g)
    for m_f, c_f in _monomials_of_kind(F, ("q", "q")):
        for m_g, c_g in _monomials_of_kind(G, ("p", "p")):
            acc -= c_f * c_g * _table_value(m_g, m_f)
    return acc
