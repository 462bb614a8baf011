"""Quantization of quadratic hamiltonians on a finite z-window.

The loop space is truncated to coordinates q_{k,a} (coefficient of z^k) and
p_{k,a} (coefficient of (-z)^(-1-k)) for 0 <= k < N, with a running over a
basis of an even coefficient space of dimension h_dim carrying the identity
pairing.  In these Darboux coordinates the symplectic form is

    Omega(f, g) = sum [ p(f) q(g) - q(f) p(g) ],

quadratic hamiltonians are stored as monomial dictionaries, and quantization
sends q q -> q q / hbar, q p -> q d/dq, p p -> hbar d^2/dq dq.  The engine's
sign conventions are fixed so that the displayed anomaly values come out
positive: the Poisson bracket is sum [dF/dq dG/dp - dF/dp dG/dq] and the
operator commutator is [A, B] = B A - A B; with this pairing the projective
representation identity reads {F,G}^ = [F^,G^] + C(F,G).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EngineError

# A coordinate index is ('q'|'p', k, a); a vector is a dict index -> Fraction.
Index = tuple[str, int, int]
Vector = dict[Index, Fraction]
# A quadratic hamiltonian maps sorted monomial pairs (i, j) to coefficients.
Monomial = tuple[Index, Index]
# Polynomials in the q-variables: ((sorted var tuple), hbar_exp) -> Fraction.
PolyKey = tuple[tuple[Index, ...], int]
Poly = dict[PolyKey, Fraction]


@dataclass(frozen=True)
class DarbouxSpace:
    h_dim: int
    z_window: int

    def __post_init__(self) -> None:
        if self.h_dim < 1 or self.z_window < 1:
            raise ValueError("h_dim and z_window must be >= 1")

    def indices(self) -> list[Index]:
        out: list[Index] = []
        for kind in ("q", "p"):
            for k in range(self.z_window):
                for a in range(self.h_dim):
                    out.append((kind, k, a))
        return out

    @property
    def dim(self) -> int:
        return 2 * self.z_window * self.h_dim


def omega(space: DarbouxSpace, f: Vector, g: Vector) -> Fraction:
    """The standard Darboux symplectic form."""
    acc = Fraction(0)
    for k in range(space.z_window):
        for a in range(space.h_dim):
            acc += f.get(("p", k, a), Fraction(0)) * g.get(("q", k, a), Fraction(0))
            acc -= f.get(("q", k, a), Fraction(0)) * g.get(("p", k, a), Fraction(0))
    return acc


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


def multiplication_operator(
    space: DarbouxSpace, matrix: list[list[Fraction]], z_power: int
) -> dict[Index, Vector]:
    """The map f -> (A z^s) f truncated to the window, as columns indexed by input."""
    if len(matrix) != space.h_dim or any(len(r) != space.h_dim for r in matrix):
        raise ValueError("matrix shape does not match h_dim")
    columns: dict[Index, Vector] = {}
    for kind, k, a in space.indices():
        # source coordinate as a plain z-coefficient
        if kind == "q":
            e_src, conv_src = k, Fraction(1)
        else:
            e_src, conv_src = -1 - k, Fraction((-1) ** (k + 1))
        e_dst = e_src + z_power
        col: Vector = {}
        target = _z_coefficient_index(space, e_dst)
        if target is not None:
            (dst_kind, dst_k, _), conv_dst = target
            for b in range(space.h_dim):
                c = matrix[b][a]
                if c:
                    # plain coefficient transforms with A; convert both ends
                    col[(dst_kind, dst_k, b)] = c * conv_src / conv_dst
        columns[(kind, k, a)] = col
    return columns


def is_infinitesimal_symplectic(space: DarbouxSpace, T: dict[Index, Vector]) -> bool:
    basis = space.indices()
    for i in basis:
        Ti = T.get(i, {})
        for j in basis:
            Tj = T.get(j, {})
            if omega(space, Ti, {j: Fraction(1)}) + omega(space, {i: Fraction(1)}, Tj):
                return False
    return True


class QuadraticHamiltonian:
    """A quadratic form on the Darboux window, stored monomial by monomial."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: DarbouxSpace, coeffs: dict[Monomial, Fraction] | None = None):
        self.space = space
        clean: dict[Monomial, Fraction] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if not c:
                    continue
                key = (i, j) if i <= j else (j, i)
                v = clean.get(key, Fraction(0)) + c
                if v:
                    clean[key] = v
                else:
                    clean.pop(key, None)
        self.coeffs = clean

    def __add__(self, other: "QuadraticHamiltonian") -> "QuadraticHamiltonian":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            v = out.get(key, Fraction(0)) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return QuadraticHamiltonian(self.space, out)

    def __neg__(self) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(
            self.space, {k: -c for k, c in self.coeffs.items()}
        )

    def __sub__(self, other: "QuadraticHamiltonian") -> "QuadraticHamiltonian":
        return self + (-other)

    def scale(self, value: Fraction) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(
            self.space, {k: c * value for k, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticHamiltonian):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, f: Vector) -> Fraction:
        acc = Fraction(0)
        for (i, j), c in self.coeffs.items():
            acc += c * f.get(i, Fraction(0)) * f.get(j, Fraction(0))
        return acc

    def monomials_of_kind(self, kinds: tuple[str, str]):
        for (i, j), c in self.coeffs.items():
            if (i[0], j[0]) == kinds:
                yield (i, j), c

    def __repr__(self) -> str:
        def fmt(idx: Index) -> str:
            return f"{idx[0]}{idx[1]}.{idx[2]}"

        bits = [f"{c}*{fmt(i)}{fmt(j)}" for (i, j), c in sorted(self.coeffs.items())]
        return " + ".join(bits) if bits else "0"


def hamiltonian_of(space: DarbouxSpace, T: dict[Index, Vector]) -> QuadraticHamiltonian:
    """The quadratic hamiltonian Omega(T f, f)/2 of an infinitesimal symplectic map."""
    if not is_infinitesimal_symplectic(space, T):
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


def poisson_bracket(F: QuadraticHamiltonian, G: QuadraticHamiltonian) -> QuadraticHamiltonian:
    """House convention: sum_k [ dF/dq_k dG/dp_k - dF/dp_k dG/dq_k ]."""
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


class FockOperator:
    """An order-<=2 differential operator in the q-variables with hbar grading."""

    __slots__ = ("space", "terms")

    def __init__(self, space: DarbouxSpace, terms=None):
        # terms: list of (hbar_exp, kind, payload, coeff)
        #   kind 'mult': payload (i, j) q-indices; multiply by q_i q_j
        #   kind 'mixed': payload (i, j): q_i * d/dq_j
        #   kind 'diff2': payload (i, j): d^2/dq_i dq_j
        self.space = space
        self.terms = list(terms or [])

    def apply(self, poly: Poly) -> Poly:
        out: Poly = {}

        def add(key: PolyKey, c: Fraction) -> None:
            v = out.get(key, Fraction(0)) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)

        for hbar, kind, (i, j), coeff in self.terms:
            for (vars_, h0), c in poly.items():
                base = coeff * c
                if kind == "mult":
                    new_vars = tuple(sorted(vars_ + (i, j)))
                    add((new_vars, h0 + hbar), base)
                elif kind == "mixed":
                    for pos, v in enumerate(vars_):
                        if v == j:
                            rest = vars_[:pos] + vars_[pos + 1 :]
                            new_vars = tuple(sorted(rest + (i,)))
                            add((new_vars, h0 + hbar), base)
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

    def __repr__(self) -> str:
        return f"FockOperator({len(self.terms)} terms)"


def quantize(G: QuadraticHamiltonian) -> FockOperator:
    """Darboux quantization: qq -> qq/hbar, qp -> q d/dq, pp -> hbar d2/dq dq."""
    terms = []
    for (i, j), c in G.coeffs.items():
        kinds = (i[0], j[0])
        qi = ("q", i[1], i[2])
        qj = ("q", j[1], j[2])
        if kinds == ("q", "q"):
            terms.append((-1, "mult", (qi, qj), c))
        elif kinds == ("q", "p"):
            terms.append((0, "mixed", (qi, qj), c))
        elif kinds == ("p", "q"):
            terms.append((0, "mixed", (qj, qi), c))
        elif kinds == ("p", "p"):
            terms.append((1, "diff2", (qi, qj), c))
        else:
            raise ValueError(f"malformed monomial kinds {kinds}")
    return FockOperator(G.space, terms)


def _table_value(p_mono: Monomial, q_mono: Monomial) -> Fraction:
    """Anomaly table on a pp-monomial against a qq-monomial."""
    p_idx = sorted(((k, a) for (_, k, a) in p_mono))
    q_idx = sorted(((k, a) for (_, k, a) in q_mono))
    if p_idx != q_idx:
        return Fraction(0)
    if p_idx[0] == p_idx[1]:
        return Fraction(2)
    return Fraction(1)


def cocycle_eval(F: QuadraticHamiltonian, G: QuadraticHamiltonian) -> Fraction:
    """The scalar anomaly C(F, G), bilinear and antisymmetric in its arguments."""
    acc = Fraction(0)
    for m_f, c_f in F.monomials_of_kind(("p", "p")):
        for m_g, c_g in G.monomials_of_kind(("q", "q")):
            acc += c_f * c_g * _table_value(m_f, m_g)
    for m_f, c_f in F.monomials_of_kind(("q", "q")):
        for m_g, c_g in G.monomials_of_kind(("p", "p")):
            acc -= c_f * c_g * _table_value(m_g, m_f)
    return acc


def commutator_apply(
    F_hat: FockOperator, G_hat: FockOperator, poly: Poly
) -> Poly:
    """[F^, G^] applied to a polynomial, in the house orientation G^ F^ - F^ G^."""
    first = G_hat.apply(F_hat.apply(poly))
    second = F_hat.apply(G_hat.apply(poly))
    out = dict(first)
    for key, c in second.items():
        v = out.get(key, Fraction(0)) - c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def projective_identity_check(
    F: QuadraticHamiltonian, G: QuadraticHamiltonian, poly: Poly
):
    """Verify {F,G}^ = [F^, G^] + C(F, G) on a test polynomial.

    Returns (True, None) or (False, first_failing_key).
    """
    lhs = quantize(poisson_bracket(F, G)).apply(poly)
    rhs = commutator_apply(quantize(F), quantize(G), poly)
    c = cocycle_eval(F, G)
    if c:
        for key, v in poly.items():
            val = rhs.get(key, Fraction(0)) + c * v
            if val:
                rhs[key] = val
            else:
                rhs.pop(key, None)
    keys = set(lhs) | set(rhs)
    for key in sorted(keys):
        if lhs.get(key, Fraction(0)) != rhs.get(key, Fraction(0)):
            return False, key
    return True, None


def str_formula_check(
    space: DarbouxSpace, A: list[list[Fraction]], B: list[list[Fraction]]
) -> tuple[Fraction, Fraction]:
    """Anomaly of the pair (A/z, Bz) against the closed form trace(AB)/2.

    Returns (cocycle value, trace(AB)/2); the two must agree for self-adjoint
    (symmetric) A and B.
    """
    F = hamiltonian_of(space, multiplication_operator(space, A, -1))
    G = hamiltonian_of(space, multiplication_operator(space, B, 1))
    value = cocycle_eval(F, G)
    trace = sum(
        A[i][j] * B[j][i] for i in range(space.h_dim) for j in range(space.h_dim)
    )
    return value, Fraction(trace, 2)


def hbar_grading_ok(op: FockOperator, expected: set[int]) -> bool:
    return {hbar for hbar, _, _, _ in op.terms} <= expected


def monomial_basis(space: DarbouxSpace) -> list[Monomial]:
    idx = space.indices()
    return [
        (i, j)
        for pos, i in enumerate(idx)
        for j in idx[pos:]
    ]


def random_hamiltonian(space: DarbouxSpace, rng) -> QuadraticHamiltonian:
    coeffs: dict[Monomial, Fraction] = {}
    for key in monomial_basis(space):
        if rng.random() < 0.4:
            coeffs[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return QuadraticHamiltonian(space, coeffs)


def random_polynomial(space: DarbouxSpace, rng, max_deg: int = 3) -> Poly:
    qvars = [("q", k, a) for k in range(space.z_window) for a in range(space.h_dim)]
    poly: Poly = {}
    for _ in range(4):
        deg = rng.randint(0, max_deg)
        vars_ = tuple(sorted(rng.choice(qvars) for _ in range(deg)))
        c = Fraction(rng.randint(-3, 3))
        if c:
            poly[(vars_, 0)] = poly.get((vars_, 0), Fraction(0)) + c
    return {k: v for k, v in poly.items() if v}
