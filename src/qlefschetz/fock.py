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

Each quantity is read off once.  Against a unit vector the form is a single
entry, Omega(f, e_q) = f_p and Omega(f, e_p) = -f_q, so the pairing
B(i, j) = Omega(T e_i, e_j) of a map T is read straight off the entries of T
(maps and their entries live on the window, as every map that
``multiplication_operator`` builds does): T is infinitesimally symplectic
exactly when B is symmetric, and its hamiltonian Omega(T f, f)/2 has the
coefficients of B.  The Poisson bracket pairs gradients that are each built in
one pass over the monomials.  Sums collect their terms first and drop the
zeros once, at the end.

The bracket and the operator action run on integers: each input is read as
integer numerators over the lcm of its denominators, the inner loops multiply
and add plain ints, and every returned coefficient is one ``Fraction`` per
output monomial.  A ``FockOperator`` holds its coefficients in that form.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import EngineError
from .ring import _fraction, _ratio

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


def _ints(values: dict) -> tuple[dict, int]:
    """Exact rational values as integer numerators over the lcm of their denominators."""
    ratios = {key: _ratio(c) for key, c in values.items()}
    den = lcm(*(d for _, d in ratios.values()))
    return {key: p * (den // d) for key, (p, d) in ratios.items()}, den


def _fractions(nums: dict, den: int) -> dict:
    """Integer numerators over den as Fraction values, zeros dropped."""
    return {key: _fraction(c, den) for key, c in nums.items() if c}


def _plain(kind: str, k: int) -> tuple[int, int]:
    """The plain z-exponent of coordinate (kind, k) and the sign relating the two.

    q_k is the coefficient of z^k; the coefficient of z^(-1-k) is (-1)^(k+1) p_k.
    """
    return (k, 1) if kind == "q" else (-1 - k, (-1) ** (k + 1))


def multiplication_operator(
    space: DarbouxSpace, matrix: list[list[Fraction]], z_power: int
) -> dict[Index, Vector]:
    """The map f -> (A z^s) f truncated to the window, as columns indexed by input."""
    if len(matrix) != space.h_dim or any(len(r) != space.h_dim for r in matrix):
        raise ValueError("matrix shape does not match h_dim")
    # the window coordinate (kind, k) of each plain z-exponent
    ends = {_plain(kind, k)[0]: (kind, k) for kind in ("q", "p") for k in range(space.z_window)}
    columns: dict[Index, Vector] = {}
    for kind, k, a in space.indices():
        e, sign = _plain(kind, k)
        col: Vector = {}
        if e + z_power in ends:
            dst_kind, dst_k = ends[e + z_power]
            # plain coefficient transforms with A; convert both ends
            sign *= _plain(dst_kind, dst_k)[1]
            for b in range(space.h_dim):
                if matrix[b][a]:
                    col[(dst_kind, dst_k, b)] = Fraction(matrix[b][a]) * sign
        columns[(kind, k, a)] = col
    return columns


def _pairing(space: DarbouxSpace, T: dict[Index, Vector]) -> dict[Monomial, Fraction]:
    """B(i, j) = Omega(T e_i, e_j), read off the entries of T: one per entry."""
    B: dict[Monomial, Fraction] = {}
    for i in space.indices():
        for (kind, k, a), c in T.get(i, {}).items():
            if kind == "p":
                B[(i, ("q", k, a))] = Fraction(c)
            else:
                B[(i, ("p", k, a))] = -Fraction(c)
    return B


def _is_symmetric(B: dict[Monomial, Fraction]) -> bool:
    return all(B.get((j, i), 0) == c for (i, j), c in B.items())


def is_infinitesimal_symplectic(space: DarbouxSpace, T: dict[Index, Vector]) -> bool:
    """Omega(T f, g) + Omega(f, T g) = 0 on the window, i.e. B(i, j) = B(j, i)."""
    return _is_symmetric(_pairing(space, T))


class QuadraticHamiltonian:
    """A quadratic form on the Darboux window, stored monomial by monomial."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: DarbouxSpace, coeffs: dict[Monomial, Fraction] | None = None):
        self.space = space
        nums, den = _ints(coeffs or {})
        clean: dict[Monomial, int] = {}
        for (i, j), c in nums.items():
            key = (i, j) if i <= j else (j, i)
            clean[key] = clean.get(key, 0) + c
        self.coeffs = _fractions(clean, den)

    @classmethod
    def _make(cls, space: DarbouxSpace, coeffs: dict[Monomial, Fraction]):
        """Trusted constructor: nonzero Fraction values on sorted monomials."""
        out = object.__new__(cls)
        out.space, out.coeffs = space, coeffs
        return out

    def __add__(self, other: "QuadraticHamiltonian") -> "QuadraticHamiltonian":
        out = defaultdict(Fraction, self.coeffs)
        for key, c in other.coeffs.items():
            out[key] += c
        return QuadraticHamiltonian(self.space, out)

    def __neg__(self) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(
            self.space, {k: -c for k, c in self.coeffs.items()}
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

    def __repr__(self) -> str:
        def fmt(idx: Index) -> str:
            return f"{idx[0]}{idx[1]}.{idx[2]}"

        bits = [f"{c}*{fmt(i)}{fmt(j)}" for (i, j), c in sorted(self.coeffs.items())]
        return " + ".join(bits) if bits else "0"


def hamiltonian_of(space: DarbouxSpace, T: dict[Index, Vector]) -> QuadraticHamiltonian:
    """The quadratic hamiltonian Omega(T f, f)/2 of an infinitesimal symplectic map."""
    B = _pairing(space, T)
    if not _is_symmetric(B):
        raise EngineError("map is not infinitesimally symplectic on the window")
    return QuadraticHamiltonian(
        space, {(i, j): c / 2 if i == j else c for (i, j), c in B.items() if i <= j}
    )


def _gradients(nums: dict[Monomial, int]) -> dict[Index, dict[Index, int]]:
    """{x: dH/dx} over H's denominator for every coordinate x, from one pass over the monomials."""
    grads: dict[Index, dict[Index, int]] = defaultdict(dict)
    for (i, j), c in nums.items():
        if i == j:
            grads[i][i] = 2 * c
        else:
            grads[i][j] = c
            grads[j][i] = c
    return grads


def poisson_bracket(F: QuadraticHamiltonian, G: QuadraticHamiltonian) -> QuadraticHamiltonian:
    """House convention: sum_k [ dF/dq_k dG/dp_k - dF/dp_k dG/dq_k ]."""
    f_nums, f_den = _ints(F.coeffs)
    g_nums, g_den = _ints(G.coeffs)
    dG_by = _gradients(g_nums)
    acc: dict[Monomial, int] = {}
    get = acc.get
    for (kind, k, a), dF in _gradients(f_nums).items():
        dG = dG_by.get(("p" if kind == "q" else "q", k, a))
        if not dG:
            continue
        sign = 1 if kind == "q" else -1
        for i, c1 in dF.items():
            c1 *= sign
            for j, c2 in dG.items():
                key = (i, j) if i <= j else (j, i)
                acc[key] = get(key, 0) + c1 * c2
    return QuadraticHamiltonian._make(F.space, _fractions(acc, f_den * g_den))


_KINDS = ("mult", "mixed", "diff2")


def _window_q(space: DarbouxSpace) -> list[Index]:
    """The window's q-indices, the Fock variables; a list, so ``in`` also refuses unhashables."""
    return [("q", k, a) for k in range(space.z_window) for a in range(space.h_dim)]


class FockOperator:
    """An order-<=2 differential operator in the q-variables with hbar grading.

    Its coefficients are integer numerators over one denominator; ``terms``
    reads them back as ``Fraction``.
    """

    __slots__ = ("space", "_terms", "_den")

    def __init__(self, space: DarbouxSpace, terms=None):
        # terms: list of (hbar_exp, kind, payload, coeff)
        #   kind 'mult': payload (i, j) q-indices; multiply by q_i q_j
        #   kind 'mixed': payload (i, j): q_i * d/dq_j
        #   kind 'diff2': payload (i, j): d^2/dq_i dq_j
        terms = list(terms or [])
        qvars = _window_q(space)
        for _, kind, pair, _ in terms:
            if kind not in _KINDS:
                raise ValueError(f"unknown term kind {kind}")
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(x in qvars for x in pair)):
                raise ValueError(f"payload {pair!r} is not a pair of q-indices in the window")
        nums, self._den = _ints(dict(enumerate(c for *_, c in terms)))
        self.space = space
        self._terms = [(hbar, kind, pair, nums[t]) for t, (hbar, kind, pair, _) in enumerate(terms)]

    @classmethod
    def _make(cls, space: DarbouxSpace, terms: list, den: int) -> "FockOperator":
        """Trusted constructor: known kinds, integer coefficients over den > 0."""
        out = object.__new__(cls)
        out.space, out._terms, out._den = space, terms, den
        return out

    @property
    def terms(self) -> list:
        den = self._den
        return [(hbar, kind, pair, _fraction(c, den)) for hbar, kind, pair, c in self._terms]

    def apply(self, poly: Poly) -> Poly:
        """The operator on a polynomial in the window's q-variables; any other is refused."""
        qvars = _window_q(self.space)
        for vars_, _ in poly:
            if not all(x in qvars for x in vars_):
                raise ValueError(f"monomial {vars_!r} is not in the q-indices of the window")
        return _fractions(*self._apply(*_ints(poly)))

    def _apply(self, nums: dict[PolyKey, int], den: int) -> tuple[dict[PolyKey, int], int]:
        """The operator on integer numerators over den: the image's numerators and denominator."""
        out: dict[PolyKey, int] = {}
        get = out.get
        for hbar, kind, (i, j), coeff in self._terms:
            for (vars_, h0), c in nums.items():
                # a derivative acts with the multiplicity of its variable
                if kind == "mult":
                    rest, mult = vars_ + (i, j), 1
                else:
                    mult = vars_.count(j if kind == "mixed" else i)
                    if not mult:
                        continue
                    rest = list(vars_)
                    if kind == "mixed":
                        rest.remove(j)
                        rest.append(i)
                    else:
                        rest.remove(i)
                        mult *= rest.count(j)
                        if not mult:
                            continue
                        rest.remove(j)
                key = (tuple(sorted(rest)), h0 + hbar)
                out[key] = get(key, 0) + coeff * c * mult
        return {key: c for key, c in out.items() if c}, self._den * den

    def __repr__(self) -> str:
        return f"FockOperator({len(self._terms)} terms)"


def quantize(G: QuadraticHamiltonian) -> FockOperator:
    """Darboux quantization: qq -> qq/hbar, qp -> q d/dq, pp -> hbar d2/dq dq."""
    nums, den = _ints(G.coeffs)
    terms = []
    for (i, j), c in nums.items():
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
    return FockOperator._make(G.space, terms, den)


def _by_pair(H: QuadraticHamiltonian, kind: str) -> dict:
    """H's monomials x_i x_j with both factors of one kind, keyed by their (k, a) pair.

    Stored monomials have i <= j, so the pair is already sorted.
    """
    return {(i[1:], j[1:]): c for (i, j), c in H.coeffs.items() if i[0] == j[0] == kind}


def cocycle_eval(F: QuadraticHamiltonian, G: QuadraticHamiltonian) -> Fraction:
    """The scalar anomaly C(F, G), bilinear and antisymmetric in its arguments.

    A pp-monomial of one argument pairs only with the qq-monomial of the
    other on the same index pair, with weight 2 on a square and 1 otherwise;
    the pp-monomials of F count positively and those of G negatively.
    """
    acc = Fraction(0)
    for pp, qq, sign in ((F, G, 1), (G, F, -1)):
        q_terms = _by_pair(qq, "q")
        for pair, c in _by_pair(pp, "p").items():
            c_q = q_terms.get(pair)
            if c_q is not None:
                acc += (2 if pair[0] == pair[1] else 1) * sign * c * c_q
    return acc


def commutator_apply(
    F_hat: FockOperator, G_hat: FockOperator, poly: Poly
) -> Poly:
    """[F^, G^] applied to a polynomial, in the house orientation G^ F^ - F^ G^."""
    nums, den = _ints(poly)
    out, den_out = G_hat._apply(*F_hat._apply(nums, den))
    # both orders end over the same denominator F_den * G_den * den
    for key, c in F_hat._apply(*G_hat._apply(nums, den))[0].items():
        out[key] = out.get(key, 0) - c
    return _fractions(out, den_out)


def projective_identity_check(
    F: QuadraticHamiltonian, G: QuadraticHamiltonian, poly: Poly
):
    """Verify {F,G}^ = [F^, G^] + C(F, G) on a test polynomial.

    Returns (True, None) or (False, first_failing_key).
    """
    lhs = quantize(poisson_bracket(F, G)).apply(poly)
    rhs = defaultdict(Fraction, commutator_apply(quantize(F), quantize(G), poly))
    c = cocycle_eval(F, G)
    if c:
        for key, v in poly.items():
            rhs[key] += c * v
    for key in sorted(set(lhs) | set(rhs)):
        if lhs.get(key, 0) != rhs.get(key, 0):
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
    return {hbar for hbar, _, _, _ in op._terms} <= expected


def random_hamiltonian(space: DarbouxSpace, rng) -> QuadraticHamiltonian:
    """Each pair (i, j), i no later than j in window order, drawn with probability 0.4.

    The draw order is part of the contract: seeded checks see the same inputs.
    """
    idx = space.indices()
    coeffs: dict[Monomial, Fraction] = {}
    for pos, i in enumerate(idx):
        for j in idx[pos:]:
            if rng.random() < 0.4:
                coeffs[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return QuadraticHamiltonian(space, coeffs)


def random_polynomial(space: DarbouxSpace, rng, max_deg: int = 3) -> Poly:
    qvars = _window_q(space)
    poly: Poly = {}
    for _ in range(4):
        deg = rng.randint(0, max_deg)
        vars_ = tuple(sorted(rng.choice(qvars) for _ in range(deg)))
        c = Fraction(rng.randint(-3, 3))
        if c:
            poly[(vars_, 0)] = poly.get((vars_, 0), Fraction(0)) + c
    return {k: v for k, v in poly.items() if v}
