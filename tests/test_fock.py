import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qlefschetz.errors import EngineError
from qlefschetz.fock import (
    DarbouxSpace,
    FockOperator,
    QuadraticHamiltonian,
    cocycle_eval,
    commutator_apply,
    hamiltonian_of,
    is_infinitesimal_symplectic,
    multiplication_operator,
    omega,
    poisson_bracket,
    projective_identity_check,
    quantize,
    random_hamiltonian,
    str_formula_check,
)

from fock_oracles import (
    apply_by_positions,
    cocycle_eval_by_table,
    hamiltonian_of_by_omega,
    is_infinitesimal_symplectic_by_omega,
    multiplication_operator_by_exponents,
    poisson_bracket_per_coordinate,
    random_hamiltonian_over_basis,
)

Q0 = ("q", 0, 0)
Q1 = ("q", 1, 0)
P0 = ("p", 0, 0)
P1 = ("p", 1, 0)


@pytest.fixture
def space():
    return DarbouxSpace(h_dim=1, z_window=2)


def test_omega_darboux(space):
    f = {P0: F(1)}
    g = {Q0: F(1)}
    assert omega(space, f, g) == 1
    assert omega(space, g, f) == -1
    assert omega(space, f, f) == 0


def test_multiplication_operators_are_symplectic(space):
    for s in (-1, 1):
        T = multiplication_operator(space, [[F(2)]], s)
        assert is_infinitesimal_symplectic(space, T)
    # plain multiplication by a class (z^0) is NOT infinitesimally symplectic
    T0 = multiplication_operator(space, [[F(1)]], 0)
    assert not is_infinitesimal_symplectic(space, T0)


def test_hamiltonian_of_inverse_z(space):
    T = multiplication_operator(space, [[F(1)]], -1)
    H = hamiltonian_of(space, T)
    assert H.coeffs == {
        (Q0, Q0): F(-1, 2),
        (P0, Q1): F(-1),
    }


def test_hamiltonian_of_z(space):
    T = multiplication_operator(space, [[F(1)]], 1)
    H = hamiltonian_of(space, T)
    assert H.coeffs == {
        (P0, P0): F(1, 2),
        (P1, Q0): F(-1),
    }


def test_hamiltonian_of_zero(space):
    H = hamiltonian_of(space, {})
    assert H.is_zero()


def test_hamiltonian_of_rejects_nonsymplectic(space):
    T = multiplication_operator(space, [[F(1)]], 0)
    with pytest.raises(EngineError):
        hamiltonian_of(space, T)


def test_hamiltonian_evaluates_like_form(space):
    rng = random.Random(4)
    T = multiplication_operator(space, [[F(3)]], -1)
    H = hamiltonian_of(space, T)
    for _ in range(10):
        f = {idx: F(rng.randint(-3, 3)) for idx in space.indices()}
        Tf = {}
        for idx, c in f.items():
            for jdx, t in T.get(idx, {}).items():
                Tf[jdx] = Tf.get(jdx, F(0)) + t * c
        assert H.evaluate(f) == omega(space, Tf, f) / 2


def test_quantization_rules(space):
    mono = {((Q0, Q0), 0): F(1)}  # the polynomial q0^2
    qq = quantize(QuadraticHamiltonian(space, {(Q0, Q0): F(1)}))
    assert qq.apply(mono) == {((Q0, Q0, Q0, Q0), -1): F(1)}
    pq = quantize(QuadraticHamiltonian(space, {(Q0, P0): F(1)}))
    assert pq.apply(mono) == {((Q0, Q0), 0): F(2)}
    pp = quantize(QuadraticHamiltonian(space, {(P0, P0): F(1)}))
    assert pp.apply(mono) == {((), 1): F(2)}


def test_cocycle_table(space):
    Fh = QuadraticHamiltonian(space, {(P0, P0): F(1)})
    Gh = QuadraticHamiltonian(space, {(Q0, Q0): F(1)})
    assert cocycle_eval(Fh, Gh) == 2
    assert cocycle_eval(Gh, Fh) == -2
    space2 = DarbouxSpace(h_dim=2, z_window=1)
    Fh2 = QuadraticHamiltonian(space2, {(("p", 0, 0), ("p", 0, 1)): F(1)})
    Gh2 = QuadraticHamiltonian(space2, {(("q", 0, 0), ("q", 0, 1)): F(1)})
    assert cocycle_eval(Fh2, Gh2) == 1
    # mismatch of index sets gives no anomaly
    Hh = QuadraticHamiltonian(space, {(Q1, Q1): F(1)})
    assert cocycle_eval(Fh, Hh) == 0


def test_projective_identity_table_case(space):
    Fh = QuadraticHamiltonian(space, {(P0, P0): F(1)})
    Gh = QuadraticHamiltonian(space, {(Q0, Q0): F(1)})
    poly = {((Q0, Q0), 0): F(1)}
    ok, failure = projective_identity_check(Fh, Gh, poly)
    assert ok, failure


def test_projective_identity_pq_pairs_no_anomaly(space):
    Fh = QuadraticHamiltonian(space, {(Q0, P1): F(2)})
    Gh = QuadraticHamiltonian(space, {(Q1, P0): F(-3)})
    assert cocycle_eval(Fh, Gh) == 0
    poly = {((Q0, Q1), 0): F(1), ((Q0,), 0): F(2)}
    ok, failure = projective_identity_check(Fh, Gh, poly)
    assert ok, failure


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(55)
    sp = DarbouxSpace(h_dim=2, z_window=2)
    for _ in range(25):
        A, B, C = (random_hamiltonian(sp, rng) for _ in range(3))
        assert (poisson_bracket(A, B) + poisson_bracket(B, A)).is_zero()
        jac = (
            poisson_bracket(poisson_bracket(A, B), C)
            + poisson_bracket(poisson_bracket(B, C), A)
            + poisson_bracket(poisson_bracket(C, A), B)
        )
        assert jac.is_zero()


def test_cocycle_is_two_cocycle():
    rng = random.Random(77)
    sp = DarbouxSpace(h_dim=2, z_window=2)
    for _ in range(25):
        A, B, C = (random_hamiltonian(sp, rng) for _ in range(3))
        total = (
            cocycle_eval(poisson_bracket(A, B), C)
            + cocycle_eval(poisson_bracket(B, C), A)
            + cocycle_eval(poisson_bracket(C, A), B)
        )
        assert total == 0


def test_str_formula_scalar(space):
    value, half_trace = str_formula_check(space, [[F(3)]], [[F(5)]])
    assert value == half_trace == F(15, 2)


def test_str_formula_random_symmetric():
    rng = random.Random(3)
    for _ in range(20):
        h = rng.randint(1, 2)
        sp = DarbouxSpace(h_dim=h, z_window=rng.randint(2, 3))

        def sym():
            M = [[F(0)] * h for _ in range(h)]
            for a in range(h):
                for b in range(a, h):
                    M[a][b] = M[b][a] = F(rng.randint(-5, 5), rng.randint(1, 3))
            return M

        value, half_trace = str_formula_check(sp, sym(), sym())
        assert value == half_trace


def test_commutator_preserves_grading(space):
    # pp against qq: commutator terms act at hbar^0 on a plain polynomial
    Fh = quantize(QuadraticHamiltonian(space, {(P0, P0): F(1)}))
    Gh = quantize(QuadraticHamiltonian(space, {(Q0, Q0): F(1)}))
    poly = {((Q0, Q0), 0): F(1)}
    out = commutator_apply(Fh, Gh, poly)
    assert all(h == 0 for (_, h) in out)


# --- the one-pass calculus against the direct definitions in fock_oracles ---

ORACLES = settings(max_examples=80)

SPACES = st.builds(
    DarbouxSpace, h_dim=st.integers(1, 3), z_window=st.integers(1, 4)
)


def all_fractions(values) -> bool:
    return all(type(c) is F for c in values)


@st.composite
def matrices(draw, h: int):
    """An h x h matrix: symmetric, antisymmetric, general, or general with int entries."""
    family = draw(st.sampled_from(["symmetric", "antisymmetric", "general", "int"]))
    entry = (
        st.integers(-3, 3)
        if family == "int"
        else st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    M = [[draw(entry) for _ in range(h)] for _ in range(h)]
    if family in ("symmetric", "antisymmetric"):
        sign = 1 if family == "symmetric" else -1
        for a in range(h):
            for b in range(a):
                M[a][b] = sign * M[b][a]
            if sign < 0:
                M[a][a] = F(0)
    return M


@st.composite
def window_maps(draw):
    """A space and the sum of one or two multiplication maps A z^s, s in -3..3."""
    space = draw(SPACES)
    terms = draw(
        st.lists(st.tuples(matrices(space.h_dim), st.integers(-3, 3)), min_size=1, max_size=2)
    )
    total: dict = {}
    for M, s in terms:
        for i, col in multiplication_operator(space, M, s).items():
            summed = total.setdefault(i, {})
            for j, c in col.items():
                summed[j] = summed.get(j, F(0)) + c
    return space, total


@ORACLES
@given(SPACES, st.data())
def test_multiplication_operator_matches_the_exponent_converter(space, data):
    M = data.draw(matrices(space.h_dim))
    s = data.draw(st.integers(-3, 3))
    T = multiplication_operator(space, M, s)
    assert T == multiplication_operator_by_exponents(space, M, s)
    assert all(all_fractions(col.values()) for col in T.values())


PLAIN_Z0 = DarbouxSpace(h_dim=1, z_window=2)


@ORACLES
@given(window_maps())
@example((PLAIN_Z0, multiplication_operator(PLAIN_Z0, [[F(1)]], 0)))
def test_symplectic_test_and_hamiltonian_match_the_omega_loops(case):
    space, T = case
    symplectic = is_infinitesimal_symplectic(space, T)
    assert symplectic == is_infinitesimal_symplectic_by_omega(space, T)
    if not symplectic:
        with pytest.raises(EngineError):
            hamiltonian_of(space, T)
        return
    H = hamiltonian_of(space, T)
    assert H == hamiltonian_of_by_omega(space, T)
    assert all_fractions(H.coeffs.values())


def seeded_hamiltonians(space: DarbouxSpace, seed: int, count: int):
    rng = random.Random(seed)
    return [random_hamiltonian(space, rng) for _ in range(count)]


@ORACLES
@given(SPACES, st.integers(0, 10**6))
def test_poisson_bracket_matches_per_coordinate_gradients(space, seed):
    A, B = seeded_hamiltonians(space, seed, 2)
    bracket = poisson_bracket(A, B)
    assert bracket == poisson_bracket_per_coordinate(A, B)
    assert all_fractions(bracket.coeffs.values())


@ORACLES
@given(SPACES, st.integers(0, 10**6))
def test_cocycle_matches_the_table_over_all_monomial_pairs(space, seed):
    A, B = seeded_hamiltonians(space, seed, 2)
    for F_, G_ in ((A, B), (B, A), (A, A), (A, poisson_bracket(A, B))):
        value = cocycle_eval(F_, G_)
        assert value == cocycle_eval_by_table(F_, G_)
        assert type(value) is F


@st.composite
def operators_and_polynomials(draw):
    """A quantized random hamiltonian and an int-valued polynomial of degree <= 4."""
    space = draw(SPACES)
    (H,) = seeded_hamiltonians(space, draw(st.integers(0, 10**6)), 1)
    qvars = [("q", k, a) for k in range(space.z_window) for a in range(space.h_dim)]
    monomial = st.tuples(
        st.lists(st.sampled_from(qvars), max_size=4).map(lambda v: tuple(sorted(v))),
        st.integers(-1, 1),
    )
    poly = draw(st.dictionaries(monomial, st.integers(-3, 3), max_size=4))
    return quantize(H), poly


@ORACLES
@given(operators_and_polynomials())
def test_operator_action_matches_the_position_loops(case):
    op, poly = case
    out = op.apply(poly)
    assert out == apply_by_positions(op, poly)
    assert all(out.values()) and all_fractions(out.values())


def test_second_derivative_counts_both_multiplicities(space):
    # (d^2/dq0 dq1 + d^2/dq0^2)(q0^2 q1^3 + q0^3) = 6 q0 q1^2 + 2 q1^3 + 6 q0
    op = FockOperator(space, [(0, "diff2", (Q0, Q1), F(1)), (0, "diff2", (Q0, Q0), F(1))])
    poly = {((Q0, Q0, Q1, Q1, Q1), 0): F(1), ((Q0, Q0, Q0), 0): F(1)}
    assert op.apply(poly) == {
        ((Q0, Q1, Q1), 0): F(6),
        ((Q1, Q1, Q1), 0): F(2),
        ((Q0,), 0): F(6),
    }


@given(SPACES, st.integers(0, 10**6))
def test_random_hamiltonian_draws_as_over_the_monomial_basis(space, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert random_hamiltonian(space, rng) == random_hamiltonian_over_basis(space, oracle_rng)
    assert rng.random() == oracle_rng.random()


def test_hamiltonian_sums_mirrored_keys_and_drops_zeros(space):
    H = QuadraticHamiltonian(space, {(Q0, P0): 2, (P0, Q0): -2, (Q1, Q1): 3})
    assert H.coeffs == {(Q1, Q1): F(3)}
    assert all_fractions(H.coeffs.values())
    assert (H + -H).is_zero()


def test_hamiltonian_rejects_inexact_coefficients(space):
    with pytest.raises(TypeError):
        QuadraticHamiltonian(space, {(Q0, Q0): 0.5})


def test_operator_rejects_an_unknown_term_kind(space):
    with pytest.raises(ValueError):
        FockOperator(space, [(0, "bogus", (Q0, Q0), F(1))])
    with pytest.raises(TypeError):
        FockOperator(space, [(0, "mult", (Q0, Q0), 0.5)])


@pytest.mark.parametrize(
    "pair",
    [
        (("p", 0, 0), ("p", 5, 0)),  # p-variables, one outside the window
        (Q0,),  # one index, not a pair
        (Q0, Q1, Q0),
        (Q0, ("q", 2, 0)),  # k == z_window
        (("q", 0, 1), Q0),  # a == h_dim
        (Q0, ("q", -1, 0)),
        (Q0, ["q", 0, 0]),
        [Q0, Q1],
    ],
)
def test_operator_rejects_a_payload_that_is_not_a_pair_of_window_q_indices(space, pair):
    for kind in ("mult", "mixed", "diff2"):
        with pytest.raises(ValueError):
            FockOperator(space, [(0, kind, pair, F(1))])


def test_operator_accepts_every_pair_of_window_q_indices():
    space = DarbouxSpace(h_dim=2, z_window=2)
    qvars = [i for i in space.indices() if i[0] == "q"]
    op = FockOperator(space, [(0, "mult", (i, j), F(1)) for i in qvars for j in qvars])
    assert len(op.terms) == len(qvars) ** 2


# --- the integer inner loops on denominators the seeded draws never produce ---

PRIMES = (2, 3, 5, 7, 11, 13)
RATIONALS = st.builds(
    lambda num, dens: F(num, math.prod(dens)),
    st.integers(-30, 30),
    st.lists(st.sampled_from(PRIMES), max_size=2),
)


@st.composite
def wide_hamiltonians(draw, space: DarbouxSpace):
    """Up to 8 monomials, either factor order, coefficients over products of primes <= 13."""
    idx = space.indices()
    pairs = st.tuples(st.sampled_from(idx), st.sampled_from(idx))
    return QuadraticHamiltonian(space, draw(st.dictionaries(pairs, RATIONALS, max_size=8)))


@st.composite
def wide_cases(draw):
    space = draw(SPACES)
    qvars = [("q", k, a) for k in range(space.z_window) for a in range(space.h_dim)]
    monomial = st.tuples(
        st.lists(st.sampled_from(qvars), max_size=4).map(lambda v: tuple(sorted(v))),
        st.integers(-1, 1),
    )
    poly = draw(st.dictionaries(monomial, RATIONALS, max_size=4))
    return draw(wide_hamiltonians(space)), draw(wide_hamiltonians(space)), poly


def clean(values) -> bool:
    """Every value a Fraction and none of them zero."""
    return all_fractions(values) and all(values)


def minus(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, F(0)) - c
    return {key: c for key, c in out.items() if c}


@ORACLES
@given(wide_cases())
def test_integer_calculus_matches_the_oracles_on_wide_denominators(case):
    A, B, poly = case
    bracket = poisson_bracket(A, B)
    assert bracket == poisson_bracket_per_coordinate(A, B)
    assert clean(bracket.coeffs.values())

    A_hat, B_hat = quantize(A), quantize(B)
    for op in (A_hat, B_hat, quantize(bracket)):
        out = op.apply(poly)
        assert out == apply_by_positions(op, poly)
        assert clean(out.values())

    commutator = minus(
        apply_by_positions(B_hat, apply_by_positions(A_hat, poly)),
        apply_by_positions(A_hat, apply_by_positions(B_hat, poly)),
    )
    out = commutator_apply(A_hat, B_hat, poly)
    assert out == commutator
    assert clean(out.values())

    anomaly = cocycle_eval_by_table(A, B)
    lhs = apply_by_positions(quantize(poisson_bracket_per_coordinate(A, B)), poly)
    rhs = minus(commutator, {key: -anomaly * c for key, c in poly.items()})
    assert lhs == rhs  # the identity holds by the oracles
    assert projective_identity_check(A, B, poly) == (True, None)


@pytest.mark.parametrize(
    "variable",
    [("p", 7, 3), ("p", 0, 0), ("q", 2, 0), ("q", 0, 1), ("q", -1, 0), "q"],
)
def test_apply_rejects_a_polynomial_in_a_variable_outside_the_window(variable):
    space = DarbouxSpace(h_dim=1, z_window=2)
    op = FockOperator(space, [(0, "mixed", (Q0, Q1), 1)])
    with pytest.raises(ValueError):
        op.apply({((variable, Q1), 0): 1})
    assert op.apply({((Q1, Q1), 0): 1}) == {((Q0, Q1), 0): 2}
