"""Machine-checkable invariant suites backing the `verify` subcommand.

Each suite runs the identities its module is responsible for and returns a
list of Check records; everything is exact, so a check either passes or
produces a concrete counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import fock
from .gw import frame_series, j_reduced, qde_verify, s_matrix
from .mirror import birkhoff, extract_instantons, invert_series, small_mirror, tangency_solve
from .ring import (
    BundleSpec,
    CohElement,
    LambdaScalar,
    RingDescriptor,
    euler_expansion_check,
    gram_matrix,
    integrate,
)
from .series import QSeries, RAW, ZSeries, project, symplectic_form
from .twist import cone_transform, i_function, serre_dual_i, stirling_check

QUINTIC_COUNTS = [2875, 609250, 317206375, 242467530000, 229305888887625]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _random_scalar(desc, rng) -> LambdaScalar:
    # lam exponents stay in [-1, 1] so that triple products never cross the
    # floor of the test descriptors: the axioms are then exact, not quotient
    # artifacts.
    coeffs = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(-1, 1), 0)
        coeffs[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return LambdaScalar(desc, coeffs)


def _random_element(desc, rng) -> CohElement:
    return CohElement(desc, [_random_scalar(desc, rng) for _ in range(desc.n)])


def ring_suite() -> list[Check]:
    checks: list[Check] = []
    rng = random.Random(20240)
    desc = RingDescriptor(n=5, lambda_floor=4)

    ok = True
    detail = ""
    for i in range(60):
        a, b, c = (_random_element(desc, rng) for _ in range(3))
        if (a * b) != (b * a) or ((a * b) * c) != (a * (b * c)):
            ok, detail = False, f"axiom failure at sample {i}"
            break
        if (a * (b + c)) != (a * b + a * c):
            ok, detail = False, f"distributivity failure at sample {i}"
            break
    checks.append(Check("ring.axioms_random", ok, detail))

    ok = True
    for n in range(2, 7):
        d = RingDescriptor(n=n)
        for a in range(n):
            for b in range(n):
                val = integrate(CohElement.p_power(d, a) * CohElement.p_power(d, b))
                expected = Fraction(1) if a + b == n - 1 else Fraction(0)
                if val.as_rational() != expected:
                    ok = False
    checks.append(Check("ring.pairing_monomials", ok))

    ok = True
    detail = ""
    for n in (3, 5):
        d = RingDescriptor(n=n, lambda_floor=2)
        gm = gram_matrix(d, BundleSpec((2, 3)))
        for a in range(n):
            for b in range(n):
                entry = gm[a][b]
                if a + b > n - 1 and not entry.is_zero():
                    ok, detail = False, f"below-band entry at ({a},{b})"
                if a + b == n - 1 and entry.coefficient(2) != 1:
                    ok, detail = False, f"anti-diagonal entry not unit at ({a},{b})"
    checks.append(Check("ring.twisted_gram_band", ok, detail))

    ok = True
    detail = ""
    for n in range(2, 9):
        d = RingDescriptor(n=n, lambda_floor=n)
        for r in range(1, 5):
            for degs in combinations_with_replacement(range(1, 7), r):
                good, residual = euler_expansion_check(d, BundleSpec(degs))
                if not good:
                    ok, detail = False, f"n={n}, degrees={degs}"
                    break
    checks.append(Check("ring.euler_expansion_grid", ok, detail))
    return checks


def _random_raw(desc, rng, D=2) -> ZSeries:
    slices = {}
    for d in range(D + 1):
        row = {}
        for ze in range(-3, 3):
            if rng.random() < 0.35:
                row[ze] = _random_element(desc, rng)
        if row:
            slices[d] = row
    return ZSeries(desc, D, slices, RAW)


def series_suite() -> list[Check]:
    checks: list[Check] = []
    rng = random.Random(999)
    desc = RingDescriptor(n=3, lambda_floor=4)

    lag_ok = anti_ok = inf_ok = True
    for _ in range(40):
        f, g = _random_raw(desc, rng), _random_raw(desc, rng)
        if not (symplectic_form(f, g) + symplectic_form(g, f)).is_zero():
            anti_ok = False
        fp, fm = project(f, "plus"), project(f, "minus")
        gp, gm = project(g, "plus"), project(g, "minus")
        if not symplectic_form(fp, gp).is_zero() or not symplectic_form(fm, gm).is_zero():
            lag_ok = False
        if (fp + fm) != f or project(fp, "plus") != fp:
            lag_ok = False
        omega_of_z = symplectic_form(f.z_shift(1), g) + symplectic_form(f, g.z_shift(1))
        if not omega_of_z.is_zero():
            inf_ok = False
    checks.append(Check("series.omega_antisymmetric", anti_ok))
    checks.append(Check("series.polarization_lagrangian", lag_ok))
    checks.append(Check("series.z_mult_infinitesimal", inf_ok))

    ok = True
    for _ in range(15):
        f, g, h = (_random_raw(desc, rng, 2) for _ in range(3))
        if (f * g) != (g * f) or ((f * g) * h) != (f * (g * h)):
            ok = False
    checks.append(Check("series.mul_assoc_comm", ok))
    return checks


def gw_suite() -> list[Check]:
    checks: list[Check] = []

    ok, detail = True, ""
    for n in range(2, 7):
        J = j_reduced(n, 8)
        good, slot = qde_verify(J, n)
        if not good:
            ok, detail = False, f"n={n}, first failure {slot}"
            break
    checks.append(Check("gw.qde_n_le_6_D8", ok, detail))

    J = j_reduced(4, 4)
    frame = frame_series(J, 4)
    checks.append(Check("gw.frame_zero_is_J", frame[0] == J))

    ok, detail = True, ""
    for n in range(2, 6):
        J = j_reduced(n, 5)
        _, good, fail = s_matrix(J, n, 5)
        if not good:
            ok, detail = False, f"n={n}, {fail}"
            break
    checks.append(Check("gw.s_matrix_unitary_n_le_5_D5", ok, detail))
    return checks


def twist_suite() -> list[Check]:
    checks: list[Check] = []

    ok, fail = stirling_check(11)
    checks.append(Check("twist.stirling_z11", ok, "" if ok else f"2m={fail}"))

    ok, detail = True, ""
    J = j_reduced(6, 6, lambda_floor=1)
    for l in range(1, 7):
        _, good, failure = serre_dual_i(J, BundleSpec((l,)))
        if not good:
            ok, detail = False, f"l={l}, {failure}"
            break
    checks.append(Check("twist.serre_products_l_le_6_d_le_6", ok, detail))

    desc = RingDescriptor(n=5, lambda_floor=2)
    J = j_reduced(5, 3, desc=desc)
    Ieq = i_function(J, BundleSpec((5,), equivariant=True))
    Inon = i_function(J.lambda_zero_part(), BundleSpec((5,), equivariant=False))
    checks.append(
        Check("twist.i_function_lambda_zero_limit", Ieq.lambda_zero_part() == Inon)
    )

    desc = RingDescriptor(n=3, lambda_floor=4, log_cap=10)
    J = j_reduced(3, 2, desc=desc)
    f = cone_transform(cone_transform(J, BundleSpec((1,))), BundleSpec((2,)))
    g = cone_transform(J, BundleSpec((1, 2)))
    checks.append(Check("twist.cone_transform_group_action", f == g))
    h = cone_transform(cone_transform(J, BundleSpec((1, 2))), BundleSpec((1, 2)), invert=True)
    checks.append(Check("twist.cone_transform_inverse", h == J))

    desc = RingDescriptor(n=2, lambda_floor=8, log_cap=10)
    J = j_reduced(2, 2, desc=desc)
    E = BundleSpec((1,))
    f = cone_transform(i_function(J, E), E)
    M = tangency_solve(f, bundle=E)
    checks.append(Check("twist.cone_transform_tangency_n2", M.J_out == J))
    return checks


def mirror_suite() -> list[Check]:
    checks: list[Check] = []

    ok, detail = True, ""
    for n, l in [(5, 1), (5, 2), (5, 3), (6, 4)]:
        J = j_reduced(n, 5)
        E = BundleSpec((l,), equivariant=False)
        I = i_function(J, E)
        M = birkhoff(I, bundle=E)
        if not (M.corrections_vanish() and M.J_out == I and M.tau_of_q.is_zero()
                and M.tau0_of_q.is_zero()):
            ok, detail = False, f"(n,l)=({n},{l})"
            break
    checks.append(Check("mirror.low_degree_identity", ok, detail))

    ok, detail = True, ""
    for n, l in [(4, 3), (5, 4)]:
        J = j_reduced(n, 5)
        E = BundleSpec((l,), equivariant=False)
        M = birkhoff(i_function(J, E), bundle=E)
        fact = Fraction(1)
        for i in range(1, l + 1):
            fact *= i
        good = (
            M.corrections_vanish()
            and M.tau_of_q.is_zero()
            and M.tau0_of_q.coefficient(1).as_rational() == fact
            and all(M.tau0_of_q.coefficient(d).is_zero() for d in range(2, 6))
        )
        if not good:
            ok, detail = False, f"(n,l)=({n},{l})"
            break
    checks.append(Check("mirror.critical_degree_string_shift", ok, detail))

    J = j_reduced(5, 5)
    E = BundleSpec((5,), equivariant=False)
    I = i_function(J, E)
    M = small_mirror(I, bundle=E)
    ok = (
        M.F.coefficient(1).as_rational() == 120
        and M.tau_of_q.coefficient(1).as_rational() == 770
    )
    checks.append(Check("mirror.quintic_map_coefficients", ok))

    counts = extract_instantons(M, 5)
    checks.append(
        Check(
            "mirror.quintic_instantons_d_le_5",
            counts == QUINTIC_COUNTS,
            f"got {counts}",
        )
    )

    J3 = j_reduced(5, 3)
    I3 = i_function(J3, E)
    Mb = birkhoff(I3, bundle=E)
    Ms = small_mirror(I3, bundle=E)
    checks.append(
        Check(
            "mirror.two_paths_agree",
            Mb.J_out == Ms.J_out and Mb.tau_of_q == Ms.tau_of_q,
        )
    )

    desc = RingDescriptor(n=5, lambda_floor=2)
    Jeq = j_reduced(5, 3, desc=desc)
    Eeq = BundleSpec((5,), equivariant=True)
    Meq = birkhoff(i_function(Jeq, Eeq), bundle=Eeq)
    Mnon = small_mirror(i_function(Jeq.lambda_zero_part(), E), bundle=E)
    ok = Meq.J_out.lambda_zero_part() == Mnon.J_out and all(
        Meq.tau_of_q.coefficient(d).lambda_zero_part()
        == Mnon.tau_of_q.coefficient(d).lambda_zero_part()
        for d in range(4)
    )
    checks.append(Check("mirror.equivariant_limit_coherence", ok))

    # back-substitution: the stored corrections recompose the normalized series
    frame = frame_series(I3, 5)
    recomposed = I3
    for a, cell in enumerate(Mb.c_coeffs):
        for ze, qs in cell.items():
            recomposed = recomposed + frame[a].z_shift(ze).scale_qseries(qs)
    checks.append(Check("mirror.back_substitution", recomposed == Mb.normalized))

    desc0 = RingDescriptor(n=2)
    h = QSeries.from_rationals(desc0, 5, {1: Fraction(3)})
    u = invert_series(h)
    # u * exp(h(u)) == q'
    check = u * h.compose(u).exp()
    target = QSeries.from_rationals(desc0, 5, {1: Fraction(1)})
    checks.append(Check("mirror.invert_series_roundtrip", check == target))
    return checks


def fock_suite() -> list[Check]:
    checks: list[Check] = []
    rng = random.Random(1234)

    ok, detail = True, ""
    for i in range(100):
        sp = fock.DarbouxSpace(h_dim=rng.randint(1, 2), z_window=rng.randint(1, 3))
        F = fock.random_hamiltonian(sp, rng)
        G = fock.random_hamiltonian(sp, rng)
        poly = fock.random_polynomial(sp, rng)
        good, key = fock.projective_identity_check(F, G, poly)
        if not good:
            ok, detail = False, f"pair {i}, key {key}"
            break
    checks.append(Check("fock.projective_identity_100", ok, detail))

    ok, detail = True, ""
    for i in range(20):
        h = rng.randint(1, 2)
        sp = fock.DarbouxSpace(h_dim=h, z_window=rng.randint(2, 3))
        def sym():
            M = [[Fraction(0)] * h for _ in range(h)]
            for a in range(h):
                for b in range(a, h):
                    M[a][b] = M[b][a] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            return M
        value, half_trace = fock.str_formula_check(sp, sym(), sym())
        if value != half_trace:
            ok, detail = False, f"pair {i}: {value} != {half_trace}"
            break
    checks.append(Check("fock.str_formula_20", ok, detail))

    ok = True
    for _ in range(30):
        sp = fock.DarbouxSpace(h_dim=2, z_window=2)
        A = fock.random_hamiltonian(sp, rng)
        B = fock.random_hamiltonian(sp, rng)
        C = fock.random_hamiltonian(sp, rng)
        pb = fock.poisson_bracket
        if not (pb(A, B) + pb(B, A)).is_zero():
            ok = False
        if not (pb(pb(A, B), C) + pb(pb(B, C), A) + pb(pb(C, A), B)).is_zero():
            ok = False
        total = (
            fock.cocycle_eval(pb(A, B), C)
            + fock.cocycle_eval(pb(B, C), A)
            + fock.cocycle_eval(pb(C, A), B)
        )
        if total != 0:
            ok = False
    checks.append(Check("fock.bracket_lie_and_two_cocycle", ok))

    sp = fock.DarbouxSpace(h_dim=1, z_window=2)
    q0 = ("q", 0, 0)
    p0 = ("p", 0, 0)
    F = fock.QuadraticHamiltonian(sp, {(p0, p0): Fraction(1)})
    G = fock.QuadraticHamiltonian(sp, {(q0, q0): Fraction(1)})
    ok = fock.cocycle_eval(F, G) == 2
    sp2 = fock.DarbouxSpace(h_dim=2, z_window=1)
    F2 = fock.QuadraticHamiltonian(sp2, {(("p", 0, 0), ("p", 0, 1)): Fraction(1)})
    G2 = fock.QuadraticHamiltonian(sp2, {(("q", 0, 0), ("q", 0, 1)): Fraction(1)})
    ok = ok and fock.cocycle_eval(F2, G2) == 1
    checks.append(Check("fock.cocycle_table_values", ok))

    graded_ok = True
    for grade, H in [
        (1, F),
        (-1, G),
        (0, fock.QuadraticHamiltonian(sp, {(q0, p0): Fraction(1)})),
    ]:
        if not fock.hbar_grading_ok(fock.quantize(H), {grade}):
            graded_ok = False
    checks.append(Check("fock.hbar_grading", graded_ok))
    return checks


SUITES = {
    "ring": ring_suite,
    "series": series_suite,
    "gw": gw_suite,
    "twist": twist_suite,
    "mirror": mirror_suite,
    "fock": fock_suite,
}


def run_suites(names: list[str]) -> list[Check]:
    out: list[Check] = []
    for name in names:
        out.extend(SUITES[name]())
    return out
