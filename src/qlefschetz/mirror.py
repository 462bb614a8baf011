"""Factorization of twisted series into mirror data.

Two independent routes bring a reduced hypergeometric series I to the form
1 + O(1/z).  The general one (birkhoff, tangency_solve) eliminates every
non-negative z-power of its slices (beyond the leading identity) by adding
z-polynomial multiples of the derivative frame {(z D_P)^a I}, order by order
in the Novikov variable; each frame element is built the first time a
correction reads it.  The corrections are unique because at each degree
they act through the q^0 block of the frame, which is unit-triangular in the
monomial basis.  A sweep over a slice reads its z >= 0 part by z once and
queues a correction for every slot it finds, the part in the slice itself
included; the next sweep starts by summing the slice once, and a higher
slice is summed when its degree is reached.  The direct one (small_mirror)
divides by the scalar series F when I has no positive z-powers.  Each route
checks the other.

Every entry point ends in one tail, _assemble (through _extract_chart), the
one place a MirrorResult is built.  The z^(-1) slots of the normalized
series are the components of the projection to the parameter space (string
direction at P^0, divisor direction at P^1); ``ZSeries.z_row`` reads them
off in one pass over the slices, and a product with exp(-tau P/z) and then
one with exp(-tau0/z) peel them off.  Each factor is built alone by
``_prefactor`` from the powers of its q-series, so it costs those powers and
no other q-series product.  Each row is read once: small_mirror hands its F
to the tail and takes its small-projection check from the tail's tau_higher.
The inverse change of Novikov variable q' = q exp(tau - t), computed by Lagrange
inversion from the powers of the exponent's tail, then produces the J-series
in its own chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from .errors import EngineError, ExtractionError, TransversalityError, UnitError
from .ring import BundleSpec, CohElement, LambdaScalar, RingDescriptor
from .series import QSeries, REDUCED, ZSeries, _by_z, lagrange_sum, log_lambda_multiple
from .series import directional_derivative, lifted, queue_row_product, summed

_MAX_SWEEPS = 400


@dataclass
class MirrorResult:
    """Output of a factorization run.

    F and G are read off the input series (the raw z^1 coefficient and the
    z^0 P-slot relative to the base chart); tau_of_q and tau0_of_q are the
    divisor- and string-direction components of the mirror map, tau_higher
    holds any components of the projection outside the small parameter space,
    and J_out is the factored series re-expanded in its own Novikov variable.
    c_coeffs[a] maps z-exponents to the q-series correction coefficients of
    the a-th frame element; they vanish identically when the input is already
    normalized.
    """

    desc: RingDescriptor
    max_degree: int
    F: QSeries
    G: QSeries
    tau_of_q: QSeries
    tau0_of_q: QSeries
    q_of_tau: QSeries
    J_out: ZSeries
    c_coeffs: list[dict[int, QSeries]]
    normalized: ZSeries
    tau_higher: dict[int, QSeries] = field(default_factory=dict)
    small_projection: bool = True
    bundle: BundleSpec | None = None

    def corrections_vanish(self) -> bool:
        return all(qs.is_zero() for cell in self.c_coeffs for qs in cell.values())

    def to_json_dict(self) -> dict:
        return {
            "F": self.F.to_json_dict(),
            "G": self.G.to_json_dict(),
            "tau_of_q": self.tau_of_q.to_json_dict(),
            "tau0_of_q": self.tau0_of_q.to_json_dict(),
            "tau_higher": {
                str(j): qs.to_json_dict() for j, qs in self.tau_higher.items()
            },
            "q_of_tau": self.q_of_tau.to_json_dict(),
            "J_out": self.J_out.to_json_dict(),
            "c_coeffs": [
                {str(ze): qs.to_json_dict() for ze, qs in cell.items()}
                for cell in self.c_coeffs
            ],
            "small_projection": self.small_projection,
            "truncated": self.J_out.truncated or self.normalized.truncated,
        }


# -- elimination core --------------------------------------------------------------


def _settle(row: dict[int, CohElement], queued: dict[int, list], one: LambdaScalar) -> None:
    """Add the pairs queued at each weight to row's class there: one sum of products.

    The old class enters as the pair (class, 1), which drops no key and keeps its flags.
    """
    for w, pairs in queued.items():
        if w in row:
            pairs.append((row[w], one))
    row.update(summed(queued))


def _eliminate(f: ZSeries) -> tuple[ZSeries, list[dict[int, dict[int, LambdaScalar]]]]:
    """Kill all non-negative z-powers of f (except the leading 1) frame-triangularly.

    The frame is frame[p] = (z D_P)^p f, and each element is built the first
    time a correction at P^p reads it, so a series corrected only at P^0
    builds none.  The lead of frame[p], its z^0 q^0 P^p scalar, is that of f
    at P^0 (at degree 0, z D_P multiplies by P), whose lam^0 coefficient both
    callers require to be 1.  The leading 1 is queued out of slice 0 before
    the loop and back in after it, so every slot with z >= 0 is a violation.
    A sweep is one Jacobi step: it sums slice d once, reads its z >= 0 part
    by z once, and for each nonzero slot beta z^ze P^p queues the correction
    -beta z^ze q^d frame[p], its products with frame[p]'s slice dd at d + dd
    (dd = 0 included, which the next sweep reads).  A sweep that queues
    nothing at d ends the degree.  The corrections come back keyed
    [p][z-exponent][d].
    """
    desc, D, one = f.desc, f.max_degree, LambdaScalar.one(f.desc)
    unit, frame = CohElement.one(desc), [f]
    work: dict[int, dict[int, CohElement]] = {}
    pending: dict[int, dict[int, list]] = {0: {0: [(unit, -one)]}}
    corrections: list[dict[int, dict[int, LambdaScalar]]] = [{} for _ in range(desc.n)]

    for d in range(D + 1):
        row = work[d] = dict(f.slices.get(d, {}))
        for _sweep in range(_MAX_SWEEPS):
            _settle(row, pending.pop(d, {}), one)
            for ze, el in _by_z(row, low=0).items():
                for p, beta in enumerate(el.components):
                    if beta.is_zero():
                        continue
                    while len(frame) <= p:
                        frame.append(directional_derivative(frame[-1]))
                    neg = -beta
                    lift = lifted([(neg, 0, ze)])[0]
                    for dd, frame_row in frame[p].slices.items():
                        if d + dd <= D:
                            queue_row_product(pending.setdefault(d + dd, {}), frame_row, lift)
                    cell = corrections[p].setdefault(ze, {})
                    old = cell.get(d)
                    cell[d] = neg if old is None else old + neg
            if d not in pending:  # every correction queues a part at d, through its lead
                break
        else:
            raise EngineError(f"elimination did not stabilize at Novikov degree {d}")
    _settle(work[0], {0: [(unit, one)]}, one)
    return ZSeries._of(desc, D, work, f.convention), corrections


# -- chart extraction ----------------------------------------------------------------


def _prefactor(x: QSeries, slot_step: int, count: int) -> ZSeries:
    """exp(-x P^slot_step/z) as a reduced ZSeries, lifted from the powers of -x.

    It is sum_k (-x)^k / k! P^(slot_step k) z^(-k) over k < count: n for
    tau P (P^n = 0), D + 1 for tau0, which has no constant term.  The powers
    stop at the first exact zero (``QSeries.powers``), and ``series.lifted``
    places them, so the factor costs only its powers.
    """
    terms = [(p.scale(Fraction(1, factorial(k))), slot_step * k, -k)
             for k, p in enumerate((-x).powers(count))]
    return ZSeries._of(x.desc, x.max_degree, lifted(terms), REDUCED)


def _extract_chart(series: ZSeries):
    """Read a series of the form 1 + O(1/z) in its own chart.

    This is the tail shared by both factoring routes.  The z^(-1) slots of the
    series at P^0 and P^1 are the string and divisor components tau0 and tau of
    the projection; tau0 must have no constant term.  Multiplying by
    exp(-(tau0 + tau P)/z) clears them, because the z^(-1) slot of
    exp(-H/z) * (1 + N_(-1)/z + ...) is N_(-1) - H.  The series is multiplied
    by exp(-tau P/z) and then by exp(-tau0/z), two ``_prefactor`` calls whose
    expansions are much smaller than their product; the second is skipped when
    tau0 is an exact zero.  The chart is checked to have no z^(-1) content
    left at P^0 and P^1.  Its z^(-1) slots at P^(j>=2), nonzero only when the
    projection leaves the small parameter space, are returned as tau_higher.
    The inverse change of Novikov variable u then re-expands the chart as
    J_out.

    Returns (tau0, tau, u, J_out, tau_higher).
    """
    tau0, tau, *_ = series.z_row(-1)
    if not tau0.coefficient(0).is_zero():
        raise EngineError("string-direction projection has a constant term")
    chart = _prefactor(tau, 1, tau.desc.n) * series
    if tau0.truncated or not tau0.is_zero():
        chart = _prefactor(tau0, 0, tau0.max_degree + 1) * chart
    string, divisor, *higher = chart.z_row(-1)
    if not (string.is_zero() and divisor.is_zero()):
        raise EngineError("chart extraction failed to clear a z^(-1) slot")
    tau_higher = {j: qs for j, qs in enumerate(higher, 2) if not qs.is_zero()}
    u = _inverse_novikov_map(tau)
    return tau0, tau, u, chart.compose_novikov(u), tau_higher


def _inverse_novikov_map(tau_of_q: QSeries) -> QSeries:
    """Inverse of q' = q * exp(tau_of_q(q)) as a series q = u(q'), by Lagrange inversion.

    The constant term of tau_of_q may be an integer multiple k of log(lam); it
    exponentiates to an exact monomial rescaling of the Novikov variable.  With
    q = q' * phi(q) and phi = lam^(-k) * exp(T), T = -tail, Lagrange inversion
    gives [q'^m] u = (1/m) [q^(m-1)] phi^m = lam^(-k m)/m [q^(m-1)] V with
    V = sum_j (theta + 1)^j T^j / j!, where theta = q d/dq scales q^j by j.
    The only products are the powers T^j, truncated at degree D - 1; T^j has
    valuation at least j, so each costs about (D - j)^2 / 2 term pairs, and
    ``series.lagrange_sum`` takes them (``QSeries.powers``) and reads the
    coefficients off them in one pass.
    """
    desc = tau_of_q.desc
    D = tau_of_q.max_degree
    const = tau_of_q.coefficient(0)
    lam_step = -log_lambda_multiple(const)
    if not D:
        return QSeries.zero(desc, D)
    # A flag on the constant stays at q^0 of T and so reaches every power.
    T = (QSeries(desc, D, {0: const}) - tau_of_q).truncate(D - 1)
    return lagrange_sum(T, lam_step, D)


def invert_series(h: QSeries) -> QSeries:
    """Inverse of the substitution q' = q * exp(h(q)) for h with h(0) = 0."""
    if not h.valuation_at_least(1):
        raise ValueError("invert_series requires h(0) = 0")
    return _inverse_novikov_map(h)


def _assemble(
    I: ZSeries,
    F: QSeries,
    normalized: ZSeries,
    corrections,
    bundle: BundleSpec | None,
) -> MirrorResult:
    """The MirrorResult of I, its z^0 P^0 series F, its factored form and its corrections."""
    desc = I.desc
    D = I.max_degree
    tau0, tau, u, J_out, tau_higher = _extract_chart(normalized)
    G = I.z_row(-1)[1]
    c_coeffs = [{ze: QSeries(desc, D, cell[ze]) for ze in sorted(cell)} for cell in corrections]
    return MirrorResult(
        desc=desc,
        max_degree=D,
        F=F,
        G=G,
        tau_of_q=tau,
        tau0_of_q=tau0,
        q_of_tau=u,
        J_out=J_out,
        c_coeffs=c_coeffs,
        normalized=normalized,
        tau_higher=tau_higher,
        small_projection=not tau_higher,
        bundle=bundle,
    )


def _factor(f: ZSeries, bundle: BundleSpec | None) -> MirrorResult:
    """The MirrorResult of f eliminated against its own derivative frame, built as read."""
    return _assemble(f, f.z_row(0)[0], *_eliminate(f), bundle)


# -- public entry points --------------------------------------------------------------


def birkhoff(I: ZSeries, bundle: BundleSpec | None = None) -> MirrorResult:
    """Factor a reduced series with leading slice 1 through its derivative frame."""
    if I.convention != REDUCED:
        raise ValueError("factorization expects a reduced series")
    lead = I.coefficient(0, 0)
    if not (lead - CohElement.one(I.desc)).is_zero() or len(I.slice(0)) != 1:
        raise ValueError("degree-0 slice must be the identity class")
    return _factor(I, bundle)


def tangency_solve(
    f: ZSeries, bundle: BundleSpec | None = None
) -> MirrorResult:
    """Normalize an arbitrary cone point through its own derivative frame.

    Unlike birkhoff this accepts inputs whose degree-0 slice is any unit
    (leading coefficient 1 at z^0 P^0), as produced by the cone transform;
    the eliminated series is then compared against the expected J-function
    by the caller.
    """
    if f.convention != REDUCED:
        raise ValueError("factorization expects a reduced series")
    if f.scalar_slot(0, 0, 0).coefficient(0, 0) != 1:
        raise TransversalityError("leading z^0 q^0 P^0 coefficient must be 1")
    return _factor(f, bundle)


def small_mirror(I: ZSeries, bundle: BundleSpec | None = None) -> MirrorResult:
    """Direct small-parameter factorization: divide by F, read off the mirror map.

    This is an independent code path from the general elimination: it requires
    the input to carry no positive z-powers (the hypersurface degree must not
    exceed the ambient dimension) and no z^0 content outside the scalar slot.
    """
    if I.convention != REDUCED:
        raise ValueError("small_mirror expects a reduced series")
    desc = I.desc
    lead = I.coefficient(0, 0)
    if not (lead - CohElement.one(desc)).is_zero():
        raise ValueError("degree-0 slice must be the identity class")

    for d in I.slices:
        if any(ze > 0 for ze in I.z_exponents(d)):
            raise UnitError(
                "positive z-powers present; the series is outside the "
                "small-parameter normal form (degree exceeds dimension)"
            )
    F, *above = I.z_row(0)
    if not all(qs.is_zero() for qs in above):
        raise UnitError("z^0 slot carries classes above P^0")

    # After dividing by F the z^0 row is 1, so the chart's z^(-1) slots at
    # P^(j>=2), its tau_higher, are those of J1: they must vanish.
    J1 = I.scale_qseries(F.invert())
    M = _assemble(I, F, J1, [{} for _ in range(desc.n)], bundle)
    if not M.small_projection:
        raise UnitError("projection leaves the small parameter space")
    return M


# -- instanton extraction ----------------------------------------------------------------


def calabi_yau_degree(n: int, bundle: BundleSpec | None) -> int | None:
    """kappa = prod l_i if the bundle cuts a Calabi-Yau threefold out of P^(n-1), else None.

    A generic section of a non-equivariant O(l_1) + ... + O(l_r) vanishes on a
    threefold when r = n - 4, with trivial canonical class when sum l_i = n;
    its Euler class is kappa P^(n-4).
    """
    if bundle is None or bundle.equivariant or bundle.rank != n - 4:
        return None
    return prod(bundle.degrees) if sum(bundle.degrees) == n else None


def extract_instantons(M: MirrorResult, d_max: int) -> list[int]:
    """Degree-d rational curve counts of a Calabi-Yau threefold from the factored J.

    With kappa from calabi_yau_degree, the factored series divided by its
    exponential prefactor is, below P^4, a combination sum_m q'^m (S_m/kappa)
    [P^2/m^2 - 2 P^3/m^3] with S_m = sum_{d | m} n_d d^3 (the slots P^(j>=4)
    pair to zero against e(E) = kappa P^(n-4) and are only checked to be
    diagonal); the P^2 slots determine the S_m triangularly and the P^3 slots
    must then agree on their own, which is enforced here along with
    integrality of the n_d.
    """
    kappa = calabi_yau_degree(M.desc.n, M.bundle)
    if kappa is None:
        raise ExtractionError(
            "instanton extraction needs a Calabi-Yau threefold bundle: "
            "n - 4 non-equivariant degrees summing to n"
        )
    if d_max < 1:
        raise ExtractionError("d_max must be >= 1")
    if M.max_degree < d_max:
        raise ExtractionError(
            f"factored series only reaches degree {M.max_degree} < {d_max}"
        )
    J = M.J_out
    desc = M.desc
    counts: list[int] = []
    for m in range(1, d_max + 1):
        row = J.slice(m)
        coeffs: list[Fraction] = [Fraction(0)] * desc.n
        for ze, el in row.items():
            for p, c in enumerate(el.components):
                if c.is_zero():
                    continue
                if ze != -p:
                    raise ExtractionError(
                        f"slice {m} is not diagonal in P/z: slot (z^{ze}, P^{p})"
                    )
                if not c.is_rational():
                    raise ExtractionError(
                        f"slice {m} carries equivariant terms; take the "
                        "non-equivariant limit first"
                    )
                coeffs[p] = c.as_rational()
        if coeffs[0] != 0 or coeffs[1] != 0:
            raise ExtractionError(
                f"slice {m} has nonzero classes below degree 4"
            )
        s_m = kappa * Fraction(m) ** 2 * coeffs[2]
        residual = coeffs[3] + 2 * s_m / (kappa * Fraction(m) ** 3)
        if residual != 0:
            raise ExtractionError(
                f"P^3 consistency residual {residual} at degree {m}"
            )
        acc = s_m
        for d in range(1, m):
            if m % d == 0:
                acc -= counts[d - 1] * Fraction(d) ** 3
        n_m = acc / Fraction(m) ** 3
        if n_m.denominator != 1:
            raise ExtractionError(f"non-integer curve count {n_m} at degree {m}")
        counts.append(int(n_m))
    return counts
