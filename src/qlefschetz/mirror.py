"""Factorization of twisted series into mirror data.

Two independent routes bring a reduced hypergeometric series I to the form
1 + O(1/z).  The general one (birkhoff, tangency_solve) eliminates every
non-negative z-power of its slices (beyond the leading identity) by adding
z-polynomial multiples of the derivative frame {(z D_P)^a I}, order by order
in the Novikov variable.  The corrections are unique because at each degree
they act through the q^0 block of the frame, which is unit-triangular in the
monomial basis.  The direct one (small_mirror) divides by the scalar series
F when I has no positive z-powers.  Each route checks the other.

Every entry point ends in one tail, _assemble (through _extract_chart), the
one place a MirrorResult is built.  The z^(-1) slots of the normalized
series are the components of the projection to the parameter space (string
direction at P^0, divisor direction at P^1); they are read off in one pass,
and one product with exp(-(tau0 + tau P)/z) peels them off.
The inverse change of Novikov variable q' = q exp(tau - t), computed by
Lagrange inversion, then produces the J-series in its own chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .errors import (
    EngineError,
    ExtractionError,
    TransversalityError,
    UnitError,
)
from .gw import frame_series
from .ring import BundleSpec, CohElement, LambdaScalar, RingDescriptor
from .series import QSeries, REDUCED, ZSeries, exp_constant_scalar

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
        return all(
            qs.is_zero() for cell in self.c_coeffs for qs in cell.values()
        )

    def to_json_dict(self) -> dict:
        return {
            "F": self.F.to_json_dict(),
            "G": self.G.to_json_dict(),
            "tau_of_q": self.tau_of_q.to_json_dict(),
            "tau0_of_q": self.tau0_of_q.to_json_dict(),
            "tau_higher": {
                str(j): qs.to_json_dict() for j, qs in sorted(self.tau_higher.items())
            },
            "q_of_tau": self.q_of_tau.to_json_dict(),
            "J_out": self.J_out.to_json_dict(),
            "c_coeffs": [
                {str(ze): qs.to_json_dict() for ze, qs in sorted(cell.items())}
                for cell in self.c_coeffs
            ],
            "small_projection": self.small_projection,
            "truncated": self.J_out.truncated or self.normalized.truncated,
        }


# -- elimination core --------------------------------------------------------------


def _copy_slices(f: ZSeries) -> dict[int, dict[int, CohElement]]:
    return {d: dict(row) for d, row in f.slices.items()}


def _subtract_scaled(
    work: dict[int, dict[int, CohElement]],
    frame_el: ZSeries,
    d_shift: int,
    z_shift: int,
    beta: LambdaScalar,
    max_degree: int,
) -> None:
    """work -= beta * z^z_shift * q^d_shift * frame_el, in place."""
    desc = frame_el.desc
    for d, row in frame_el.slices.items():
        d_out = d + d_shift
        if d_out > max_degree:
            continue
        tgt = work.setdefault(d_out, {})
        for ze, el in row.items():
            key = ze + z_shift
            delta = el.scale_scalar(beta)
            if delta.is_zero():
                continue
            cur = tgt.get(key, CohElement.zero(desc))
            new = cur - delta
            if new.is_zero():
                tgt.pop(key, None)
            else:
                tgt[key] = new


def _violations(
    desc: RingDescriptor, row: dict[int, CohElement], d: int
) -> list[tuple[int, int]]:
    out = []
    for ze in sorted((z for z in row if z >= 0), reverse=True):
        for p, c in enumerate(row[ze].components):
            if d == 0 and ze == 0 and p == 0:
                if not (c - LambdaScalar.one(desc)).is_zero():
                    out.append((ze, p))
            elif not c.is_zero():
                out.append((ze, p))
    return out


def _eliminate(
    f: ZSeries, frame: list[ZSeries]
) -> tuple[ZSeries, list[dict[tuple[int, int], LambdaScalar]]]:
    """Kill all non-negative z-powers of f (except the leading 1) frame-triangularly."""
    desc = f.desc
    D = f.max_degree
    n = desc.n
    one = LambdaScalar.one(desc)

    for p in range(n):
        lead = frame[p].scalar_slot(0, 0, p)
        if (lead - one).is_zero():
            continue
        if lead.is_zero():
            raise TransversalityError(
                f"frame element {p} has no leading z^0 q^0 term"
            )
        if lead.coefficient(0, 0) != 1:
            raise TransversalityError(
                f"frame element {p} has non-unit leading coefficient {lead}"
            )

    work = _copy_slices(f)
    corrections: list[dict[tuple[int, int], LambdaScalar]] = [dict() for _ in range(n)]
    zero = CohElement.zero(desc)
    for d in range(D + 1):
        for _sweep in range(_MAX_SWEEPS):
            row = work.get(d, {})
            viols = _violations(desc, row, d)
            if not viols:
                break
            for ze, p in viols:
                el = work.get(d, {}).get(ze, zero)
                beta = el.component(p)
                if d == 0 and ze == 0 and p == 0:
                    beta = beta - one
                if beta.is_zero():
                    continue
                _subtract_scaled(work, frame[p], d, ze, beta, D)
                key = (d, ze)
                cell = corrections[p]
                cell[key] = cell.get(key, LambdaScalar.zero(desc)) - beta
        else:
            raise EngineError(
                f"elimination did not stabilize at Novikov degree {d}"
            )
    normalized = ZSeries(desc, D, work, f.convention)
    return normalized, corrections


# -- chart extraction ----------------------------------------------------------------


def _prefactor(desc, D, h: list[QSeries]) -> ZSeries:
    """exp(-(sum_j h_j P^j)/z) as a reduced ZSeries."""
    slices: dict[int, dict[int, CohElement]] = {}
    for j, hj in enumerate(h):
        for d, c in hj.coeffs.items():
            el = CohElement.p_power(desc, j).scale_scalar(c)
            if el.is_zero():
                continue
            tgt = slices.setdefault(d, {})
            tgt[-1] = tgt.get(-1, CohElement.zero(desc)) - el
    argument = ZSeries(desc, D, slices, REDUCED)
    return argument.exp()


def _extract_chart(series: ZSeries):
    """Read a series of the form 1 + O(1/z) in its own chart.

    This is the tail shared by both factoring routes.  The z^(-1) slots of the
    series at P^0 and P^1 are the string and divisor components tau0 and tau of
    the projection.  Multiplying by exp(-(tau0 + tau P)/z) clears them, because
    the z^(-1) slot of exp(-H/z) * (1 + N_(-1)/z + ...) is N_(-1) - H; the
    product is built once and checked to have no z^(-1) content left at P^0 and
    P^1.  The inverse change of Novikov variable u then re-expands it as J_out.

    Returns (tau0, tau, u, J_out, chart).
    """
    desc = series.desc
    D = series.max_degree
    tau0 = _slot_series(series, -1, 0)
    tau = _slot_series(series, -1, 1)
    chart = _prefactor(desc, D, [tau0, tau]) * series
    for d in range(D + 1):
        for j in (0, 1):
            if not chart.scalar_slot(d, -1, j).is_zero():
                raise EngineError("chart extraction failed to clear a z^(-1) slot")
    u = _inverse_novikov_map(tau)
    return tau0, tau, u, chart.compose_novikov(u), chart


def _inverse_novikov_map(tau_of_q: QSeries) -> QSeries:
    """Inverse of q' = q * exp(tau_of_q(q)) as a series q = u(q'), by Lagrange inversion.

    The constant term of tau_of_q may be an integer multiple k of log(lam); it
    exponentiates to an exact monomial rescaling of the Novikov variable.  With
    q = q' * phi(q) and phi = lam^(-k) * exp(-tail), Lagrange inversion gives
    [q'^m] u = (1/m) [q^(m-1)] phi^m: one exp and D - 1 products of powers of
    phi, all truncated at degree D - 1.
    """
    desc = tau_of_q.desc
    D = tau_of_q.max_degree
    lam_shift = exp_constant_scalar(-tau_of_q.coefficient(0))
    coeffs: dict[int, LambdaScalar] = {}
    if D:
        tail = QSeries(desc, D - 1, {d: c for d, c in tau_of_q.coeffs.items() if d})
        phi = (-tail).exp() * lam_shift
        power = phi
        for m in range(1, D + 1):
            coeffs[m] = power.coefficient(m - 1).scale(Fraction(1, m))
            if m < D:
                power = power * phi
    return QSeries(desc, D, coeffs)


def invert_series(h: QSeries) -> QSeries:
    """Inverse of the substitution q' = q * exp(h(q)) for h with h(0) = 0."""
    if not h.valuation_at_least(1):
        raise ValueError("invert_series requires h(0) = 0")
    return _inverse_novikov_map(h)


def _slot_series(I: ZSeries, z_exp: int, p_exp: int) -> QSeries:
    desc = I.desc
    coeffs = {}
    for d in I.slices:
        c = I.scalar_slot(d, z_exp, p_exp)
        if not c.is_zero():
            coeffs[d] = c
    return QSeries(desc, I.max_degree, coeffs)


def _assemble(
    I: ZSeries,
    normalized: ZSeries,
    corrections,
    bundle: BundleSpec | None,
) -> MirrorResult:
    desc = I.desc
    D = I.max_degree
    if not normalized.scalar_slot(0, -1, 0).is_zero():
        raise EngineError("string-direction projection has a constant term")
    tau0, tau, u, J_out, chart = _extract_chart(normalized)
    # P^(j>=2) components of the projection, reported in the incoming chart;
    # nonzero only when the projection leaves the small parameter space.
    tau_higher: dict[int, QSeries] = {}
    for j in range(2, desc.n):
        qs = _slot_series(chart, -1, j)
        if not qs.is_zero():
            tau_higher[j] = qs

    F = _slot_series(I, 0, 0)
    G = _slot_series(I, -1, 1)

    c_coeffs: list[dict[int, QSeries]] = []
    for cell in corrections:
        by_z: dict[int, dict[int, LambdaScalar]] = {}
        for (d, ze), val in cell.items():
            by_z.setdefault(ze, {})[d] = val
        c_coeffs.append(
            {ze: QSeries(desc, D, coeffs) for ze, coeffs in sorted(by_z.items())}
        )

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


# -- public entry points --------------------------------------------------------------


def birkhoff(
    I: ZSeries,
    frame: list[ZSeries] | None = None,
    bundle: BundleSpec | None = None,
) -> MirrorResult:
    """Factor a reduced series with leading slice 1 through its derivative frame."""
    if I.convention != REDUCED:
        raise ValueError("factorization expects a reduced series")
    lead = I.coefficient(0, 0)
    if not (lead - CohElement.one(I.desc)).is_zero() or len(I.slice(0)) != 1:
        raise ValueError("degree-0 slice must be the identity class")
    if frame is None:
        frame = frame_series(I, I.desc.n)
    normalized, corrections = _eliminate(I, frame)
    return _assemble(I, normalized, corrections, bundle)


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
    frame = frame_series(f, f.desc.n)
    normalized, corrections = _eliminate(f, frame)
    return _assemble(f, normalized, corrections, bundle)


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

    for d, row in I.slices.items():
        for ze, el in row.items():
            if ze > 0 and not el.is_zero():
                raise UnitError(
                    "positive z-powers present; the series is outside the "
                    "small-parameter normal form (degree exceeds dimension)"
                )
    for d, row in I.slices.items():
        if d == 0:
            continue
        el = row.get(0)
        if el is not None and not all(c.is_zero() for c in el.components[1:]):
            raise UnitError("z^0 slot carries classes above degree 2")

    J1 = I.scale_qseries(_slot_series(I, 0, 0).invert())

    # After dividing by F the remaining z^(-1) slots are the mirror map.
    for j in range(2, desc.n):
        if not _slot_series(J1, -1, j).is_zero():
            raise UnitError("projection leaves the small parameter space")
    return _assemble(I, J1, [{} for _ in range(desc.n)], bundle)


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
