"""The eager frame elimination, kept as a test oracle.

``eager_eliminate`` is ``mirror._eliminate`` as it was before the deferred
slices and the whole sweeps: a sweep visits the slots of ``violations`` in
order, reads each one from the slice as the earlier corrections of the
sweep left it, and subtracts each correction beta * z^ze * q^d * frame[p]
at once from every slice it reaches (``subtract_scaled``), so a high slice
is rebuilt once per correction that reaches it, each time as the old class
times 1 plus the new products.  The engine's elimination must return the
same normalized series, class by class with its flags, and the same
corrections.

``queued_prefactor`` is ``mirror._prefactor`` as it was before the factors
were stacked from their powers: every coefficient of every power of -tau and
-tau0 is queued as a class-by-scalar product.  The engine's prefactor must
equal it class by class, flags included.
"""

from fractions import Fraction

from qlefschetz.errors import EngineError
from qlefschetz.ring import CohElement, LambdaScalar
from qlefschetz.series import REDUCED, QSeries, ZSeries, _by_z, queue_scaled_row, summed

MAX_SWEEPS = 400


def violations(row, d):
    """The (z-exponent, P-exponent) slots with z >= 0 to eliminate from row d, keyed by weight.

    They come in the order the eager sweep visits them: z-exponents from the
    top down, P-exponents from the bottom up, the leading 1 of slice 0 left out.
    """
    zrow = _by_z(row)
    out = []
    for ze in sorted((ze for ze in zrow if ze >= 0), reverse=True):
        for p, c in enumerate(zrow[ze].components):
            if d == 0 and ze == 0 and p == 0:
                if not (c - LambdaScalar.one(c.desc)).is_zero():
                    out.append((ze, p))
            elif not c.is_zero():
                out.append((ze, p))
    return out


def subtract_scaled(work, frame_el, d_shift, z_shift, beta, max_degree):
    """work -= beta * z^z_shift * q^d_shift * frame_el, in place, on rows keyed by weight."""
    neg, one = -beta, LambdaScalar.one(beta.desc)
    queued = {}
    for d, row in frame_el.slices.items():
        if d + d_shift <= max_degree:
            queue_scaled_row(queued.setdefault(d + d_shift, {}), row, neg, z_shift)
    for d, row in queued.items():
        tgt = work.setdefault(d, {})
        for w, pairs in row.items():
            if w in tgt:
                pairs.append((tgt[w], one))
        tgt.update(summed(row))


def eager_eliminate(f, frame):
    """(normalized, corrections) of f, every correction applied to all slices at once."""
    desc, D = f.desc, f.max_degree
    one, zero = LambdaScalar.one(desc), CohElement.zero(desc)
    work = {d: dict(row) for d, row in f.slices.items()}
    corrections = [{} for _ in range(desc.n)]
    for d in range(D + 1):
        for _sweep in range(MAX_SWEEPS):
            viols = violations(work.get(d, {}), d)
            if not viols:
                break
            for ze, p in viols:
                beta = _by_z(work.get(d, {}), at=ze).get(ze, zero).component(p)
                if d == 0 and ze == 0 and p == 0:
                    beta = beta - one
                if beta.is_zero():
                    continue
                subtract_scaled(work, frame[p], d, ze, beta, D)
                cell = corrections[p].setdefault(ze, {})
                old = cell.get(d)
                cell[d] = -beta if old is None else old - beta
        else:
            raise EngineError(f"elimination did not stabilize at Novikov degree {d}")
    return ZSeries._of(desc, D, work, f.convention), corrections


def queued_prefactor(tau0: QSeries, tau: QSeries) -> ZSeries:
    """exp(-(tau0 + tau P)/z) as a reduced ZSeries, built from q-series powers.

    It is sum_{j,k} (-tau0)^j (-tau)^k / (j! k!) P^k z^(-(j+k)).  The sum over
    k ends at P^n = 0: P^k z^(-k) has weight 0, so at each degree the k-sum
    is one class per lam power, one sum of products.  The sum over j ends at
    the q-valuation of tau0^j (tau0 has no constant term): each j adds that
    row times the coefficients of (-tau0)^j / j!, j weights down.  A power
    that is a flagged zero stands for unknown terms below the floor, whose
    products reach higher degrees, so only an exact zero ends the sum early.
    """
    desc, D = tau.desc, tau.max_degree
    row: dict[int, dict[int, list]] = {}
    power = QSeries.one(desc, D)
    for k in range(desc.n):
        if k:
            power = (power * -tau).scale(Fraction(1, k))
        p_k = {0: CohElement.p_power(desc, k)}
        for d, c in power._split().items():
            queue_scaled_row(row.setdefault(d, {}), p_k, c)
    diagonal = {d: summed(classes) for d, classes in row.items()}
    out: dict[int, dict[int, list]] = {}
    power = QSeries.one(desc, D)
    for j in range(D + 1):
        if j:
            power = (power * -tau0).scale(Fraction(1, j))
        for d1, c in power._split().items():
            for d2, classes in diagonal.items():
                if d1 + d2 <= D:
                    queue_scaled_row(out.setdefault(d1 + d2, {}), classes, c, -j)
        if power.is_zero() and not power.truncated:
            break
    return ZSeries._of(desc, D, {d: summed(classes) for d, classes in out.items()}, REDUCED)
