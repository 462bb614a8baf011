"""The eager frame elimination, kept as a test oracle.

``eager_eliminate`` is ``mirror._eliminate`` as it was before the deferred
slices and the whole sweeps: a sweep visits the slots of ``violations`` in
order, reads each one from the slice as the earlier corrections of the
sweep left it, and subtracts each correction beta * z^ze * q^d * frame[p]
at once from every slice it reaches (``subtract_scaled``), so a high slice
is rebuilt once per correction that reaches it, each time as the old class
times 1 plus the new products.  The engine's elimination must return the
same normalized series, class by class with its flags, and the same
corrections.  It multiplies and adds with the classes' own ``*`` and ``+``,
not with the queued sums of products that the engine's elimination uses.
"""

from qlefschetz.errors import EngineError
from qlefschetz.ring import CohElement, LambdaScalar
from qlefschetz.series import ZSeries, _by_z

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
    """work -= beta * z^z_shift * q^d_shift * frame_el, in place, on rows keyed by weight.

    The lam^a part of beta moves a class a + z_shift weights up.
    """
    parts: dict[int, dict] = {}
    for (a, b), c in beta._terms():
        parts.setdefault(a, {})[(a, b)] = -c
    for a, terms in parts.items():
        part = LambdaScalar(beta.desc, terms, beta.truncated)
        for d, row in frame_el.slices.items():
            if d + d_shift <= max_degree:
                tgt = work.setdefault(d + d_shift, {})
                for w, el in row.items():
                    key, prod = w + a + z_shift, el * part
                    tgt[key] = tgt[key] + prod if key in tgt else prod


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
