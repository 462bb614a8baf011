"""The engine's values next to the reference model of ``model.py``, and ROADMAP aim 3's rule.

Tests draw exact values (``inputs``), with terms on both sides of the
Laurent floor and of the log cap.  The engine gets their copies at its
precision, as its constructors make them (``scalar``, ``cls``, ``qseries``,
``zseries``): out-of-range terms dropped and their slots flagged.  ``read``
turns an engine value back into model terms, through its JSON renderer and
its one-slot readers.

``sound`` states aim 3's rule once: the model runs the operation exactly and
at the engine's floor and log cap, and

- every slot that the engine leaves unflagged equals the model's exact value;
- when the model drops no term at the engine's floor, the engine's result is
  unflagged and equal to it.

A slot is the one slot of a scalar, a P-slot of a class, a degree of a
q-series, or a (degree, z, P) of a z-series.  ``linear_sound`` is the rule
for an operation that forms no product (a sum, a negation, a rational
scale): the result equals the model's at the floor, and its flagged slots
are the ones that lost an input term.  ``product_flags`` says which slots
the engine flags in the product of two classes or two q-series.
"""

from fractions import Fraction

from hypothesis import strategies as st

from qlefschetz import REDUCED, CohElement, LambdaScalar, QSeries, RingDescriptor, ZSeries

import model
from model import Model

VALUES = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


# -- exact values -------------------------------------------------------------------------


def terms(desc, dirty, *slots, max_size=4):
    """Exact values keyed (*slots, a, b); dirty ones reach two steps below the floor and past the cap."""
    lam = st.integers(-desc.lambda_floor - 2 * dirty, 2)
    log = st.integers(0, desc.log_cap + dirty)
    return st.dictionaries(st.tuples(*slots, lam, log), VALUES, max_size=max_size)


def scalars(desc, D, dirty):
    return terms(desc, dirty, max_size=3)


def classes(desc, D, dirty):
    return terms(desc, dirty, st.integers(0, desc.n - 1))


def q_series(desc, D, dirty, low=0):
    return terms(desc, dirty, st.integers(low, D)) if low <= D else st.just({})


def tails(desc, D, dirty):
    """q-series without constant term."""
    return q_series(desc, D, dirty, 1)


def z_series(desc, D, dirty):
    return terms(desc, dirty, st.integers(0, D), st.integers(-2, 1), st.integers(0, desc.n - 1),
                 max_size=6)


@st.composite
def inputs(draw, *kinds):
    """(desc, D, values): a ring, a Novikov order, and one exact value of each kind.

    Half the cases keep every term in range; the others reach out of it.
    """
    desc = RingDescriptor(draw(st.integers(2, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 1)))
    D, dirty = draw(st.integers(0, 3)), draw(st.booleans())
    return desc, D, [draw(kind(desc, D, dirty)) for kind in kinds]


# -- the engine's copies ------------------------------------------------------------------


def scalar(desc, v):
    return LambdaScalar(desc, v)


def cls(desc, v):
    return CohElement(desc, [scalar(desc, model.part(v, (p,))) for p in range(desc.n)])


def qseries(desc, D, v):
    return QSeries(desc, D, {d: scalar(desc, model.part(v, (d,))) for d in {key[0] for key in v}})


def zseries(desc, D, v, convention=REDUCED):
    rows: dict = {}
    for d, z in {key[:2] for key in v}:
        rows.setdefault(d, {})[z] = cls(desc, model.part(v, (d, z)))
    return ZSeries(desc, D, rows, convention)


def lam_terms(data: dict) -> dict:
    """A scalar's JSON ('a' or 'a|b' to a rational) as model terms."""
    out = {}
    for key, c in data.items():
        a, _, b = key.partition("|")
        out[(int(a), int(b or 0))] = Fraction(c)
    return out


def nested(data: dict, depth: int) -> dict:
    """JSON nested `depth` levels above the scalars as model terms keyed by those levels."""
    if not depth:
        return lam_terms(data)
    return {(int(k),) + key: c for k, inner in data.items() for key, c in nested(inner, depth - 1).items()}


def read(value):
    """The engine's value as model terms, and its flag at a slot."""
    if isinstance(value, LambdaScalar):
        return lam_terms(value.to_json_dict()), lambda slot: value.truncated
    if isinstance(value, CohElement):
        return nested(value.to_json_dict(), 1), lambda slot: value.component(*slot).truncated
    if isinstance(value, QSeries):
        return nested(value.to_json_dict(), 1), lambda slot: value.coefficient(*slot).truncated
    return nested(value.to_json_dict()["slices"], 3), lambda slot: value.scalar_slot(*slot).truncated


def slots(value) -> list[tuple]:
    """Every slot of a scalar, a class or a q-series."""
    if isinstance(value, LambdaScalar):
        return [()]
    if isinstance(value, CohElement):
        return [(p,) for p in range(value.desc.n)]
    return [(d,) for d in range(value.max_degree + 1)]


# -- the rule -----------------------------------------------------------------------------


def sound(got, op, *values, desc) -> None:
    """Aim 3's rule for got, the engine's result of op(model, *values) on exact values."""
    terms_of, flagged = read(got)
    exact = op(Model(), *values)
    low = Model(desc.lambda_floor, desc.log_cap)
    at_floor = op(low, *map(low.cut, values))
    for slot in {key[:-2] for key in (*terms_of, *exact)}:
        if not flagged(slot):
            assert model.part(terms_of, slot) == model.part(exact, slot), slot
    if not low.lost:
        assert terms_of == exact == at_floor
        assert not got.truncated


def linear_sound(got, op, *values, desc) -> None:
    """The rule for an operation without products: got is op on the engine's copies, flagged where they lost terms.

    A z-series keeps one flag per weight class, which covers every z-entry
    of the class, so there only the lost slots are asserted flagged.
    """
    terms_of, flagged = read(got)
    low = Model(desc.lambda_floor, desc.log_cap)
    assert terms_of == op(low, *map(low.cut, values))
    assert all(flagged(slot) for slot in low.lost), low.lost
    if isinstance(got, ZSeries):
        assert got.truncated == bool(low.lost)
    else:
        assert {slot for slot in slots(got) if flagged(slot)} == low.lost


def product_flags(x: dict, y: dict, desc, span: int) -> set:
    """The slots flagged in the engine's product of two classes or q-series, exact x and y.

    The flag rule of ``_Terms._spread`` in model terms: slot i + j is flagged
    where slot i of one factor and slot j of the other each hold a term or
    lost one, and one of the two lost a term, so an exact zero slot (and an
    exact zero factor) reaches nothing; and a slot is flagged where a product
    term leaves the range.
    """
    parts = []
    for value in (x, y):
        low = Model(desc.lambda_floor, desc.log_cap)
        kept = low.cut(value)
        lost = {slot[0] for slot in low.lost}
        parts.append(({key[0] for key in kept} | lost, lost, kept))
    (held_x, lost_x, kept_x), (held_y, lost_y, kept_y) = parts
    out = {i + j for i in held_x for j in held_y if i in lost_x or j in lost_y}
    low = Model(desc.lambda_floor, desc.log_cap)
    low.times(kept_x, kept_y, (span,))
    return {i for i in out | {slot[0] for slot in low.lost} if i < span}
