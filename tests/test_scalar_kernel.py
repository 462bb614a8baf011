"""Property tests of the fraction-free scalar kernel.

``LambdaScalar`` keeps integer numerators over one common denominator.
Keys are drawn on both sides of the Laurent floor and of the log cap, and
inputs may arrive already truncated.  Results are in lowest terms, equal
values are equal and hash equal, and the JSON form round-trips.  The
arithmetic, the rational scale and the products of a class hold random
exact values to the reference model ``tests/model.py`` (``against_model``),
with the inputs that pinned its rules as examples.
The one term loop runs the factor with fewer terms outside, so every
product is also taken with its factors swapped, in sums of several pairs
over different denominators, and no value changes after its constructor,
since the loop keeps each value's sorted terms on it.
"""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import qlefschetz
from qlefschetz import CohElement, LambdaScalar, QSeries, RingDescriptor

import model
from against_model import RATIONALS as FRACTIONS, classes, cls, inputs, linear_sound, product_flags
from against_model import scalar, scalars, sound
from model import Model

DESC = RingDescriptor(n=3, lambda_floor=2, log_cap=1)

KEYS = st.tuples(st.integers(-4, 3), st.integers(0, 2))
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
RATIONALS = st.one_of(st.integers(-5, 5), VALUES)


@st.composite
def pairs(draw):
    """A scalar and the drawn term map it was built from."""
    terms = draw(st.dictionaries(KEYS, VALUES, max_size=4))
    return LambdaScalar(DESC, terms, draw(st.booleans())), terms


def assert_canonical(s):
    nums, den = s._nums, s._den
    assert den > 0
    assert all(nums.values())
    assert gcd(den, *nums.values()) == 1
    # A scalar is stored as the P^0 slot of a class.
    assert all(p == 0 for p, _, _ in nums)
    assert all(a >= -DESC.lambda_floor and 0 <= b <= DESC.log_cap for _, a, b in nums)


# Unflagged factors whose product drops a term below the floor or past the
# log cap: through the monomial path, and through the general product.
PRODUCTS = [
    ({(-1, 0): 1}, {(-2, 0): 2}),
    ({(-1, 0): 1, (0, 0): 1}, {(-2, 0): 1}),
    ({(0, 1): 1, (1, 0): 1}, {(0, 1): 3}),
    ({(0, 0): 2, (-4, 1): 1}, {(1, 0): Fraction(1, 3), (0, 2): 1}),  # inputs that lose terms
]


@given(inputs(scalars, scalars))
@example((DESC, 0, list(PRODUCTS[0])))
@example((DESC, 0, list(PRODUCTS[1])))
@example((DESC, 0, list(PRODUCTS[2])))
@example((DESC, 0, list(PRODUCTS[3])))
def test_arithmetic_matches_the_model(case):
    desc, _, (x, y) = case
    a, b = scalar(desc, x), scalar(desc, y)
    linear_sound(a + b, lambda m, u, v: model.plus(u, v), x, y, desc=desc)
    linear_sound(a - b, lambda m, u, v: model.plus(u, model.scaled(v, -1)), x, y, desc=desc)
    linear_sound(-a, lambda m, u: model.scaled(u, -1), x, desc=desc)
    sound(a * b, lambda m, u, v: m.times(u, v, ()), x, y, desc=desc)


@given(inputs(scalars), st.one_of(st.integers(-5, 5), FRACTIONS))
@example((DESC, 0, [PRODUCTS[3][0]]), 0)
def test_scale_matches_the_model(case, value):
    desc, _, (x,) = case
    a = scalar(desc, x)
    for got in (a.scale(value), a * value, value * a):
        linear_sound(got, lambda m, u: model.scaled(u, value), x, desc=desc)


@given(pairs(), pairs(), RATIONALS)
def test_results_are_in_canonical_form(x, y, value):
    (a, _), (b, _) = x, y
    for s in (a, b, a + b, a - b, -a, a * b, a.scale(value)):
        assert_canonical(s)


@given(pairs(), pairs(), pairs())
def test_equal_values_are_equal_and_hash_equal(x, y, w):
    (a, ta), (b, tb), (c, tc) = x, y, w
    built = a * b + c
    low = Model(DESC.lambda_floor, DESC.log_cap)
    routes = [
        built,
        c + b * a,
        LambdaScalar(DESC, model.plus(low.times(low.cut(ta), low.cut(tb), ()), low.cut(tc))),
        LambdaScalar.from_json_dict(DESC, built.to_json_dict()),
    ]
    for other in routes:
        assert other == built
        assert hash(other) == hash(built)
    assert (a - a).is_zero() and a - a == LambdaScalar.zero(DESC)
    assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == a


@given(pairs(), pairs())
def test_json_round_trip_is_bit_exact(x, y):
    (a, _), (b, _) = x, y
    s = a * b - a
    data = s.to_json_dict()
    back = LambdaScalar.from_json_dict(DESC, data)
    assert back == s
    assert back.to_json_dict() == data
    for key, value in data.items():
        lam, _, log = key.partition("|")
        assert s.coefficient(int(lam), int(log or 0)) == Fraction(value)


# The old product skipped zero components, so the flag of a zero but
# truncated factor was lost; slot i of it must reach slot i + j for every
# slot j of the other factor that holds a term or a flag.
LOST_P1 = {(0, 0, 0): 1, (1, -4, 0): 1, (2, 1, 1): 2}
# Slot 1 gets -lam^-3 + lam^-3: each pair drops a term below the floor, so
# the slot is truncated although the sum of the dropped terms cancels.
CANCEL = [{(0, -2, 0): 1, (1, -2, 0): 1}, {(0, -1, 0): 1, (1, -1, 0): -1}]


@given(inputs(classes, classes))
@example((DESC, 0, [LOST_P1, {(0, -1, 0): 3, (1, 0, 0): 1}]))
@example((DESC, 0, [LOST_P1, {}]))
@example((DESC, 0, [{(0, -1, 0): 1, (1, -2, 1): 1}, {(0, -1, 0): 1, (1, 0, 1): 5}]))
@example((DESC, 0, CANCEL))
# A truncated nonzero component flags the slots of its products.
@example((DESC, 0, [{(0, 0, 0): 1, (0, -3, 0): 1}, {(0, 0, 0): 1}]))
# A zero but flagged P^1 slot reaches P^1 and P^2 through the other factor's two slots.
@example((RingDescriptor(3, 1, 1), 2, [{(1, -2, 0): 1}, {(0, 2, 0): 1, (1, 2, 0): 1}]))
def test_coh_product_matches_the_model(case):
    desc, _, (x, y) = case
    got = cls(desc, x) * cls(desc, y)
    sound(got, lambda m, u, v: m.times(u, v, (desc.n,)), x, y, desc=desc)
    flagged = {p for p in range(desc.n) if got.component(p).truncated}
    assert flagged == product_flags(x, y, desc, desc.n)


@given(pairs())
def test_a_scalar_is_the_p0_slot_of_a_class(x):
    s, _ = x
    c = CohElement.from_scalar(s)
    assert c.component(0) == s and c.component(0).truncated == s.truncated
    assert c.truncated == s.truncated
    assert all(c.component(p).is_zero() for p in range(1, DESC.n))


@given(pairs(), pairs(), pairs())
def test_a_scalar_on_the_left_of_a_class_or_a_q_series(x, y, w):
    (s, _), (t, _), (u, _) = x, y, w
    c = CohElement(DESC, [t, u, s])
    assert s * c == c * s
    assert [p.truncated for p in (s * c).components] == [p.truncated for p in (c * s).components]
    q = QSeries(DESC, 2, {0: t, 2: u})
    assert s * q == q * s
    assert (s * q).truncated == (q * s).truncated
    with pytest.raises(TypeError):
        s * 1.5


def test_scalars_and_classes_do_not_mix():
    s, c = LambdaScalar.one(DESC), CohElement.one(DESC)
    # The same stored terms, but a scalar is not a class.
    assert s._nums == c._nums
    assert not s == c and not c == s
    assert s != c and c != s
    with pytest.raises(TypeError):
        s + c
    with pytest.raises(TypeError):
        c + s
    with pytest.raises(TypeError):
        c - s
    with pytest.raises(TypeError):
        s - c


# -- the order of the factors ---------------------------------------------------------


def both_ways(pairs, swap=True):
    """The sum of the x*y over pairs through ``_dot``, which must not depend on the factor order.

    With ``swap`` the sum with every pair reversed must agree, flags included,
    and so must each x*y with y*x.  The pairs' denominators differ, so the
    factor each pair is scaled by is not always 1.
    """
    got = pairs[0][0]._dot(pairs)
    if swap:
        back = pairs[0][1]._dot([(y, x) for x, y in pairs])
        assert got == back and got._trunc == back._trunc
    for x, y in pairs:
        xy, yx = x * y, y * x
        assert xy == yx and xy._trunc == yx._trunc
    return got


def products(span):
    """The model of the sum x*y + u*v over slots of the given span."""
    return lambda m, x, y, u, v: model.plus(m.times(x, y, span), m.times(u, v, span))


# A flagged zero (lam^-3 is below the floor), and a product that drops lam^-4.
FLAGGED = [{(-3, 0): 1}, {(0, 0): Fraction(1, 3), (1, 1): 2}, {(-2, 0): 5}, {(-2, 0): Fraction(1, 2)}]


@given(inputs(scalars, scalars, scalars, scalars))
@example((DESC, 0, FLAGGED))
def test_scalar_products_do_not_depend_on_the_order_of_their_factors(case):
    desc, _, values = case
    x, y, u, v = (scalar(desc, t) for t in values)
    sound(both_ways([(x, y), (u, v)]), products(()), *values, desc=desc)


@given(inputs(classes, classes, classes, classes, scalars, scalars))
@example((DESC, 0, [LOST_P1, {(0, 0, 0): 2, (1, -1, 1): 1, (2, 0, 0): 3}, {(0, -2, 0): 1},
                    {(1, 0, 0): Fraction(1, 5)}, *FLAGGED[:2]]))
def test_class_products_do_not_depend_on_the_order_of_their_factors(case):
    desc, _, values = case
    x, y, u, v = (cls(desc, t) for t in values[:4])
    s, t = (scalar(desc, t) for t in values[4:])
    sound(both_ways([(x, y), (u, v)]), products((desc.n,)), *values[:4], desc=desc)
    # A class times a scalar: the class comes first in a sum, on either side in a product.
    sound(both_ways([(x, s), (u, t)], swap=False),
          lambda m, a, b, c, d: products((desc.n,))(m, a, model.at(b, 0), c, model.at(d, 0)),
          values[0], values[4], values[2], values[5], desc=desc)


class Counted(int):
    """An integer that counts the products it is the left factor of."""

    calls = 0

    def __mul__(self, other):
        Counted.calls += 1
        return int(self) * other


def test_the_shorter_factor_alone_runs_outside_and_is_scaled():
    # One term over 3 and three terms over 5, summed over 30: the pair's factor is 2.
    x = CohElement._make(DESC, {(0, 0, 0): Counted(1)}, 3, 0)
    y = CohElement._make(DESC, {(p, 0, 0): Counted(p + 1) for p in (2, 0, 1)}, 5, 0)
    for pairs in ([(x, y)], [(y, x)]):
        Counted.calls = 0
        nums, dropped = x._times(pairs, 30)
        # One multiplication by the factor, of the one term; the products read plain integers.
        assert Counted.calls == 1
        assert (nums, dropped) == ({(p, 0, 0): 2 * (p + 1) for p in range(3)}, 0)


# -- a value never changes after its constructor --------------------------------------


def storage_writes(tree) -> list[tuple[str, int]]:
    """(innermost function, line) of every write to a value's numerators or denominator.

    A write is an assignment or deletion of ``._nums`` or ``._den``, an item
    assignment or deletion in ``._nums``, or a call of a dict method that
    changes ``._nums`` in place.
    """
    changing = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            target = None
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, (ast.Store, ast.Del)):
                target = child.attr
            elif isinstance(child, ast.Subscript) and isinstance(child.ctx, (ast.Store, ast.Del)):
                target = getattr(child.value, "attr", None) == "_nums" and "_nums"
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                inner = child.func.value
                if child.func.attr in changing and getattr(inner, "attr", None) == "_nums":
                    target = "_nums"
            if target in ("_nums", "_den"):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, None)
    return found


def test_no_value_changes_after_its_constructor():
    package = Path(qlefschetz.__file__).parent
    writes = [(path.name, *write) for path in sorted(package.glob("*.py"))
              for write in storage_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert writes
    assert [w for w in writes if w[1] not in ("__init__", "_make")] == []


def test_the_storage_check_sees_each_kind_of_write():
    source = """
def f(x, y):
    x._nums = {}
    x._den += 1
    x._nums[1] = 2
    del x._nums[1]
    x._nums.update(y)
    x._nums.setdefault(1, 2)
    y = x._nums.get(1)
"""
    assert [line for _, line in storage_writes(ast.parse(source))] == [3, 4, 5, 6, 7, 8]
