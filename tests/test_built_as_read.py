"""The factorization builds only what it reads, and reads the same as before.

Four replacements, each against the code it replaced:

- ``mirror._eliminate`` builds frame[p] = (z D_P)^p f the first time a
  correction at P^p reads it.  ``test_deferred_elimination.py`` compares it
  with ``mirror_oracles.eager_eliminate`` given the whole frame
  (``frame_series``) on its grid; here the number of z*D_P calls is pinned.
- A sweep reads only the z >= 0 classes of its slice (``_by_z(row, low=0)``);
  ``test_deferred_elimination.py`` pins the reads.
- ``mirror._extract_chart`` multiplies by exp(-tau P/z) and then by
  exp(-tau0/z), not by the expanded exp(-(tau0 + tau P)/z).  Every slot the
  chart leaves unflagged must hold the value of that single product, taken
  exactly by the reference model on the values the chart was built from,
  and must read the same at a floor and a log cap three steps further out.
- ``ZSeries.to_json_dict`` and ``SMatrix.to_json_dict`` render each term from
  the weight rows (``series.z_json``).  A series renders the terms of the
  reference model's copy of its exact input, each (degree, z) class as the
  z-reader reads it; an S-matrix renders what the
  renderer that built one value per z-exponent first rendered
  (``gw_oracles.entry_to_json_dict``).
"""

from itertools import product

from hypothesis import given, settings

from qlefschetz import BundleSpec, CohElement, LambdaScalar, RingDescriptor, ZSeries
from qlefschetz import cone_transform, i_function, j_reduced
from qlefschetz import gw, mirror, s_matrix
from qlefschetz.series import REDUCED

import model
from against_model import inputs, read, z_series, zseries
from gw_oracles import entry_to_json_dict
from model import Model
from test_chart_flags import RAISE, changed_unflagged, z_reads
from test_s_matrix_half import one_over_z


def twisted(n, degrees, D, floor, log_cap=8):
    desc = RingDescriptor(n=n, lambda_floor=floor, log_cap=log_cap)
    return i_function(j_reduced(n, D, desc=desc), BundleSpec(degrees))


def derivatives_made(monkeypatch, I) -> tuple[int, int]:
    """(z*D_P calls made by the elimination of I, the largest p with a nonzero correction)."""
    calls = []
    made = mirror.directional_derivative
    monkeypatch.setattr(mirror, "directional_derivative", lambda f: calls.append(1) or made(f))
    _, corrections = mirror._eliminate(I)
    monkeypatch.undo()
    corrected = [p for p, by_z in enumerate(corrections) for cell in by_z.values()
                 for c in cell.values() if not c.is_zero()]
    return len(calls), max(corrected)


def test_the_frame_is_built_as_far_as_the_corrections_read(monkeypatch):
    # The equivariant quintic is corrected at P^0 only; O(3) + O(2) on P^3
    # needs corrections through P^3, so it builds the whole frame.
    assert derivatives_made(monkeypatch, twisted(5, (5,), 3, 2)) == (0, 0)
    assert derivatives_made(monkeypatch, twisted(4, (3, 2), 3, 2)) == (3, 3)


def chart_of(monkeypatch, n, degrees, D, floor, cone, raised=0):
    """The chart ``_extract_chart`` builds from the eliminated series; tau0, tau and that series.

    The chart is one z-series product, or two when tau0 is not an exact zero.
    """
    I = twisted(n, degrees, D, floor + raised, 8 + raised)
    if cone:
        I = cone_transform(I, BundleSpec(degrees))
    normalized, _ = mirror._eliminate(I)
    charts, products = [], []
    compose, mul = ZSeries.compose_novikov, ZSeries.__mul__
    monkeypatch.setattr(ZSeries, "compose_novikov", lambda s, u: charts.append(s) or compose(s, u))
    monkeypatch.setattr(ZSeries, "__mul__", lambda s, o: products.append(1) or mul(s, o))
    tau0, tau, *_ = mirror._extract_chart(normalized)
    monkeypatch.undo()
    assert len(products) == 1 + (tau0.truncated or not tau0.is_zero())
    return charts[-1], tau0, tau, normalized


def single_product(tau0, tau, series) -> dict:
    """exp(-(tau0 + tau P)/z) * series, exact, on the values of its factors."""
    argument = {(d, -1, p, a, b): -c for p, x in enumerate((tau0, tau))
                for (d, a, b), c in read(x)[0].items()}
    exact, D, n = Model(), series.max_degree, series.desc.n
    return exact.z_times(exact.z_exp(argument, D, n), read(series)[0], D, n)


def test_the_two_factor_chart_holds_the_single_product(monkeypatch):
    tau0_kinds = set()
    grid = product((2, 3, 5), ((1,), (2,), (5,), (3, 2)), (1, 2, 3), (1, 3), (False, True))
    for n, degrees, D, floor, cone in grid:
        if sum(degrees) * D > 15 or (cone and n * D > 9):
            continue
        chart, tau0, tau, normalized = chart_of(monkeypatch, n, degrees, D, floor, cone)
        tau0_kinds.add((tau0.is_zero(), tau0.truncated))
        high = chart_of(monkeypatch, n, degrees, D, floor, cone, RAISE)[0]
        reads = z_reads(chart, high)
        # Each unflagged slot holds the single product's value ...
        single = single_product(tau0, tau, normalized)
        for slot in {key[:3] for key in single} | set(reads):
            read_off = reads[slot] if slot in reads else chart.scalar_slot(*slot)
            if not read_off.truncated:
                assert read(read_off)[0] == model.scalar_slot(single, *slot)
        # ... and is exact: it reads the same further out.
        assert changed_unflagged(reads, z_reads(high, chart)) == []
    # tau0 an exact zero (the second product skipped), nonzero, and flagged
    assert {(True, False), (False, False), (False, True)} <= tau0_kinds


@settings(max_examples=60)
@given(inputs(z_series))
def test_the_series_json_renders_each_term_from_the_weight_rows(case):
    desc, D, (exact,) = case
    low = Model(desc.lambda_floor, desc.log_cap)
    f = zseries(desc, D, exact)
    data = f.to_json_dict()
    assert read(f)[0] == low.cut(exact)
    assert data["truncated"] == bool(low.lost)
    # Each rendered (degree, z) class is the one the z-reader reads there.
    for d, row in data["slices"].items():
        for z, el in row.items():
            assert el == f.coefficient(int(d), int(z)).to_json_dict()


def test_the_s_matrix_json_renders_each_term_from_the_cells():
    flagged = 0
    for n in range(2, 7):
        for D in range(5):
            for floor in range(3):
                desc = RingDescriptor(n=n, lambda_floor=floor)
                J = j_reduced(n, D, desc=desc)
                for K in (J, J * one_over_z(desc, D), J * one_over_z(desc, D, 1, -2)):
                    S = s_matrix(K, n, D)[0]
                    flagged += S.truncated
                    assert S.to_json_dict() == entry_to_json_dict(S)
    # The frame of a twisted series has several weight offsets and lam terms.
    I = twisted(4, (3, 2), 2, 1)
    S = gw._matrix_from_frame(gw.frame_series(I, 4))
    assert any(len(cell) > 1 for row in S.cells for cell in row)
    assert S.to_json_dict() == entry_to_json_dict(S)
    assert flagged


def test_a_flagged_zero_tau0_is_still_multiplied_in(monkeypatch):
    # Slice 1 holds P z^-1 and a flagged 1 at z^-2, each class with its own
    # flags (weights 0 and -2), so tau0 = z^-1 P^0 is a flagged zero at q^1.
    # exp(-tau0/z) then flags the slot (q^2, z^-2, P^0), which the product
    # with exp(-tau P/z) alone leaves clean.
    desc = RingDescriptor(n=2, lambda_floor=1)
    flagged_one = CohElement.from_scalar(LambdaScalar(desc, {(0, 0): 1}, truncated=True))
    series = ZSeries._of(desc, 2, {
        0: {0: CohElement.one(desc)},
        1: {-2: flagged_one, 0: CohElement.p_power(desc, 1)},
    }, REDUCED)
    charts = []
    compose = ZSeries.compose_novikov
    monkeypatch.setattr(ZSeries, "compose_novikov", lambda s, u: charts.append(s) or compose(s, u))
    tau0, tau, *_ = mirror._extract_chart(series)
    assert tau0.is_zero() and tau0.truncated
    assert not (mirror._prefactor(tau, 1, desc.n) * series).scalar_slot(2, -2, 0).truncated
    assert charts[-1].scalar_slot(2, -2, 0).truncated
