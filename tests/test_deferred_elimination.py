"""The sweeping elimination gives what the eager one gave, and a stalled one ends cleanly.

``mirror._eliminate`` works in whole sweeps: a sweep sums slice d once,
reads its z >= 0 part by z once, and queues a correction for every nonzero
slot there, its part in slice d included; a higher slice is summed once,
when the loop reaches it, and a frame element is built when a correction
first reads it.  ``mirror_oracles.eager_eliminate``, given the whole frame,
visits the slots one at a time, each read from the slice as the earlier
corrections left it, and subtracts every correction from every slice at
once.  The two must return the same normalized series, class by class with
its flags, and the same corrections, with their flags, on the benchmark's
equivariant chain at smoke size and the equivariant ``mirror`` shapes of
its config mix, on every equivariant ``mirror`` config in ``configs/``, on
the flagged cone transforms of ``test_chart_flags.py``, and on a hypothesis
grid.  A sweep reads the z >= 0 part of its slice by z once and makes no
one-key read.  An elimination that does not stabilize raises
``EngineError``, which ``compute`` reports with exit code 3.
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qlefschetz import (
    BundleSpec,
    RingDescriptor,
    birkhoff,
    cone_transform,
    frame_series,
    i_function,
    j_reduced,
)
from qlefschetz import cli, gw, mirror, ring, twist
from qlefschetz.errors import EngineError

from mirror_oracles import eager_eliminate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def eager(f):
    return eager_eliminate(f, frame_series(f, f.desc.n))


def outcome(eliminate, f):
    """The normalized rows and the corrections, every value with its flag mask, or the error."""
    try:
        normalized, corrections = eliminate(f)
    except EngineError as exc:
        return str(exc)
    rows = {
        d: {w: (el, el._trunc) for w, el in row.items()} for d, row in normalized.slices.items()
    }
    corr = [
        {ze: {d: (c, c._trunc) for d, c in cell.items()} for ze, cell in by_p.items()}
        for by_p in corrections
    ]
    return normalized.max_degree, rows, corr


def corrected(f) -> int:
    """How many corrections the eager elimination makes on f, after checking both routes agree."""
    want = outcome(eager, f)
    assert outcome(mirror._eliminate, f) == want
    return 0 if isinstance(want, str) else sum(len(cell) for by_p in want[2] for cell in by_p.values())


def twisted(n, degrees, D, floor, log_cap=8):
    desc = RingDescriptor(n=n, lambda_floor=floor, log_cap=log_cap)
    return i_function(j_reduced(n, D, desc=desc), BundleSpec(tuple(degrees)))


def test_the_benchmark_chains_at_smoke_size():
    q = SimpleNamespace(gw=gw, mirror=mirror, ring=ring, twist=twist)
    inputs = workloads.EquivariantBirkhoff("smoke").setup(q, 0, None)
    J = j_reduced(inputs["n"], inputs["D"], desc=inputs["desc"])
    assert corrected(i_function(J, inputs["bundle"])) > 0
    shapes = [
        s for s in workloads.config_catalog()
        if s["mode"] != "nonequivariant" and "mirror" in s["tasks"]
        and s["ambient_dim"] * s["max_degree"] <= 12
    ]
    assert len(shapes) >= 5
    made = [
        corrected(twisted(s["ambient_dim"], s["degrees"], s["max_degree"], s["lambda_floor"]))
        for s in shapes
    ]
    assert any(made)


def test_every_equivariant_mirror_config():
    checked = 0
    for name in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
            config = cli.load_config(json.load(fh))
        if config["mode"] == "nonequivariant" or "mirror" not in config["tasks"]:
            continue
        n, D = config["ambient_dim"], config["max_degree"]
        corrected(twisted(n, config["degrees"], D, config["lambda_floor"]))
        checked += 1
    assert checked >= 1


@pytest.mark.parametrize("n, l", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_the_flagged_cone_transforms(n, l):
    # The grid of test_chart_flags.tangency, at both of its precisions.
    flagged = 0
    for D in (1, 2, 3):
        for floor in (2, 3, 4, 5):
            for raised in (0, 3):
                I = twisted(n, (l,), D, floor + raised, 8 + raised)
                f = cone_transform(I, BundleSpec((l,)))
                flagged += f.truncated
                corrected(f)
    assert flagged


@settings(max_examples=60)
@given(
    n=st.integers(2, 5),
    degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    D=st.integers(0, 4),
    floor=st.integers(0, 4),
    cone=st.booleans(),
)
def test_the_eager_route_on_a_grid(n, degrees, D, floor, cone):
    f = twisted(n, degrees, D, floor + cone)  # the cone transform needs a floor >= 1
    corrected(cone_transform(f, BundleSpec(tuple(degrees))) if cone else f)


def test_a_sweep_reads_its_slice_by_z_once(monkeypatch):
    # Slice 0 of a birkhoff input is 1, so each correction clears its own slot
    # and a degree with corrections needs one sweep more to see it clean.
    reads = []
    by_z = mirror._by_z
    monkeypatch.setattr(mirror, "_by_z", lambda row, **kw: reads.append(kw) or by_z(row, **kw))
    I = twisted(5, (5,), 3, 2)
    _, corrections = mirror._eliminate(I)
    degrees = {d for by_p in corrections for cell in by_p.values() for d in cell}
    assert degrees == {1, 2, 3}
    assert len(reads) == I.max_degree + 1 + len(degrees) == 7
    assert reads == [{"low": 0}] * 7  # every read is the z >= 0 part of a row: no one-key read


def test_a_stalled_elimination_raises_and_compute_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(mirror, "_MAX_SWEEPS", 1)
    bundle = BundleSpec((5,))
    with pytest.raises(EngineError, match="elimination did not stabilize at Novikov degree 1"):
        birkhoff(twisted(5, (5,), 2, 2), bundle=bundle)
    config, output = tmp_path / "quintic.json", tmp_path / "out.json"
    config.write_text(json.dumps({
        "ambient_dim": 5, "degrees": [5], "max_degree": 2, "lambda_floor": 2,
        "mode": "equivariant", "tasks": ["mirror"],
    }))
    assert cli.main(["compute", "--config", str(config), "--output", str(output)]) == 3
    assert json.loads(output.read_text()) == {"error": {
        "type": "EngineError", "message": "elimination did not stabilize at Novikov degree 1",
    }}
    assert capsys.readouterr() == ("", "")
