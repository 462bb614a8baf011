"""The canonical writer and the rational renderer against the stdlib forms they replace.

``cli._canonical`` must write the bytes of json.dumps(v, sort_keys=True,
indent=2) for every value of the grammar the engine emits and refuse any
other value; ``ring._render`` must write str(Fraction(c, den)).
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qlefschetz.cli import _canonical, main
from qlefschetz.ring import _render

# Every code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=40,
)


def canonical(value) -> str:
    out: list = []
    _canonical(value, "", out)
    return "".join(out)


@given(VALUES)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]})
@example({'q"u\\o\nte\t\x00\x1f\x7f': 'é"\\ \ud800😀', "": ""})
@example([0, -1, 1, -(10**40), True, False, None])
@example((("q", 0, 0), ("q", 1, 0)))
def test_canonical_writes_the_bytes_of_json_dumps(value):
    assert canonical(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), {"a": [0.0]}, [{"b": Fraction(1, 2)}], {1: "a"}, {None: 1}, {"s": {1, 2}}],
)
def test_canonical_refuses_a_value_outside_the_grammar(value):
    with pytest.raises(TypeError):
        canonical(value)


@given(st.integers(-(2**400), 2**400), st.integers(1, 2**400), st.integers(-9, 9), st.integers(0, 3))
@example(0, 7, 0, 0)
@example(-6, 4, -1, 2)
@example(12, 4, 3, 0)
def test_render_writes_str_of_the_fraction(c, den, lam_exp, log_exp):
    key = str(lam_exp) if log_exp == 0 else f"{lam_exp}|{log_exp}"
    assert _render([((0, lam_exp, log_exp), c)], den) == {key: str(Fraction(c, den))}


def _written(path) -> str:
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    return text


def test_error_payloads_are_written_as_json_writes_them(tmp_path):
    out = tmp_path / "out.json"
    missing = tmp_path / "cönfig_€_😀.json"
    assert main(["compute", "--config", str(missing), "--output", str(out)]) == 2
    error = json.loads(_written(out))["error"]
    assert error["type"] == "ConfigError" and str(missing) in error["message"]

    broken = tmp_path / "kaputt_ü.json"
    broken.write_text('{"ambient_dim": 5,', encoding="utf-8")
    assert main(["compute", "--config", str(broken), "--output", str(out)]) == 2
    assert json.loads(_written(out))["error"]["type"] == "ConfigError"

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"ambient_dim": 5, "tâsks\n\"": []}), encoding="utf-8")
    assert main(["compute", "--config", str(unknown), "--output", str(out)]) == 2
    assert "tâsks" in json.loads(_written(out))["error"]["message"]
